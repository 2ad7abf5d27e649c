import os

import pytest

from spangraph.fileio import atomic_write


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old"
    assert sorted(os.listdir(tmp_path)) == ["z.txt"]
