"""Atomic file replacement shared by every writer in the package."""

from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a file that replaces ``path`` only when the block completes.

    On an exception the temporary file is removed and ``path`` keeps its old
    contents.  Text is written as UTF-8 with no newline translation.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        text = {} if binary else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
