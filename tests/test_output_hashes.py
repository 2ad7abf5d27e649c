"""tools/output_hashes.py at tiny sizes: a digest repeats, and one ulp changes it."""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import output_hashes  # noqa: E402
import workloads  # noqa: E402


def _nudge(model, name: str) -> None:
    """Move the first entry of parameter ``name`` up by one ulp."""
    data = model.params[name].data
    data[0] = np.nextafter(data[0], np.inf)


@pytest.mark.parametrize("workload", ["decode-short", "decode-long"])
def test_decode_digest(tmp_path, workload):
    model, docs = output_hashes.decode_inputs(workloads, workload, 7, workloads.TINY,
                                              str(tmp_path))
    digest = output_hashes.decode_digest(model, docs)
    assert output_hashes.decode_digest(model, docs) == digest
    _nudge(model, "dec.1.ln3.g")
    assert output_hashes.decode_digest(model, docs) != digest


@pytest.mark.parametrize("dtype", output_hashes.TRAIN_DTYPES)
def test_training_digest(tmp_path, dtype):
    digests = []
    for run in range(3):
        scratch = str(tmp_path / str(run))
        model, examples, cfg = output_hashes.training_inputs(workloads, dtype, workloads.TINY,
                                                             2, scratch)
        if run == 2:
            _nudge(model, "dec.0.ln1.g")
        digests.append(output_hashes.training_digest(model, examples, cfg,
                                                     os.path.join(scratch, "run")))
    assert digests[0] == digests[1] != digests[2]
