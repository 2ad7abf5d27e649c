"""SHA-256 digests of one checkout's outputs, for bit-identity claims.

    python3 tools/output_hashes.py                      # this checkout
    python3 tools/output_hashes.py --checkout ../parent

Prints one ``<name> <sha256>`` line per output; two checkouts whose code
computes the same bits print the same lines on one host:

- ``decode-short-seed{7,11}`` and ``decode-long-seed{7,11}``: the
  benchmark's inputs of that workload and seed, decoded with the committed
  ``perfbench/decode_ckpt.npz``.  Each digest covers every input's
  ``generate`` ids and step logits, then ``generate_batch``'s ids and
  ``predict``'s graphs over the whole input set.
- ``train-float32`` and ``train-float64``: 20 ``train_loop`` steps at the
  benchmark's train config (the README config) with dropout 0.1 and
  ``clip_norm`` 1.0, on its 400-sentence corpus at seed 0.  Each digest
  covers the losses, the final parameters in dict order and
  ``metrics.jsonl``.

Inputs come from the checkout's own ``perfbench/workloads.py``, and, as in
the benchmark, ``perfbench/bootstrap.py`` pins BLAS to one thread and
imports spangraph from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

DECODE = (("decode-short", 7), ("decode-short", 11), ("decode-long", 7), ("decode-long", 11))
TRAIN_DTYPES = ("float32", "float64")
TRAIN_SEED = 0
TRAIN_STEPS = 20

# numpy and spangraph are imported inside the functions: ``main`` must pin
# BLAS to one thread before numpy loads.


def _update(h, array) -> None:
    """Feed an array's dtype, shape and bytes, so equal bytes of other shapes differ."""
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())


def decode_digest(model, docs) -> str:
    import numpy as np
    from spangraph import decode

    h = hashlib.sha256()
    for doc in docs:
        res = decode.generate(model, doc)
        _update(h, np.asarray(res.ids, dtype=np.int64))
        for row in res.step_logits:
            _update(h, row)
    for res in decode.generate_batch(model, docs):
        _update(h, np.asarray(res.ids, dtype=np.int64))
    for graph in decode.predict(model, docs):
        h.update(repr(graph).encode() + b"\n")
    return h.hexdigest()


def decode_inputs(workloads, name: str, seed: int, sizes, scratch: str):
    """The committed checkpoint and the inputs of one decode workload and seed."""
    wl = workloads.DecodeWorkload(name, seed, sizes, scratch)
    wl.setup(scratch)
    return wl.model, wl.docs


def training_inputs(workloads, dtype: str, sizes, steps: int, scratch: str):
    """A fresh model, the train examples and the train config of one training digest."""
    import numpy as np
    from spangraph.model import Model, WordVocab

    train = workloads.synthetic_train(scratch, TRAIN_SEED, sizes.train_sentences)
    config = dataclasses.replace(workloads.model_config(train.max_span_width), dtype=dtype,
                                 dropout=0.1)
    model = Model(config, train.schema, WordVocab.build(train.documents()),
                  rng=np.random.default_rng(TRAIN_SEED))
    cfg = dataclasses.replace(workloads.train_config(steps, TRAIN_SEED), clip_norm=1.0)
    return model, list(train), cfg


def training_digest(model, examples, cfg, out_dir: str) -> str:
    import numpy as np
    from spangraph import train

    result = train.train_loop(model, cfg, examples, out_dir=out_dir)
    h = hashlib.sha256()
    _update(h, np.asarray(result.losses, dtype=np.float64))
    for name, p in model.params.items():
        h.update(name.encode() + b"\0")
        _update(h, p.data)
    with open(result.metrics_path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def output_hashes(workloads, sizes, steps: int = TRAIN_STEPS) -> dict[str, str]:
    out = {}
    for name, seed in DECODE:
        with tempfile.TemporaryDirectory() as scratch:
            out[f"{name}-seed{seed}"] = decode_digest(
                *decode_inputs(workloads, name, seed, sizes, scratch))
    for dtype in TRAIN_DTYPES:
        with tempfile.TemporaryDirectory() as scratch:
            model, examples, cfg = training_inputs(workloads, dtype, sizes, steps, scratch)
            out[f"train-{dtype}"] = training_digest(model, examples, cfg,
                                                    os.path.join(scratch, "run"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout to hash (default: this one)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "perfbench"))
    import bootstrap

    bootstrap.prepare()
    import workloads

    for name, digest in output_hashes(workloads, workloads.FULL).items():
        print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
