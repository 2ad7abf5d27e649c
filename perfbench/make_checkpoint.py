"""Train the fixed checkpoint that the decode workloads load.

    python3 perfbench/make_checkpoint.py

Trains 25 steps at the ``train`` workload's config on the synthetic corpus
drawn with seed 0 (model init seed 0, train seed 0) and writes
``perfbench/decode_ckpt.npz`` with ``Model.save``.  The file is committed, so
decode numbers, symbol counts and the repeated-triple loop stay fixed when
training numerics change.  Rerun it only on purpose: a new checkpoint
changes every decode baseline.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402

CHECKPOINT_SEED = 0
CHECKPOINT_STEPS = 25


def main() -> int:
    bootstrap.prepare()
    from spangraph.train import train_loop

    import workloads

    tmp = tempfile.mkdtemp(dir=bootstrap.BENCH_DIR)
    try:
        train = workloads.synthetic_train(tmp, CHECKPOINT_SEED, n_train=50)
        model = workloads.build_model(train, CHECKPOINT_SEED)
        cfg = workloads.train_config(CHECKPOINT_STEPS, CHECKPOINT_SEED)
        result = train_loop(model, cfg, list(train))
    finally:
        shutil.rmtree(tmp)
    model.save(workloads.CHECKPOINT)
    print(f"wrote {workloads.CHECKPOINT}: {CHECKPOINT_STEPS} steps, "
          f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
