"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before anything imports numpy: it pins every BLAS
to one thread and puts the checkout's own ``src`` first on ``sys.path``,
so the benchmark measures the source tree it sits in and never an
installed copy.
"""

from __future__ import annotations

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


class MissingSource(RuntimeError):
    """The checkout holds no spangraph source tree next to the benchmark."""


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "spangraph", "__init__.py")):
        raise MissingSource(f"no spangraph package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import spangraph

    if not os.path.abspath(spangraph.__file__).startswith(SRC + os.sep):
        raise MissingSource(f"spangraph imported from {spangraph.__file__}, not {SRC}")
