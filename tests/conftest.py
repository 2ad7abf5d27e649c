# Pin BLAS to one thread before numpy loads anywhere in the test process:
# multi-threaded kernels reorder reductions and break the bit-identity tests.
import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from spangraph.graph import Schema  # noqa: E402

# HYPOTHESIS_PROFILE=ci (set by the CI workflow) draws the same examples on
# every run and prints a reproduction blob for a failure; local runs keep
# the default profile, which draws fresh examples.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def tiny_schema() -> Schema:
    return Schema(entity_types=("thing",), relation_types=("rel",))


@pytest.fixture
def two_type_schema() -> Schema:
    return Schema(entity_types=("person", "org"), relation_types=("works_for", "founded"))


@pytest.fixture
def conll_like_schema() -> Schema:
    return Schema(
        entity_types=("Peop", "Org", "Loc", "Other"),
        relation_types=("Work_For", "Kill", "OrgBased_In", "Live_In", "Located_In"),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
