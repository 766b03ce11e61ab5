from functools import reduce

import pytest
from hypothesis import HealthCheck, settings

# Exact arithmetic makes per-example timing irrelevant and the group cache
# makes the first example much slower than the rest, so timing checks are off.
settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

from fwburnside import Subgroup, construct_group

# the groups the benchmark's survey adds to the catalog
SURVEY_EXTRAS = (
    "C2xC2xC2xC2", "C2xC2xC4", "C4xC8", "C3xC3xC3", "C2xD8", "C2xQ8",
    "S3xS3", "SL(2,3)xC2", "Dic48", "Dic60", "C2xS4",
)


def generated(G, gens):
    """The subgroup of G generated by gens, joined one element at a time."""
    return Subgroup(G, reduce(G.join_mask, gens, 1 << G.identity))


@pytest.fixture(scope="session")
def s3():
    return construct_group("S3")


@pytest.fixture(scope="session")
def s4():
    return construct_group("S4")


@pytest.fixture(scope="session")
def q8():
    return construct_group("Q8")


@pytest.fixture(scope="session")
def c12():
    return construct_group("C12")
