from functools import reduce

import pytest
from hypothesis import HealthCheck, settings, strategies as st

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

from fwburnside import Subgroup, construct_group, cyclic_group, subgroup_lattice

# the groups the benchmark's survey adds to the catalog
SURVEY_EXTRAS = (
    "C2xC2xC2xC2", "C2xC2xC4", "C4xC8", "C3xC3xC3", "C2xD8", "C2xQ8",
    "S3xS3", "SL(2,3)xC2", "Dic48", "Dic60", "C2xS4",
)


def generated(G, gens):
    """The subgroup of G generated by gens, joined one element at a time."""
    return Subgroup(G, reduce(G.join_mask, gens, 1 << G.identity))


def cyclic_subgroup(n, d):
    """The subgroup of order d of the cyclic group of order n, found by its
    order."""
    lat = subgroup_lattice(cyclic_group(n))
    return lat.class_rep(lat.classes_of_order(d)[0])


def cycle_notation(perm):
    """1-based cycles of a permutation tuple, fixed points included."""
    seen, out = set(), ""
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        out += "(" + ",".join(cycle) + ")"
    return out


# a permutation of points 1..4 times one of points 5..6, so that the groups
# generated are subdirect products in S4 x S2 and often have order <= 16
small_perm = st.tuples(st.permutations(range(4)), st.permutations(range(4, 6))).map(
    lambda pq: tuple(pq[0]) + tuple(pq[1])
)


# two permutations of points 1..5: the groups generated include A5 and S5,
# which small_perm never reaches, as every subgroup of S4 x S2 is solvable
two_perms_of_5 = st.tuples(st.permutations(range(5)), st.permutations(range(5)))


def perm_spec(gens):
    """The perm: spec generated by the permutation tuples gens."""
    return "perm:[" + ";".join(cycle_notation(g) for g in gens) + "]"


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
