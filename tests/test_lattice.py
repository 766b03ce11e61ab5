import contextlib
import hashlib
import io
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    SURVEY_EXTRAS,
    generated,
    perm_spec,
    small_perm,
    two_perms_of_5,
)
from test_burnside import _assert_class_tables_match_oracles
from fwburnside import (
    CapExceededError,
    PreconditionError,
    Subgroup,
    check_gcd_property,
    construct_group,
    cyclic_group,
    idempotent,
    m_constant,
    m_cyclic,
    quotient_group,
    subgroup_embedding,
    subgroup_lattice,
    table_of_marks,
    totient,
)
from fwburnside.burnside import _coeffs_from_marks, _marks_table
from fwburnside.cli import main
from fwburnside.groups import Group, bits, mask_of
from fwburnside.lattice import SubgroupLattice, divisors, m_sum
from fwburnside.oracles import (
    check_subgroup,
    double_cosets,
    marks_by_fixed_points,
    moebius_by_recursion,
)
from fwburnside.survey import full_catalog
from fwburnside.propositions import (
    check_divisor_lemma,
    gcd_by_containment,
    gcd_by_cyclic_containment,
    gcd_by_cyclic_intersections,
    gcd_by_sylow,
    is_generalized_quaternion,
    sylow_subgroup,
)

# the gcd property and its equivalent formulations; gcd_by_sylow needs N normal
GCD_FORMULATIONS = (
    check_gcd_property,
    gcd_by_containment,
    gcd_by_cyclic_containment,
    gcd_by_cyclic_intersections,
)


FROZEN_COUNTS = [
    ("C1", 1, 1),
    ("C6", 4, 4),
    ("C12", 6, 6),
    ("C24", 8, 8),
    ("C2xC2", 5, 5),
    ("C2xC4", 8, 8),
    ("C2xC2xC2", 16, 16),
    ("C3xC3", 6, 6),
    ("S3", 6, 4),
    ("S4", 30, 11),
    ("A4", 10, 5),
    ("A5", 59, 9),
    ("D8", 10, 8),
    ("D10", 8, 4),
    ("D12", 16, 10),
    ("Q8", 6, 6),
    ("Q16", 11, 9),
    ("Dic12", 8, 6),
    ("Dic20", 10, 6),
    ("SL(2,3)", 15, 7),
    ("SL(2,5)", 76, 12),
    ("S5", 156, 19),
    ("C2xC2xC2xC2", 67, 67),
    ("SL(2,7)", 224, 19),
    ("D128", 134, 20),
    ("A6", 501, 22),
    ("D512", 520, 26),
]


@pytest.mark.parametrize("spec, n_subgroups, n_classes", FROZEN_COUNTS)
def test_frozen_subgroup_counts(spec, n_subgroups, n_classes):
    lat = subgroup_lattice(construct_group(spec))
    assert len(lat.subgroups) == n_subgroups
    assert lat.n_classes() == n_classes


def brute_subgroup_masks(G):
    """Every subset closed under the operation, by exhaustive enumeration."""
    out = []
    for mask in range(1, 1 << G.n):
        if not mask & 1:  # must contain the identity (index 0)
            continue
        members = list(bits(mask))
        if all((mask >> G.mul[a][b]) & 1 for a in members for b in members):
            out.append(mask)
    return sorted(out)


@pytest.mark.parametrize(
    "spec", ["C2xC2", "C2xC4", "C2xC2xC2", "C3xC3", "S3", "D8", "Q8", "C12", "D10",
             "D12", "Dic12", "Q16"]
)
def test_lattice_matches_bruteforce(spec):
    G = construct_group(spec)
    assert G.n <= 16 and G.identity == 0
    lat = subgroup_lattice(G)
    assert sorted(H.mask for H in lat.subgroups) == brute_subgroup_masks(G)


@settings(max_examples=30)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_lattice_matches_bruteforce(gens):
    spec = perm_spec(gens)
    try:
        G = construct_group(spec, cap=16)
    except CapExceededError:
        assume(False)
    assert G.identity == 0
    lat = subgroup_lattice(G)
    assert sorted(H.mask for H in lat.subgroups) == brute_subgroup_masks(G)


def test_s4_lattice_is_closure_complete(s4):
    # 2^24 masks is out of reach, so check the defining closure properties:
    # every listed mask is a subgroup, every cyclic subgroup is listed, and
    # the listing is closed under pairwise join.
    lat = subgroup_lattice(s4)
    masks = {H.mask for H in lat.subgroups}
    for H in lat.subgroups:
        check_subgroup(H)
    for a in range(s4.n):
        assert generated(s4, [a]).mask in masks
    for A in lat.subgroups:
        for B in lat.subgroups:
            assert generated(s4, bits(A.mask | B.mask)).mask in masks


@pytest.mark.parametrize("spec", ["C2xC2xC2xC2xC2", "C4xC4xC4", "D128", "C2xS4"])
def test_lattice_is_join_closed(spec):
    # every listed mask is a subgroup, every cyclic subgroup is listed, and
    # <H, g> is listed for every listed H and every element g; with the
    # trivial subgroup listed, every subgroup (a chain of such joins) is
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    masks = set(lat.masks)
    assert 1 << G.identity in masks
    for a in range(G.n):
        assert generated(G, [a]).mask in masks
    for H in lat.subgroups:
        check_subgroup(H)
        for g in range(G.n):
            assert G.join_mask(H.mask, g) in masks


def gaussian_binomial(r, k, p):
    """The number of k-dimensional subspaces of F_p^r."""
    num = den = 1
    for i in range(k):
        num *= p ** (r - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "spec, p, r, total",
    [
        ("C2xC2xC2xC2xC2", 2, 5, 374),
        ("C3xC3xC3", 3, 3, 28),
        ("C2xC2xC2xC2xC2xC2", 2, 6, 2825),
        ("C2xC2xC2xC2xC2xC2xC2", 2, 7, 29212),
    ],
)
def test_elementary_abelian_subgroup_counts(spec, p, r, total):
    # in (C_p)^r the subgroups of order p^k are the k-dimensional subspaces;
    # C2^7 exceeds the default budget, so the lattice is built unbounded and
    # not cached on the group, where the CLI's budget test would find it
    lat = SubgroupLattice(construct_group(spec), None)
    counts = Counter(H.order for H in lat.subgroups)
    assert counts == {p**k: gaussian_binomial(r, k, p) for k in range(r + 1)}
    assert len(lat.subgroups) == lat.n_classes() == total


CONJUGACY_SPECS = ["S4", "A5", "S5", "SL(2,5)", "D128", "C2xS4", "Dic60", "Q16",
                   "C2xC2xC2xC2"]


@pytest.mark.parametrize("spec", CONJUGACY_SPECS)
def test_center_matches_all_pairs_definition(spec):
    G = construct_group(spec)
    mul = G.mul
    brute = mask_of(
        z for z in range(G.n) if all(mul[z][g] == mul[g][z] for g in range(G.n))
    )
    assert G.center().mask == brute


def brute_conjugates(H):
    """{a H a^-1 : a in G} as masks, over all n conjugators."""
    return {H.conjugate_mask(a) for a in range(H.parent.n)}


def brute_normalizer_mask(H):
    """The stabilizer of H under conjugation, over all n conjugators."""
    return mask_of(a for a in range(H.parent.n) if H.conjugate_mask(a) == H.mask)


@pytest.mark.parametrize("spec", CONJUGACY_SPECS)
def test_classes_are_conjugacy_orbits(spec):
    lat = subgroup_lattice(construct_group(spec))
    for c, cls in enumerate(lat.classes):
        assert brute_conjugates(lat.class_rep(c)) == {lat.subgroups[i].mask for i in cls}
        assert all(lat.class_of[i] == c for i in cls)
    assert sorted(i for cls in lat.classes for i in cls) == list(range(len(lat.subgroups)))


@pytest.mark.parametrize("spec", CONJUGACY_SPECS)
def test_class_sizes_match_normalizer_index(spec):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    for H in lat.subgroups:
        assert lat.normalizer(H).mask == brute_normalizer_mask(H)
    for c in range(lat.n_classes()):
        rep = lat.class_rep(c)
        assert len(lat.classes[c]) * lat.normalizer(rep).order == G.n


# Non-solvable groups, whose enumeration takes both the coset build and the
# cut-off join: subgroup and class counts and the md5 of repr((masks,
# classes, normalizer_idx)). S5's A5 has order exactly |S5|/2, the largest a
# proper subgroup above a subgroup of even index can have.
NONSOLVABLE_LATTICES = [
    ("A5", 59, 9, "6eeb33b66d587e6fd120b3cdebec687b"),
    ("S5", 156, 19, "a06c98f1d43776ec6ccbdbc0a07c97ad"),
    ("SL(2,5)", 76, 12, "bd16757e4df0c889ff349c3c63dce6f8"),
    ("SL(2,7)", 224, 19, "b9f1f715c4c5a7f9385655d87b4d5f46"),
    ("A6", 501, 22, "0cae5d0cfbfc6e7a25c1b991c85e0172"),
    ("SL(2,5)xC2", 215, 31, "199455a01e7377600728dcc76fed6860"),
]


@pytest.mark.parametrize("spec, n_subgroups, n_classes, md5", NONSOLVABLE_LATTICES)
def test_nonsolvable_lattices_are_pinned(spec, n_subgroups, n_classes, md5):
    lat = subgroup_lattice(construct_group(spec))
    assert (len(lat.subgroups), lat.n_classes()) == (n_subgroups, n_classes)
    digest = repr((lat.masks, lat.classes, lat.normalizer_idx)).encode()
    assert hashlib.md5(digest).hexdigest() == md5


@settings(max_examples=30)
@given(two_perms_of_5)
def test_random_s5_subgroup_lattice_is_complete(gens):
    # every listed mask is a subgroup, every class is closed under
    # conjugation by G's generators, every normalizer is the stabilizer,
    # and <H, g> is listed for every representative H and element g; as
    # <a H a^-1, g> = a <H, a^-1 g a> a^-1, every join of a listed
    # subgroup is listed, and so is every subgroup
    G = construct_group(perm_spec(gens))
    lat = subgroup_lattice(G)
    masks = set(lat.masks)
    assert 1 << G.identity in masks
    for H in lat.subgroups:
        check_subgroup(H)
    for cls in lat.classes:
        members = {lat.masks[i] for i in cls}
        for i in cls:
            H = lat.subgroups[i]
            assert {H.conjugate_mask(s) for s in G.generators()} <= members
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        assert lat.normalizer(H).mask == brute_normalizer_mask(H)
        for g in range(G.n):
            assert G.join_mask(H.mask, g) in masks


def test_m_sum_of_a_trivial_meet_reads_no_moebius_column():
    # X (L ∩ K) = L with L ∩ K = 1 forces X = L, so the sum is |L|
    G = construct_group("S4")
    lat = SubgroupLattice(G)
    V = next(H for H in lat.subgroups if H.order == 4 and H.is_normal())
    l = next(i for i, H in enumerate(lat.subgroups) if H.order == 6)
    assert lat.masks[l] & V.mask == 1 << G.identity
    assert m_sum(lat, l, V.mask) == 6
    assert l not in lat._mu


@pytest.mark.parametrize("spec", full_catalog())
def test_m_sum_matches_summed_form(spec):
    # the sum of |X| mu(X, L) over X <= L whose product set with L ∩ N is L
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    mul = G.mul
    for l in lat.reps:
        L = lat.subgroups[l]
        for c in lat.normal_class_indices():
            N = lat.class_rep(c)
            meet = [k for k in L.members if k in N]
            expected = 0
            for x, mu in lat.mu_column(l).items():
                X = lat.subgroups[x]
                if len({mul[a][b] for a in X.members for b in meet}) == L.order:
                    expected += X.order * mu
            assert m_sum(lat, l, N.mask) == expected, (spec, l, c)


def test_moebius_diagonal_and_sum():
    for spec in ("S3", "Q8", "A4", "D12"):
        G = construct_group(spec)
        lat = subgroup_lattice(G)
        for h, H in enumerate(lat.subgroups):
            col = lat.mu_column(h)
            assert col.get(h, 0) == 1
            below = [k for k, K in enumerate(lat.subgroups) if K <= H]
            if H.order > 1:
                assert sum(col.get(k, 0) for k in below) == 0


@pytest.mark.parametrize(
    "spec, value",
    [("Q8", 0), ("S4", -12), ("A4", 4), ("S3", 3), ("C12", 0), ("C6", 1)],
)
def test_moebius_bottom_to_top(spec, value):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    top = lat.subgroup_index(G.full_subgroup())
    bottom = lat.subgroup_index(Subgroup(G, 1 << G.identity))
    assert lat.mu_column(top).get(bottom, 0) == value


def test_moebius_requires_containment(q8):
    # mu(K, H) is defined only for K <= H: H's column has no entry for K
    lat = subgroup_lattice(q8)
    A, B = lat.class_rep(2), lat.class_rep(3)  # two distinct order-4 classes
    assert not A <= B
    assert lat.subgroup_index(A) not in lat.mu_column(lat.subgroup_index(B))


def test_m_cyclic_closed_form():
    assert m_cyclic(2, 2) == Fraction(1, 2)
    assert m_cyclic(4, 2) == 1
    assert m_cyclic(6, 2) == Fraction(1, 2)
    assert m_cyclic(12, 2) == 1
    assert m_cyclic(9, 3) == Fraction(1, 3) * Fraction(totient(9), totient(3))


def test_totient_matches_gcd_count():
    # the product formula against the definition: the k <= n prime to n
    for n in range(1, 1025):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n


@given(st.integers(min_value=1, max_value=64))
def test_m_constant_matches_cyclic_formula(t):
    C = cyclic_group(t)
    lat = subgroup_lattice(C)
    for n in divisors(t):
        L = C.full_subgroup()
        K = check_subgroup(Subgroup(C, mask_of(i for i in range(t) if i % (t // n) == 0)))
        assert K.order == n
        assert m_constant(lat, L, K) == m_cyclic(t, n)


def test_m_constant_requires_normality(s4):
    lat = subgroup_lattice(s4)
    L = s4.full_subgroup()
    K = next(H for H in lat.subgroups if H.order == 2)
    assert not K.is_normal()
    with pytest.raises(PreconditionError):
        m_constant(lat, L, K)


def test_m_constant_one_inside_frattini():
    G = construct_group("Q16")
    lat = subgroup_lattice(G)
    Z = G.center()
    phi = lat.frattini()
    assert Z <= phi
    assert m_constant(lat, G.full_subgroup(), Z) == 1


@pytest.mark.parametrize(
    "spec, normal_sub_order, expected",
    [
        ("Q8", 2, True),
        ("S3", 3, True),
        ("S4", 4, False),
        ("A4", 4, True),
        ("C12", 4, True),
        ("SL(2,5)", 2, True),
    ],
)
def test_gcd_property_known_cases(spec, normal_sub_order, expected):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    N = next(
        lat.class_rep(c)
        for c in lat.normal_class_indices()
        if lat.class_order(c) == normal_sub_order
    )
    for formulation in GCD_FORMULATIONS + (gcd_by_sylow,):
        assert formulation(G, N) is expected


def test_check_gcd_property_rejects_a_foreign_subgroup(s4):
    with pytest.raises(PreconditionError, match="subgroup belongs to a different group"):
        check_gcd_property(s4, construct_group("S3").center())


def test_gcd_methods_agree_on_nonnormal(s4):
    lat = subgroup_lattice(s4)
    for c in range(lat.n_classes()):
        N = lat.class_rep(c)
        vals = {formulation(s4, N) for formulation in GCD_FORMULATIONS}
        assert len(vals) == 1


def test_sylow_method_requires_normal(s4):
    lat = subgroup_lattice(s4)
    K = next(H for H in lat.subgroups if H.order == 2)
    with pytest.raises(PreconditionError):
        gcd_by_sylow(s4, K)


@pytest.mark.parametrize(
    "spec, order",
    [("Q8", 2), ("D8", 2), ("S4", 1), ("C12", 2), ("C2xC2", 1), ("Q16", 4), ("SL(2,3)", 2)],
)
def test_frattini_orders(spec, order):
    G = construct_group(spec)
    assert subgroup_lattice(G).frattini().order == order


@pytest.mark.parametrize(
    "spec, order",
    [("Q8", 2), ("Q16", 2), ("Dic12", 2), ("Dic20", 2), ("S3", 1), ("D8", 1),
     ("C12", 12), ("SL(2,5)", 2), ("C2xC2", 1)],
)
def test_max_cyclic_intersection_orders(spec, order):
    G = construct_group(spec)
    assert G.max_cyclic_intersection().order == order


def test_max_cyclic_intersection_is_normal():
    for spec in ("S4", "Q16", "SL(2,3)", "Dic20"):
        G = construct_group(spec)
        assert G.max_cyclic_intersection().is_normal()


def test_double_cosets_partition(s4):
    lat = subgroup_lattice(s4)
    K = next(H for H in lat.subgroups if H.order == 6)
    H = next(H for H in lat.subgroups if H.order == 8)
    reps = double_cosets(s4, K, H)
    seen = set()
    for g in reps:
        coset = {s4.mul[s4.mul[k][g]][h] for k in K.members for h in H.members}
        assert not coset & seen
        seen |= coset
    assert len(seen) == s4.n


@pytest.mark.parametrize(
    "spec, k_order, h_order, count",
    [("S3", 3, 3, 2), ("S3", 2, 2, 2), ("S4", 6, 6, 2)],
)
def test_double_coset_counts(spec, k_order, h_order, count):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    K = next(H for H in lat.subgroups if H.order == k_order)
    H = next(H for H in lat.subgroups if H.order == h_order)
    assert len(double_cosets(G, K, H)) == count


def test_generalized_quaternion_detection():
    for spec, expected in [("Q8", True), ("Q16", True), ("D8", False), ("C8", False)]:
        G = construct_group(spec)
        assert is_generalized_quaternion(G.full_subgroup()) is expected
    sl23 = construct_group("SL(2,3)")
    P = sylow_subgroup(subgroup_lattice(sl23), 2)
    assert P.order == 8
    assert is_generalized_quaternion(P)


def test_sylow_subgroups():
    G = construct_group("S4")
    lat = subgroup_lattice(G)
    assert sylow_subgroup(lat, 2).order == 8
    assert sylow_subgroup(lat, 3).order == 3
    A5 = construct_group("A5")
    lat5 = subgroup_lattice(A5)
    assert sylow_subgroup(lat5, 2).order == 4
    assert sylow_subgroup(lat5, 5).order == 5


def test_divisor_lemma_examples():
    G = construct_group("Q8")
    assert check_divisor_lemma(G, G.center())
    S4 = construct_group("S4")
    lat = subgroup_lattice(S4)
    V = next(
        lat.class_rep(c) for c in lat.normal_class_indices() if lat.class_order(c) == 4
    )
    assert check_divisor_lemma(S4, V)
    # outside the hypotheses (non-cyclic kernel) the transfer can fail:
    # A4 has no subgroup of order 6 although A4/V does have one of order 3
    A4 = construct_group("A4")
    lat4 = subgroup_lattice(A4)
    V4 = next(
        lat4.class_rep(c) for c in lat4.normal_class_indices()
        if lat4.class_order(c) == 4
    )
    assert not check_divisor_lemma(A4, V4)


def test_quotient_lattice_is_the_interval_above_the_kernel(q8):
    lat = subgroup_lattice(q8)
    Z = q8.center()
    above = [H for H in lat.subgroups if Z <= H]
    assert len(above) == 5  # Z, three C4, Q8
    qm = quotient_group(q8, Z)
    qlat = SubgroupLattice(qm.target)
    assert sorted(qm.push_mask(H.members) for H in above) == sorted(qlat.masks)
    assert sorted(qm.pull_mask(m) for m in qlat.masks) == sorted(H.mask for H in above)
    for H in above:
        K = Subgroup(qm.target, qm.push_mask(H.members))
        N = lat.normalizer(H)
        assert qlat.normalizer(K).mask == qm.push_mask(N.members)


def test_class_by_label_unknown(q8):
    lat = subgroup_lattice(q8)
    with pytest.raises(PreconditionError):
        lat.class_by_label("3:0")


MOEBIUS_SPECS = ["S4", "SL(2,3)", "Q16", "D128", "D512", "C2xC4xC4", "C3xS4",
                 "C2xC2xC2xC2xC2", "C2xS4", "A6", "SL(2,7)"]


def _assert_moebius_and_idempotents_match_oracles(G):
    lat = subgroup_lattice(G)
    oracle = {}
    for (k, h), mu in moebius_by_recursion(lat).items():
        oracle.setdefault(h, {})[k] = mu
    for c, h in enumerate(lat.reps):
        assert lat.below(h) == tuple(sorted(oracle[h]))
        assert lat.mu_column(h) == {k: mu for k, mu in oracle[h].items() if mu}
        for k, mu in oracle[h].items():
            assert lat.mu_column(h).get(k, 0) == mu
        # back-substituting the class indicator does not use mu
        indicator = (0,) * c + (1,) + (0,) * (lat.n_classes() - c - 1)
        assert idempotent(lat, c)._coeff_ints() == _coeffs_from_marks(lat, indicator, 1)
    # Phi(H) at every representative against H's maximal subgroups, found
    # by containment among the pairs K <= H with no Moebius value read
    for h in lat.reps:
        proper = [lat.masks[k] for k in oracle[h] if k != h]
        phi = lat.masks[h]
        for m in proper:
            if not any(x != m and x & m == m for x in proper):
                phi &= m
        assert lat.frattini_of(lat.subgroups[h]).mask == phi
    assert lat.frattini() == lat.frattini_of(lat.subgroups[lat.reps[-1]])


@pytest.mark.parametrize("spec", MOEBIUS_SPECS)
def test_moebius_matches_all_pairs_recursion(spec):
    _assert_moebius_and_idempotents_match_oracles(construct_group(spec))


@settings(max_examples=30)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_moebius_matches_all_pairs_recursion(gens):
    spec = perm_spec(gens)
    _assert_moebius_and_idempotents_match_oracles(construct_group(spec))


# the benchmark's lattice ladder
LADDER_SPECS = ("S4", "SL(2,3)", "A5", "S5", "SL(2,5)", "SL(2,7)",
                "D128", "C2xC2xC2xC2xC2", "C2xS4", "C2xC256")


def _assert_sparse_marks_match_dense_and_oracle(G):
    lat = subgroup_lattice(G)
    rows = _marks_table(lat)
    dense = table_of_marks(lat)
    assert dense == marks_by_fixed_points(lat)
    n = lat.n_classes()
    assert len(rows) == len(dense) == n
    for i in range(n):
        assert all(t for _, t in rows[i]) and len(dict(rows[i])) == len(rows[i])
        assert dict(rows[i]) == {j: t for j, t in enumerate(dense[i]) if t}
        # the diagonal closes the row
        assert rows[i][-1] == (i, dense[i][i]) and dense[i][i] > 0


@pytest.mark.parametrize("spec", LADDER_SPECS)
def test_sparse_marks_match_dense_and_fixed_point_count(spec):
    _assert_sparse_marks_match_dense_and_oracle(construct_group(spec))


@settings(max_examples=30)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_sparse_marks_match_dense_and_fixed_point_count(gens):
    spec = perm_spec(gens)
    _assert_sparse_marks_match_dense_and_oracle(construct_group(spec))


def test_requests_cache_no_solvable_frattini_or_maxcyc():
    # each is read at most once per request, so none is kept
    spec = "C2xC2xC2xC2xC2"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["lattice", spec]) == 0
    G = construct_group(spec)
    assert G.is_solvable()
    keys = {"solvable", "frattini", "maxcyc"}
    assert not keys & set(G._cache)
    assert not keys & set(subgroup_lattice(G)._cache)


def _max_cyclic_intersection_by_powers(G):
    """The subgroups <g>, each walked power by power, the maximal ones
    found by containment and intersected."""
    cyclic = set()
    for g in range(G.n):
        members, x = {G.identity}, g
        while x != G.identity:
            members.add(x)
            x = G.mul[x][g]
        cyclic.add(frozenset(members))
    meet = set(range(G.n))
    for C in cyclic:
        if not any(C < D for D in cyclic):
            meet &= C
    return meet


@pytest.mark.parametrize("spec", full_catalog() + SURVEY_EXTRAS)
def test_max_cyclic_intersection_matches_powers(spec):
    G = construct_group(spec)
    meet = G.max_cyclic_intersection()
    assert set(bits(meet.mask)) == _max_cyclic_intersection_by_powers(G)


@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_max_cyclic_intersection_matches_powers(gens):
    G = construct_group(perm_spec(gens))
    assert set(bits(G.max_cyclic_intersection().mask)) == _max_cyclic_intersection_by_powers(G)


@given(two_perms_of_5)
def test_random_s5_subgroup_max_cyclic_intersection_matches_powers(gens):
    G = construct_group(perm_spec(gens))
    assert set(bits(G.max_cyclic_intersection().mask)) == _max_cyclic_intersection_by_powers(G)


@pytest.mark.parametrize("spec", ["C1", "S4", "Q16", "SL(2,5)", "C2xC2xC2xC2xC2xC2xC2"])
def test_max_cyclic_intersection_builds_no_lattice(spec):
    # a fresh group: nothing cached by earlier tests
    G = Group(construct_group(spec).mul, spec)
    meet = G.max_cyclic_intersection()
    assert "lattice" not in G._cache
    assert set(bits(meet.mask)) == _max_cyclic_intersection_by_powers(G)


def _assert_classes_of_order_match_scan(lat):
    # every divisor, so also orders with no subgroup (A4 has none of order 6)
    n = lat.n_classes()
    for d in divisors(lat.group.n):
        scanned = [c for c in range(n) if lat.class_order(c) == d]
        assert list(lat.classes_of_order(d)) == scanned, (lat.group.label, d)


@pytest.mark.parametrize("spec", full_catalog())
def test_classes_of_order_match_scan(spec):
    _assert_classes_of_order_match_scan(subgroup_lattice(construct_group(spec)))


@settings(max_examples=100)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_classes_of_order_match_scan(gens):
    G = construct_group(perm_spec(gens))
    _assert_classes_of_order_match_scan(subgroup_lattice(G))


def _assert_containment_map_matches_scan(lat):
    # at every subgroup, not only at class representatives
    masks = lat.masks
    for h, hm in enumerate(masks):
        assert lat.below(h) == tuple(j for j in range(h + 1) if masks[j] & hm == masks[j])
        assert lat.above(hm) == mask_of(s for s, m in enumerate(masks) if m & hm == hm)


@pytest.mark.parametrize("spec", full_catalog() + tuple(MOEBIUS_SPECS))
def test_containment_map_matches_scan(spec):
    # a fresh lattice, so that below is computed here and not read back
    _assert_containment_map_matches_scan(SubgroupLattice(construct_group(spec)))


@settings(max_examples=30)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_containment_map_matches_scan(gens):
    _assert_containment_map_matches_scan(SubgroupLattice(construct_group(perm_spec(gens))))


@settings(max_examples=15)
@given(two_perms_of_5)
def test_random_s5_subgroup_containment_map_matches_scan(gens):
    _assert_containment_map_matches_scan(SubgroupLattice(construct_group(perm_spec(gens))))


def test_marks_and_idempotents_read_only_representatives():
    lat = SubgroupLattice(construct_group("S5"))  # fresh: no earlier reads
    table_of_marks(lat)
    for c in range(lat.n_classes()):
        idempotent(lat, c)
    assert set(lat._below) == set(lat.reps)
    assert set(lat._mu) == set(lat.reps)
    assert len(lat.reps) < len(lat.subgroups)


def _assert_section_lattice_matches_parent(G, f):
    """The lattice of the section T/S of G that f realizes agrees with G's
    by the correspondence theorem: its subgroups are the images of G's
    subgroups K with S <= K <= T, the normalizer of each is the image of
    N_G(K) ∩ T, and its class has [T : N_G(K) ∩ T] members."""
    lat = subgroup_lattice(G)
    if f.source is G:  # the projection onto G/S
        D, tmask, smask = f.target, (1 << G.n) - 1, f.kernel().mask
        image = lambda m: f.push_mask(bits(m))
    else:  # the embedding of T, with S = 1
        D, tmask, smask = f.source, f.image_mask(), 1 << G.identity
        image = f.pull_mask
    if D is not G and D is not cyclic_group(D.n):
        assert D._cache["section"] is G
    dlat = subgroup_lattice(D)
    interval = [k for k, m in enumerate(lat.masks) if m & smask == smask and m & ~tmask == 0]
    assert sorted(image(lat.masks[k]) for k in interval) == sorted(dlat.masks)
    torder = tmask.bit_count()
    for k in interval:
        d = dlat.index[image(lat.masks[k])]
        nmask = lat.masks[lat.normalizer_idx[k]] & tmask
        assert dlat.masks[dlat.normalizer_idx[d]] == image(nmask)
        assert len(dlat.classes[dlat.class_of[d]]) * nmask.bit_count() == torder


def _sections(G, subgroups=None):
    """The embeddings of subgroups (by default G's class representatives)
    and every normal quotient of G."""
    lat = subgroup_lattice(G)
    if subgroups is None:
        subgroups = map(lat.class_rep, range(lat.n_classes()))
    maps = [subgroup_embedding(H) for H in subgroups]
    return maps + [quotient_group(G, lat.class_rep(c)) for c in lat.normal_class_indices()]


# groups whose sections are checked at the embeddings of class
# representatives only, which bounds their cost
CLASS_REP_SPECS = ("S4xS4", "SL(2,7)xC2")


@pytest.mark.parametrize(
    "spec", full_catalog() + SURVEY_EXTRAS + ("C2xS4xS3", "A6") + CLASS_REP_SPECS
)
def test_derived_lattices_match_enumeration(spec):
    # each section's enumerated lattice against its parent's
    G = construct_group(spec, cap=None)
    lat = subgroup_lattice(G)
    for f in _sections(G, None if spec in CLASS_REP_SPECS else lat.subgroups):
        _assert_section_lattice_matches_parent(G, f)


@settings(max_examples=30)
@given(st.lists(small_perm, min_size=2, max_size=3), st.data())
def test_random_perm_section_lattices_match_parent(gens, data):
    spec = perm_spec(gens)
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    N = lat.class_rep(data.draw(st.sampled_from(lat.normal_class_indices())))
    H = data.draw(st.sampled_from(lat.subgroups))
    for f in (quotient_group(G, N), subgroup_embedding(N), subgroup_embedding(H)):
        _assert_section_lattice_matches_parent(G, f)


# a permutation group on points 1..4, as a perm: spec
small_perm_spec = st.lists(st.permutations(range(4)), min_size=1, max_size=2).map(perm_spec)


@settings(max_examples=75)
@given(small_perm_spec, small_perm_spec, st.data())
def test_random_product_sections_match_parent_and_oracles(left, right, data):
    # the sections of a direct product of order <= 64, and those of one of
    # its realized sections, so sections of sections too
    assume(construct_group(left).n * construct_group(right).n <= 64)
    G = construct_group(f"{left}x{right}")
    maps = _sections(G)
    for f in maps:
        _assert_section_lattice_matches_parent(G, f)
        _assert_class_tables_match_oracles(f)
    realized = [D for f in maps for D in (f.source, f.target) if "section" in D._cache]
    if realized:
        D = data.draw(st.sampled_from(realized))
        for g in _sections(D):
            _assert_section_lattice_matches_parent(D, g)
            _assert_class_tables_match_oracles(g)


@pytest.mark.parametrize("spec", ["S4", "SL(2,3)", "C2xS4", "S3xS3"])
def test_m_constant_normality_matches_conjugation(spec):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    crows = G.conj_rows()
    for L in lat.subgroups:
        for k in lat.below(lat.subgroup_index(L)):
            K = lat.subgroups[k]
            if all(mask_of(crows[a][x] for x in K.members) == K.mask for a in L.members):
                assert isinstance(m_constant(lat, L, K), Fraction)
            else:
                with pytest.raises(PreconditionError):
                    m_constant(lat, L, K)


def _fresh(spec):
    """A new Group with spec's table, so that no cached lattice answers."""
    G = construct_group(spec)
    return Group(G.mul, G.label)


def test_subgroup_budget_counts_every_subgroup():
    # S4 has 30 subgroups in 11 classes
    with pytest.raises(CapExceededError, match="more than 29 subgroups"):
        subgroup_lattice(_fresh("S4"), max_subgroups=29)
    assert len(subgroup_lattice(_fresh("S4"), max_subgroups=30).subgroups) == 30
    assert len(subgroup_lattice(_fresh("S4"), max_subgroups=None).subgroups) == 30


def test_subgroup_budget_exempts_sections():
    # A4 and S3 are sections of S4, whose lattice is built and never smaller
    S4 = _fresh("S4")
    lat = subgroup_lattice(S4)
    A4 = next(H for H in lat.subgroups if H.order == 12)
    V4 = next(H for H in lat.subgroups if H.order == 4 and H.is_normal())
    assert len(subgroup_lattice(subgroup_embedding(A4).source, max_subgroups=1).subgroups) == 10
    assert len(subgroup_lattice(quotient_group(S4, V4).target, max_subgroups=1).subgroups) == 6
    # a section of a parent whose lattice is not built is held to the budget
    S4 = _fresh("S4")
    A4 = Subgroup(S4, A4.mask)
    with pytest.raises(CapExceededError, match="more than 1 subgroups"):
        subgroup_lattice(subgroup_embedding(A4).source, max_subgroups=1)


def test_default_subgroup_budget_admits_s4xs4():
    # the largest lattice CI pins; C2^6 (2,825 subgroups) is built at the
    # default budget above
    lat = subgroup_lattice(construct_group("S4xS4", cap=None))
    assert (len(lat.subgroups), lat.n_classes()) == (2976, 274)
