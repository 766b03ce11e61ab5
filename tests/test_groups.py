import random
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import generated, perm_spec, small_perm, two_perms_of_5
from test_fw import ORDER_VERDICT_EXTRAS
from fwburnside import (
    AlgebraError,
    CapExceededError,
    Group,
    InvalidParameterError,
    PreconditionError,
    SpecParseError,
    Subgroup,
    construct_group,
    cyclic_group,
    direct_product,
    quotient_group,
    subgroup_embedding,
    subgroup_lattice,
)
from fwburnside.groups import _section, mask_of
from fwburnside.oracles import (
    cayley_table_by_entries,
    check_subgroup,
    derived_series_by_sets,
    is_group_table,
)
from fwburnside.survey import full_catalog
from fwburnside.propositions import cyclic_isomorphism


@pytest.mark.parametrize(
    "spec, order",
    [
        ("C1", 1),
        ("C7", 7),
        ("D4", 4),
        ("D8", 8),
        ("D12", 12),
        ("Dic8", 8),
        ("Dic12", 12),
        ("Q8", 8),
        ("Q16", 16),
        ("S1", 1),
        ("S3", 6),
        ("S5", 120),
        ("A4", 12),
        ("A5", 60),
        ("SL(2,2)", 6),
        ("SL(2,3)", 24),
        ("SL(2,5)", 120),
        ("C2xC3", 6),
        ("C2xC2xC2", 8),
        ("C2xS3", 12),
        ("perm:[(1,2,3)(4,5)]", 6),
        ("perm:[(1,2);(1,2,3)]", 6),
        ("perm:[(1,2,3);(2,3,4)]", 12),
    ],
)
def test_spec_orders(spec, order):
    assert construct_group(spec).n == order


@pytest.mark.parametrize(
    "spec, identity",
    [
        ("C6", 0),
        ("D8", 0),
        ("Q8", 0),
        ("S4", 0),
        ("A5", 0),
        ("perm:[(1,2,3)(4,5)]", 0),
        ("SL(2,3)", 6),
        ("SL(2,5)", 20),
        ("SL(2,7)", 42),
        ("C2xSL(2,3)", 6),
        ("SL(2,3)xC2", 12),
    ],
)
def test_identity_index(spec, identity):
    # SL(2,p) numbers its matrices lexicographically, so its identity is not 0
    G = construct_group(spec)
    assert G.identity == identity
    assert G.mul[identity] == tuple(range(G.n))
    assert all(G.mul[x][identity] == x for x in range(G.n))


def test_validate_on_samples():
    for spec in ("S4", "Q16", "SL(2,3)", "perm:[(1,2);(3,4);(1,3)(2,4)]"):
        construct_group(spec).validate()


def test_validate_rejects_non_associative_loop():
    # a Latin square with identity 0 (a loop) that is not a group
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(AlgebraError, match="associativity"):
        Group(loop, "loop5").validate()


def test_validate_rejects_repeated_row_entry():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]
    with pytest.raises(AlgebraError, match="row"):
        Group(table, "bad3").validate()


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = list(permutations(range(n)))

    def extend(square):
        if len(square) == n:
            yield square
            return
        for p in rows:
            if p[0] == len(square) and all(p[j] != r[j] for r in square for j in range(n)):
                yield from extend(square + [p])

    return extend([tuple(range(n))])


def test_validate_matches_cubic_associativity_on_order5_loops():
    r = range(5)
    squares = groups = 0
    for t in _reduced_latin_squares(5):
        assoc = all(t[t[x][g]][y] == t[x][t[g][y]] for x in r for g in r for y in r)
        try:
            Group(t, "loop5").validate()
            valid = True
        except AlgebraError:
            valid = False
        assert valid == assoc
        squares += 1
        groups += assoc
    assert (squares, groups) == (56, 6)


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1, 2], [1, -1, 0], [2, 0, 1]],
        [[0, 1, 2], [1, 3, 0], [2, 0, 1]],
        [[0, 1, 2], [1, 2.0, 0], [2, 0, 1]],
    ],
)
def test_validate_rejects_entries_that_are_not_indices(table):
    with pytest.raises(AlgebraError, match="not an element index"):
        Group(table, "bad3").validate()


# two loops of order 6 (Latin squares with identity 0) whose generators are
# 1 and 2, where Light's test passes at one generator and fails only at the
# other: (loop, the generator where it fails)
_LOOPS6 = (
    ([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
      [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]], 2),
    ([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
      [3, 5, 1, 4, 0, 2], [4, 2, 5, 1, 3, 0], [5, 3, 4, 0, 2, 1]], 1),
)


@pytest.mark.parametrize("loop, g", _LOOPS6)
def test_validate_tests_every_generator(loop, g):
    G = Group(loop, "loop6")
    assert G.generators() == (1, 2)
    with pytest.raises(AlgebraError, match=rf"associativity fails at \(\d\*{g}\)"):
        G.validate()


# (table, identity) of every group of order <= 6, and the loops above
_BASES = {
    n: [(construct_group(spec).mul, construct_group(spec).identity) for spec in specs]
    for n, specs in {
        1: ["C1"], 2: ["C2"], 3: ["C3"], 4: ["C4", "C2xC2"], 5: ["C5"], 6: ["C6", "S3"],
    }.items()
}
_BASES[6] += [(loop, 0) for loop, _ in _LOOPS6]


@st.composite
def _tables_with_identity(draw):
    """A table of order <= 6 with a two-sided identity at a random index:
    a relabeled group or loop table with up to three cells off the
    identity's row and column set at random, or with every such cell
    random."""
    n = draw(st.integers(min_value=1, max_value=6))
    base, identity = draw(st.sampled_from(_BASES[n]))
    relabel = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[relabel[a]][relabel[b]] = relabel[base[a][b]]
    e = relabel[identity]
    cells = [(x, y) for x in range(n) for y in range(n) if e not in (x, y)]
    if cells:
        entry = st.integers(min_value=0, max_value=n - 1)
        if draw(st.booleans()):
            changes = zip(cells, draw(st.lists(entry, min_size=len(cells), max_size=len(cells))))
        else:
            changes = draw(st.lists(st.tuples(st.sampled_from(cells), entry), max_size=3))
        for (x, y), v in changes:
            table[x][y] = v
    return table


@settings(max_examples=400, deadline=None)
@given(_tables_with_identity())
def test_validate_matches_group_table_oracle(table):
    # an AlgebraError from Group.__init__ (no identity found, or a row
    # without it) counts as a rejection
    try:
        Group(table, "t").validate()
        valid = True
    except AlgebraError:
        valid = False
    assert valid == is_group_table(table)


@pytest.mark.parametrize("swap", [False, True], ids=["repeat", "swap"])
@pytest.mark.parametrize("spec", ["S4", "Q16", "SL(2,3)", "SL(2,3)xC2", "C2xC256"])
def test_validate_rejects_corrupted_non_generator_row(spec, swap):
    # validate reads only the generators' rows in full, so a fault in any
    # other row must still show in Light's test
    G = construct_group(spec)
    rows = [x for x in range(G.n) if x not in G.generators() and x != G.identity]
    columns = [y for y in range(G.n) if y != G.identity]
    rng = random.Random(spec)
    for x in [rows[0], rows[-1], *rng.sample(rows, 3)]:
        y, z = rng.sample(columns, 2)
        table = [list(row) for row in G.mul]
        row = table[x]
        if swap:
            row[y], row[z] = row[z], row[y]
        else:
            row[y] = row[z]
        with pytest.raises(AlgebraError):
            Group(table, spec).validate()


def test_construction_is_memoized():
    a = construct_group("C6")
    b = construct_group(" C6 ")
    assert a is b
    assert construct_group("C2xC3") is construct_group("C2 x C3")
    assert cyclic_group(6) is construct_group("C6")


def test_q8_alias_matches_dic8():
    # distinct cached instances (labels differ) but identical tables
    assert construct_group("Q8").mul == construct_group("Dic8").mul


@pytest.mark.parametrize(
    "bad",
    ["Zork", "", "C", "SL(2,5", "C2x", "xC2", "C2xxC3", "perm:[]", "perm:[(1,2"],
)
def test_unrecognized_specs_raise(bad):
    with pytest.raises(SpecParseError):
        construct_group(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "C0",
        "D7",
        "D2",
        "Dic6",
        "Q12",
        "Q4",
        "S7",
        "A0",
        "SL(2,4)",
        "SL(2,11)",
        "SL(3,2)",
        "perm:[(1,1)]",
        "perm:[(0,1)]",
        "perm:[(1,2)(2,3)]",
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(InvalidParameterError):
        construct_group(bad)


def test_parse_error_carries_position():
    with pytest.raises(SpecParseError) as exc:
        construct_group("C2xZork")
    assert "position 3" in str(exc.value)
    assert exc.value.position == 3


@pytest.mark.parametrize(
    "spec, position",
    [
        # the error lies in the second or a later generator: the position
        # is that of the offending cycle, not of the first generator
        ("perm:[(1,2);(1,x)]", 12),
        ("C2xperm:[(1,2);(1;2)]", 15),
        ("perm:[(1,2);(3,4)x]", 17),
        ("perm:[(1,2);;(3,x)]", 13),
        # first generators keep their positions
        ("perm:[(1,x);(1,2)]", 6),
        ("C2xperm:[(1,2)x]", 14),
    ],
)
def test_perm_parse_error_points_into_its_generator(spec, position):
    with pytest.raises(SpecParseError) as exc:
        construct_group(spec)
    assert exc.value.position == position


def test_order_cap():
    with pytest.raises(CapExceededError):
        construct_group("C600")
    assert construct_group("C600", cap=600).n == 600
    assert cyclic_group(1024).n == 1024  # explicit constructor is uncapped


def test_element_order_census_d8():
    G = construct_group("D8")
    census = {}
    for a in range(G.n):
        census[G.element_order(a)] = census.get(G.element_order(a), 0) + 1
    assert census == {1: 1, 2: 5, 4: 2}


def test_center_and_exponent():
    assert construct_group("Q8").center().order == 2
    assert construct_group("S3").center().order == 1
    assert construct_group("D8").center().order == 2
    assert construct_group("Q8").exponent() == 4
    assert construct_group("S4").exponent() == 12
    assert construct_group("C2xC2").exponent() == 2


def test_abelianness():
    assert construct_group("C12").is_abelian()
    assert construct_group("C3xC3").is_abelian()
    assert not construct_group("S3").is_abelian()
    assert not construct_group("Dic12").is_abelian()


def _abelian_by_all_pairs(G):
    mul = G.mul
    return all(mul[a][b] == mul[b][a] for a in range(G.n) for b in range(a + 1, G.n))


# the groups of the benchmark's ladder
LADDER = ("S4", "SL(2,3)", "A5", "S5", "SL(2,5)", "SL(2,7)",
          "D128", "C2xC2xC2xC2xC2", "C2xS4", "C2xC256")


@pytest.mark.parametrize("spec", full_catalog() + LADDER)
def test_is_abelian_matches_all_pairs(spec):
    G = construct_group(spec)
    assert G.is_abelian() is _abelian_by_all_pairs(G)


NONSOLVABLE = ("A5", "S5", "SL(2,5)", "A6", "SL(2,7)", "SL(2,5)xC2")


def _assert_solvability_matches_sets(G):
    series = derived_series_by_sets(G)
    assert G.is_solvable() == (len(series[-1]) == 1), G.label


@pytest.mark.parametrize(
    "spec", tuple(dict.fromkeys(full_catalog() + ORDER_VERDICT_EXTRAS + NONSOLVABLE))
)
def test_is_solvable_matches_derived_series_by_sets(spec):
    _assert_solvability_matches_sets(construct_group(spec))


def test_is_solvable_known_cases():
    for spec in NONSOLVABLE:
        assert not construct_group(spec).is_solvable(), spec
    for spec in ("C1", "S4", "SL(2,3)", "D128", "C2xS4xS3", "C2xC2xC2xC2xC2"):
        assert construct_group(spec).is_solvable(), spec


@given(two_perms_of_5)
def test_random_s5_subgroup_solvability_matches_derived_series_by_sets(gens):
    _assert_solvability_matches_sets(construct_group(perm_spec(gens)))


def test_subgroup_check_and_generation():
    G = construct_group("S4")
    H = check_subgroup(generated(G, [1]))
    assert G.n % H.order == 0
    full = generated(G, range(G.n))
    assert full == G.full_subgroup()


def test_quotient_q8_by_center():
    G = construct_group("Q8")
    qm = quotient_group(G, G.center())
    assert qm.target.n == 4
    assert qm.target.is_abelian()
    assert qm.target.exponent() == 2
    # projection is a morphism
    for a in range(G.n):
        for b in range(G.n):
            assert qm.images[G.mul[a][b]] == qm.target.mul[qm.images[a]][qm.images[b]]


def test_quotient_by_trivial_is_identity():
    G = construct_group("S3")
    qm = quotient_group(G, Subgroup(G, 1 << G.identity))
    assert qm.target is G
    assert qm.images == tuple(range(G.n))


def test_quotient_requires_normal():
    G = construct_group("S3")
    C2 = generated(G, [next(a for a in range(G.n) if G.element_order(a) == 2)])
    with pytest.raises(PreconditionError):
        quotient_group(G, C2)


def test_quotient_rejects_kernel_of_another_group():
    # the kernel's parent is checked before the per-mask cache is read
    C4 = cyclic_group(4)
    quotient_group(C4, check_subgroup(Subgroup(C4, mask_of([0, 2]))))
    D8 = construct_group("D8")
    with pytest.raises(PreconditionError):
        quotient_group(C4, Subgroup(D8, 0b101))


def test_quotient_of_cyclic_reuses_canonical_instance():
    G = cyclic_group(12)
    N = check_subgroup(Subgroup(G, mask_of([0, 4, 8])))
    qm = quotient_group(G, N)
    assert qm.target is cyclic_group(4)


def test_embedding_respects_operation():
    G = construct_group("S4")
    H = generated(G, [next(a for a in range(G.n) if G.element_order(a) == 4)])
    emb = subgroup_embedding(H)
    S = emb.source
    for a in range(S.n):
        for b in range(S.n):
            assert emb.images[S.mul[a][b]] == G.mul[emb.images[a]][emb.images[b]]
    assert emb.source is cyclic_group(4)


def test_embedding_of_full_subgroup_is_identity():
    G = construct_group("S3")
    emb = subgroup_embedding(G.full_subgroup())
    assert emb.source is G
    assert emb.images == tuple(range(G.n))


def test_cyclic_isomorphism_roundtrip():
    A = cyclic_group(6)
    B = construct_group("C2xC3")
    f = cyclic_isomorphism(A, B)
    assert sorted(f) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert f[A.mul[a][b]] == B.mul[f[a]][f[b]]


@given(st.integers(min_value=1, max_value=30))
def test_cyclic_element_orders_divide_n(n):
    G = cyclic_group(n)
    for a in range(n):
        assert n % G.element_order(a) == 0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_product_element_orders_are_lcms(p, q):
    G = construct_group(f"C{p}xC{q}", cap=None)
    for i in range(p):
        for j in range(q):
            a = i * q + j
            assert G.element_order(a) == lcm(p // gcd(i, p), q // gcd(j, q))


def test_conjugate_subgroup_is_subgroup(s4):
    G = s4
    H = generated(G, [next(a for a in range(G.n) if G.element_order(a) == 3)])
    for g in range(G.n):
        Hg = check_subgroup(Subgroup(G, H.conjugate_mask(g)))
        assert Hg.order == H.order


@pytest.mark.parametrize("spec", full_catalog() + ("S5", "C2xS4", "Dic60"))
def test_is_normal_matches_conjugation_by_every_element(spec):
    # conjugating by the generators decides normality: same answer as
    # conjugating by all n elements, and as a conjugacy class of size one
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    for i, H in enumerate(lat.subgroups):
        by_all = all(H.conjugate_mask(a) == H.mask for a in range(G.n))
        assert H.is_normal() == by_all == lat.is_normal_class(lat.class_of[i]), (spec, i)


TABLE_SPECS = [
    "S1", "S2", "S3", "S4", "S5", "A3", "A4", "A5",
    "SL(2,2)", "SL(2,3)", "SL(2,5)", "SL(2,7)",
    "D4", "D6", "D8", "D12", "D128", "D512", "Dic4", "Dic12", "Q16", "Dic60", "Q512",
    "C1xC1", "C2xC256", "SL(2,3)xC2", "Q8xC3",
    "perm:[(1,2,3)(4,5);(1,2)]", "perm:[(1,2);(3,4);(1,3)(2,4)]",
    "perm:[(2,4,6)]", "perm:[(1,5)(2,3)]", "perm:[(1)]",
]


def _group_tables(G):
    return G.mul, G.identity, G.inv, G.conj_rows()


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_row_composed_tables_match_entry_by_entry_oracle(spec):
    assert _group_tables(construct_group(spec)) == cayley_table_by_entries(spec)


def _realized_groups():
    """Groups that quotient_group and subgroup_embedding realize from a
    parent's table, without validate."""
    S4 = construct_group("S4")
    V4 = next(H for H in subgroup_lattice(S4).subgroups if H.order == 4 and H.is_normal())
    G = construct_group("SL(2,3)xC2")
    C = construct_group("C2xC256")
    yield quotient_group(S4, V4).target
    yield quotient_group(G, G.center()).target
    # C2xC256 by the subgroup of order 2 in its C256 factor: C2xC128
    yield quotient_group(C, generated(C, [128])).target
    D = construct_group("Dic60")
    for c in range(subgroup_lattice(D).n_classes()):
        yield subgroup_embedding(subgroup_lattice(D).class_rep(c)).source


def test_conj_rows_of_realized_groups_match_entries():
    realized = 0
    for D in _realized_groups():
        mul, inv = D.mul, D.inv
        r = range(D.n)
        assert D.conj_rows() == tuple(tuple(mul[mul[a][x]][inv[a]] for x in r) for a in r)
        D.validate()
        realized += "/" in D.label or ">" in D.label
    # the three quotients and Dic60's subgroups of orders 4, 12 and 20; the
    # cyclic ones in canonical numbering are the shared cyclic groups
    assert realized == 6


def _coset_table(G, top, bottom):
    """(table, proj) of the section T/S, every entry computed on its own:
    the cosets numbered by their minimal elements, ascending, and coset a
    times coset b the coset of the product of their minimal elements."""
    mul = G.mul
    proj, reps = [-1] * G.n, []
    for g in top:
        if proj[g] < 0:
            for h in bottom:
                proj[mul[g][h]] = len(reps)
            reps.append(g)
    return tuple(tuple(proj[mul[a][b]] for b in reps) for a in reps), tuple(proj)


@pytest.mark.parametrize("spec", full_catalog())
def test_section_tables_match_coset_entries(spec):
    # every subgroup H = H/1 and every quotient G/N, whether realized as a
    # new group, the shared cyclic group or G itself
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    for i, H in enumerate(lat.subgroups):
        D, _ = _section(G, H.members, (G.identity,), "H")
        assert D.mul == _coset_table(G, H.members, (G.identity,))[0], (spec, i)
        if H.is_normal():
            D, proj = _section(G, range(G.n), H.members, "G/N")
            assert (D.mul, proj) == _coset_table(G, range(G.n), H.members), (spec, i)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)
    )
)
def test_random_perm_tables_match_entry_by_entry_oracle(gens):
    spec = perm_spec(gens)
    assert _group_tables(construct_group(spec)) == cayley_table_by_entries(spec)


def _assert_pair_formula(A, B):
    """Every entry of direct_product(A, B): (i, j)(k, l) = (ik, jl) at
    index (i k) |B| + j l, the pair (i, j) at i |B| + j."""
    nb = B.n
    P = direct_product(A, B)
    assert P.n == A.n * nb and P.identity == A.identity * nb + B.identity
    for i, arow in enumerate(A.mul):
        for j, brow in enumerate(B.mul):
            row = P.mul[i * nb + j]
            for k, a in enumerate(arow):
                for l, b in enumerate(brow):
                    assert row[k * nb + l] == a * nb + b


# SL(2,3) has its identity at a nonzero index; A5 needs two generators
PRODUCT_FACTORS = ["C1", "C2", "C6", "S3", "D8", "Q8", "A4", "SL(2,3)", "Dic12", "A5"]


@pytest.mark.parametrize("a", PRODUCT_FACTORS)
@pytest.mark.parametrize("b", ["C1", "C3", "S3", "SL(2,3)"])
def test_product_tables_match_pair_formula(a, b):
    _assert_pair_formula(construct_group(a), construct_group(b))


@settings(max_examples=50)
@given(
    st.lists(st.permutations(range(4)), min_size=1, max_size=2),
    st.lists(st.permutations(range(3)), min_size=1, max_size=2),
)
def test_random_perm_product_tables_match_pair_formula(gens_a, gens_b):
    A, B = construct_group(perm_spec(gens_a)), construct_group(perm_spec(gens_b))
    _assert_pair_formula(A, B)
    _assert_pair_formula(B, A)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)
    )
)
def test_random_perm_is_abelian_matches_all_pairs(gens):
    G = construct_group(perm_spec(gens))
    assert G.is_abelian() is _abelian_by_all_pairs(G)


def _orders_by_powers(G):
    """The order of every element, each walked power by power."""
    orders = []
    for a in range(G.n):
        k, x = 1, a
        while x != G.identity:
            x = G.mul[x][a]
            k += 1
        orders.append(k)
    return tuple(orders)


@pytest.mark.parametrize("spec", ["C2xC256", "S5", "SL(2,3)xC2", "Dic60", "C1"])
def test_element_orders_match_power_walks(spec):
    G = construct_group(spec)
    orders = _orders_by_powers(G)
    for a in range(G.n):
        assert G.element_orders()[a] == G.element_order(a) == orders[a]
    lat = subgroup_lattice(G)
    for H in lat.subgroups:
        # cyclic: generated by one of its own elements
        expected = any(generated(G, [a]).mask == H.mask for a in H.members)
        assert H.is_cyclic() == expected


@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_element_orders_match_power_walks(gens):
    G = construct_group(perm_spec(gens))
    assert G.element_orders() == _orders_by_powers(G)


@given(two_perms_of_5)
def test_random_s5_subgroup_element_orders_match_power_walks(gens):
    G = construct_group(perm_spec(gens))
    assert G.element_orders() == _orders_by_powers(G)
