import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fwburnside import (
    BurnsideElement,
    PreconditionError,
    SpecParseError,
    Subgroup,
    basis_element,
    cyclic_group,
    construct_group,
    deflate,
    element_from_json,
    element_from_marks,
    element_to_json,
    fixed_points,
    format_element,
    format_rational,
    idempotent,
    identity_element,
    induce,
    inflate,
    is_integral,
    multiply,
    parse_rational,
    quotient_group,
    restrict,
    subgroup_embedding,
    subgroup_lattice,
    table_of_marks,
    tensor_induce,
    zero,
)
from conftest import SURVEY_EXTRAS, cycle_notation, small_perm
from fwburnside.burnside import _mackey_table, _push_table
from fwburnside.groups import mask_of
from fwburnside.oracles import (
    check_subgroup,
    coset_space,
    decompose_gset,
    deflate_gset,
    fixed_points_gset,
    inflate_gset,
    mackey_by_double_cosets,
    map_space_gset,
    marks_by_fixed_points,
    product_gset,
    restrict_gset,
)
from fwburnside.propositions import deflate_idempotent
from fwburnside.survey import full_catalog


def coeffs_strategy(k):
    rat = st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    return st.lists(rat, min_size=k, max_size=k)


def test_tom_s3_hand_matrix(s3):
    lat = subgroup_lattice(s3)
    assert table_of_marks(lat) == (
        (6, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 0, 2, 0),
        (1, 1, 1, 1),
    )


@pytest.mark.parametrize(
    "spec", full_catalog() + ("S5", "SL(2,7)", "D128", "C2xC2xC2xC2xC2", "C2xS4")
)
def test_tom_matches_fixed_point_count(spec):
    lat = subgroup_lattice(construct_group(spec))
    assert table_of_marks(lat) == marks_by_fixed_points(lat)


def counted_marks(x, tom):
    """Marks of x as its coefficients times tom, the table of marks counted
    on cosets: independent of the marks x stores."""
    marks = [Fraction(0)] * len(tom)
    for coef, row in zip(x.coeffs, tom):
        if coef:
            for j, t in enumerate(row):
                if t:
                    marks[j] += coef * t
    return tuple(marks)


@pytest.mark.parametrize(
    "spec", full_catalog() + ("S5", "SL(2,7)", "D128", "C2xC2xC2xC2xC2", "C2xS4")
)
def test_idempotent_coefficients_give_indicator_marks(spec):
    # Gluck's coefficients against the counted table, not the stored marks
    lat = subgroup_lattice(construct_group(spec))
    tom = marks_by_fixed_points(lat)
    ncls = lat.n_classes()
    for c in range(ncls):
        assert counted_marks(idempotent(lat, c), tom) == tuple(
            int(j == c) for j in range(ncls)
        )


@pytest.mark.parametrize("spec", ["Q8", "S4", "A4", "D12", "SL(2,3)"])
def test_tom_triangular_shape(spec):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    tom = table_of_marks(lat)
    for i in range(lat.n_classes()):
        H = lat.class_rep(i)
        assert tom[i][0] == G.n // H.order
        assert tom[i][i] == lat.normalizer(H).order // H.order
        for j in range(i + 1, lat.n_classes()):
            assert tom[i][j] == 0


@given(coeffs_strategy(11))
def test_marks_roundtrip_s4(coeffs):
    G = construct_group("S4")
    x = BurnsideElement(G, coeffs)
    assert x.coeffs == tuple(coeffs)
    y = element_from_marks(G, x.marks)
    assert y == x
    # y knows only the marks, so this runs the back-substitution
    assert y.coeffs == tuple(coeffs)


@given(coeffs_strategy(6), coeffs_strategy(6))
def test_multiply_is_pointwise_on_marks(a_coeffs, b_coeffs):
    G = construct_group("Q8")
    a = BurnsideElement(G, a_coeffs)
    b = BurnsideElement(G, b_coeffs)
    prod = multiply(a, b)
    assert list(prod.marks) == [u * v for u, v in zip(a.marks, b.marks)]


@pytest.mark.parametrize("spec", ["S3", "D8", "A4"])
def test_multiply_matches_product_gset(spec):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    for i in range(lat.n_classes()):
        for j in range(lat.n_classes()):
            X = coset_space(G, lat.class_rep(i))
            Y = coset_space(G, lat.class_rep(j))
            assert decompose_gset(product_gset(X, Y)) == multiply(
                basis_element(G, i), basis_element(G, j)
            )


def test_coset_space_validates(s4):
    lat = subgroup_lattice(s4)
    for c in range(lat.n_classes()):
        X = coset_space(s4, lat.class_rep(c))
        X.validate()
        assert X.size == s4.n // lat.class_order(c)


def test_decompose_transitive_recovers_class(s4):
    lat = subgroup_lattice(s4)
    for c in range(lat.n_classes()):
        X = coset_space(s4, lat.class_rep(c))
        assert decompose_gset(X) == basis_element(s4, c)


def test_restrict_then_induce_on_cyclic():
    # abelian Mackey: Ind then Res multiplies by the index
    C = cyclic_group(12)
    lat = subgroup_lattice(C)
    K = check_subgroup(Subgroup(C, mask_of([0, 4, 8])))
    emb = subgroup_embedding(K)
    for j in range(subgroup_lattice(emb.source).n_classes()):
        x = basis_element(emb.source, j)
        assert restrict(induce(x, emb), emb) == (C.n // K.order) * x


def test_induction_degree(s4):
    # induced set has size [G:H] * |X|
    lat = subgroup_lattice(s4)
    H = next(HH for HH in lat.subgroups if HH.order == 6)
    emb = subgroup_embedding(H)
    hlat = subgroup_lattice(emb.source)
    for j in range(hlat.n_classes()):
        x = basis_element(emb.source, j)
        ind = induce(x, emb)
        size = ind.marks[0]
        assert size == (s4.n // H.order) * (emb.source.n // hlat.class_order(j))


def test_idempotent_spot_checks(q8):
    lat = subgroup_lattice(q8)
    total = zero(q8)
    for c in range(lat.n_classes()):
        e = idempotent(lat, c)
        assert multiply(e, e) == e
        total = total + e
    assert total == identity_element(q8)


@pytest.mark.parametrize("spec", ["S3", "D8", "C12"])
def test_tensor_induce_matches_map_space(spec):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        emb = subgroup_embedding(H)
        hlat = subgroup_lattice(emb.source)
        for j in range(hlat.n_classes()):
            X = coset_space(emb.source, hlat.class_rep(j))
            lhs = decompose_gset(map_space_gset(emb, X))
            assert lhs == tensor_induce(basis_element(emb.source, j), emb)


@pytest.mark.parametrize(
    "spec",
    ["S4", "A5", "D12", "Q16", "SL(2,3)", "C2xC2xC2", "S3xS3", "C2xQ8", "Dic12"]
    + [spec for spec in SURVEY_EXTRAS if spec not in ("S3xS3", "C2xQ8")],
)
def test_mackey_table_matches_double_coset_walk(spec):
    # every subgroup embedding and quotient map, and the embeddings into
    # each quotient; the non-normal rows include S3 and D8 in S4 and A4 in A5
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    maps = [subgroup_embedding(H) for H in lat.subgroups]
    quotients = [quotient_group(G, lat.class_rep(c)) for c in lat.normal_class_indices()]
    maps += quotients
    for q in quotients:
        qlat = subgroup_lattice(q.target)
        maps += [subgroup_embedding(K) for K in qlat.subgroups]
    for f in maps:
        _assert_class_tables_match_oracles(f)


def _assert_class_tables_match_oracles(f):
    """The Mackey table counts the double-coset walk's rows by class, and the
    push table holds the class of each pushed mask; returns the walk."""
    walk = mackey_by_double_cosets(f)
    rows, widths = _mackey_table(f)
    assert [sorted(row) for row in rows] == [sorted(Counter(w).items()) for w in walk]
    assert widths == tuple(map(len, walk))
    alat, blat = subgroup_lattice(f.source), subgroup_lattice(f.target)
    assert _push_table(f) == tuple(
        blat.class_index(Subgroup(f.target, f.push_mask(alat.class_rep(c).members)))
        for c in range(alat.n_classes())
    )
    return walk


@settings(max_examples=60)
@given(st.lists(small_perm, min_size=2, max_size=3), st.data())
def test_random_perm_class_tables_and_tensor_induction_match_oracles(gens, data):
    # every subgroup embedding and quotient map of a random subgroup of
    # S4 x S2, and the embeddings out of one drawn quotient
    G = construct_group("perm:[" + ";".join(cycle_notation(g) for g in gens) + "]")
    lat = subgroup_lattice(G)
    quotients = [quotient_group(G, lat.class_rep(c)) for c in lat.normal_class_indices()]
    q = data.draw(st.sampled_from(quotients))
    maps = [subgroup_embedding(H) for H in lat.subgroups] + quotients
    maps += [subgroup_embedding(K) for K in subgroup_lattice(q.target).subgroups]
    for f in maps:
        walk = _assert_class_tables_match_oracles(f)
        for j, marks in enumerate(table_of_marks(subgroup_lattice(f.source))):
            products = tuple(math.prod(marks[e] for e in entries) for entries in walk)
            assert tensor_induce(basis_element(f.source, j), f).marks == products


@given(coeffs_strategy(4), coeffs_strategy(4))
def test_tensor_induce_multiplicative(a_coeffs, b_coeffs):
    G = construct_group("S3")
    lat = subgroup_lattice(G)
    H = next(HH for HH in lat.subgroups if HH.order == 3)
    emb = subgroup_embedding(H)
    hl = subgroup_lattice(emb.source)
    a = BurnsideElement(emb.source, a_coeffs[: hl.n_classes()])
    b = BurnsideElement(emb.source, b_coeffs[: hl.n_classes()])
    assert tensor_induce(multiply(a, b), emb) == multiply(
        tensor_induce(a, emb), tensor_induce(b, emb)
    )


@pytest.mark.parametrize(
    "spec, n_order",
    [("S4", 4), ("Q8", 2), ("D12", 2), ("SL(2,3)", 2), ("A4", 4), ("C2xQ8", 2),
     ("SL(2,3)xC2", 2)],
)
def test_deflate_matches_orbit_space(spec, n_order):
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    N = next(
        lat.class_rep(c)
        for c in lat.normal_class_indices()
        if lat.class_order(c) == n_order
    )
    qm = quotient_group(G, N)
    for c in range(lat.n_classes()):
        X = coset_space(G, lat.class_rep(c))
        assert decompose_gset(deflate_gset(X, qm)) == deflate(basis_element(G, c), qm)


@pytest.mark.parametrize(
    "spec", ["S4", "D12", "Q16", "SL(2,3)", "C2xC2xC2", "S3xS3", "A5"]
)
def test_restrict_and_fixed_points_match_coset_actions(spec):
    # the gathers and the Mackey sum against concrete coset actions:
    # restricted to every subgroup, cut down to and inflated from every
    # quotient, and G/L as the set induced from [H/L]
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    sets = [coset_space(G, lat.class_rep(c)) for c in range(lat.n_classes())]
    for H in lat.subgroups:
        emb = subgroup_embedding(H)
        qm = quotient_group(G, H) if H.is_normal() else None
        for c, X in enumerate(sets):
            x = basis_element(G, c)
            assert restrict(x, emb) == decompose_gset(restrict_gset(X, emb))
            if qm is not None:
                assert fixed_points(x, qm) == decompose_gset(fixed_points_gset(X, qm))
        hlat = subgroup_lattice(emb.source)
        for c in range(hlat.n_classes()):
            L = Subgroup(G, emb.push_mask(hlat.class_rep(c).members))
            assert induce(basis_element(emb.source, c), emb) == decompose_gset(
                coset_space(G, L)
            )
        if qm is not None:
            qlat = subgroup_lattice(qm.target)
            for c in range(qlat.n_classes()):
                Y = coset_space(qm.target, qlat.class_rep(c))
                assert inflate(basis_element(qm.target, c), qm) == decompose_gset(
                    inflate_gset(Y, qm)
                )


def test_deflate_after_inflate_is_identity(q8):
    qm = quotient_group(q8, q8.center())
    Q = qm.target
    for c in range(subgroup_lattice(Q).n_classes()):
        x = basis_element(Q, c)
        assert deflate(inflate(x, qm), qm) == x


@given(coeffs_strategy(6), coeffs_strategy(6))
def test_fixed_points_is_ring_map(a_coeffs, b_coeffs):
    G = construct_group("Q8")
    qm = quotient_group(G, G.center())
    a = BurnsideElement(G, a_coeffs)
    b = BurnsideElement(G, b_coeffs)
    assert fixed_points(a + b, qm) == fixed_points(a, qm) + fixed_points(b, qm)
    assert fixed_points(multiply(a, b), qm) == multiply(
        fixed_points(a, qm), fixed_points(b, qm)
    )


def test_fixed_points_after_inflate_is_identity(s4):
    lat = subgroup_lattice(s4)
    V = next(
        lat.class_rep(c) for c in lat.normal_class_indices() if lat.class_order(c) == 4
    )
    qm = quotient_group(s4, V)
    Q = qm.target
    for c in range(subgroup_lattice(Q).n_classes()):
        x = basis_element(Q, c)
        assert fixed_points(inflate(x, qm), qm) == x


def test_deflate_idempotent_closed_form(q8):
    lat = subgroup_lattice(q8)
    qm = quotient_group(q8, q8.center())
    for c in range(lat.n_classes()):
        direct = deflate(idempotent(lat, c), qm)
        assert deflate_idempotent(lat, lat.class_rep(c), qm) == direct


@pytest.mark.parametrize("spec", full_catalog())
def test_basis_elements_from_integers_match_constructor(spec):
    G = construct_group(spec)
    n = subgroup_lattice(G).n_classes()
    for c in range(n):
        indicator = tuple(int(j == c) for j in range(n))
        x, y = basis_element(G, c), BurnsideElement(G, indicator)
        assert (x.num, x.den, x._coeff_ints()) == (y.num, y.den, y._coeff_ints())
        assert x.marks == y.marks and x.coeffs == y.coeffs
    one = identity_element(G)
    top = (0,) * (n - 1) + (1,)
    assert (one.num, one.den, one._coeff_ints()) == ((1,) * n, 1, (top, 1))


def test_is_integral():
    G = construct_group("S3")
    lat = subgroup_lattice(G)
    assert is_integral(basis_element(G, 0) - 3 * basis_element(G, 2))
    assert not is_integral(idempotent(lat, 0))


def test_scalar_and_ring_operations(s3):
    x = basis_element(s3, 1)
    y = basis_element(s3, 2)
    assert x + y - x == y
    assert 2 * x == x + x
    assert Fraction(1, 2) * (x + x) == x
    assert x * y == multiply(x, y)
    assert (x - x).is_zero()


def test_mixed_ring_elements_rejected(s3, q8):
    with pytest.raises(PreconditionError):
        basis_element(s3, 0) + basis_element(q8, 0)
    # S3 has four subgroup classes
    for coeffs in ([1, 2], [1, 2, 3, 4, 5], []):
        with pytest.raises(PreconditionError):
            BurnsideElement(s3, coeffs)


def test_rational_formatting_roundtrip():
    for fr in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(5, 12)):
        assert parse_rational(format_rational(fr)) == fr
    assert type(parse_rational("7")) is Fraction and parse_rational("-6/4") == Fraction(-3, 2)
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(4)) == "4/1"
    with pytest.raises(SpecParseError):
        parse_rational("1/2/3")


@given(coeffs_strategy(11))
def test_element_json_roundtrip(coeffs):
    G = construct_group("S4")
    x = BurnsideElement(G, coeffs)
    data = json.loads(json.dumps(element_to_json(x)))
    assert element_from_json(G, data) == x


def test_element_json_rejects_garbage(s3):
    with pytest.raises(PreconditionError):
        element_from_json(s3, {"6:0": "1"})
    with pytest.raises(PreconditionError):
        element_from_json(s3, [["6:0"]])
    with pytest.raises(PreconditionError):
        element_from_json(s3, [["9:0", "1/1"]])


@settings(max_examples=60)
@given(
    st.sampled_from(["Q8", "S4", "C12", "C2xC2xC2"]),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=-60, max_value=60),
            st.integers(min_value=1, max_value=60),
            st.booleans(),
        ),
        max_size=12,
    ),
)
def test_element_from_json_sums_like_fractions(spec, terms):
    # repeated labels, negative and unreduced p/q, and bare integers "p"
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    n = lat.n_classes()
    coeffs = [Fraction(0)] * n
    data = []
    for c, p, q, bare in terms:
        c %= n
        value = str(p) if bare else f"{p}/{q}"
        coeffs[c] += Fraction(p) if bare else Fraction(p, q)
        data.append([lat.class_label(c), value])
    x, y = element_from_json(G, data), BurnsideElement(G, coeffs)
    assert (x.num, x.den, x._coeff_ints()) == (y.num, y.den, y._coeff_ints())
    assert x.coeffs == tuple(coeffs)


def test_element_from_json_errors_in_item_order(s3):
    big = "1" + "0" * 5000
    cases = [
        # a bad label fails before its own bad value
        ([["9:0", "1/0"]], PreconditionError, "no subgroup class '9:0' in S3"),
        # the first bad item fails first
        ([["2:0", "1/0"], ["9:0", "1"]], SpecParseError, "malformed rational '1/0'"),
        ([["2:0", "1"], ["2:0", "x"], ["2:0", "1/0"]], SpecParseError,
         "malformed rational 'x'"),
        ([["2:0", big]], SpecParseError, f"malformed rational {big!r}"),
        ([["2:0", "1/" + big]], SpecParseError, f"malformed rational {'1/' + big!r}"),
        ([["2:0", "1"], ["2:0"]], PreconditionError, "malformed element entry ['2:0']"),
    ]
    for data, error, message in cases:
        with pytest.raises(error) as info:
            element_from_json(s3, data)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "text", ["", "-", "+1", "1/", "/2", "1/-2", "--1", " 1", "1 ", "1_0", "1/2/3",
             "\u0661", "\u00b2", "1.5", "1/0", "-0/0"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(SpecParseError) as info:
        parse_rational(text)
    assert str(info.value) == f"malformed rational {text!r}"


def test_format_element_strings(s3):
    lat = subgroup_lattice(s3)
    x = basis_element(s3, 3) - Fraction(1, 2) * basis_element(s3, 0)
    s = format_element(x)
    assert s == "-1/2[S3/1:0] + [S3/6:0]"
    assert format_element(zero(s3)) == "0"


def _ref_element_to_json(x):
    """The sparse JSON form read from the dense Fraction coefficients."""
    lat = subgroup_lattice(x.group)
    return [
        [lat.class_label(c), format_rational(coef)]
        for c, coef in enumerate(x.coeffs)
        if coef != 0
    ]


def _ref_format_element(x):
    """format_element written over the dense Fraction coefficients."""
    lat = subgroup_lattice(x.group)
    terms = []
    for c, coef in enumerate(x.coeffs):
        if coef:
            label = f"[{x.group.label}/{lat.class_label(c)}]"
            terms.append({1: label, -1: f"-{label}"}.get(coef, f"{coef}{label}"))
    if not terms:
        return "0"
    return terms[0] + "".join(
        f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in terms[1:]
    )


@st.composite
def formatting_cases(draw):
    G = construct_group(draw(st.sampled_from(["S3", "D8", "Q8", "C2xC2xC2"])))
    k = subgroup_lattice(G).n_classes()
    route = draw(st.sampled_from(["coeffs", "marks", "zero"]))
    if route == "zero":
        return zero(G)
    values = draw(coeffs_strategy(k))
    # coefficients over a common denominator that most numerators share a
    # factor with, or recovered from marks by back-substitution
    if route == "coeffs":
        return BurnsideElement(G, values)
    return element_from_marks(G, values)


@given(formatting_cases())
def test_formatting_matches_dense_fractions(x):
    assert element_to_json(x) == _ref_element_to_json(x)
    assert format_element(x) == _ref_format_element(x)


# -- the integer form of an element -----------------------------------------


def fraction_marks(tom, coeffs):
    """Marks as Fractions: the coefficients times the table of marks."""
    return tuple(
        sum((Fraction(c) * row[j] for c, row in zip(coeffs, tom)), Fraction(0))
        for j in range(len(tom))
    )


def fraction_coeffs(tom, marks):
    """Coefficients as Fractions, back-substituted on the triangular table."""
    coeffs = [Fraction(0)] * len(tom)
    for j in range(len(tom) - 1, -1, -1):
        v = Fraction(marks[j]) - sum(coeffs[i] * tom[i][j] for i in range(j + 1, len(tom)))
        coeffs[j] = v / tom[j][j]
    return tuple(coeffs)


def assert_integer_form(x, ref_marks):
    """Marks and coefficients are ints over one positive denominator in
    lowest terms, and read out as the Fraction reference."""
    for num, den in ((x.num, x.den), x._coeff_ints()):
        assert type(den) is int and den > 0
        assert all(type(m) is int for m in num)
        assert math.gcd(den, *num) == 1
    tom = table_of_marks(subgroup_lattice(x.group))
    assert x.marks == tuple(ref_marks)
    assert x.coeffs == fraction_coeffs(tom, ref_marks)
    assert all(type(v) is Fraction for v in x.marks + x.coeffs)


@st.composite
def integer_form_cases(draw):
    G = construct_group(draw(st.sampled_from(["S4", "Q8", "C2xC2"])))
    lat = subgroup_lattice(G)
    k = lat.n_classes()
    a = draw(coeffs_strategy(k))
    b = draw(coeffs_strategy(k))
    s = draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(3, 2), Fraction(-5, 4)]))
    h = draw(st.integers(min_value=0, max_value=k - 1))
    n = draw(st.sampled_from(lat.normal_class_indices()))
    return G, a, b, s, h, n


@given(integer_form_cases())
def test_integer_form_after_every_operation(case):
    G, ac, bc, s, h, n = case
    lat = subgroup_lattice(G)
    tom = table_of_marks(lat)
    a, b = BurnsideElement(G, ac), BurnsideElement(G, bc)
    ma, mb = fraction_marks(tom, ac), fraction_marks(tom, bc)
    checks = [
        (a, ma),
        (a + b, [p + q for p, q in zip(ma, mb)]),
        (a - b, [p - q for p, q in zip(ma, mb)]),
        (-a, [-p for p in ma]),
        (s * a, [s * p for p in ma]),
        (a * s, [s * p for p in ma]),
        (multiply(a, b), [p * q for p, q in zip(ma, mb)]),
        (element_from_marks(G, ma), ma),
    ]
    # the three biset operations along the embedding of the h-th class and
    # the quotient map by the n-th (normal) class
    emb = subgroup_embedding(lat.class_rep(h))
    qm = quotient_group(G, lat.class_rep(n))
    xh, mh = restrict(a, emb), pullback_ref(emb, ma)
    y, my = deflate(a, qm), pushforward_ref(qm, ma)
    checks += [
        (xh, mh),
        (induce(xh, emb), pushforward_ref(emb, mh)),
        (tensor_induce(xh, emb), tensor_ref(emb, mh)),
        (y, my),
        (inflate(y, qm), pullback_ref(qm, my)),
        (fixed_points(a, qm), tensor_ref(qm, ma)),
    ]
    for x, ref in checks:
        assert_integer_form(x, ref)


def pullback_ref(f, marks):
    return [marks[t] for t in _push_table(f)]


def pushforward_ref(f, marks):
    src = table_of_marks(subgroup_lattice(f.source))
    dst = table_of_marks(subgroup_lattice(f.target))
    coeffs = [Fraction(0)] * len(dst)
    for c, v in zip(_push_table(f), fraction_coeffs(src, marks)):
        coeffs[c] += v
    return fraction_marks(dst, coeffs)


def tensor_ref(f, marks):
    return [math.prod(marks[e] for e in entries) for entries in mackey_by_double_cosets(f)]


@given(integer_form_cases())
def test_equal_elements_hash_equal_across_routes(case):
    G, ac, bc, s, _, _ = case
    tom = table_of_marks(subgroup_lattice(G))
    a, b = BurnsideElement(G, ac), BurnsideElement(G, bc)
    routes = [
        a,
        element_from_marks(G, fraction_marks(tom, ac)),
        BurnsideElement(G, element_from_marks(G, a.marks).coeffs),
        (a + b) - b,
        a * s + a * (1 - s),
    ]
    for x in routes:
        assert x == a and hash(x) == hash(a)
        assert (x.num, x.den) == (a.num, a.den)
    zeros = [zero(G), a - a, (a + b) - (b + a), s * a - a * s, 0 * b, b + -b]
    for z in zeros:
        assert z == zeros[0] and hash(z) == hash(zeros[0])
        assert z.den == 1 and z.is_zero()
