import gc
import math
import types
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from fwburnside import (
    BurnsideElement,
    OPERATIONS,
    PreconditionError,
    basis_element,
    GroupHom,
    check_commutes,
    check_gcd_property,
    check_m_equality,
    construct_group,
    cyclic_group,
    decide_commutes,
    deflate,
    deflation_commutes,
    fw_apply,
    fw_context,
    identity_element,
    idempotent,
    induce,
    multiply,
    quotient_group,
    subgroup_lattice,
)
from fwburnside.burnside import _coeffs_from_marks, _idempotent_sum
from fwburnside.fw import _route_pairs
from fwburnside.groups import Subgroup, mask_of
from fwburnside.lattice import divisors, m_constant, m_cyclic, m_sum, totient
from fwburnside.oracles import (
    check_subgroup,
    coset_space,
    decompose_gset,
    marks_by_fixed_points,
)
from fwburnside.propositions import (
    check_def_necessary,
    check_integrality,
    check_prime_kernel_sufficient,
    cyclic_generator,
    cyclic_isomorphism,
    fw_transitive_image,
    r_constant,
    t_constant,
)
from fwburnside.survey import full_catalog

from conftest import SURVEY_EXTRAS, cycle_notation, perm_spec, small_perm, two_perms_of_5


def coeffs_strategy(k):
    rat = st.builds(
        Fraction,
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    return st.lists(rat, min_size=k, max_size=k)


def test_lift_on_cyclic_group_is_identity():
    G = cyclic_group(12)
    ctx = fw_context(G)
    assert ctx.C is G
    lat = subgroup_lattice(G)
    for c in range(lat.n_classes()):
        x = basis_element(G, c)
        assert fw_apply(ctx, x) == x


def test_lift_is_unital_and_preserves_free_set(q8):
    ctx = fw_context(q8)
    clat = subgroup_lattice(ctx.C)
    assert fw_apply(ctx, identity_element(ctx.C)) == identity_element(q8)
    free_c = basis_element(ctx.C, 0)
    assert fw_apply(ctx, free_c) == basis_element(q8, 0)


def test_lift_matches_marks_by_subgroup_order(q8):
    # the defining property: the mark at every H equals the source mark at
    # the cyclic subgroup of the same order
    ctx = fw_context(q8)
    clat = subgroup_lattice(ctx.C)
    glat = subgroup_lattice(q8)
    for j in range(clat.n_classes()):
        x = basis_element(ctx.C, j)
        y = fw_apply(ctx, x)
        mx = x.marks
        my = y.marks
        for c in range(glat.n_classes()):
            d = glat.class_order(c)
            assert my[c] == mx[clat.class_by_label(f"{d}:0")]


@pytest.mark.parametrize("spec", full_catalog())
def test_lift_coefficients_give_gathered_marks(spec):
    # the lift's back-substituted coefficients times the table counted on
    # cosets give the source marks read by subgroup order, also counted
    G = construct_group(spec)
    ctx = fw_context(G)
    glat, clat = subgroup_lattice(G), subgroup_lattice(ctx.C)
    gtom, ctom = marks_by_fixed_points(glat), marks_by_fixed_points(clat)
    for j in range(clat.n_classes()):
        y = fw_apply(ctx, basis_element(ctx.C, j))
        for c in range(glat.n_classes()):
            mark = sum(coef * row[c] for coef, row in zip(y.coeffs, gtom))
            assert mark == ctom[j][ctx.c_class(glat.class_order(c))]


@pytest.mark.parametrize("spec", full_catalog())
def test_lifted_idempotent_matches_lift_and_back_substitution(spec):
    # the lift of e[d] the walk builds, a sum of G's idempotents, has the
    # gathered marks and carries the coefficients back-substitution gives
    G = construct_group(spec)
    ctx = fw_context(G)
    glat, clat = subgroup_lattice(G), subgroup_lattice(ctx.C)
    for d in divisors(G.n):
        x = _idempotent_sum(glat, glat.classes_of_order(d))
        assert x == fw_apply(ctx, idempotent(clat, ctx.c_class(d)))
        assert x._coeffs is not None
        assert x._coeff_ints() == _coeffs_from_marks(glat, x.num, x.den)


def _holds_element(*roots):
    """Whether a BurnsideElement is reachable from roots through containers
    and instance state (types, modules and functions are not followed)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType, types.CodeType)
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        if isinstance(obj, BurnsideElement):
            return True
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def test_idempotents_and_walk_leave_no_element_behind():
    # idempotents and the lifts a walk compares are built where they are
    # used and dropped: neither the lattice nor the context keeps one
    G = construct_group("C2xC2xC2xC2xC2")
    lat, ctx = subgroup_lattice(G), fw_context(G)
    for c in range(lat.n_classes()):
        idempotent(lat, c)
    report = check_commutes(ctx, "def", lat.class_rep(1))
    assert report.checked >= 2
    assert not _holds_element(lat._cache)
    assert not _holds_element(ctx)
    assert _holds_element([idempotent(lat, 0)])  # the walker does see an element


def test_transitive_image_q8(q8):
    ctx = fw_context(q8)
    ti = fw_transitive_image(ctx, ctx.c_subgroup(2))
    assert ti.transitive
    assert ti.stabilizer == q8.center()
    glat = subgroup_lattice(q8)
    assert ti.element == basis_element(q8, glat.class_index(q8.center()))


def test_transitive_image_characterization():
    # [C/D] lifts to a transitive set exactly when some order-|D| class
    # has the gcd property, and then the stabilizer is such a class
    for spec in ("S3", "S4", "Q8", "A4", "D12", "SL(2,3)"):
        G = construct_group(spec)
        ctx = fw_context(G)
        glat = subgroup_lattice(G)
        clat = subgroup_lattice(ctx.C)
        for j in range(clat.n_classes()):
            d = clat.class_order(j)
            ti = fw_transitive_image(ctx, ctx.c_subgroup(d))
            witness = any(
                glat.class_order(c) == d
                and check_gcd_property(G, glat.class_rep(c))
                for c in range(glat.n_classes())
            )
            assert ti.transitive == witness
            if ti.transitive:
                assert ti.stabilizer.order == d
                assert check_gcd_property(G, ti.stabilizer)


def test_lift_of_coset_basis_matches_gcd_class():
    # fw([C/C_d]) equals [G/N] exactly when N has the gcd property
    for spec in ("S4", "Q8", "A4", "Dic12"):
        G = construct_group(spec)
        ctx = fw_context(G)
        glat = subgroup_lattice(G)
        for c in range(glat.n_classes()):
            N = glat.class_rep(c)
            lifted = fw_apply(
                ctx,
                basis_element(
                    ctx.C, subgroup_lattice(ctx.C).class_index(ctx.c_subgroup(N.order))
                ),
            )
            agrees = lifted == basis_element(G, c)
            assert agrees == check_gcd_property(G, N)


@pytest.mark.parametrize("spec", ["S3", "S4", "Q8", "Q16", "A4", "A5", "SL(2,3)"])
def test_integrality_on_catalog_samples(spec):
    assert check_integrality(fw_context(construct_group(spec)))


@given(coeffs_strategy(4), coeffs_strategy(4))
def test_lift_is_a_ring_map(a_coeffs, b_coeffs):
    G = construct_group("Q8")
    ctx = fw_context(G)
    a = BurnsideElement(ctx.C, a_coeffs)
    b = BurnsideElement(ctx.C, b_coeffs)
    assert fw_apply(ctx, a + b) == fw_apply(ctx, a) + fw_apply(ctx, b)
    assert fw_apply(ctx, multiply(a, b)) == multiply(fw_apply(ctx, a), fw_apply(ctx, b))


def test_lift_ignores_generator_choice():
    # subgroups of a cyclic group are characteristic, so transporting along
    # any automorphism leaves every element fixed and the lift unchanged
    G = construct_group("D12")
    ctx = fw_context(G)
    C = ctx.C
    g0 = cyclic_generator(C)
    for g in range(C.n):
        if C.element_order(g) != C.n or g == g0:
            continue
        auto = cyclic_isomorphism(C, C, g0, g)
        for c in range(subgroup_lattice(C).n_classes()):
            x = basis_element(C, c)
            y = induce(x, GroupHom(C, C, auto))
            assert y == x
            assert fw_apply(ctx, y) == fw_apply(ctx, x)


def test_transport_along_noncyclic_isomorphism():
    # D8 / Z onto C2xC2 along each of the six isomorphisms, found by brute
    # force: [Q/K] goes to the coset space of the image of K, and back
    D8 = construct_group("D8")
    Q = quotient_group(D8, D8.center()).target
    B = construct_group("C2xC2")
    isos = [
        p
        for p in permutations(range(4))
        if all(p[Q.mul[a][b]] == B.mul[p[a]][p[b]] for a in range(4) for b in range(4))
    ]
    assert len(isos) == 6
    qlat = subgroup_lattice(Q)
    for iso in isos:
        back = tuple(sorted(range(4), key=iso.__getitem__))
        for c in range(qlat.n_classes()):
            image = Subgroup(B, mask_of(iso[k] for k in qlat.class_rep(c).members))
            y = induce(basis_element(Q, c), GroupHom(Q, B, iso))
            assert y == decompose_gset(coset_space(B, image))
            assert induce(y, GroupHom(B, Q, back)) == basis_element(Q, c)


def test_check_commutes_rejects_bad_inputs(q8):
    ctx = fw_context(q8)
    with pytest.raises(PreconditionError):
        check_commutes(ctx, "bogus", q8.center())
    other = construct_group("S3")
    with pytest.raises(PreconditionError):
        check_commutes(ctx, "def", other.center())


def _assert_gcd_property_decides_like_the_walk(G):
    """Criterion 05, with inflation too: the squares of inf at every normal
    class and of ind and ten at every class commute exactly when the
    subgroup has the gcd property, the reading of subgroup orders that
    fills the survey's commutes_inf, commutes_ind and commutes_ten."""
    ctx = fw_context(G)
    lat = subgroup_lattice(G)
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        gcd = check_gcd_property(G, H)
        ops = ("inf", "ind", "ten") if lat.is_normal_class(c) else ("ind", "ten")
        for op in ops:
            assert check_commutes(ctx, op, H).commutes == gcd, (G.label, op, c)


ORDER_VERDICT_EXTRAS = (
    "S5", "SL(2,7)", "D128", "C2xC2xC2xC2xC2", "C2xS4", "C2xQ8", "C4xC4",
    "SL(2,3)xC2", "C2xD8xS3", "Dic24", "C4xS3",
)


@pytest.mark.parametrize("spec", full_catalog() + ORDER_VERDICT_EXTRAS)
def test_commutes_by_orders_matches_walk(spec):
    _assert_gcd_property_decides_like_the_walk(construct_group(spec))


@settings(max_examples=150)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_commutes_by_orders_matches_walk(gens):
    _assert_gcd_property_decides_like_the_walk(
        construct_group("perm:[" + ";".join(cycle_notation(g) for g in gens) + "]")
    )


def test_deflation_commutes_rejects_bad_inputs(s4):
    lat = subgroup_lattice(s4)
    H = lat.class_rep(3)
    assert not lat.is_normal_class(3)
    with pytest.raises(PreconditionError) as realized:
        quotient_group(s4, H)
    with pytest.raises(PreconditionError) as decided:
        deflation_commutes(s4, H)
    assert str(decided.value) == str(realized.value) == "subgroup of order 3 is not normal in S4"
    with pytest.raises(PreconditionError, match="different group"):
        deflation_commutes(s4, construct_group("S3").center())


def _assert_deflation_decides_like_the_walk(G):
    """deflation_commutes agrees with check_commutes on every normal class,
    the trivial one included, which it answers at once."""
    ctx = fw_context(G)
    lat = subgroup_lattice(G)
    for c in lat.normal_class_indices():
        N = lat.class_rep(c)
        walked = check_commutes(ctx, "def", N).commutes
        assert deflation_commutes(G, N) == walked, (G.label, c)


DEFLATION_VERDICT_EXTRAS = ORDER_VERDICT_EXTRAS + (
    "C3xC3xC3", "Q16xC3", "C2xC2xQ8", "S4xS4",
)


@pytest.mark.parametrize("spec", full_catalog() + DEFLATION_VERDICT_EXTRAS)
def test_deflation_commutes_matches_walk(spec):
    _assert_deflation_decides_like_the_walk(construct_group(spec, cap=None))


@settings(max_examples=150)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_deflation_commutes_matches_walk(gens):
    _assert_deflation_decides_like_the_walk(
        construct_group("perm:[" + ";".join(cycle_notation(g) for g in gens) + "]")
    )


@settings(max_examples=100)
@given(two_perms_of_5)
def test_random_s5_subgroup_deflation_commutes_matches_walk(gens):
    # reaches A5 and S5, whose HN are read off the containment map across
    # classes of more than one member
    _assert_deflation_decides_like_the_walk(construct_group(perm_spec(gens)))


def _assert_def_necessary_where_the_walk_commutes(G):
    # the premise of the survey's gate on commutes_def (criterion 08)
    ctx = fw_context(G)
    lat = subgroup_lattice(G)
    for c in lat.normal_class_indices():
        assert check_def_necessary(ctx, lat.class_rep(c)), (G.label, c)


@settings(max_examples=150)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_def_necessary_where_the_walk_commutes(gens):
    _assert_def_necessary_where_the_walk_commutes(construct_group(perm_spec(gens)))


@settings(max_examples=100)
@given(two_perms_of_5)
def test_random_s5_subgroup_def_necessary_where_the_walk_commutes(gens):
    _assert_def_necessary_where_the_walk_commutes(construct_group(perm_spec(gens)))


@pytest.mark.parametrize("spec", full_catalog() + ORDER_VERDICT_EXTRAS)
def test_deflation_square_commutes_at_e1(spec):
    # both routes give (1/|G|)[(G/N)/1], which is why deflation_commutes
    # starts at the second divisor
    G = construct_group(spec)
    ctx = fw_context(G)
    lat = subgroup_lattice(G)
    for c in lat.normal_class_indices():
        label, left, right = next(_route_pairs(ctx, "def", lat.class_rep(c)))
        assert label == "e[1]" and left == right, (spec, c)
        assert left == Fraction(1, G.n) * basis_element(left.group, 0), (spec, c)


def test_cyclic_deflation_closed_form():
    # along C_n -> C_n/C_m, Def e[d] = r e[d/g] with g = gcd(d, m) and
    # r = phi(d) / (m phi(d/g)): the cyclic route deflation_commutes reads
    for n in range(1, 121):
        ctx = fw_context(cyclic_group(n))
        lat = subgroup_lattice(ctx.C)
        for m in divisors(n):
            f = quotient_group(ctx.C, ctx.c_subgroup(m))
            qlat = subgroup_lattice(f.target)
            for d in divisors(n):
                q = d // math.gcd(d, m)
                r = Fraction(totient(d), m * totient(q))
                closed = r * idempotent(qlat, qlat.class_by_label(f"{q}:0"))
                assert deflate(idempotent(lat, ctx.c_class(d)), f) == closed, (n, m, d)
                assert r_constant(ctx, ctx.c_subgroup(d), ctx.c_subgroup(m)) == r, (n, m, d)


def _assert_m_equality_matches_fraction_reference(G):
    """check_m_equality against m_constant == m_cyclic as Fractions, over
    the class representatives that contain N."""
    lat = subgroup_lattice(G)
    for c in lat.normal_class_indices():
        N = lat.class_rep(c)
        expected = all(
            m_constant(lat, T, N) == m_cyclic(T.order, N.order)
            for T in map(lat.class_rep, range(lat.n_classes()))
            if T.mask & N.mask == N.mask
        )
        assert check_m_equality(G, N) == expected, (G.label, c)


@pytest.mark.parametrize("spec", full_catalog() + ORDER_VERDICT_EXTRAS)
def test_m_equality_matches_fraction_reference(spec):
    _assert_m_equality_matches_fraction_reference(construct_group(spec))


@settings(max_examples=150)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_m_equality_matches_fraction_reference(gens):
    _assert_m_equality_matches_fraction_reference(
        construct_group("perm:[" + ";".join(cycle_notation(g) for g in gens) + "]")
    )


def _assert_halls_identity_at_the_kernel(G):
    """The premise of the survey's m_equal gate. By P. Hall's Eulerian
    identity, m_sum at T = N is the number of x in N with <x> = N, so a
    non-cyclic N, which has no such x, is never m-equal."""
    lat = subgroup_lattice(G)
    orders = G.element_orders()
    for c in lat.normal_class_indices():
        N = lat.class_rep(c)
        generators = sum(orders[x] == N.order for x in N.members)
        assert m_sum(lat, lat.subgroup_index(N), N.mask) == generators, (G.label, c)
        if not N.is_cyclic():
            assert not check_m_equality(G, N), (G.label, c)


@settings(max_examples=150)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_m_sum_at_the_kernel_counts_its_generators(gens):
    _assert_halls_identity_at_the_kernel(construct_group(perm_spec(gens)))


@settings(max_examples=100)
@given(two_perms_of_5)
def test_random_s5_subgroup_m_sum_at_the_kernel_counts_its_generators(gens):
    _assert_halls_identity_at_the_kernel(construct_group(perm_spec(gens)))


def test_def_counterexample_certificate():
    G = construct_group("C2xC2")
    ctx = fw_context(G)
    lat = subgroup_lattice(G)
    N = lat.class_rep(1)
    assert N.order == 2
    report = check_commutes(ctx, "def", N)
    assert not report.commutes
    assert report.certificate is not None
    cert = report.certificate
    assert cert.basis_label == "e[2]"
    assert cert.left == "-1/4[C2/1:0] + [C2/2:0]"
    assert cert.right == "1/4[C2/1:0]"


def test_ind_ten_inf_counterexample_certificates():
    # pinned failures: how many idempotents were checked, which one failed, both sides
    s4 = construct_group("S4")
    ctx = fw_context(s4)
    H = subgroup_lattice(s4).class_rep(3)
    assert H.order == 3
    ind = check_commutes(ctx, "ind", H)
    assert (ind.commutes, ind.checked, ind.certificate.basis_label) == (False, 2, "e[3]")
    assert ind.certificate.left == "-1/3[S4/1:0] + [S4/3:0]"
    assert ind.certificate.right == "-4/3[S4/1:0] + 4[S4/3:0]"
    ten = check_commutes(ctx, "ten", H)
    assert (ten.commutes, ten.checked, ten.certificate.basis_label) == (False, 2, "e[3]")
    assert ten.certificate.right == "1/3[S4/4:1] - [S4/8:0] + [S4/24:0]"
    v = construct_group("C2xC2")
    inf = check_commutes(fw_context(v), "inf", subgroup_lattice(v).class_rep(1))
    assert (inf.commutes, inf.checked, inf.certificate.basis_label) == (False, 1, "e[1]")
    assert inf.certificate.left == "1/2[C2xC2/2:0]"
    assert inf.certificate.right == (
        "-1/2[C2xC2/1:0] + 1/2[C2xC2/2:0] + 1/2[C2xC2/2:1] + 1/2[C2xC2/2:2]"
    )


def test_def_commutes_at_center_quaternion_family():
    for spec in ("Q8", "Q16", "Dic12", "Dic20", "SL(2,3)"):
        G = construct_group(spec)
        ctx = fw_context(G)
        report = check_commutes(ctx, "def", G.center())
        assert report.commutes, spec
        assert report.certificate is None


def test_def_commutativity_downward_closed():
    # commuting kernels form a downward-closed family under containment
    for spec in ("C24", "Q16", "S4", "SL(2,3)", "D12"):
        G = construct_group(spec)
        ctx = fw_context(G)
        lat = subgroup_lattice(G)
        normal = list(lat.normal_class_indices())
        good = {
            c for c in normal if check_commutes(ctx, "def", lat.class_rep(c)).commutes
        }
        for c in good:
            N = lat.class_rep(c)
            for c2 in normal:
                M = lat.class_rep(c2)
                if M <= N:
                    assert c2 in good


def test_ind_ten_match_gcd_on_s4(s4):
    ctx = fw_context(s4)
    lat = subgroup_lattice(s4)
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        expected = check_gcd_property(s4, H)
        assert check_commutes(ctx, "ind", H).commutes == expected
        assert check_commutes(ctx, "ten", H).commutes == expected


def _assert_res_and_fix_commute(G):
    """The walk finds res commuting at every class and fix at every normal
    class: the verdict decide_commutes gives them without walking."""
    ctx = fw_context(G)
    lat = subgroup_lattice(G)
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        assert check_commutes(ctx, "res", H).commutes, (G.label, c)
        if H.is_normal():
            assert check_commutes(ctx, "fix", H).commutes, (G.label, c)


def test_res_and_fix_always_commute():
    for spec in ("S3", "Q8", "A4", "D10"):
        _assert_res_and_fix_commute(construct_group(spec))


# small_perm groups are walked by the verdict-first test below
@given(two_perms_of_5)
def test_random_s5_subgroup_res_and_fix_always_commute(gens):
    _assert_res_and_fix_commute(construct_group(perm_spec(gens)))


def _assert_verdict_first_reports_like_the_walk(G):
    """decide_commutes gives check_commutes's report, field for field, for
    res, ind and ten at every class and all six operations at every
    normal class."""
    ctx = fw_context(G)
    lat = subgroup_lattice(G)
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        ops = OPERATIONS if lat.is_normal_class(c) else ("res", "ind", "ten")
        for op in ops:
            assert decide_commutes(ctx, op, H) == check_commutes(ctx, op, H), (G.label, op, c)


@pytest.mark.parametrize("spec", full_catalog() + SURVEY_EXTRAS)
def test_verdict_first_reports_like_the_walk(spec):
    _assert_verdict_first_reports_like_the_walk(construct_group(spec))


@settings(max_examples=100)
@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_verdict_first_reports_like_the_walk(gens):
    _assert_verdict_first_reports_like_the_walk(construct_group(perm_spec(gens)))


def test_decide_commutes_rejects_bad_inputs_like_the_walk(s4, q8):
    ctx = fw_context(s4)
    H = subgroup_lattice(s4).class_rep(3)
    for op in ("inf", "def", "fix", "bogus"):
        with pytest.raises(PreconditionError) as walked:
            check_commutes(ctx, op, H)
        with pytest.raises(PreconditionError) as decided:
            decide_commutes(ctx, op, H)
        assert str(decided.value) == str(walked.value), op
    with pytest.raises(PreconditionError, match="different group"):
        decide_commutes(ctx, "res", q8.center())


def test_inf_matches_gcd_property():
    # mark bookkeeping: inflating then lifting agrees with lifting then
    # inflating exactly when |H n N| = gcd(|H|, |N|) for every H
    for spec in ("S4", "Q16", "SL(2,3)", "C2xC2"):
        G = construct_group(spec)
        ctx = fw_context(G)
        lat = subgroup_lattice(G)
        for c in lat.normal_class_indices():
            N = lat.class_rep(c)
            assert check_commutes(ctx, "inf", N).commutes == check_gcd_property(G, N)


def test_m_equality_examples():
    sl25 = construct_group("SL(2,5)")
    assert check_m_equality(sl25, sl25.center())
    v = construct_group("C2xC2")
    lat = subgroup_lattice(v)
    assert not check_m_equality(v, lat.class_rep(1))
    c12 = construct_group("C12")
    lat12 = subgroup_lattice(c12)
    for c in lat12.normal_class_indices():
        assert check_m_equality(c12, lat12.class_rep(c))


def test_def_necessary_conditions_hold_where_def_commutes():
    for spec in ("Q8", "Q16", "Dic12", "SL(2,3)", "C12", "S4"):
        G = construct_group(spec)
        ctx = fw_context(G)
        lat = subgroup_lattice(G)
        for c in lat.normal_class_indices():
            assert check_def_necessary(ctx, lat.class_rep(c))


def test_prime_kernel_sufficiency_on_center():
    for spec in ("Q8", "Q16", "Dic12", "Dic20", "SL(2,3)", "SL(2,5)"):
        G = construct_group(spec)
        ctx = fw_context(G)
        assert check_prime_kernel_sufficient(ctx, G.center())
        assert check_commutes(ctx, "def", G.center()).commutes


def test_prime_kernel_sufficiency_rejects_bad_hypotheses():
    # non-central kernel
    s3 = construct_group("S3")
    lat3 = subgroup_lattice(s3)
    C3 = next(lat3.class_rep(c) for c in lat3.normal_class_indices()
              if lat3.class_order(c) == 3)
    with pytest.raises(PreconditionError):
        check_prime_kernel_sufficient(fw_context(s3), C3)
    # composite order
    c8 = cyclic_group(8)
    C4 = check_subgroup(Subgroup(c8, mask_of([0, 2, 4, 6])))
    with pytest.raises(PreconditionError):
        check_prime_kernel_sufficient(fw_context(c8), C4)
    # not the unique subgroup of its order
    v = construct_group("C2xC2")
    latv = subgroup_lattice(v)
    with pytest.raises(PreconditionError):
        check_prime_kernel_sufficient(fw_context(v), latv.class_rep(1))


def test_t_and_r_constants_frozen(q8):
    lat = subgroup_lattice(q8)
    Z = q8.center()
    assert t_constant(q8, Z, Z) == Fraction(1, 2)
    assert t_constant(q8, lat.class_rep(2), Z) == 1
    assert t_constant(q8, q8.full_subgroup(), Z) == 1
    ctx = fw_context(q8)
    CN = ctx.c_subgroup(2)
    assert r_constant(ctx, ctx.c_subgroup(1), CN) == Fraction(1, 2)
    assert r_constant(ctx, ctx.c_subgroup(2), CN) == Fraction(1, 2)
    assert r_constant(ctx, ctx.c_subgroup(4), CN) == 1
    assert r_constant(ctx, ctx.c_subgroup(8), CN) == 1


def test_report_fields(q8):
    ctx = fw_context(q8)
    report = check_commutes(ctx, "def", q8.center())
    assert report.op == "def"
    assert report.group_label == "Q8"
    assert report.sub_label == "2:0"
    assert report.checked > 0
