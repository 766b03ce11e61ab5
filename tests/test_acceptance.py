"""Acceptance gate: ten criteria, one test each, run over the full catalog.

Every comparison is exact equality on integers or rationals. There are no
tolerances anywhere; a single off-by-anything fails the criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.
"""

import random
from fractions import Fraction

from conftest import cyclic_subgroup
from fwburnside import (
    BurnsideElement,
    Subgroup,
    basis_element,
    check_commutes,
    check_gcd_property,
    check_m_equality,
    construct_group,
    cyclic_group,
    deflate,
    fw_apply,
    full_catalog,
    idempotent,
    identity_element,
    is_integral,
    m_constant,
    m_cyclic,
    multiply,
    quotient_group,
    subgroup_embedding,
    subgroup_lattice,
    table_of_marks,
    tensor_induce,
    zero,
)
from fwburnside.fw import _route_pairs
from fwburnside.groups import mask_of
from fwburnside.lattice import divisors
from fwburnside.oracles import (
    check_subgroup,
    coset_space,
    decompose_gset,
    deflate_gset,
    map_space_gset,
)
from fwburnside.propositions import (
    check_divisor_lemma,
    check_integrality,
    deflate_idempotent,
    deflation_closed_forms,
    fw_transitive_image,
    gcd_by_containment,
    gcd_by_cyclic_containment,
    gcd_by_cyclic_intersections,
    gcd_by_sylow,
)

CATALOG = full_catalog()


def groups():
    return [construct_group(spec) for spec in CATALOG]


def test_criterion_01_idempotents_orthogonal_and_resolve_identity():
    checked = 0
    for G in groups():
        lat = subgroup_lattice(G)
        es = [idempotent(lat, c) for c in range(lat.n_classes())]
        total = zero(G)
        for i, e in enumerate(es):
            for j, f in enumerate(es):
                expected = e if i == j else zero(G)
                assert multiply(e, f) == expected
                checked += 1
            total = total + e
        assert total == identity_element(G)
    print(f"criterion 1 PASS: {checked} idempotent products exact over {len(CATALOG)} groups")


def test_criterion_02_gcd_property_methods_agree():
    formulations = (
        check_gcd_property,
        gcd_by_containment,
        gcd_by_cyclic_containment,
        gcd_by_cyclic_intersections,
    )
    checked = normal = 0
    for G in groups():
        lat = subgroup_lattice(G)
        for c in range(lat.n_classes()):
            N = lat.class_rep(c)
            values = {f(G, N) for f in formulations}
            assert len(values) == 1, (G.label, lat.class_label(c))
            if N.is_normal():
                assert gcd_by_sylow(G, N) in values
                normal += 1
            checked += 1
    assert normal == sum(len(subgroup_lattice(G).normal_class_indices()) for G in groups())
    print(
        f"criterion 2 PASS: all five formulations agree on {checked} subgroup classes"
        f" ({normal} normal)"
    )


def test_criterion_03_lift_integral_and_multiplicative():
    rng = random.Random(97)
    for G in groups():
        C = cyclic_group(G.n)
        assert check_integrality(G)
        clat = subgroup_lattice(C)
        glat = subgroup_lattice(G)
        # independent re-verification through marks: the lifted element must
        # show the source mark of the equal-order cyclic subgroup everywhere
        for j in range(clat.n_classes()):
            x = basis_element(C, j)
            y = fw_apply(G, x)
            assert is_integral(y)
            mx, my = x.marks, y.marks
            for c in range(glat.n_classes()):
                d = glat.class_order(c)
                assert my[c] == mx[clat.class_by_label(f"{d}:0")]
        k = clat.n_classes()
        for _ in range(50):
            a = BurnsideElement(
                C,
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)],
            )
            b = BurnsideElement(
                C,
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)],
            )
            assert fw_apply(G, multiply(a, b)) == multiply(fw_apply(G, a), fw_apply(G, b))
            assert fw_apply(G, a + b) == fw_apply(G, a) + fw_apply(G, b)
    print(f"criterion 3 PASS: lift integral and a ring map on {len(CATALOG)} groups, 50 random pairs each")


def test_criterion_04_transitive_image_characterization():
    checked = 0
    for G in groups():
        glat = subgroup_lattice(G)
        for d in divisors(G.n):
            ti = fw_transitive_image(G, cyclic_subgroup(G.n, d))
            witnesses = [
                c
                for c in range(glat.n_classes())
                if glat.class_order(c) == d
                and check_gcd_property(G, glat.class_rep(c))
            ]
            assert ti.transitive == bool(witnesses)
            if ti.transitive:
                assert glat.class_index(ti.stabilizer) in witnesses
                assert ti.element == basis_element(G, glat.class_index(ti.stabilizer))
            checked += 1
    print(f"criterion 4 PASS: transitivity matched the gcd witness on {checked} divisors")


def test_criterion_05_induction_iff_gcd():
    checked = 0
    for G in groups():
        lat = subgroup_lattice(G)
        for c in range(lat.n_classes()):
            H = lat.class_rep(c)
            expected = check_gcd_property(G, H)
            assert check_commutes(G, "ind", H).commutes == expected, (G.label, c)
            assert check_commutes(G, "ten", H).commutes == expected, (G.label, c)
            checked += 1
    print(f"criterion 5 PASS: ind and ten commute iff gcd on {checked} classes")


def test_criterion_06_deflation_routes_agree():
    checked = squares = 0
    for G in groups():
        lat = subgroup_lattice(G)
        for nc in lat.normal_class_indices():
            N = lat.class_rep(nc)
            qm = quotient_group(G, N)
            for c in range(lat.n_classes()):
                H = lat.class_rep(c)
                basis = basis_element(G, c)
                via_sets = decompose_gset(deflate_gset(coset_space(G, H), qm))
                assert via_sets == deflate(basis, qm)
                assert deflate_idempotent(lat, H, qm) == deflate(
                    idempotent(lat, c), qm
                )
                checked += 1
            # both routes around the commutation square, at every divisor,
            # against the closed forms t(H, N) and r
            for d, (_, left, right) in zip(divisors(G.n), _route_pairs("def", N)):
                assert (left, right) == deflation_closed_forms(G, N, d), (G.label, nc, d)
                squares += 1
    print(
        f"criterion 6 PASS: closed-form, linear and orbit-space deflation agree on {checked}"
        f" pairs, closed forms on both routes of {squares} squares"
    )


def test_criterion_07_center_deflation_family():
    for spec in ("SL(2,5)", "Q8", "Q16", "Dic12", "Dic20", "SL(2,3)"):
        G = construct_group(spec)
        report = check_commutes(G, "def", G.center())
        assert report.commutes, spec

    # the one-page counterexample: the Klein group loses a quarter of e[2]
    V = construct_group("C2xC2")
    lat = subgroup_lattice(V)
    N = lat.class_rep(1)
    report = check_commutes(V, "def", N)
    assert not report.commutes
    assert report.certificate.basis_label == "e[2]"
    assert report.certificate.left == "-1/4[C2/1:0] + [C2/2:0]"
    assert report.certificate.right == "1/4[C2/1:0]"

    # m-values over the center of SL(2,5): the constant follows the cyclic
    # closed form at every overgroup, equals 1 exactly on the Frattini side,
    # and is 1/2 at the center itself
    G = construct_group("SL(2,5)")
    lat = subgroup_lattice(G)
    Z = G.center()
    assert check_m_equality(G, Z)
    seen_half = seen_one = 0
    for c in range(lat.n_classes()):
        T = lat.class_rep(c)
        if not Z <= T:
            continue
        m = m_constant(lat, T, Z)
        assert m == m_cyclic(T.order, 2)
        if T.order % 4 == 0:
            assert Z <= lat.frattini_of(T)
            assert m == 1
            seen_one += 1
        else:
            assert m == Fraction(1, 2)
            seen_half += 1
    assert m_constant(lat, Z, Z) == Fraction(1, 2)
    assert seen_half >= 3 and seen_one >= 3

    # T = N degenerate case across the dicyclic family
    for spec in ("Q8", "Q16", "Dic12", "Dic20"):
        D = construct_group(spec)
        dlat = subgroup_lattice(D)
        Zd = D.center()
        assert Zd.order == 2
        assert m_constant(dlat, Zd, Zd) == Fraction(1, 2) == m_cyclic(2, 2)
    print("criterion 7 PASS: center deflation commutes across the quaternion-like family")


def test_criterion_08_necessary_conditions_for_deflation():
    commuting = 0
    for G in groups():
        lat = subgroup_lattice(G)
        maxcyc = G.max_cyclic_intersection()
        center = G.center()
        for nc in lat.normal_class_indices():
            N = lat.class_rep(nc)
            if not check_commutes(G, "def", N).commutes:
                continue
            commuting += 1
            assert check_gcd_property(G, N), (G.label, nc)
            assert N.is_cyclic(), (G.label, nc)
            assert N <= center, (G.label, nc)
            assert check_m_equality(G, N), (G.label, nc)
            assert N <= maxcyc, (G.label, nc)
    assert commuting > 0
    print(f"criterion 8 PASS: all five necessary conditions hold at {commuting} commuting kernels")


def test_criterion_09_m_constant_closed_form():
    for t in range(1, 65):
        C = cyclic_group(t)
        lat = subgroup_lattice(C)
        for n in divisors(t):
            K = check_subgroup(Subgroup(C, mask_of(range(0, t, t // n))))
            assert K.order == n
            assert m_constant(lat, C.full_subgroup(), K) == m_cyclic(t, n)

    checked = 0
    for G in groups():
        lat = subgroup_lattice(G)
        for c in range(lat.n_classes()):
            L = lat.class_rep(c)
            li = lat.subgroup_index(L)
            phi = lat.frattini_of(L)
            for ki in lat.below(li):
                K = lat.subgroups[ki]
                if K <= phi:
                    # Frattini factors are non-generators, so the only X
                    # with XK = L is L itself and the constant collapses
                    assert m_constant(lat, L, K) == 1
                    checked += 1
    print(f"criterion 9 PASS: closed form to t=64 and {checked} Frattini collapses")


def test_criterion_10_oracle_cross_checks():
    assert table_of_marks(subgroup_lattice(construct_group("S3"))) == (
        (6, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 0, 2, 0),
        (1, 1, 1, 1),
    )

    tensor_checked = 0
    for G in groups():
        if G.n > 12:
            continue
        lat = subgroup_lattice(G)
        for c in range(lat.n_classes()):
            emb = subgroup_embedding(lat.class_rep(c))
            hlat = subgroup_lattice(emb.source)
            for j in range(hlat.n_classes()):
                X = coset_space(emb.source, hlat.class_rep(j))
                assert decompose_gset(map_space_gset(emb, X)) == tensor_induce(
                    basis_element(emb.source, j), emb
                )
                tensor_checked += 1

    # subgroup-order transfer holds whenever the kernel is cyclic and the
    # pair has the gcd property; A4 over its Klein subgroup shows the
    # cyclicity hypothesis is load-bearing (no order-6 subgroup upstairs)
    lemma_checked = 0
    for G in groups():
        lat = subgroup_lattice(G)
        for nc in lat.normal_class_indices():
            N = lat.class_rep(nc)
            if N.is_cyclic() and check_gcd_property(G, N):
                assert check_divisor_lemma(G, N)
                lemma_checked += 1
    a4 = construct_group("A4")
    lat4 = subgroup_lattice(a4)
    klein = next(
        lat4.class_rep(c) for c in lat4.normal_class_indices()
        if lat4.class_order(c) == 4
    )
    assert check_gcd_property(a4, klein) and not klein.is_cyclic()
    assert not check_divisor_lemma(a4, klein)
    print(
        f"criterion 10 PASS: marks table frozen, {tensor_checked} map-space tensor checks,"
        f" divisor lemma on {lemma_checked} kernels"
    )
