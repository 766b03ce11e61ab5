"""The paper's propositions, one function per statement, for tests only.

The engine computes lattices, marks, idempotents, the lift and the
commutation squares; each function here states one thing the paper proves
about them, so the tests can hold the engine to it: four formulations of
the gcd property equivalent to check_gcd_property, transitivity and
integrality of lifted transitive sets, the closed forms of deflation on
idempotents (t on G, r on the cyclic group of the same order) and hence of
both routes around the deflation square, necessary and sufficient
conditions for deflation to commute, order transfer to quotients, and
isomorphisms between cyclic groups. No module of the package imports this
one, and the package root does not re-export it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .burnside import (
    basis_element,
    element_from_marks,
    idempotent,
    is_integral,
    zero,
)
from .errors import PreconditionError
from .fw import check_commutes, check_m_equality, fw_apply
from .groups import Subgroup, cyclic_group, mask_of, quotient_group
from .lattice import (
    _prime_factors,
    check_gcd_property,
    divisors,
    m_constant,
    p_part,
    subgroup_lattice,
)

__all__ = [
    "gcd_by_cyclic_intersections",
    "gcd_by_containment",
    "gcd_by_cyclic_containment",
    "gcd_by_sylow",
    "sylow_subgroup",
    "is_generalized_quaternion",
    "TransitiveImage",
    "fw_transitive_image",
    "check_integrality",
    "t_constant",
    "r_constant",
    "deflate_idempotent",
    "deflation_closed_forms",
    "check_def_necessary",
    "check_prime_kernel_sufficient",
    "check_divisor_lemma",
    "cyclic_generator",
    "cyclic_isomorphism",
]


# -- the gcd property -----------------------------------------------------------


def _cyclic_subgroups(G):
    lat = subgroup_lattice(G)
    return [H for H in lat.subgroups if H.is_cyclic()]


def _holds_order_divisors(subgroups, N):
    return all(N.order % H.order or H <= N for H in subgroups)


def gcd_by_cyclic_intersections(G, N):
    """Formulation (iv): |H ∩ N| = gcd(|H|, |N|) for every cyclic H."""
    return all(
        (H.mask & N.mask).bit_count() == math.gcd(H.order, N.order)
        for H in _cyclic_subgroups(G)
    )


def gcd_by_containment(G, N):
    """Formulation (ii): every subgroup whose order divides |N| lies in N."""
    return _holds_order_divisors(subgroup_lattice(G).subgroups, N)


def gcd_by_cyclic_containment(G, N):
    """Formulation (iii): every cyclic subgroup whose order divides |N|
    lies in N."""
    return _holds_order_divisors(_cyclic_subgroups(G), N)


def gcd_by_sylow(G, N):
    """The prime-by-prime formulation, for N normal: at every prime p with
    1 < |N|_p < |G|_p, the Sylow p-subgroup of G is cyclic, or p = 2,
    |N|_2 = 2 and it is generalized quaternion."""
    if not N.is_normal():
        raise PreconditionError("the Sylow formulation needs N normal in G")
    lat = subgroup_lattice(G)
    for p in _prime_factors(G.n):
        np_ = p_part(N.order, p)
        if np_ in (1, p_part(G.n, p)):
            continue
        P = sylow_subgroup(lat, p)
        if not (P.is_cyclic() or (np_ == 2 and is_generalized_quaternion(P))):
            return False
    return True


def sylow_subgroup(lat, p):
    """A Sylow p-subgroup (canonically the first one in lattice order)."""
    q = p_part(lat.group.n, p)
    for s in lat.subgroups:
        if s.order == q:
            return s
    raise AssertionError("Sylow subgroup missing from a complete lattice")


def is_generalized_quaternion(P):
    """Test P against the generalized quaternion presentation.

    Searches for a of order 2^(k-1) and b outside <a> with b^2 = a^(2^(k-2))
    and b a b^-1 = a^-1; coset counting then forces <a, b> = P, so finding
    such images is an isomorphism with the dicyclic group of order 2^k.
    """
    G = P.parent
    k = P.order
    if k < 8 or k & (k - 1):
        return False
    half = k // 2
    mul, inv = G.mul, G.inv
    for a in P.members:
        if G.element_order(a) != half:
            continue
        amask = G.join_mask(1 << G.identity, a)
        a_sq = a
        for _ in range(half // 2 - 1):
            a_sq = mul[a_sq][a]
        a_inv = inv[a]
        for b in P.members:
            if not (amask >> b) & 1 and mul[b][b] == a_sq and mul[mul[b][a]][inv[b]] == a_inv:
                return True
    return False


# -- the lift of transitive sets ------------------------------------------------


# stabilizer is None when the image is not transitive
TransitiveImage = namedtuple("TransitiveImage", "element transitive stabilizer")


def fw_transitive_image(G, D):
    """Lift of the transitive set [C/D] to G, flagged when the image is
    itself transitive; asserts that this happens exactly when G has an
    order-|D| subgroup with the gcd property, and then that subgroup is the
    stabilizer."""
    C = cyclic_group(G.n)
    if D.parent is not C:
        raise PreconditionError("D must be a subgroup of the cyclic source group")
    glat = subgroup_lattice(G)
    x = fw_apply(G, basis_element(C, subgroup_lattice(C).class_index(D)))
    hits = [c for c, v in enumerate(x.coeffs) if v != 0]
    transitive = len(hits) == 1 and x.coeffs[hits[0]] == 1
    stabilizer = glat.class_rep(hits[0]) if transitive else None
    witness = any(
        glat.class_order(c) == D.order
        and check_gcd_property(G, glat.class_rep(c))
        for c in range(glat.n_classes())
    )
    assert transitive == witness, "transitivity criterion violated"
    if transitive:
        assert stabilizer.order == D.order
        assert check_gcd_property(G, stabilizer)
    return TransitiveImage(x, transitive, stabilizer)


def check_integrality(G):
    """Whether every transitive set [C/D] lifts to G with integer
    coefficients."""
    C = cyclic_group(G.n)
    return all(
        is_integral(fw_apply(G, basis_element(C, j)))
        for j in range(subgroup_lattice(C).n_classes())
    )


# -- deflation in closed form ---------------------------------------------------


def _times_normal(H, N):
    """The subgroup HN for N normal: the set of products h k."""
    G = H.parent
    mul = G.mul
    return Subgroup(G, mask_of(mul[h][k] for h in H.members for k in N.members))


def t_constant(G, H, N):
    """t(H, N): the scalar deflation by N puts on the idempotent at H, the
    normalizer-index ratio |N_G(HN)| |H| / (|HN| |N_G(H)|) times the
    m-constant of (H, H ∩ N)."""
    lat = subgroup_lattice(G)
    HN = _times_normal(H, N)
    ratio = Fraction(lat.normalizer(HN).order * H.order, HN.order * lat.normalizer(H).order)
    return ratio * m_constant(lat, H, Subgroup(G, H.mask & N.mask))


def r_constant(D, CN):
    """Cyclic-side deflation coefficient, for subgroups D and CN of one
    cyclic group: (|D| / |D CN|) m(D, D ∩ CN)."""
    meet = Subgroup(D.parent, D.mask & CN.mask)
    return Fraction(D.order, _times_normal(D, CN).order) * m_constant(
        subgroup_lattice(D.parent), D, meet
    )


def deflate_idempotent(lat, H, qm):
    """Deflation by N = ker qm sends the idempotent at H to t(H, N) times
    the idempotent at HN/N, the image of H."""
    if qm.source is not lat.group:
        raise PreconditionError("quotient map does not match the lattice")
    qlat = subgroup_lattice(qm.target)
    HN_bar = Subgroup(qm.target, qm.push_mask(H.members))
    return t_constant(lat.group, H, qm.kernel()) * idempotent(qlat, qlat.class_index(HN_bar))


def deflation_closed_forms(G, N, d):
    """Both routes around the deflation square at N, on the idempotent e[d]
    of B(C), in closed form, as (deflate after lift, lift after deflate).

    The lift of e[d] is the sum of the idempotents of G at the classes of
    order d, so the first is the sum of t(H, N) e_{HN/N} over them.
    Deflating e[d] by the subgroup C_N of order |N| gives r(C_d, C_N)
    times the idempotent at order d / gcd(d, |N|), so the second is r
    times the sum of the idempotents of G/N at that order.
    """
    qm = quotient_group(G, N)
    glat, qlat = subgroup_lattice(G), subgroup_lattice(qm.target)
    ambient = zero(qm.target)
    for c in range(glat.n_classes()):
        if glat.class_order(c) == d:
            ambient = ambient + deflate_idempotent(glat, glat.class_rep(c), qm)
    clat = subgroup_lattice(cyclic_group(G.n))
    C_d = clat.class_rep(clat.classes_of_order(d)[0])
    C_N = clat.class_rep(clat.classes_of_order(N.order)[0])
    r = r_constant(C_d, C_N)
    d_bar = d // math.gcd(d, N.order)
    cyclic = element_from_marks(
        qm.target,
        [r if qlat.class_order(c) == d_bar else 0 for c in range(qlat.n_classes())],
    )
    return ambient, cyclic


# -- when deflation commutes ----------------------------------------------------


def check_def_necessary(G, N):
    """If deflation by N commutes, the structural conditions must all hold:
    gcd property, N cyclic, N central, the m-equality, and N inside the
    intersection of the maximal cyclic subgroups. Vacuously true otherwise.

    The fifth is a corollary of the first three. Let Z be maximal cyclic.
    NZ is abelian, as N is central. At each prime p, N_p and Z_p are
    cyclic, and |N ∩ Z| = gcd(|N|, |Z|), so the smaller of N_p and Z_p
    lies in the larger. So every Sylow subgroup of NZ is cyclic, NZ is
    cyclic, and NZ = Z: N lies in every maximal cyclic Z."""
    if not check_commutes(G, "def", N).commutes:
        return True
    return (
        check_gcd_property(G, N)
        and N.is_cyclic()
        and N <= G.center()
        and check_m_equality(G, N)
        and N <= G.max_cyclic_intersection()
    )


def check_prime_kernel_sufficient(G, N):
    """Sufficiency for a central subgroup of prime order that is the unique
    subgroup of its order: the m-equality forces deflation by N to
    commute. Returns whether the implication holds; raises on hypothesis
    violations so they are not mistaken for answers."""
    lat = subgroup_lattice(G)
    p = N.order
    if _prime_factors(p) != [p]:
        raise PreconditionError(f"|N| = {p} is not prime")
    if not N <= G.center():
        raise PreconditionError("N is not central")
    if [s for s in lat.subgroups if s.order == p] != [N]:
        raise PreconditionError(f"N is not the unique subgroup of order {p}")
    if not check_m_equality(G, N):
        return True
    return check_commutes(G, "def", N).commutes


def check_divisor_lemma(G, N):
    """Order transfer between G and G/N: for each divisor d of |G|, G has a
    subgroup of order d exactly when G/N has one of order d / gcd(d, |N|)."""
    lat = subgroup_lattice(G)
    qlat = subgroup_lattice(quotient_group(G, N).target)
    orders_g = {s.order for s in lat.subgroups}
    orders_q = {s.order for s in qlat.subgroups}
    return all(
        (d in orders_g) == (d // math.gcd(d, N.order) in orders_q)
        for d in divisors(G.n)
    )


# -- cyclic groups --------------------------------------------------------------


def cyclic_generator(G):
    """Minimal-index element of full order; raises if the group is not cyclic."""
    orders = G.element_orders()
    if G.n in orders:
        return orders.index(G.n)
    raise PreconditionError(f"{G.label} is not cyclic")


def cyclic_isomorphism(A, B, gen_a=None, gen_b=None):
    """Index map A -> B sending a chosen generator of A to one of B.

    Defaults to the minimal-index generator on both sides, which makes the
    map canonical; any generator pair yields some isomorphism.
    """
    if A.n != B.n:
        raise PreconditionError("cyclic groups of different orders are not isomorphic")
    if gen_a is None:
        gen_a = cyclic_generator(A)
    if gen_b is None:
        gen_b = cyclic_generator(B)
    if A.element_order(gen_a) != A.n or B.element_order(gen_b) != B.n:
        raise PreconditionError("chosen elements do not generate")
    mapping = [0] * A.n
    x, y = A.identity, B.identity
    for _ in range(A.n):
        mapping[x] = y
        x = A.mul[x][gen_a]
        y = B.mul[y][gen_b]
    return tuple(mapping)
