"""The marks-defined lift from a cyclic group into an arbitrary finite group
of the same order, plus mechanical commutativity checks.

For a group G of order n and the cyclic group C of the same order, the
lift sends a rational Burnside element x over C to the unique element over
G whose mark at every subgroup K equals the mark of x at the order-|K|
subgroup of C. On idempotents it acts by e_D -> sum of the same-order
idempotents, so each change-of-group operation either commutes with the
lift or fails on some idempotent; check_commutes walks the idempotent
basis in ascending divisor order and reports the first counterexample.

decide_commutes gives the same report verdict first, and walks only to
print a failing square's certificate. Every operand of the walk is a
lifted idempotent, whose mark at K is [|K| = d], so:
- res and fix always commute. Restriction to H keeps the marks at K <= H,
  so [|K| = d] stays a lift. Fixed points along G -> G/N send the mark at
  L >= N to L/N, so [|L| = d] becomes [|L/N| = d/|N|], a lift again
  (zero when |N| does not divide d, on both routes).
- inf, ind and ten commute iff the subgroup has the gcd property
  (criterion 05 of the paper; survey.py gives the derivation).
- def commutes iff deflation_commutes, which decides the deflation square
  without the walk, from G's lattice and Moebius function alone: Bouc's
  Def e_H = t(H, N) e_{HN/N} on G's side against its cyclic closed form
  Def e[d] = r e[d/g], compared in integers. Along G -> G/1 deflation is
  the identity, so the trivial kernel commutes at once.
check_m_equality reads the same classes and the same m-sums.

Quotients and subgroups of the canonical cyclic group canonicalize back to
canonical cyclic instances (see groups.py), so B(C/C_N) and B(C_H) are
literally the rings that fw_apply over G/N and H lifts from, and the two
routes around each square meet in the same ring with no identification
step. The lift reads C's classes off the divisors of |G| (_cyclic_classes),
so only the walk and a caller that makes an element over C build C.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .burnside import (
    _gather,
    _idempotent_sum,
    format_element,
    idempotent,
    operation,
)
from .errors import PreconditionError
from .groups import bits, cyclic_group
from .lattice import check_gcd_property, divisors, m_sum, subgroup_lattice, totient

__all__ = [
    "fw_apply",
    "Certificate",
    "CommutativityReport",
    "check_commutes",
    "decide_commutes",
    "deflation_commutes",
    "check_m_equality",
]


def _cyclic_classes(n):
    """Subgroup order -> class in cyclic_group(n), read without building
    it: C has one subgroup per divisor of n and its classes ascend by
    order, so the class of order d is d's position in divisors(n)."""
    return {d: c for c, d in enumerate(divisors(n))}


def fw_apply(G, x):
    """Lift an element over C = cyclic_group(|G|) to the element over G
    with the same marks, matched through subgroup orders: a gather."""
    if x.group is not cyclic_group(G.n):
        raise PreconditionError("element does not live over the cyclic source ring")
    glat, cls = subgroup_lattice(G), _cyclic_classes(G.n)
    return _gather(x, G, [cls[glat.class_order(c)] for c in range(glat.n_classes())])


# the first idempotent on which the two routes differ, with both images formatted
Certificate = namedtuple("Certificate", "basis_label left right")

# certificate is None when the square commutes
CommutativityReport = namedtuple(
    "CommutativityReport", "op group_label sub_label commutes checked certificate"
)


def _route_pairs(op, sub):
    """Yield (basis_label, left, right) per idempotent e of the cyclic ring
    the operation maps from, with left = op(lift(e)) and right = lift(op(e)).
    Each e and each lift of it is built for its own pair and then dropped.

    The lift of e[d] is the sum of the source group's idempotents at its
    classes of order d, built with its coefficients as well as its marks,
    so a pushforward needs no back-substitution. Subgroups and quotients of
    C canonicalize to the shared cyclic instances, so op(e) lands in the
    ring that fw_apply over the target group lifts from.
    """
    fn, f, src, dst = operation(op, sub)
    n = sub.parent.n
    c_sub = subgroup_lattice(cyclic_group(n)).class_rep(_cyclic_classes(n)[sub.order])
    f_c = operation(op, c_sub)[1]
    lat, glat = subgroup_lattice(cyclic_group(src.n)), subgroup_lattice(src)
    for c, d in enumerate(divisors(src.n)):
        left = fn(_idempotent_sum(glat, glat.classes_of_order(d)), f)
        right = fw_apply(dst, fn(idempotent(lat, c), f_c))
        yield f"e[{d}]", left, right


def check_commutes(G, op, sub):
    """Compare both ways around the square for one operation and subgroup.

    Walks the idempotent basis of the source ring in ascending divisor
    order; on the first mismatch the report carries the offending basis
    element and both images.
    """
    if sub.parent is not G:
        raise PreconditionError("subgroup belongs to a different group")
    sub_label = subgroup_lattice(G).class_label_of(sub)
    checked = 0
    for label, left, right in _route_pairs(op, sub):
        checked += 1
        if left != right:
            cert = Certificate(label, format_element(left), format_element(right))
            return CommutativityReport(op, G.label, sub_label, False, checked, cert)
    return CommutativityReport(op, G.label, sub_label, True, checked, None)


def decide_commutes(G, op, sub):
    """check_commutes(G, op, sub), with the verdict taken from the
    theorems in the module docstring. A commuting square is reported as
    the walk would report it: every divisor of the source ring's order
    checked, no certificate. A failing square is walked, and the walk
    stops at the first failing divisor with its certificate. Only the walk
    builds the cyclic group.

    operation(op, sub) runs first, so an unknown operation and a
    non-normal kernel for inf, def and fix raise as the walk raises."""
    if sub.parent is not G:
        raise PreconditionError("subgroup belongs to a different group")
    src = operation(op, sub)[2]
    if op in ("res", "fix"):
        commutes = True
    elif op == "def":
        commutes = deflation_commutes(G, sub)
    else:
        commutes = check_gcd_property(G, sub)
    if not commutes:
        return check_commutes(G, op, sub)
    sub_label = subgroup_lattice(G).class_label_of(sub)
    return CommutativityReport(op, G.label, sub_label, True, len(divisors(src.n)), None)


def _classes_above(lat, N):
    """The classes of the subgroups L >= N, for N normal in G, ascending:
    the classes of the representatives in lat.above(N). As N is normal, it
    lies in L iff it lies in every conjugate of L, so a class above N lies
    above it whole."""
    c = lat.class_index(N)  # raises for a subgroup of another group
    if not lat.is_normal_class(c):
        raise PreconditionError(f"subgroup of order {N.order} is not normal in {lat.group.label}")
    reps, class_of = lat.reps, lat.class_of
    return tuple(class_of[s] for s in bits(lat.above(N.mask)) if reps[class_of[s]] == s)


def deflation_commutes(G, N):
    """Whether the square of deflation along G -> G/N commutes:
    check_commutes(G, "def", N).commutes, decided over the same
    idempotents e[d] in ascending d, stopping at the first mismatch. Only
    G's lattice, its containment map and its Moebius columns are read: no
    section, element, idempotent or table of marks is built.

    Inflation along G -> G/N is injective: Inf x has mark x(L/N) at each
    L >= N, and every subgroup of G/N is such an L/N. So the two routes
    agree iff their inflations have equal marks at every class L >= N.

    - e[1] is skipped: it is (1/n)[X/1] over a group X of order n, and
      Def [X/1] = [(X/N)/1], so both routes give (1/|G|)[(G/N)/1].
    - Left route. The lift of e[d] is the sum of the idempotents e_H at
      the classes of order d, and Bouc's Def e_H = t(H, N) e_{HN/N} with
      t(H, N) = s_H |cl H| / (|HN| |cl HN|), where s_H = m_sum(H, N) is
      |H| m(H, H ∩ N) (propositions.t_constant). Inflated, e_{HN/N} has
      mark 1 at the class of HN and 0 at the other classes L >= N. HN is
      the smallest subgroup above both H and N, so the lowest index in
      lat.above(N) & lat.above(H), subgroups ascending by order.
    - Right route. In C every normalizer is C, so the same formula reads
      Def e[d] = r e[d/g] along C -> C/C_N, with g = gcd(d, |N|) and
      r = phi(d) / (|N| phi(d/g)) (propositions.r_constant). Lifted to
      G/N and inflated, its mark at L >= N is r [|L| / |N| = d/g].

    At each L >= N the sum of s_H |cl H| over the H with HN in L's class
    is compared with r |L| |cl L| [|L| / |N| = d/g], times |N| phi(d/g).
    """
    lat = subgroup_lattice(G)
    lat.class_index(N)  # raises for a subgroup of another group
    if N.order == 1:  # Def along G -> G/1 is the identity
        return True
    above = _classes_above(lat, N)
    reps, classes, masks, class_of = lat.reps, lat.classes, lat.masks, lat.class_of
    nm, n = N.mask, N.order
    over_n = lat.above(nm)
    for d in divisors(G.n)[1:]:
        acc = {}  # class of HN -> sum of s_H |cl H|
        for c in lat.classes_of_order(d):
            hn = over_n & lat.above(masks[reps[c]])
            j = class_of[(hn & -hn).bit_length() - 1]
            acc[j] = acc.get(j, 0) + len(classes[c]) * m_sum(lat, reps[c], nm)
        q = d // gcd(d, n)
        scale, phi = n * totient(q), totient(d)
        for j in above:
            lo = lat.class_order(j)
            if acc.get(j, 0) * scale != (phi * lo * len(classes[j]) if lo == q * n else 0):
                return False
    return True


def check_m_equality(G, N):
    """Whether m(T, N) matches the cyclic closed form for every T >= N.

    The classes T >= N are read off G's containment map (_classes_above),
    and each is compared in integers: |T| m(T, N) is
    lattice.m_sum(T, N), and the cyclic form is
    phi(|T|) / (|N| phi(|T| / |N|)) (lattice.m_cyclic)."""
    lat = subgroup_lattice(G)
    reps, nm, n = lat.reps, N.mask, N.order
    for c in _classes_above(lat, N):
        t = lat.class_order(c)
        if m_sum(lat, reps[c], nm) * n * totient(t // n) != totient(t) * t:
            return False
    return True
