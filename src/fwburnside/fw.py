"""The marks-defined lift from a cyclic group into an arbitrary finite group
of the same order, plus mechanical commutativity checks.

For a group G of order n and the cyclic group C of the same order, the
lift sends a rational Burnside element x over C to the unique element over
G whose mark at every subgroup K equals the mark of x at the order-|K|
subgroup of C. On idempotents it acts by e_D -> sum of the same-order
idempotents, so each change-of-group operation either commutes with the
lift or fails on some idempotent; check_commutes walks the idempotent
basis in ascending divisor order and reports the first counterexample.
The survey decides the same squares without realizing a section of G or
of C: commutes_by_orders reads inf, ind and ten off G's subgroup orders,
and deflation_commutes compares deflation's route through G, read off
G's own table of marks, with the cyclic route's closed form in (d, |N|).
check_m_equality reads its classes off the same table, and both compare
integers only.

Quotients and subgroups of the canonical cyclic group canonicalize back to
canonical cyclic instances (see groups.py), so B(C/C_N) and B(C_H) are
literally the rings the smaller contexts are built on, and the two routes
around each square meet in the same ring with no identification step.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import compress
from math import gcd

from .burnside import (
    _gather,
    _idempotent_sum,
    _marks_table,
    format_element,
    idempotent,
    operation,
)
from .errors import PreconditionError
from .groups import cyclic_group
from .lattice import check_gcd_property, divisors, subgroup_lattice, totient

__all__ = [
    "FwContext",
    "fw_context",
    "fw_apply",
    "Certificate",
    "CommutativityReport",
    "check_commutes",
    "commutes_by_orders",
    "deflation_commutes",
    "check_m_equality",
]

class FwContext:
    """A finite group paired with the canonical cyclic group of its order."""

    __slots__ = ("G", "C", "_lift", "_lifted")

    def __init__(self, G):
        self.G = G
        self.C = cyclic_group(G.n)
        self._lift = None
        self._lifted = {}

    def __repr__(self):
        return f"<FwContext for {self.G.label}>"

    def c_class(self, d):
        """The class of the unique subgroup of C of order d. C has one
        subgroup per divisor of its order, so its lattice labels that
        class "<d>:0"."""
        n = self.G.n
        if d < 1 or n % d:
            raise PreconditionError(f"{d} does not divide the group order {n}")
        return subgroup_lattice(self.C).class_by_label(f"{d}:0")

    def c_subgroup(self, d):
        """The unique subgroup of C of order d."""
        return subgroup_lattice(self.C).class_rep(self.c_class(d))

    def lift_classes(self):
        """For each subgroup class of G: the class of the subgroup of C
        of the same order."""
        if self._lift is None:
            glat = subgroup_lattice(self.G)
            self._lift = tuple(
                self.c_class(glat.class_order(c)) for c in range(glat.n_classes())
            )
        return self._lift

    def lifted_idempotent(self, d):
        """The lift of the idempotent e[d] of C: the sum of G's idempotents
        at its subgroup classes of order d, built with its coefficients as
        well as its marks, so a pushforward needs no back-substitution;
        cached per d."""
        x = self._lifted.get(d)
        if x is None:
            glat = subgroup_lattice(self.G)
            classes = [c for c in range(glat.n_classes()) if glat.class_order(c) == d]
            x = self._lifted[d] = _idempotent_sum(glat, classes)
        return x


def fw_context(G):
    ctx = G._cache.get("fw_context")
    if ctx is None:
        ctx = FwContext(G)
        G._cache["fw_context"] = ctx
    return ctx


def fw_apply(ctx, x):
    """Lift an element over C to the element over G with the same marks,
    matched through subgroup orders: a gather."""
    if x.group is not ctx.C:
        raise PreconditionError("element does not live over the cyclic source ring")
    return _gather(x, ctx.G, ctx.lift_classes())


class Certificate:
    """The first idempotent on which the two routes differ, with both
    images; .left and .right format them on first access."""

    def __init__(self, basis_label, left, right):
        self.basis_label = basis_label
        self.left_element = left
        self.right_element = right

    @cached_property
    def left(self):
        return format_element(self.left_element)

    @cached_property
    def right(self):
        return format_element(self.right_element)


# certificate is None when the square commutes
CommutativityReport = namedtuple(
    "CommutativityReport", "op group_label sub_label commutes checked certificate"
)


def _route_pairs(ctx, op, sub):
    """Yield (basis_label, left, right) per idempotent e of the cyclic ring
    the operation maps from, with left = op(lift(e)) and right = lift(op(e)).

    Subgroups and quotients of C canonicalize to the shared cyclic
    instances, so op(e) lands in the ring the other context lifts from.
    """
    fn, f, src, dst = operation(op, sub)
    f_c = operation(op, ctx.c_subgroup(sub.order))[1]
    inner, outer = fw_context(src), fw_context(dst)
    lat = subgroup_lattice(inner.C)
    for d in divisors(inner.C.n):
        e = idempotent(lat, inner.c_class(d))
        left = fn(inner.lifted_idempotent(d), f)
        right = fw_apply(outer, fn(e, f_c))
        yield f"e[{d}]", left, right


def check_commutes(ctx, op, sub):
    """Compare both ways around the square for one operation and subgroup.

    Walks the idempotent basis of the source ring in ascending divisor
    order; on the first mismatch the report carries the offending basis
    element and both images.
    """
    if sub.parent is not ctx.G:
        raise PreconditionError("subgroup belongs to a different group")
    sub_label = subgroup_lattice(ctx.G).class_label_of(sub)
    checked = 0
    for label, left, right in _route_pairs(ctx, op, sub):
        checked += 1
        if left != right:
            cert = Certificate(label, left, right)
            return CommutativityReport(op, ctx.G.label, sub_label, False, checked, cert)
    return CommutativityReport(op, ctx.G.label, sub_label, True, checked, None)


def commutes_by_orders(ctx, op, sub):
    """Whether the square of op ("inf", "ind" or "ten") at sub commutes:
    check_commutes(ctx, op, sub).commutes, decided in one scan of G's
    subgroup masks that stops at the first subgroup against it. No section
    is realized, no lattice but G's is read and no idempotent is built.

    Both routes are read off subgroup orders. Over a group of order m the
    lift of C_m's idempotent e[d] has mark [|L| = d] at each subgroup L,
    since the lift gathers marks by subgroup order; every operand of the
    walk is such a lift, and the square commutes iff the two routes have
    equal marks at every K <= G for every d.

    - inf along G -> G/N. Inflation gathers through K -> KN/N, of order
      |K| / |K ∩ N|, so the left mark at K is [|K| / |K ∩ N| = d]. In C
      the image has order |K| / gcd(|K|, |N|), so the right mark is
      [|K| / gcd(|K|, |N|) = d]. They agree at every d iff
      |K ∩ N| = gcd(|K|, |N|) for every K <= G: N's gcd property.
    - ten along H -> G. The left mark at K is the product of
      [|g^-1 K g ∩ H| = d] over the double cosets K g H, and every
      conjugate of K is some g^-1 K g, so it is 1 iff every conjugate K'
      has |K' ∩ H| = d. In C every meet is the subgroup of order
      gcd(|K|, |H|), so the right mark is [gcd(|K|, |H|) = d]. If every
      K <= G has |K ∩ H| = gcd(|K|, |H|), the two agree at every K and d;
      if some K does not, at d = gcd(|K|, |H|) the right mark at K is 1
      and the left is 0. So the square commutes iff H has the gcd
      property, over all subgroups of G, not only class representatives.
    - ind along H -> G. The mark of Ind x at K is (1/|H|) times the sum
      of x's marks at g^-1 K g over the g in G with g^-1 K g <= H, so the
      left mark at K is [|K| = d] times the mark of [G/H] at K, the
      number of cosets of H that K fixes. In C every subgroup is normal,
      so the right mark is [|K| = d] [G : H]. K fixes all [G : H] cosets
      iff K lies in every conjugate of H, that is in core_G(H). So the
      square commutes iff every K <= G whose order divides |H| lies in
      core_G(H), and that holds iff every such K lies in H: the
      conjugates of H are among those K, so then H is normal and is its
      own core.
    """
    if op not in ("inf", "ind", "ten"):
        raise PreconditionError(f"orders decide inf, ind and ten, not {op!r}")
    lat = subgroup_lattice(ctx.G)
    c = lat.class_index(sub)  # raises for a subgroup of another group
    if op == "ind":
        hm, h = sub.mask, sub.order
        for m in lat.masks:  # ascending by order
            k = m.bit_count()
            if k > h:
                break
            if h % k == 0 and m & hm != m:
                return False
        return True
    if op == "inf" and not lat.is_normal_class(c):
        raise PreconditionError(f"subgroup of order {sub.order} is not normal in {ctx.G.label}")
    return check_gcd_property(ctx.G, sub)


def _classes_above(lat, N):
    """The classes of the subgroups L >= N, for N normal in G: N's own class
    and the rows with a mark at N's column in the sparse table of marks.
    [G/L] has a nonzero mark at N iff N lies in a conjugate of L, and as N
    is normal, that holds iff N lies in L and in every conjugate of L."""
    c = lat.class_index(N)  # raises for a subgroup of another group
    if not lat.is_normal_class(c):
        raise PreconditionError(f"subgroup of order {N.order} is not normal in {lat.group.label}")
    return (c,) + tuple(i for i, _ in _marks_table(lat)[1][c])


def deflation_commutes(ctx, N):
    """Whether the square of deflation along G -> G/N commutes:
    check_commutes(ctx, "def", N).commutes, decided inside B(G) over the
    same idempotents e[d] in ascending d, stopping at the first mismatch.
    No section of G or of C is realized and no idempotent of C is built:
    of G, only its lattice and its cached sparse table of marks are read.

    Inflation along G -> G/N is injective: Inf x has mark x(L/N) at each
    L >= N, and every subgroup of G/N is such an L/N. So the two routes
    agree in B(G/N) iff their inflations agree in B(G), and the marks of
    those at the classes L >= N are what is compared.

    - e[1] is skipped: it is (1/n)[X/1] over a group X of order n, and
      Def [X/1] = [(X/N)/1], so both routes give (1/|G|)[(G/N)/1].
    - Left route. Def [G/K] = [(G/N)/(KN/N)], whose inflation is the
      G-set [G/KN], so Inf Def lift(e[d]) is the sum of c_K [G/KN] over
      the coefficients c_K of the lifted idempotent. KN is the union of
      N's cosets over K's members, and its marks are its row of G's table.
    - Right route, in closed form. In C every normalizer is C, so Bouc's
      Def e_D = t(D, C_N) e_{D C_N / C_N} reads Def e[d] = r e[d/g] along
      C -> C/C_N, with g = gcd(d, |N|) and r = phi(d) / (|N| phi(d/g))
      (propositions.r_constant). Lifted to G/N and inflated, its mark at
      L >= N is r [|L| / |N| = d/g].
    """
    G = ctx.G
    lat = subgroup_lattice(G)
    above = _classes_above(lat, N)
    rows = _marks_table(lat)[0]
    n = N.order
    at = [lat.class_order(j) // n for j in above]  # |L| / |N|
    reps, index, class_of = lat.reps, lat.index, lat.class_of
    mul, nm, nmembers = G.mul, N.mask, N.members
    cosets, pushed = {}, {}  # element -> mask of its coset of N; class of K -> of KN

    def push(k):
        km = nm
        for g in lat.subgroups[reps[k]].members:
            if not (km >> g) & 1:
                coset = cosets.get(g)
                if coset is None:
                    row, coset = mul[g], 0
                    for h in nmembers:
                        coset |= 1 << row[h]
                    cosets[g] = coset
                km |= coset
        j = pushed[k] = class_of[index[km]]
        return j

    for d in divisors(G.n)[1:]:
        cnum, cden = ctx.lifted_idempotent(d)._coeff_ints()
        out = {}
        for k, v in compress(enumerate(cnum), cnum):
            j = pushed.get(k)
            if j is None:
                j = push(k)
            out[j] = out.get(j, 0) + v
        acc = [0] * len(rows)
        for j, v in out.items():
            if v:
                for col, t in rows[j]:
                    acc[col] += v * t
        # acc[j] / cden == r [|L| / |N| = d/g], times cden |N| phi(d/g)
        q = d // gcd(d, n)
        scale, hit = n * totient(q), totient(d) * cden
        for j, o in zip(above, at):
            if acc[j] * scale != (hit if o == q else 0):
                return False
    return True


def check_m_equality(G, N):
    """Whether m(T, N) matches the cyclic closed form for every T >= N.

    The classes T >= N are read from N's column of G's sparse table of
    marks, and each is compared in integers: m(T, N) = s / |T|, where s
    is the sum of |X| mu(X, T) over X <= T with XN = T (lattice.m_constant),
    and the cyclic form is phi(|T|) / (|N| phi(|T| / |N|))
    (lattice.m_cyclic)."""
    lat = subgroup_lattice(G)
    masks, reps, nm, n = lat.masks, lat.reps, N.mask, N.order
    for c in _classes_above(lat, N):
        r = reps[c]
        t = masks[r].bit_count()
        s = 0
        for x, mu in lat.mu_column(r).items():
            xm = masks[x]
            xo = xm.bit_count()
            if xo * n == t * (xm & nm).bit_count():  # XN = T
                s += xo * mu
        if s * n * totient(t // n) != totient(t) * t:
            return False
    return True
