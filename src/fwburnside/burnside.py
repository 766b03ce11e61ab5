"""Exact arithmetic in Burnside rings, held by marks.

An element stores its mark vector: for each conjugacy class of subgroups K,
in the lattice's canonical class order, the number of points fixed by K.
The ring product is pointwise on marks and the Frobenius-Wielandt lift of
fw.py is defined on them, so marks are the one representation;
coefficients over the transitive basis [G/H] are recovered on first read
and memoised.

- Sums, scalar multiples and products are pointwise.
- Restriction, inflation, fixed points and the lift are gathers: the mark
  at K is a mark of the argument at one related subgroup (K itself inside
  the larger group, KN/N, the preimage of K/N, the cyclic subgroup of
  order |K|), read through a class table cached per lattice and map.
- Induction and tensor induction read the Mackey table of double cosets
  K g H, cached per lattice and subgroup. Induction sums the argument's
  marks at g^-1 K g over the double cosets with g^-1 K g <= H; tensor
  induction multiplies its marks at g^-1 K g ∩ H over all of them.
- Deflation is the one class map on the transitive basis, [G/H] going to
  [(G/N)/(HN/N)]. The points of X/N fixed by K/N are the N-orbits that K
  maps to themselves, and their number is not the mark of X at any one
  subgroup, so deflation converts to coefficients, maps classes and
  converts back. transport_element is a class map as well.

Conversion is exact integer arithmetic on the table of marks, which is
lower triangular in the class order with positive diagonal. Forward, the
coefficients are put over one common denominator. Backward, Gluck's
idempotent formula e_H = (1/|N_G(H)|) sum_{K <= H} |K| mu(K, H) [G/K]
shows that the inverse table has denominators dividing |N_G(H)|, hence
|G|; scaled by |G| times the common denominator of the marks, every
coefficient is an integer, so each division of the back-substitution is
exact (asserted). The set-level models the formulas are checked against
(coset actions, orbit spaces, map spaces, fixed-point counts) live in
oracles.py, which no module of the package imports.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import PreconditionError, SpecParseError
from .groups import Subgroup, mask_of
from .lattice import double_cosets, m_constant, subgroup_lattice

__all__ = [
    "BurnsideElement",
    "MarkVector",
    "zero",
    "basis_element",
    "identity_element",
    "table_of_marks",
    "marks_of",
    "element_from_marks",
    "multiply",
    "is_integral",
    "idempotent",
    "restrict",
    "induce",
    "inflate",
    "deflate",
    "fixed_points",
    "tensor_induce",
    "deflation_coefficient",
    "deflate_idempotent",
    "transport_element",
    "format_element",
    "format_rational",
    "parse_rational",
    "element_to_json",
    "element_from_json",
]

# shared entries, so sparse vectors hold one object per nonzero value
_ZERO = Fraction(0)
_ONE = Fraction(1)


class BurnsideElement:
    """Rational combination of transitive G-sets, held by its marks.

    Built from one coefficient per subgroup class; .marks is the mark
    vector and .coeffs the coefficients, recovered from the marks when
    they are not known.
    """

    __slots__ = ("group", "marks", "_coeffs")

    def __init__(self, group, coeffs):
        lat = subgroup_lattice(group)
        coeffs = tuple(Fraction(c) or _ZERO for c in coeffs)
        if len(coeffs) != lat.n_classes():
            raise PreconditionError(
                f"{len(coeffs)} coefficients for the {lat.n_classes()} "
                f"subgroup classes of {group.label}"
            )
        self.group = group
        self.marks = _marks_from_coeffs(lat, coeffs)
        self._coeffs = coeffs

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = _coeffs_from_marks(subgroup_lattice(self.group), self.marks)
        return self._coeffs

    def _same_ring(self, other):
        if self.group is not other.group:
            raise PreconditionError(
                f"elements live over different groups: "
                f"{self.group.label} vs {other.group.label}"
            )

    def __eq__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._same_ring(other)
        return self.marks == other.marks

    def __hash__(self):
        return hash((id(self.group), self.marks))

    def __add__(self, other):
        self._same_ring(other)
        return _element(self.group, tuple(a + b for a, b in zip(self.marks, other.marks)))

    def __sub__(self, other):
        self._same_ring(other)
        return _element(self.group, tuple(a - b for a, b in zip(self.marks, other.marks)))

    def __neg__(self):
        return _element(self.group, tuple(-a for a in self.marks))

    def __mul__(self, other):
        if isinstance(other, BurnsideElement):
            return multiply(self, other)
        s = Fraction(other)
        return _element(self.group, tuple(a * s for a in self.marks))

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.marks)

    def __repr__(self):
        return f"<BurnsideElement over {self.group.label}: {format_element(self)}>"


def _element(group, marks, coeffs=None):
    """An element from its mark vector (a tuple of Fractions, trusted)."""
    x = object.__new__(BurnsideElement)
    x.group = group
    x.marks = marks
    x._coeffs = coeffs
    return x


class MarkVector:
    """Fixed-point counts of an element, one per subgroup class."""

    __slots__ = ("group", "marks")

    def __init__(self, group, marks):
        self.group = group
        self.marks = tuple(Fraction(m) for m in marks)

    def __eq__(self, other):
        if not isinstance(other, MarkVector):
            return NotImplemented
        return self.group is other.group and self.marks == other.marks

    def __repr__(self):
        return f"<MarkVector over {self.group.label}: {self.marks}>"


def zero(G):
    zeros = (_ZERO,) * subgroup_lattice(G).n_classes()
    return _element(G, zeros, zeros)


def basis_element(G, c):
    """The transitive set [G/H] for the c-th subgroup class."""
    lat = subgroup_lattice(G)
    return BurnsideElement(G, tuple(_ONE if j == c else _ZERO for j in range(lat.n_classes())))


def identity_element(G):
    """[G/G], the multiplicative identity."""
    return basis_element(G, subgroup_lattice(G).n_classes() - 1)


def table_of_marks(lat):
    """Rows indexed by [G/H], columns by K: entry |(G/H)^K|. Lower triangular.

    Read from containments (Pfeiffer 1997): |(G/H)^K| equals
    |N_G(K)| * #{K' ~ K : K' <= H} / |H|.
    """
    tom = lat._cache.get("tom")
    if tom is not None:
        return tom
    ncls = lat.n_classes()
    norm_orders = [lat.subgroups[lat.normalizer_idx[r]].order for r in lat.reps]
    rows = []
    for i, rep in enumerate(lat.reps):
        h = lat.subgroups[rep].order
        counts = [0] * ncls
        for k in lat.below[rep]:
            counts[lat.class_of[k]] += 1
        row_marks = [norm_orders[j] * counts[j] // h for j in range(ncls)]
        assert row_marks[0] == lat.group.n // h, "mark at 1 must be the index"
        assert row_marks[i] == norm_orders[i] // h, "diagonal must be [N_G(H):H]"
        rows.append(tuple(row_marks))
    tom = tuple(rows)
    lat._cache["tom"] = tom
    return tom


def _sparse_tom(lat):
    """The nonzero marks by row, as (column, mark) pairs, and below the
    diagonal by column, as (row, mark) pairs; cached per lattice."""
    sparse = lat._cache.get("sparse_tom")
    if sparse is None:
        tom = table_of_marks(lat)
        rows = tuple(tuple((j, t) for j, t in enumerate(row) if t) for row in tom)
        cols = tuple(
            tuple((i, tom[i][j]) for i in range(j + 1, len(tom)) if tom[i][j])
            for j in range(len(tom))
        )
        sparse = lat._cache["sparse_tom"] = (rows, cols)
    return sparse


def _marks_from_coeffs(lat, coeffs):
    """Coefficients times the table of marks, over one common denominator."""
    rows, _ = _sparse_tom(lat)
    den = math.lcm(*(c.denominator for c in coeffs))
    acc = [0] * len(coeffs)
    for c, row in zip(coeffs, rows):
        if c:
            a = c.numerator * (den // c.denominator)
            for j, t in row:
                acc[j] += a * t
    return tuple(Fraction(m, den) if m else _ZERO for m in acc)


def _coeffs_from_marks(lat, marks):
    """Back-substitution on the triangular table in integers scaled by
    |G| times the common denominator of the marks (exact; see above)."""
    tom = table_of_marks(lat)
    _, cols = _sparse_tom(lat)
    scale = math.lcm(*(m.denominator for m in marks)) * lat.group.n
    acc = [0] * len(marks)
    for j in range(len(marks) - 1, -1, -1):
        m = marks[j]
        v = m.numerator * (scale // m.denominator)
        for i, t in cols[j]:
            v -= acc[i] * t
        q, r = divmod(v, tom[j][j])
        assert r == 0, "scaled back-substitution must divide exactly"
        acc[j] = q
    return tuple(Fraction(v, scale) if v else _ZERO for v in acc)


def marks_of(x):
    """Mark vector of an element."""
    return MarkVector(x.group, x.marks)


def element_from_marks(mv):
    """The element with the given mark vector."""
    if len(mv.marks) != subgroup_lattice(mv.group).n_classes():
        raise PreconditionError("mark vector has the wrong length")
    return _element(mv.group, mv.marks)


def multiply(a, b):
    """Ring product: pointwise on marks."""
    a._same_ring(b)
    return _element(a.group, tuple(p * q for p, q in zip(a.marks, b.marks)))


def is_integral(x):
    return all(c.denominator == 1 for c in x.coeffs)


def idempotent(lat, H):
    """Primitive rational idempotent attached to the class of H.

    Its marks form the 0/1 indicator of the class of H. Its coefficients
    (Gluck 1981) are (1/|N_G(H)|) |K| mu(K, H) summed over K <= H,
    collected by class: integer sums, one division each.
    """
    if isinstance(H, Subgroup):
        c = lat.class_index(H)
    else:
        c = H
    key = ("idempotent", c)
    e = lat._cache.get(key)
    if e is not None:
        return e
    rep_idx = lat.reps[c]
    norm_order = lat.subgroups[lat.normalizer_idx[rep_idx]].order
    ncls = lat.n_classes()
    sums = [0] * ncls
    for k in lat.below[rep_idx]:
        sums[lat.class_of[k]] += lat.subgroups[k].order * lat._mu[(k, rep_idx)]
    e = _element(
        lat.group,
        tuple(_ONE if j == c else _ZERO for j in range(ncls)),
        tuple(Fraction(s, norm_order) if s else _ZERO for s in sums),
    )
    lat._cache[key] = e
    return e


# -- operations along subgroups and quotients ---------------------------------
#
# Class tables are cached on the lattice of the larger group, keyed by the
# subgroup or kernel mask; embeddings and quotient maps are cached the same
# way (groups.py), so a mask names one map.


def _cached_table(lat, key, build):
    table = lat._cache.get(key)
    if table is None:
        table = lat._cache[key] = tuple(build())
    return table


def _gather(x, target, table):
    """The element over target whose mark at class c is x's mark at table[c]."""
    marks = x.marks
    return _element(target, tuple([marks[j] for j in table]))


def _map_classes(x, target, table):
    """Linear extension of a class map on the transitive basis: [G/H] at
    class c goes to the basis element at class table[c] over target."""
    coeffs = [_ZERO] * subgroup_lattice(target).n_classes()
    for c, coef in enumerate(x.coeffs):
        if coef:
            coeffs[table[c]] += coef
    return BurnsideElement(target, coeffs)


def _image_classes(glat, emb):
    """For each class of the subgroup H: the class of its image in G."""
    hlat = subgroup_lattice(emb.source)
    return _cached_table(
        glat,
        ("subgroup_classes", emb.image_mask()),
        lambda: (
            glat.class_index(emb.push_subgroup(hlat.class_rep(c)))
            for c in range(hlat.n_classes())
        ),
    )


def _quotient_classes(glat, qm):
    """For each class of G: the class of KN/N in G/N."""
    qlat = subgroup_lattice(qm.target)
    return _cached_table(
        glat,
        ("quotient_classes", qm.kernel.mask),
        lambda: (
            qlat.class_index(qm.push_subgroup(glat.class_rep(c)))
            for c in range(glat.n_classes())
        ),
    )


def _preimage_classes(glat, qm):
    """For each class of G/N: the class of its preimage in G."""
    qlat = subgroup_lattice(qm.target)
    return _cached_table(
        glat,
        ("preimage_classes", qm.kernel.mask),
        lambda: (
            glat.class_index(qm.pull_subgroup(qlat.class_rep(c)))
            for c in range(qlat.n_classes())
        ),
    )


def _double_coset_intersections(glat, emb):
    """For each class [G/K]: the source-side classes of g^-1 K g ∩ H, one per
    double coset K g H. Cached per (lattice, image of the embedding)."""
    hmask = emb.image_mask()
    G = glat.group
    hlat = subgroup_lattice(emb.source)
    H = Subgroup(G, hmask)
    mul, inv = G.mul, G.inv

    def build():
        for c in range(glat.n_classes()):
            K = glat.class_rep(c)
            entries = []
            for g in double_cosets(G, K, H):
                ig_row = mul[inv[g]]
                conj = mask_of(mul[ig_row[k]][g] for k in K.members)
                idx = hlat.index.get(emb.pull_mask(conj & hmask))
                assert idx is not None, "double-coset intersection must be a subgroup"
                entries.append(hlat.class_of[idx])
            yield tuple(entries)

    return _cached_table(glat, ("mackey_table", hmask), build)


def restrict(x, emb):
    """Restriction along a subgroup embedding: the mark at L <= H is the
    mark of x at L as a subgroup of G."""
    if x.group is not emb.parent:
        raise PreconditionError("element does not live over the ambient group")
    return _gather(x, emb.source, _image_classes(subgroup_lattice(emb.parent), emb))


def induce(y, emb):
    """Induction along a subgroup embedding: the mark at K is the sum of the
    marks of y at g^-1 K g over the double cosets K g H with g^-1 K g <= H,
    that is, where the Mackey table's entry has order |K|."""
    if y.group is not emb.source:
        raise PreconditionError("element does not live over the subgroup")
    glat = subgroup_lattice(emb.parent)
    hlat = subgroup_lattice(emb.source)
    table = _double_coset_intersections(glat, emb)
    my = y.marks
    h_orders = [hlat.class_order(h) for h in range(hlat.n_classes())]
    gmarks = []
    for c, entries in enumerate(table):
        k = glat.class_order(c)
        gmarks.append(sum([my[h] for h in entries if h_orders[h] == k], _ZERO))
    return _element(emb.parent, tuple(gmarks))


def inflate(x, qm):
    """Inflation along a quotient map: the mark at K is the mark of x at KN/N."""
    if x.group is not qm.target:
        raise PreconditionError("element does not live over the quotient")
    return _gather(x, qm.source, _quotient_classes(subgroup_lattice(qm.source), qm))


def deflate(x, qm):
    """Deflation along a quotient map: [G/H] goes to [(G/N)/(HN/N)]."""
    if x.group is not qm.source:
        raise PreconditionError("element does not live over the source group")
    return _map_classes(x, qm.target, _quotient_classes(subgroup_lattice(qm.source), qm))


def fixed_points(x, qm):
    """N-fixed points with the residual G/N action: the mark at K/N is the
    mark of x at K."""
    if x.group is not qm.source:
        raise PreconditionError("element does not live over the source group")
    return _gather(x, qm.target, _preimage_classes(subgroup_lattice(qm.source), qm))


# -- tensor induction ----------------------------------------------------------


def tensor_induce(x, emb):
    """Multiplicative induction: the mark at K is the product of the marks of
    x at g^-1 K g ∩ H over double-coset representatives g of K \\ G / H."""
    if x.group is not emb.source:
        raise PreconditionError("element does not live over the subgroup")
    table = _double_coset_intersections(subgroup_lattice(emb.parent), emb)
    mx = x.marks
    gmarks = []
    for entries in table:
        prod = _ONE
        for h in entries:
            prod *= mx[h]
            if not prod:
                break
        gmarks.append(prod)
    return _element(emb.parent, tuple(gmarks))


# -- deflation in closed form ---------------------------------------------------


def deflation_coefficient(lat, H, N):
    """Scalar picked up by the idempotent at H under deflation by N:
    the normalizer-index ratio times the m-constant of (H, H ∩ N)."""
    G = lat.group
    HN = Subgroup(G, H.product_mask(N))
    nH = lat.normalizer(H).order
    nHN = lat.normalizer(HN).order
    ratio = Fraction(nHN * H.order, HN.order * nH)
    return ratio * m_constant(lat, H, H.intersection(N))


def deflate_idempotent(lat, H, qm):
    """Closed form: deflation by N sends the idempotent at H to the scalar
    deflation_coefficient(H, N) times the idempotent at HN/N."""
    if qm.source is not lat.group:
        raise PreconditionError("quotient map does not match the lattice")
    N = qm.kernel
    coeff = deflation_coefficient(lat, H, N)
    HN = Subgroup(lat.group, H.product_mask(N))
    qlat = subgroup_lattice(qm.target)
    return coeff * idempotent(qlat, qm.push_subgroup(HN))


def transport_element(x, mapping, target):
    """Move an element along a group isomorphism given as an index map."""
    src_lat = subgroup_lattice(x.group)
    tgt_lat = subgroup_lattice(target)
    table = [
        tgt_lat.class_index(
            Subgroup(target, mask_of(mapping[m] for m in src_lat.class_rep(c).members))
        )
        for c in range(src_lat.n_classes())
    ]
    return _map_classes(x, target, table)


# -- formatting and serialization -----------------------------------------------


def format_rational(fr):
    return f"{fr.numerator}/{fr.denominator}"


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text):
    """Parse "p" or "p/q" with ASCII digits only; q must be nonzero."""
    if _RATIONAL_RE.fullmatch(text):
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except (ZeroDivisionError, ValueError):  # ValueError: too many digits
            pass
    raise SpecParseError(f"malformed rational {text!r}")


def format_element(x):
    lat = subgroup_lattice(x.group)
    parts = []
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        label = f"[{x.group.label}/{lat.class_label(c)}]"
        if coef == 1:
            term = label
        elif coef == -1:
            term = f"-{label}"
        else:
            term = f"{coef}{label}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def element_to_json(x):
    """Sparse JSON form: [[class_label, "p/q"], ...] over nonzero classes."""
    lat = subgroup_lattice(x.group)
    return [
        [lat.class_label(c), format_rational(coef)]
        for c, coef in enumerate(x.coeffs)
        if coef != 0
    ]


def element_from_json(G, data):
    lat = subgroup_lattice(G)
    coeffs = [Fraction(0)] * lat.n_classes()
    if not isinstance(data, list):
        raise PreconditionError("element JSON must be a list of [label, rational] pairs")
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise PreconditionError(f"malformed element entry {item!r}")
        label, value = item
        coeffs[lat.class_by_label(str(label))] += parse_rational(str(value))
    return BurnsideElement(G, coeffs)
