"""Exact arithmetic in Burnside rings over the transitive basis.

An element is a rational coefficient vector over the conjugacy classes of
subgroups, in the lattice's canonical class order. The table of marks is
lower triangular in that order with positive diagonal, so conversion
between coefficients and marks is exact integer back-substitution; no
floating point appears anywhere.

The five linear change-of-group operations are class maps on the
transitive basis: induction, inflation and deflation send [G/H] to one
transitive set, restriction follows the Mackey formula over double cosets,
and fixed points keep [G/K] exactly when the kernel lies in K. Tensor
induction is multiplicative instead and works on marks over the same
double cosets. The set-level models these formulas are checked against
(coset actions, orbit spaces, map spaces) live in oracles.py, which no
module of the package imports.
"""

from __future__ import annotations

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


class BurnsideElement:
    """Rational combination of transitive G-sets, one coefficient per class."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        self.group = group
        self.coeffs = tuple(Fraction(c) for c in coeffs)

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
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.group), self.coeffs))

    def __add__(self, other):
        self._same_ring(other)
        return BurnsideElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._same_ring(other)
        return BurnsideElement(
            self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return BurnsideElement(self.group, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BurnsideElement):
            return multiply(self, other)
        return BurnsideElement(self.group, tuple(a * other for a in self.coeffs))

    def __rmul__(self, other):
        return BurnsideElement(self.group, tuple(other * a for a in self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"<BurnsideElement over {self.group.label}: {format_element(self)}>"


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
    ncls = subgroup_lattice(G).n_classes()
    return BurnsideElement(G, (Fraction(0),) * ncls)


def basis_element(G, c):
    """The transitive set [G/H] for the c-th subgroup class."""
    lat = subgroup_lattice(G)
    return BurnsideElement(
        G, tuple(Fraction(1 if j == c else 0) for j in range(lat.n_classes()))
    )


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


def marks_of(x):
    """Mark vector of an element: exact matrix product with the table of marks."""
    lat = subgroup_lattice(x.group)
    tom = table_of_marks(lat)
    ncls = lat.n_classes()
    marks = [Fraction(0)] * ncls
    for i, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        row = tom[i]
        for j in range(i + 1):
            if row[j]:
                marks[j] += coef * row[j]
    return MarkVector(x.group, marks)


def element_from_marks(mv):
    """Invert the mark map by back-substitution on the triangular table."""
    lat = subgroup_lattice(mv.group)
    tom = table_of_marks(lat)
    ncls = lat.n_classes()
    if len(mv.marks) != ncls:
        raise PreconditionError("mark vector has the wrong length")
    coeffs = [Fraction(0)] * ncls
    for i in range(ncls - 1, -1, -1):
        acc = mv.marks[i]
        for k in range(i + 1, ncls):
            if tom[k][i]:
                acc -= coeffs[k] * tom[k][i]
        coeffs[i] = acc / tom[i][i]
    return BurnsideElement(mv.group, coeffs)


def multiply(a, b):
    """Ring product: pointwise on marks, pulled back to coefficients."""
    a._same_ring(b)
    ma, mb = marks_of(a), marks_of(b)
    return element_from_marks(
        MarkVector(a.group, tuple(p * q for p, q in zip(ma.marks, mb.marks)))
    )


def is_integral(x):
    return all(c.denominator == 1 for c in x.coeffs)


def idempotent(lat, H):
    """Primitive rational idempotent attached to the class of H.

    Coefficients are (1/|N_G(H)|) |K| mu(K, H) summed over K <= H, collected
    by class; its marks form the 0/1 indicator of the class of H.
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
    coeffs = [Fraction(0)] * lat.n_classes()
    for k in lat.below[rep_idx]:
        K = lat.subgroups[k]
        coeffs[lat.class_of[k]] += Fraction(K.order * lat._mu[(k, rep_idx)], norm_order)
    e = BurnsideElement(lat.group, coeffs)
    lat._cache[key] = e
    return e


# -- operations along subgroups and quotients ---------------------------------
#
# Every operation below sends a transitive set to a sum of transitive sets,
# so it is a class map (source class -> tuple of target classes) extended
# linearly by _map_classes.


def _map_classes(x, target, image):
    """Linear extension of a class map: image(c) lists the target classes of
    the c-th basis element, with repetition; it is called on the support of x."""
    coeffs = [Fraction(0)] * subgroup_lattice(target).n_classes()
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        for t in image(c):
            coeffs[t] += coef
    return BurnsideElement(target, coeffs)


def _double_coset_intersections(glat, emb):
    """For each class [G/K]: the source-side classes of g^-1 K g ∩ H, one per
    double coset K g H. Cached per (lattice, image of the embedding)."""
    hmask = emb.image_mask()
    key = ("mackey_table", hmask)
    table = glat._cache.get(key)
    if table is not None:
        return table
    G = glat.group
    hlat = subgroup_lattice(emb.source)
    H = Subgroup(G, hmask)
    mul, inv = G.mul, G.inv
    out = []
    for c in range(glat.n_classes()):
        K = glat.class_rep(c)
        entries = []
        for g in double_cosets(G, K, H):
            ig_row = mul[inv[g]]
            conj = mask_of(mul[ig_row[k]][g] for k in K.members)
            idx = hlat.index.get(emb.pull_mask(conj & hmask))
            assert idx is not None, "double-coset intersection must be a subgroup"
            entries.append(hlat.class_of[idx])
        out.append(tuple(entries))
    table = tuple(out)
    glat._cache[key] = table
    return table


def restrict(x, emb):
    """Restriction along a subgroup embedding, by the Mackey formula:
    [G/K] goes to the sum of [H/(g^-1 K g ∩ H)] over double cosets K g H."""
    if x.group is not emb.parent:
        raise PreconditionError("element does not live over the ambient group")
    table = _double_coset_intersections(subgroup_lattice(emb.parent), emb)
    return _map_classes(x, emb.source, table.__getitem__)


def induce(x, emb):
    """Induction along a subgroup embedding: [H/L] goes to [G/L] on the basis."""
    if x.group is not emb.source:
        raise PreconditionError("element does not live over the subgroup")
    hlat = subgroup_lattice(emb.source)
    glat = subgroup_lattice(emb.parent)
    return _map_classes(
        x, emb.parent, lambda c: (glat.class_index(emb.push_subgroup(hlat.class_rep(c))),)
    )


def inflate(x, qm):
    """Inflation along a quotient map: [(G/N)/(K/N)] goes to [G/K]."""
    if x.group is not qm.target:
        raise PreconditionError("element does not live over the quotient")
    qlat = subgroup_lattice(qm.target)
    glat = subgroup_lattice(qm.source)
    return _map_classes(
        x, qm.source, lambda c: (glat.class_index(qm.pull_subgroup(qlat.class_rep(c))),)
    )


def deflate(x, qm):
    """Deflation along a quotient map: [G/H] goes to [(G/N)/(HN/N)]."""
    if x.group is not qm.source:
        raise PreconditionError("element does not live over the source group")
    glat = subgroup_lattice(qm.source)
    qlat = subgroup_lattice(qm.target)
    return _map_classes(
        x, qm.target, lambda c: (qlat.class_index(qm.push_subgroup(glat.class_rep(c))),)
    )


def fixed_points(x, qm):
    """N-fixed points with the residual G/N action. N is normal, so all of
    G/K is fixed when N <= K, giving [(G/N)/(K/N)], and none of it otherwise."""
    if x.group is not qm.source:
        raise PreconditionError("element does not live over the source group")
    glat = subgroup_lattice(qm.source)
    qlat = subgroup_lattice(qm.target)
    nmask = qm.kernel.mask

    def image(c):
        K = glat.class_rep(c)
        if K.mask & nmask != nmask:
            return ()
        return (qlat.class_index(qm.push_subgroup(K)),)

    return _map_classes(x, qm.target, image)


# -- tensor induction ----------------------------------------------------------


def tensor_induce(x, emb):
    """Multiplicative induction: the mark at K is the product of the marks of
    x at g^-1 K g ∩ H over double-coset representatives g of K \\ G / H."""
    if x.group is not emb.source:
        raise PreconditionError("element does not live over the subgroup")
    glat = subgroup_lattice(emb.parent)
    table = _double_coset_intersections(glat, emb)
    mx = marks_of(x).marks
    gmarks = []
    for entries in table:
        prod = Fraction(1)
        for h in entries:
            prod *= mx[h]
            if prod == 0:
                break
        gmarks.append(prod)
    return element_from_marks(MarkVector(emb.parent, gmarks))


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

    def image(c):
        members = src_lat.class_rep(c).members
        return (tgt_lat.class_index(Subgroup(target, mask_of(mapping[m] for m in members))),)

    return _map_classes(x, target, image)


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
