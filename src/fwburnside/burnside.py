"""Exact arithmetic in Burnside rings over the transitive basis.

An element is a rational coefficient vector over the conjugacy classes of
subgroups, in the lattice's canonical class order. The table of marks is
lower triangular in that order with positive diagonal, so conversion
between coefficients and marks is exact integer back-substitution; no
floating point appears anywhere.

Induction, inflation, and deflation act on the transitive basis directly.
Restriction and fixed points materialize the concrete coset action and
decompose it by orbit stabilizers; the same machinery doubles as the
oracle layer for the formula-level shortcuts (tensor induction via marks
over double cosets, deflation of idempotents in closed form).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraError, PreconditionError, SpecParseError
from .groups import Subgroup, bits, mask_of
from .lattice import m_constant, subgroup_lattice

__all__ = [
    "BurnsideElement",
    "MarkVector",
    "GSet",
    "zero",
    "basis_element",
    "identity_element",
    "table_of_marks",
    "marks_of",
    "element_from_marks",
    "multiply",
    "is_integral",
    "idempotent",
    "coset_space",
    "decompose_gset",
    "product_gset",
    "restrict",
    "induce",
    "inflate",
    "deflate",
    "fixed_points",
    "tensor_induce",
    "map_space_gset",
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
    """Rows indexed by [G/H], columns by K: entry |(G/H)^K|. Lower triangular."""
    tom = lat._cache.get("tom")
    if tom is not None:
        return tom
    G = lat.group
    mul, inv = G.mul, G.inv
    ncls = lat.n_classes()
    reps = [lat.class_rep(c) for c in range(ncls)]
    rows = []
    for i, H in enumerate(reps):
        hmask = H.mask
        visited = 0
        transversal = []
        for g in range(G.n):
            if (visited >> g) & 1:
                continue
            transversal.append(g)
            row = mul[g]
            for h in H.members:
                visited |= 1 << row[h]
        row_marks = [0] * ncls
        for j in range(i + 1):
            K = reps[j]
            if H.order % K.order:
                continue
            count = 0
            for g in transversal:
                ig_row = mul[inv[g]]
                for x in K.members:
                    if not (hmask >> mul[ig_row[x]][g]) & 1:
                        break
                else:
                    count += 1
            row_marks[j] = count
        assert row_marks[0] == G.n // H.order, "mark at 1 must be the index"
        norm = lat.subgroups[lat.normalizer_idx[lat.reps[i]]]
        assert row_marks[i] == norm.order // H.order, "diagonal must be [N_G(H):H]"
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


# -- concrete G-sets ----------------------------------------------------------


class GSet:
    """Finite left G-set as an explicit action table action[g][point]."""

    __slots__ = ("group", "size", "action")

    def __init__(self, group, size, action):
        self.group = group
        self.size = size
        self.action = tuple(tuple(row) for row in action)

    def __repr__(self):
        return f"<GSet over {self.group.label} on {self.size} points>"

    def validate(self):
        """Exhaustive action-axiom check; raises AlgebraError on failure."""
        G = self.group
        if len(self.action) != G.n:
            raise AlgebraError("action table needs one row per group element")
        for row in self.action:
            if len(row) != self.size or any(not 0 <= p < self.size for p in row):
                raise AlgebraError("action row is not a map into the point set")
        if self.action[G.identity] != tuple(range(self.size)):
            raise AlgebraError("identity must act trivially")
        for a in range(G.n):
            ra = self.action[a]
            for b in range(G.n):
                rab = self.action[G.mul[a][b]]
                rb = self.action[b]
                if any(rab[p] != ra[rb[p]] for p in range(self.size)):
                    raise AlgebraError(f"action is not compatible at ({a}, {b})")


def coset_space(G, H):
    """Left cosets of H with the translation action, points ordered by
    minimal coset element; cached per (G, H)."""
    key = ("cosets", H.mask)
    X = G._cache.get(key)
    if X is not None:
        return X
    if H.parent is not G:
        raise PreconditionError("subgroup belongs to a different group")
    mul = G.mul
    coset_id = [-1] * G.n
    reps = []
    for g in range(G.n):
        if coset_id[g] >= 0:
            continue
        t = len(reps)
        reps.append(g)
        row = mul[g]
        for h in H.members:
            coset_id[row[h]] = t
    action = tuple(
        tuple(coset_id[mul[a][r]] for r in reps) for a in range(G.n)
    )
    X = GSet(G, len(reps), action)
    G._cache[key] = X
    return X


def decompose_gset(X):
    """Write a G-set as a sum of transitive classes via orbit stabilizers."""
    lat = subgroup_lattice(X.group)
    G = X.group
    if len(X.action) != G.n or X.action[G.identity] != tuple(range(X.size)):
        raise AlgebraError("invalid action table")
    coeffs = [Fraction(0)] * lat.n_classes()
    visited = [False] * X.size
    for p in range(X.size):
        if visited[p]:
            continue
        stab = 0
        orbit = set()
        for g in range(G.n):
            q = X.action[g][p]
            orbit.add(q)
            if q == p:
                stab |= 1 << g
        for q in orbit:
            visited[q] = True
        idx = lat.index.get(stab)
        if idx is None or len(orbit) * stab.bit_count() != G.n:
            raise AlgebraError("invalid action table: stabilizer is not a subgroup")
        coeffs[lat.class_of[idx]] += 1
    return BurnsideElement(G, coeffs)


def product_gset(X, Y):
    """Cartesian product with the diagonal action (the set-level ring product)."""
    if X.group is not Y.group:
        raise PreconditionError("product needs G-sets over the same group")
    ny = Y.size
    action = tuple(
        tuple(rx[p // ny] * ny + ry[p % ny] for p in range(X.size * ny))
        for rx, ry in zip(X.action, Y.action)
    )
    return GSet(X.group, X.size * ny, action)


# -- operations along subgroups and quotients ---------------------------------


def restrict(x, emb):
    """Restriction along a subgroup embedding, computed on concrete cosets."""
    if x.group is not emb.parent:
        raise PreconditionError("element does not live over the ambient group")
    lat = subgroup_lattice(x.group)
    Hgrp = emb.source
    acc = zero(Hgrp)
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        X = coset_space(x.group, lat.class_rep(c))
        XH = GSet(Hgrp, X.size, tuple(X.action[emb.map[h]] for h in range(Hgrp.n)))
        acc = acc + coef * decompose_gset(XH)
    return acc


def induce(x, emb):
    """Induction along a subgroup embedding: [H/L] goes to [G/L] on the basis."""
    if x.group is not emb.source:
        raise PreconditionError("element does not live over the subgroup")
    G = emb.parent
    hlat = subgroup_lattice(emb.source)
    glat = subgroup_lattice(G)
    coeffs = [Fraction(0)] * glat.n_classes()
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        L = emb.push_subgroup(hlat.class_rep(c))
        coeffs[glat.class_index(L)] += coef
    return BurnsideElement(G, coeffs)


def inflate(x, qm):
    """Inflation along a quotient map: [(G/N)/(K/N)] goes to [G/K]."""
    if x.group is not qm.target:
        raise PreconditionError("element does not live over the quotient")
    G = qm.source
    qlat = subgroup_lattice(qm.target)
    glat = subgroup_lattice(G)
    coeffs = [Fraction(0)] * glat.n_classes()
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        K = qm.pull_subgroup(qlat.class_rep(c))
        coeffs[glat.class_index(K)] += coef
    return BurnsideElement(G, coeffs)


def deflate(x, qm):
    """Deflation along a quotient map: [G/H] goes to [(G/N)/(HN/N)]."""
    if x.group is not qm.source:
        raise PreconditionError("element does not live over the source group")
    glat = subgroup_lattice(qm.source)
    qlat = subgroup_lattice(qm.target)
    coeffs = [Fraction(0)] * qlat.n_classes()
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        Hbar = qm.push_subgroup(glat.class_rep(c))
        coeffs[qlat.class_index(Hbar)] += coef
    return BurnsideElement(qm.target, coeffs)


def deflate_gset(X, qm):
    """Set-level deflation: the orbit space X/N with the residual action."""
    if X.group is not qm.source:
        raise PreconditionError("G-set does not live over the source group")
    nmem = qm.kernel.members
    orbit_id = [-1] * X.size
    reps = []
    for p in range(X.size):
        if orbit_id[p] >= 0:
            continue
        t = len(reps)
        reps.append(p)
        stackless = {X.action[nn][p] for nn in nmem}
        while True:
            grown = {X.action[nn][q] for nn in nmem for q in stackless}
            if grown <= stackless:
                break
            stackless |= grown
        for q in stackless:
            orbit_id[q] = t
    action = tuple(
        tuple(orbit_id[X.action[qm.coset_reps[t]][reps[i]]] for i in range(len(reps)))
        for t in range(qm.target.n)
    )
    return GSet(qm.target, len(reps), action)


def fixed_points(x, qm):
    """N-fixed points with the residual G/N action, on concrete cosets."""
    if x.group is not qm.source:
        raise PreconditionError("element does not live over the source group")
    G = qm.source
    Q = qm.target
    lat = subgroup_lattice(G)
    nmem = qm.kernel.members
    acc = zero(Q)
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        X = coset_space(G, lat.class_rep(c))
        fixed = [
            p
            for p in range(X.size)
            if all(X.action[nn][p] == p for nn in nmem)
        ]
        pos = {p: i for i, p in enumerate(fixed)}
        action = tuple(
            tuple(pos[X.action[qm.coset_reps[t]][p]] for p in fixed)
            for t in range(Q.n)
        )
        acc = acc + coef * decompose_gset(GSet(Q, len(fixed), action))
    return acc


# -- tensor induction ----------------------------------------------------------


def _double_coset_intersections(glat, emb):
    """For each class [G/K]: the source-side classes of g^-1 K g ∩ H, one per
    double coset K g H. Cached per (lattice, image of the embedding)."""
    key = ("ten_table", emb.image_mask())
    table = glat._cache.get(key)
    if table is not None:
        return table
    G = glat.group
    hlat = subgroup_lattice(emb.source)
    hmask = emb.image_mask()
    hmem = tuple(bits(hmask))
    mul, inv = G.mul, G.inv
    out = []
    for c in range(glat.n_classes()):
        K = glat.class_rep(c)
        seen = 0
        entries = []
        for g in range(G.n):
            if (seen >> g) & 1:
                continue
            for a in K.members:
                row = mul[mul[a][g]]
                for b in hmem:
                    seen |= 1 << row[b]
            ig_row = mul[inv[g]]
            smask = 0
            for k in K.members:
                y = mul[ig_row[k]][g]
                if (hmask >> y) & 1:
                    smask |= 1 << emb._inv[y]
            idx = hlat.index.get(smask)
            assert idx is not None, "double-coset intersection must be a subgroup"
            entries.append(hlat.class_of[idx])
        out.append(tuple(entries))
    table = tuple(out)
    glat._cache[key] = table
    return table


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


def map_space_gset(emb, X):
    """H-equivariant maps G -> X as an explicit G-set (tensor-induction oracle).

    Maps f with f(g h) = h^-1 f(g) are stored by their values on the left
    transversal; g acts by (g f)(g1) = f(g^-1 g1).
    """
    G = emb.parent
    Hgrp = emb.source
    mul, inv = G.mul, G.inv
    hmask = emb.image_mask()
    coset_of = [-1] * G.n
    reps = []
    for g in range(G.n):
        if coset_of[g] >= 0:
            continue
        reps.append(g)
        row = mul[g]
        for s in range(Hgrp.n):
            coset_of[row[emb.map[s]]] = len(reps) - 1
    h_idx = [emb._inv[mul[inv[reps[coset_of[g]]]][g]] for g in range(G.n)]
    r = len(reps)
    size = X.size**r
    action = []
    for g in range(G.n):
        ig = inv[g]
        parts = []
        for i in range(r):
            y = mul[ig][reps[i]]
            parts.append((coset_of[y], X.action[Hgrp.inv[h_idx[y]]]))
        row = []
        for f in range(size):
            vals = []
            rem = f
            for _ in range(r):
                vals.append(rem % X.size)
                rem //= X.size
            vals.reverse()
            out = 0
            for j, hrow in parts:
                out = out * X.size + hrow[vals[j]]
            row.append(out)
        action.append(tuple(row))
    return GSet(G, size, action)


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
    coeffs = [Fraction(0)] * tgt_lat.n_classes()
    for c, coef in enumerate(x.coeffs):
        if coef == 0:
            continue
        rep = src_lat.class_rep(c)
        img = Subgroup(target, mask_of(mapping[m] for m in rep.members))
        coeffs[tgt_lat.class_index(img)] += coef
    return BurnsideElement(target, coeffs)


# -- formatting and serialization -----------------------------------------------


def format_rational(fr):
    return f"{fr.numerator}/{fr.denominator}"


def parse_rational(text):
    parts = text.split("/")
    try:
        if len(parts) <= 2:
            return Fraction(*(int(p) for p in parts))
    except (ValueError, ZeroDivisionError):
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
