"""Exact arithmetic in Burnside rings, held by marks.

An element stores its mark vector: for each conjugacy class of subgroups K,
in the lattice's canonical class order, the number of points fixed by K.
The marks are integer numerators over one positive denominator, kept in
lowest terms, so equal elements have equal numerators and denominators;
.marks reads them as Fractions. Fractions are made only where rationals
come in or go out (the constructor, element_from_marks, .marks, .coeffs,
a scalar product, parse_rational), each importing `fractions` when called,
so a CLI request that makes none never loads it, nor `decimal` with it.
The ring product is pointwise on marks and the Frobenius-Wielandt lift
of fw.py is defined on them, so marks are the one representation;
coefficients over the transitive basis [G/H] are recovered on first read
and memoised in the same integer form.

Sums, scalar multiples and products are pointwise. Every change of group
runs along one homomorphism f: A -> B, a GroupHom (groups.py): the
embedding of a subgroup H into G, or the projection of G onto G/N. Each
of the six operations is one of three biset operations along f (Bouc,
Biset Functors for Finite Groups, 2010):

- Pullback, X with A acting through f: restriction along an
  embedding, inflation along a projection. A gather: the mark at K <= A
  is the mark of X at f(K), read through the push table (class of K ->
  class of f(K)).
- Pushforward, X to B x_A X: induction along an embedding, deflation
  along a projection. A class map on the transitive basis through the
  same table, [A/K] to [B/f(K)]. The points of X/N fixed by K/N are the
  N-orbits that K maps to themselves, and their number is not the mark of
  X at any one subgroup, so the pushforward converts to coefficients,
  maps classes and converts back.
- Multiplicative pushforward, X to the A-equivariant maps B -> X:
  tensor induction along an embedding, N-fixed points along a projection.
  The mark at K <= B is the product of the marks of X at
  f^-1(g^-1 K g ∩ f(A)) over the double cosets K g f(A), read through the
  Mackey table as (class, count) pairs counted from K's conjugates; a
  projection has one double coset.

Conversion is exact integer arithmetic on the table of marks, which is
lower triangular in the class order with positive diagonal. The engine
holds it sparse, built from containments: the nonzero entries of each
row, the diagonal last; table_of_marks expands it for output only.
Forward, the coefficient numerators times the rows are the mark
numerators over the same denominator. Backward, the rows are subtracted
from the last up, each times its coefficient: the mark left at its
diagonal over the diagonal entry. Gluck's formula
e_H = (1/|N_G(H)|) sum_{K <= H} |K| mu(K, H) [G/K] shows that the
inverse table has denominators dividing |N_G(H)|, hence |G|; scaled by |G|
times the denominator of the marks, every coefficient is an integer, so each
division of the back-substitution is exact (asserted). The set-level
models the formulas are checked against (coset actions, orbit spaces, map
spaces, fixed-point counts, double cosets walked element by element) live
in oracles.py, which no module of the package imports.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress

from .errors import PreconditionError, SpecParseError
from .groups import ascii_digits, quotient_group, subgroup_embedding
from .lattice import subgroup_lattice

__all__ = [
    "BurnsideElement",
    "zero",
    "basis_element",
    "identity_element",
    "table_of_marks",
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
    "OPERATIONS",
    "operation",
    "format_element",
    "format_rational",
    "parse_rational",
    "element_to_json",
    "element_from_json",
]

class BurnsideElement:
    """Rational combination of transitive G-sets, held by its marks.

    Built from one coefficient per subgroup class. The marks are stored as
    integers num over one positive den with gcd(den, *num) == 1, the
    coefficients in the same form once known; .marks and .coeffs read them
    as tuples of Fractions, the coefficients recovered from the marks when
    they are not known.
    """

    __slots__ = ("group", "num", "den", "_coeffs")

    def __init__(self, group, coeffs):
        lat = subgroup_lattice(group)
        coeffs = _over_one_den(coeffs)
        if len(coeffs[0]) != lat.n_classes():
            raise PreconditionError(
                f"{len(coeffs[0])} coefficients for the {lat.n_classes()} "
                f"subgroup classes of {group.label}"
            )
        self.group = group
        self.num, self.den = _marks_from_coeffs(lat, *coeffs)
        self._coeffs = coeffs

    @property
    def marks(self):
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(m, den) for m in self.num)

    @property
    def coeffs(self):
        from fractions import Fraction

        cnum, cden = self._coeff_ints()
        return tuple(Fraction(c, cden) for c in cnum)

    def _coeff_ints(self):
        """The coefficients as (numerators, denominator) in lowest terms."""
        if self._coeffs is None:
            self._coeffs = _coeffs_from_marks(
                subgroup_lattice(self.group), self.num, self.den
            )
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
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((id(self.group), self.num, self.den))

    def _combine(self, other, sign):
        self._same_ring(other)
        da, db = self.den, other.den
        g = math.gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return _element(
            self.group,
            tuple(a * sa + b * sb for a, b in zip(self.num, other.num)),
            da * sa,
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _element(self.group, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, BurnsideElement):
            return multiply(self, other)
        from fractions import Fraction

        s = Fraction(other)
        p = s.numerator
        return _element(self.group, tuple(a * p for a in self.num), self.den * s.denominator)

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.num)

    def __repr__(self):
        return f"<BurnsideElement over {self.group.label}: {format_element(self)}>"


def _reduce(num, den):
    """(num, den) with den > 0 divided by gcd(den, *num), num as a tuple."""
    g = 1 if den == 1 else math.gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(m // g for m in num), den // g


def _over_one_den(values):
    """Rationals as (integer numerators, one positive denominator). In lowest
    terms: each prime power in the lcm of the reduced denominators is the
    whole p-part of some value's denominator, which its numerator is prime to."""
    from fractions import Fraction

    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _element(group, num, den, coeffs=None):
    """An element from its mark numerators over den > 0 (a tuple of ints,
    trusted), reduced to lowest terms; coeffs, when known, as returned by
    _reduce."""
    x = object.__new__(BurnsideElement)
    x.group = group
    x.num, x.den = _reduce(num, den)
    x._coeffs = coeffs
    return x


def zero(G):
    zeros = (0,) * subgroup_lattice(G).n_classes()
    return _element(G, zeros, 1, (zeros, 1))


def basis_element(G, c):
    """The transitive set [G/H] for the c-th subgroup class, from integer
    coefficients: its marks are row H of the table of marks."""
    lat = subgroup_lattice(G)
    indicator = tuple(int(j == c) for j in range(lat.n_classes()))
    return _element(G, *_marks_from_coeffs(lat, indicator, 1), (indicator, 1))


def identity_element(G):
    """[G/G], the multiplicative identity."""
    return basis_element(G, subgroup_lattice(G).n_classes() - 1)


def _marks_table(lat):
    """The sparse table of marks, cached per lattice: the nonzero (column,
    mark) pairs of each row [G/H].

    Read from containments (Pfeiffer 1997): |(G/H)^K| equals
    |N_G(K)| * #{K' ~ K : K' <= H} / |H|. below(H) runs from 1 to H, the
    one member of its class below H, so a row opens with the mark at 1 and
    closes with the diagonal."""
    rows = lat._cache.get("marks")
    if rows is None:
        masks, class_of = lat.masks, lat.class_of
        norm_orders = [masks[lat.normalizer_idx[r]].bit_count() for r in lat.reps]
        rows = []
        for i, rep in enumerate(lat.reps):
            h = masks[rep].bit_count()
            row = tuple(
                (j, norm_orders[j] * count // h)
                for j, count in Counter(map(class_of.__getitem__, lat.below(rep))).items()
            )
            assert row[0] == (0, lat.group.n // h), "mark at 1 must be the index"
            assert row[-1] == (i, norm_orders[i] // h), "diagonal must be [N_G(H):H]"
            rows.append(row)
        rows = lat._cache["marks"] = tuple(rows)
    return rows


def table_of_marks(lat):
    """Rows indexed by [G/H], columns by K: entry |(G/H)^K|. Lower
    triangular. The dense form of the sparse table, for output: expanded
    on each call, never cached, and read only by cli.cmd_marks."""
    rows = _marks_table(lat)
    dense = []
    for row in rows:
        marks = [0] * len(rows)
        for j, t in row:
            marks[j] = t
        dense.append(tuple(marks))
    return tuple(dense)


def _marks_from_coeffs(lat, cnum, cden):
    """Coefficients cnum / cden times the table of marks: the mark
    numerators over the same denominator, reduced."""
    rows = _marks_table(lat)
    acc = [0] * len(cnum)
    for c, row in zip(cnum, rows):
        if c:
            for j, t in row:
                acc[j] += c * t
    return _reduce(acc, cden)


def _coeffs_from_marks(lat, num, den):
    """Back-substitution by rows, from the last up, in integers scaled by
    |G| times the denominator of the marks (exact; see above): with the
    rows after i subtracted, row i alone has a mark in column i, so its
    coefficient is what is left there over the row's last entry."""
    rows = _marks_table(lat)
    n = lat.group.n
    rest = [m * n for m in num]
    acc = [0] * len(num)
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        q, r = divmod(rest[i], row[-1][1])
        assert r == 0, "scaled back-substitution must divide exactly"
        if q:
            acc[i] = q
            for j, t in row:
                rest[j] -= q * t
    return _reduce(acc, den * n)


def element_from_marks(G, marks):
    """The element over G with the given mark vector."""
    if len(marks) != subgroup_lattice(G).n_classes():
        raise PreconditionError("mark vector has the wrong length")
    return _element(G, *_over_one_den(marks))


def multiply(a, b):
    """Ring product: pointwise on marks."""
    a._same_ring(b)
    return _element(a.group, tuple(p * q for p, q in zip(a.num, b.num)), a.den * b.den)


def is_integral(x):
    return x._coeff_ints()[1] == 1


def idempotent(lat, c):
    """Primitive rational idempotent attached to the subgroup class c:
    _idempotent_sum at that one class, built on each call and not kept."""
    return _idempotent_sum(lat, (c,))


def _idempotent_sum(lat, classes):
    """The sum of the primitive idempotents at the given subgroup classes.

    Its marks form the 0/1 indicator of those classes. Its coefficients
    (Gluck 1981) are, for each class representative H,
    (1/|N_G(H)|) |K| mu(K, H) summed over K <= H, collected by class as
    integer sums over one denominator, the lcm of the |N_G(H)|; only the
    nonzero sums are divided when the result is reduced.
    """
    norm_orders = [lat.subgroups[lat.normalizer_idx[lat.reps[c]]].order for c in classes]
    den = math.lcm(*norm_orders)
    ncls = lat.n_classes()
    marks = [0] * ncls
    sums = {}
    for c, norm_order in zip(classes, norm_orders):
        marks[c] = 1
        scale = den // norm_order
        for k, mu in lat.mu_column(lat.reps[c]).items():
            j = lat.class_of[k]
            sums[j] = sums.get(j, 0) + lat.masks[k].bit_count() * mu * scale
    g = math.gcd(den, *sums.values())
    cnum = [0] * ncls
    for j, v in sums.items():
        cnum[j] = v // g
    return _element(lat.group, tuple(marks), 1, (tuple(cnum), den // g))


# -- operations along a homomorphism f: A -> B ---------------------------------
#
# Class tables are cached on the map; subgroup embeddings and quotient maps
# are cached per group and mask (groups.py), so a mask names one map.


def _gather(x, target, table):
    """The element over target whose mark at class c is x's mark at table[c]."""
    num = x.num
    return _element(target, tuple([num[j] for j in table]), x.den)


def _map_classes(x, target, table):
    """Linear extension of a class map on the transitive basis: [G/H] at
    class c goes to the basis element at class table[c] over target."""
    tlat = subgroup_lattice(target)
    cnum, cden = x._coeff_ints()
    out = [0] * tlat.n_classes()
    for c, v in compress(enumerate(cnum), cnum):
        out[table[c]] += v
    coeffs = _reduce(out, cden)
    return _element(target, *_marks_from_coeffs(tlat, *coeffs), coeffs)


def _push_table(f):
    """For each subgroup class of A: the class in B of the image f(K) of
    its representative, read from the image mask; cached on the map."""
    table = f._cache.get("push")
    if table is None:
        alat, blat = subgroup_lattice(f.source), subgroup_lattice(f.target)
        table = f._cache["push"] = tuple(
            blat.class_of[blat.index[f.push_mask(alat.subgroups[r].members)]]
            for r in alat.reps
        )
    return table


def _mackey_table(f):
    """(rows, widths): for each subgroup class of B, with representative K,
    the (class, count) pairs of the A-classes of f^-1(g^-1 K g ∩ f(A)) over
    the double cosets K g f(A), and the number of those double cosets.

    Counted from the lattice alone. Put F = f(A). The map g -> g^-1 K g
    sends the double cosets K g F onto the B-conjugates K' of K, and the
    double cosets sent into one F-orbit of conjugates all pull back to the
    A-class of f^-1(K' ∩ F). Each K' has |N_B(K)| elements g, and the
    double coset of g has |K| |F| / |K' ∩ F| elements, so the orbit of K'
    receives |N_B(K)| |K' ∩ F| / (|K| |N_B(K') ∩ F|) double cosets; it has
    |F| / |N_B(K') ∩ F| members, so each member K' contributes
    |N_B(K)| |K' ∩ F| / (|K| |F|). With |N_B(K)| = |B| / (number of
    conjugates), the count of a class is |B : F| times the sum of
    |K' ∩ F| over the conjugates K' whose meet pulls back to it, divided
    by the number of conjugates times |K|, exactly (asserted). A normal K
    is the case of one conjugate: the one class of f^-1(K ∩ F), |B : K F|
    times (Bouc 2010). The class of each preimage is read from the masks
    f(S) of the subgroups S of A that contain ker f; no coset, orbit or
    conjugate is computed."""
    table = f._cache.get("mackey")
    if table is None:
        alat, blat = subgroup_lattice(f.source), subgroup_lattice(f.target)
        masks = blat.masks
        fmask = f.image_mask()
        ker = f.kernel().mask
        pulled = {
            f.push_mask(S.members): alat.class_of[s]
            for s, S in enumerate(alat.subgroups)
            if S.mask & ker == ker
        }
        index = f.target.n // fmask.bit_count()  # |B : F|
        rows, widths = [], []
        for cls in blat.classes:
            sums = {}
            for k in cls:
                meet = masks[k] & fmask
                c = pulled[meet]
                sums[c] = sums.get(c, 0) + meet.bit_count()
            scale = len(cls) * masks[cls[0]].bit_count()
            row = tuple((c, index * total // scale) for c, total in sums.items())
            width = sum(count for _, count in row)
            # floors sum to less unless every division is exact
            assert width * scale == index * sum(sums.values()), "counts must be exact"
            rows.append(row)
            widths.append(width)
        table = f._cache["mackey"] = (tuple(rows), tuple(widths))
    return table


def _check_over(x, group):
    if x.group is not group:
        raise PreconditionError(
            f"element lives over {x.group.label}, the map needs {group.label}"
        )


def restrict(x, f):
    """Pullback along f: A -> B, from the ring of B to that of A: X with A
    acting through f. A gather: the mark at K <= A is the mark of x at
    f(K). Along a subgroup embedding this is restriction, along a quotient
    map inflation."""
    _check_over(x, f.target)
    return _gather(x, f.source, _push_table(f))


def induce(x, f):
    """Pushforward along f: A -> B, from the ring of A to that of B: X to
    B x_A X. A class map through the push table: [A/K] goes to [B/f(K)].
    Along a subgroup embedding this is induction, along a quotient map
    deflation."""
    _check_over(x, f.source)
    return _map_classes(x, f.target, _push_table(f))


def tensor_induce(x, f):
    """Multiplicative pushforward along f: A -> B, from the ring of A to
    that of B: X to the A-equivariant maps B -> X. The mark at K <= B is
    the product of the marks of x at f^-1(g^-1 K g ∩ f(A)) over the double
    cosets K g f(A): over each (class, count) pair of K's Mackey row, the
    mark at the class raised to the count. Along a subgroup embedding this
    is tensor induction; along a quotient map there is one double coset,
    and it gives the N-fixed points."""
    _check_over(x, f.source)
    num, den = x.num, x.den
    rows, widths = _mackey_table(f)
    # each row's product is over den ** its width; bring all to the widest
    width = max(widths)
    out = []
    for row, w in zip(rows, widths):
        prod = den ** (width - w)
        for h, m in row:
            prod *= num[h] ** m
            if not prod:
                break
        out.append(prod)
    return _element(f.target, tuple(out), den**width)


inflate = restrict
deflate = induce
fixed_points = tensor_induce

# op -> (function, along the quotient map by the subgroup rather than its
# embedding)
_OPS = {
    "res": (restrict, False),
    "ind": (induce, False),
    "ten": (tensor_induce, False),
    "inf": (inflate, True),
    "def": (deflate, True),
    "fix": (fixed_points, True),
}
OPERATIONS = tuple(_OPS)


def operation(op, sub):
    """(function, map, argument group, result group) of the operation op at
    the subgroup sub: the embedding of sub for res, ind and ten, the
    quotient map by sub (which must be normal) for inf, def and fix."""
    if op not in _OPS:
        raise PreconditionError(f"unknown operation {op!r}; expected one of {OPERATIONS}")
    fn, along_quotient = _OPS[op]
    f = quotient_group(sub.parent, sub) if along_quotient else subgroup_embedding(sub)
    # the pullback (res, inf) is the one that runs against the map
    if fn is restrict:
        return fn, f, f.target, f.source
    return fn, f, f.source, f.target


# -- formatting and serialization -----------------------------------------------


def format_rational(fr):
    return f"{fr.numerator}/{fr.denominator}"


def _rational_ints(text):
    """(p, q) for "p" or "p/q" with ASCII digits only, p carrying the sign
    and q > 0, not reduced; anything else is a SpecParseError."""
    num, slash, den = text.partition("/")
    if ascii_digits(num.removeprefix("-")) and (ascii_digits(den) or not slash):
        try:
            p, q = int(num), int(den or 1)
        except ValueError:  # too many digits
            pass
        else:
            if q:
                return p, q
    raise SpecParseError(f"malformed rational {text!r}")


def parse_rational(text):
    """Parse "p" or "p/q" with ASCII digits only; q must be nonzero."""
    from fractions import Fraction

    return Fraction(*_rational_ints(text))


def _nonzero_coeffs(x):
    """(class, p, q) for each nonzero coefficient p/q of x, read from the
    integer coefficients: q > 0, the sign on p, in lowest terms as Fraction
    would print it. Only the nonzero numerators are reduced."""
    cnum, cden = x._coeff_ints()
    for c, p in compress(enumerate(cnum), cnum):
        g = math.gcd(p, cden)
        yield c, p // g, cden // g


def format_element(x):
    lat = subgroup_lattice(x.group)
    parts = []
    for c, p, q in _nonzero_coeffs(x):
        label = f"[{x.group.label}/{lat.class_label(c)}]"
        if q != 1:
            term = f"{p}/{q}{label}"
        elif p == 1:
            term = label
        elif p == -1:
            term = f"-{label}"
        else:
            term = f"{p}{label}"
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
    labels = subgroup_lattice(x.group).class_labels
    return [[labels[c], f"{p}/{q}"] for c, p, q in _nonzero_coeffs(x)]


def element_from_json(G, data):
    """The element with the sparse JSON form data, a list of [label, "p/q"]
    pairs; the values at a repeated label add up. Summed in integers over
    the lcm of the denominators and reduced once, as BurnsideElement would
    from the same coefficients as Fractions."""
    lat = subgroup_lattice(G)
    if not isinstance(data, list):
        raise PreconditionError("element JSON must be a list of [label, rational] pairs")
    terms = []
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise PreconditionError(f"malformed element entry {item!r}")
        label, value = item
        terms.append((lat.class_by_label(str(label)), *_rational_ints(str(value))))
    den = math.lcm(*(q for _, _, q in terms))
    cnum = [0] * lat.n_classes()
    for c, p, q in terms:
        cnum[c] += p * (den // q)
    coeffs = _reduce(cnum, den)
    return _element(G, *_marks_from_coeffs(lat, *coeffs), coeffs)
