"""Finite groups as explicit multiplication tables, 0-based element indices.

A group of order n lives on indices 0..n-1 with an immutable n x n table.
Element ordering is fixed by the constructors (cyclic groups by exponent,
direct products lexicographically, permutation groups by lexicographic
permutation tuples, matrix groups by lexicographic entry tuples), so the
same spec string always yields the identical table.

Tables are built a row at a time. A permutation or matrix group computes
the rows of a few generators directly and every other row as the
composition row(x g) = row(x) o row(g), one itemgetter call per element;
a direct product does the same, its generators' rows from the pair
formula. The same generator argument checks and extends a table:
Group.validate reads the generators' rows in full and runs Light's
associativity test on them, which is exact for the whole table, and
conjugation rows compose as conj(x g) = conj(x) o conj(g). Every atom and
every product is validated.

Subgroups and quotients are realized as one kind of object, a section
T/S of a parent G with S normal in T (Bouc 2010): a subgroup H is the
section H/1, and the quotient by N is G/N. The section numbers the cosets
of S inside T by their minimal elements, so a subgroup keeps G's element
order, and records its parent G, which the subgroup budget reads
(lattice.py).

Group-spec grammar (whitespace insignificant):

    C<n>            cyclic of order n
    D<n>            dihedral of order n (n even, n >= 4)
    Dic<n>          dicyclic of order n (4 | n); Q<n> is an alias for n = 2^k >= 8
    S<n>, A<n>      symmetric / alternating on n points (n <= 6)
    SL(2,<p>)       2x2 determinant-1 matrices over F_p (p prime, p <= 7)
    <spec>x<spec>   direct product, left associative
    perm:[<cycles>;...]   closure of explicit permutation generators,
                          e.g. perm:[(1,2,3)(4,5);(1,2)] with 1-based points
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import permutations
from operator import itemgetter, or_

from .errors import (
    AlgebraError,
    CapExceededError,
    InvalidParameterError,
    PreconditionError,
    SpecParseError,
)

DEFAULT_ORDER_CAP = 512


def bits(mask):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class Group:
    """Finite group on indices 0..n-1 with an explicit multiplication table."""

    __slots__ = ("mul", "n", "label", "identity", "inv", "_cache")

    def __init__(self, mul, label):
        self.mul = tuple(map(tuple, mul))
        self.n = len(self.mul)
        self.label = label
        self._cache = {}
        ident = None
        full = tuple(range(self.n))
        for e in range(self.n):
            if self.mul[e] == full and all(self.mul[x][e] == x for x in range(self.n)):
                ident = e
                break
        if ident is None:
            raise AlgebraError(f"table for {label!r} has no identity")
        self.identity = ident
        try:
            self.inv = tuple(row.index(ident) for row in self.mul)
        except ValueError:
            raise AlgebraError(f"table for {label!r} has a non-invertible element")

    def __repr__(self):
        return f"<Group {self.label} of order {self.n}>"

    def conj_rows(self):
        """conj_rows()[a][x] = a x a^-1, as plain nested tuples, cached.

        Conjugation by a product composes: conj(x g) = conj(x) o conj(g).
        The rows of the generators outside the center are computed
        directly, every other row by one itemgetter call from a row already
        known, and x z shares the row of x for z central, so the center
        shares the identity row and an abelian group makes no call.
        """
        rows = self._cache.get("conj_rows")
        if rows is None:
            n, mul, inv = self.n, self.mul, self.inv
            center = self.center()
            zmask, zmembers = center.mask, center.members
            composers = []
            for g in self.generators():
                if not (zmask >> g) & 1:
                    ig = inv[g]
                    composers.append((g, _composer(tuple(mul[y][ig] for y in mul[g]))))
            rows = [None] * n
            ident = tuple(range(n))
            for z in zmembers:
                rows[z] = ident
            # one representative per coset of the center, closed under right
            # multiplication by the non-central generators
            reached = [self.identity]
            for x in reached:
                row, xrow = rows[x], mul[x]
                for s, compose in composers:
                    y = xrow[s]
                    if rows[y] is None:
                        yrow = compose(row)
                        for z in map(mul[y].__getitem__, zmembers):
                            rows[z] = yrow
                        reached.append(y)
            rows = self._cache["conj_rows"] = tuple(rows)
        return rows

    def join_mask(self, hmask, g, hmembers=None, limit=None):
        """Mask of <H, g> for the subgroup mask hmask and the element g;
        hmembers, when given, must be tuple(bits(hmask)).

        The join grows as a union of left cosets xH closed under right
        multiplication by g, so it costs O(|<H, g>|) table lookups. limit,
        when given, is the largest order a proper subgroup containing H
        can have: once the union holds more elements, the join is G, and
        G's mask is returned without closing it.
        """
        if (hmask >> g) & 1:
            return hmask
        mul = self.mul
        if hmembers is None:
            hmembers = tuple(bits(hmask))
        if limit is None:
            limit = self.n
        mask = hmask
        size = k = len(hmembers)
        todo = list(hmembers)
        for y in todo:
            z = mul[y][g]
            if not (mask >> z) & 1:
                size += k
                if size > limit:
                    return (1 << self.n) - 1
                row = mul[z]
                for h in hmembers:
                    w = row[h]
                    mask |= 1 << w
                    todo.append(w)
        return mask

    def generators(self):
        """A greedy generating set: each element not yet generated, by index."""
        gens = self._cache.get("generators")
        if gens is None:
            whole = (1 << self.n) - 1
            mask = 1 << self.identity
            gens = []
            for g in range(self.n):
                if mask == whole:
                    break
                if not (mask >> g) & 1:
                    gens.append(g)
                    mask = self.join_mask(mask, g)
            gens = tuple(gens)
            self._cache["generators"] = gens
        return gens

    def is_solvable(self):
        """Whether the derived series reaches 1.

        Each term D' is the normal closure in D of the commutators of D's
        generators: those are joined one at a time, then their conjugates
        by D's generators, until conjugation maps the generators found
        into D'. The series stops at 1 (solvable) or at a term equal to
        the one before it (not solvable).
        """
        mul, inv = self.mul, self.inv
        one = 1 << self.identity
        mask, gens = (1 << self.n) - 1, self.generators()
        while mask != one:
            dmask, dgens = one, []
            for a in gens:
                for b in gens:
                    c = mul[mul[inv[a]][inv[b]]][mul[a][b]]
                    if not (dmask >> c) & 1:
                        dmask = self.join_mask(dmask, c)
                        dgens.append(c)
            for c in dgens:
                for a in gens:
                    x = mul[mul[a][c]][inv[a]]
                    if not (dmask >> x) & 1:
                        dmask = self.join_mask(dmask, x)
                        dgens.append(x)
            if dmask == mask:
                break
            mask, gens = dmask, dgens
        return mask == one

    def validate(self):
        """Check the group axioms exactly; raises AlgebraError on failure.

        Only the rows of generators() are read in full. Each must be a
        permutation, and Light's associativity test must pass on it:
        (x g) y = x (g y) for every x and y, that is row(x g) =
        row(x) o row(g). This is exact for the whole table:

        - __init__ found a two-sided identity e and, in every row, an
          entry equal to e: every element has a right inverse.
        - generators() reaches every element through products of elements
          it has already reached, starting from e.
        - The elements that pass Light's test form a closed submagma
          (Clifford & Preston 1961, 1.2). It holds e and the generators,
          so it is the whole table, and the table is associative.
        - A finite monoid in which every element has a right inverse is a
          group.
        - So every row is a composition of generator rows, hence a
          permutation, and so is every column.

        An entry that is not an element index fails as such.
        """
        n, mul, label = self.n, self.mul, self.label
        full = list(range(n))
        try:
            gens = self.generators()
            for g in gens:
                if sorted(mul[g]) != full:
                    raise AlgebraError(f"{label}: row {g} is not a permutation")
            for g in gens:
                right = itemgetter(*mul[g])
                for x in range(n):
                    y = mul[x][g]
                    if mul[y] != right(mul[x]):
                        if sorted(mul[y]) != full:
                            raise AlgebraError(f"{label}: row {y} is not a permutation")
                        raise AlgebraError(f"{label}: associativity fails at ({x}*{g})*y")
        except (IndexError, TypeError, ValueError):
            raise AlgebraError(f"{label}: some entry is not an element index") from None

    def element_orders(self):
        """Order of every element, by index, cached. One walk over the
        powers of each cyclic subgroup not yet covered: the power g^e of an
        element g of order k has order k / gcd(e, k)."""
        orders = self._cache.get("element_orders")
        if orders is None:
            mul, ident = self.mul, self.identity
            orders = [0] * self.n
            for g in range(self.n):
                if orders[g]:
                    continue
                powers = [g]
                while powers[-1] != ident:
                    powers.append(mul[powers[-1]][g])
                k = len(powers)
                for e, x in enumerate(powers, 1):
                    orders[x] = k // math.gcd(e, k)
            orders = self._cache["element_orders"] = tuple(orders)
        return orders

    def element_order(self, a):
        return self.element_orders()[a]

    def is_abelian(self):
        """Whether the center is the whole group; center() tests
        commutation with the generators only."""
        return self.center().order == self.n

    def exponent(self):
        return reduce(math.lcm, self.element_orders(), 1)

    # -- subgroup constructors ------------------------------------------------

    def full_subgroup(self):
        return Subgroup(self, (1 << self.n) - 1)

    def center(self):
        """The elements that commute with each generator, hence with every
        element."""
        sub = self._cache.get("center")
        if sub is None:
            mul, gens = self.mul, self.generators()
            mask = mask_of(
                z for z in range(self.n) if all(mul[z][g] == mul[g][z] for g in gens)
            )
            sub = Subgroup(self, mask)
            self._cache["center"] = sub
        return sub


class Subgroup:
    """Subgroup of a parent group, stored as a bitmask over element indices."""

    __slots__ = ("parent", "mask", "members")

    def __init__(self, parent, mask, members=None):
        """members, when given, must be tuple(bits(mask))."""
        self.parent = parent
        self.mask = mask
        self.members = tuple(bits(mask)) if members is None else members

    @property
    def order(self):
        return len(self.members)

    def __repr__(self):
        return f"<Subgroup of {self.parent.label}: order {self.order}, min {self.members[0]}>"

    def __contains__(self, x):
        return bool((self.mask >> x) & 1)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.parent), self.mask))

    def __le__(self, other):
        if self.parent is not other.parent:
            raise PreconditionError("subgroups of different groups are not comparable")
        return self.mask & other.mask == self.mask

    def conjugate_mask(self, a):
        crow = self.parent.conj_rows()[a]
        return mask_of(crow[x] for x in self.members)

    def is_normal(self):
        """Conjugation by each generator of the parent maps H onto itself,
        hence so does conjugation by every element."""
        return all(self.conjugate_mask(g) == self.mask for g in self.parent.generators())

    def is_cyclic(self):
        orders = self.parent.element_orders()
        return self.order in map(orders.__getitem__, self.members)


# -- homomorphisms ------------------------------------------------------------


class GroupHom:
    """Homomorphism f: source -> target, images[x] = f(x) by element index.

    Subgroup embeddings and quotient maps are both this type, the two maps
    of a section (_section), so the Burnside-ring operations run along one
    kind of map; its push and Mackey tables (burnside.py) are cached on it.
    """

    __slots__ = ("source", "target", "images", "_cache")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._cache = {}

    def __repr__(self):
        return f"<GroupHom {self.source.label} -> {self.target.label}>"

    def image_mask(self):
        return mask_of(self.images)

    def pull_mask(self, mask):
        """Source mask of the preimage of a target mask."""
        m = 0
        for x, y in enumerate(self.images):
            if (mask >> y) & 1:
                m |= 1 << x
        return m

    def kernel(self):
        return Subgroup(self.source, self.pull_mask(1 << self.target.identity))

    def push_mask(self, members):
        """Target mask of the image of the source elements members."""
        bit = self._cache.get("bits")
        if bit is None:
            bit = self._cache["bits"] = tuple(1 << y for y in self.images)
        return reduce(or_, map(bit.__getitem__, members), 0)


def _section(G, top, bottom, label):
    """The section T/S of G, for T = top and S = bottom a normal subgroup
    of T, both as ascending member indices: (D, proj) with proj[g] the
    coset of S that holds g, numbered by the cosets' minimal elements in
    increasing order, and -1 for g outside T.

    D is G itself when T/S is all of G, the shared cyclic group when the
    table is addition modulo its size (each row a slice of a doubled
    range), and otherwise a new group that records its parent G, so that
    the subgroup budget exempts it once G's lattice is built (lattice.py).
    """
    mul = G.mul
    proj, reps = [-1] * G.n, []
    for g in top:
        if proj[g] < 0:
            row = mul[g]
            for h in bottom:
                proj[row[h]] = len(reps)
            reps.append(g)
    proj, q = tuple(proj), len(reps)
    if q == G.n:
        return G, proj
    table = [[proj[mul[a][b]] for b in reps] for a in reps]
    double = list(range(q)) * 2
    if all(row == double[i : i + q] for i, row in enumerate(table)):
        return cyclic_group(q), proj
    D = Group(table, label)
    D._cache["section"] = G
    return D, proj


def quotient_group(G, N):
    """Projection G -> G/N for a normal subgroup N, the section G/N;
    cached per (G, N)."""
    if N.parent is not G:
        raise PreconditionError("kernel belongs to a different group")
    key = ("quotient", N.mask)
    f = G._cache.get(key)
    if f is None:
        if not N.is_normal():
            raise PreconditionError(f"subgroup of order {N.order} is not normal in {G.label}")
        Q, proj = _section(G, range(G.n), N.members, f"{G.label}/{N.order}@{N.members[0]}")
        f = G._cache[key] = GroupHom(G, Q, proj)
    return f


def subgroup_embedding(H):
    """Inclusion of the subgroup H, the section H/1, realized as a group in
    its own right; cached per (G, H)."""
    G = H.parent
    key = ("embedding", H.mask)
    f = G._cache.get(key)
    if f is None:
        mem = H.members
        D, _ = _section(G, mem, (G.identity,), f"{G.label}>{H.order}@{mem[0]}")
        f = G._cache[key] = GroupHom(D, G, mem)
    return f


# -- concrete tables ----------------------------------------------------------


def _composer(row):
    """The map other -> tuple(other[i] for i in row), one C-level call."""
    if len(row) == 1:
        i = row[0]
        return lambda other: (other[i],)
    return itemgetter(*row)


def _regular_table(n, identity, row_of):
    """Left-regular table on indices 0..n-1, where row_of(g) computes the
    row of g (g y for every y) directly.

    Only a few rows are computed directly: generators taken greedily, each
    the first element the earlier ones do not reach. Every other row is a
    composition, row(x g) = row(x) o row(g), one itemgetter call apiece.
    """
    rows = [None] * n
    rows[identity] = tuple(range(n))
    reached = [identity]
    gens = []
    for g in range(n):
        if rows[g] is not None:
            continue
        rows[g] = tuple(row_of(g))
        gens.append((g, _composer(rows[g])))
        reached.append(g)
        # close under right multiplication by every generator so far
        for x in reached:
            row = rows[x]
            for s, compose in gens:
                y = row[s]
                if rows[y] is None:
                    rows[y] = compose(row)
                    reached.append(y)
    return rows


def _cyclic_table(n):
    double = tuple(range(n)) * 2
    return [double[i : i + n] for i in range(n)]


def _dihedral_table(n):
    # indices 0..m-1 are rotations r^i, m..n-1 are reflections s r^i
    m = n // 2
    table = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            table[i][j] = (i + j) % m
            table[i][m + j] = m + (j - i) % m
            table[m + i][j] = m + (i + j) % m
            table[m + i][m + j] = (j - i) % m
    return table


def _dicyclic_table(n):
    # generators a of order n/2 and b with b^2 = a^(n/4), b a b^-1 = a^-1;
    # indices 0..2m-1 are a^i, 2m..4m-1 are a^i b, where m = n/4
    m = n // 4
    h = 2 * m
    table = [[0] * n for _ in range(n)]
    for i in range(h):
        for j in range(h):
            table[i][j] = (i + j) % h
            table[i][h + j] = h + (i + j) % h
            table[h + i][j] = h + (i - j) % h
            table[h + i][h + j] = (i - j + m) % h
    return table


def _perm_group_table(perms):
    """Table of a permutation group, elements in lexicographic order and
    p q the map i -> p[q[i]]."""
    elems = sorted(perms)
    pos = {p: i for i, p in enumerate(elems)}

    def row_of(g):
        p = elems[g].__getitem__
        return [pos[tuple(map(p, q))] for q in elems]

    return _regular_table(len(elems), pos[tuple(range(len(elems[0])))], row_of)


def _symmetric_perms(n):
    return [tuple(p) for p in permutations(range(n))]


def _perm_parity(p):
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _sl2_elements(p):
    return [
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a * d - b * c) % p == 1
    ]


def _sl2_table(p):
    elems = _sl2_elements(p)
    pos = {m: i for i, m in enumerate(elems)}

    def row_of(i):
        a, b, c, d = elems[i]
        return [
            pos[((a * e + b * g) % p, (a * f + b * h) % p,
                 (c * e + d * g) % p, (c * f + d * h) % p)]
            for e, f, g, h in elems
        ]

    return _regular_table(len(elems), pos[(1, 0, 0, 1)], row_of)


def direct_product(A, B):
    """Direct product with pair (i, j) at index i * |B| + j.

    The row of (i, j) holds A[i][k] * |B| + B[j][l] at k * |B| + l; only
    the generators' rows are computed so, the rest composed.
    """
    nb, amul, bmul = B.n, A.mul, B.mul

    def row_of(g):
        i, j = divmod(g, nb)
        brow = bmul[j]
        return [a * nb + b for a in amul[i] for b in brow]

    table = _regular_table(A.n * nb, A.identity * nb + B.identity, row_of)
    return Group(table, f"{A.label}x{B.label}")


def _close_perms(gens, degree, cap):
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elems:
                    elems.add(q)
                    new.append(q)
                    if cap is not None and len(elems) > cap:
                        raise CapExceededError(
                            f"permutation closure exceeds the order cap {cap}"
                        )
        frontier = new
    return elems


# -- spec parsing -------------------------------------------------------------

_PRIMES = {2, 3, 5, 7}


def _normalize_spec(text):
    return "".join(text.split())


def _split_top_level(norm):
    """Split on 'x' outside brackets; returns list of (atom_text, offset)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(norm):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise SpecParseError("unbalanced bracket", i)
        elif ch == "x" and depth == 0:
            parts.append((norm[start:i], start))
            start = i + 1
    if depth != 0:
        raise SpecParseError("unbalanced bracket", len(norm))
    parts.append((norm[start:], start))
    return parts


def ascii_digits(text):
    """Whether text is a nonempty run of 0-9; str.isdigit alone admits
    other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


def _spec_int(digits, offset):
    """int() of an ASCII digit string; one too long for int() is a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise SpecParseError(f"number too long ({len(digits)} digits)", offset) from None


def _parse_cycles(body, offset):
    """Parse one generator like (1,2,3)(4,5) into a list of 0-based cycles."""
    cycles, pos, used = [], 0, set()
    while pos < len(body):
        if body[pos] != "(":
            raise SpecParseError("expected '(' in cycle notation", offset + pos)
        end = body.find(")", pos)
        if end < 0:
            raise SpecParseError("unterminated cycle", offset + pos)
        inner = body[pos + 1 : end]
        if not inner:
            raise SpecParseError("empty cycle", offset + pos)
        points = []
        for tok in inner.split(","):
            if not ascii_digits(tok):
                raise SpecParseError(f"bad cycle point {tok!r}", offset + pos)
            points.append(_spec_int(tok, offset + pos))
        if min(points) < 1:
            raise InvalidParameterError("cycle points are 1-based")
        points = [p - 1 for p in points]
        if used & set(points) or len(set(points)) != len(points):
            raise InvalidParameterError(f"cycles of one generator must be disjoint: {body!r}")
        used.update(points)
        cycles.append(points)
        pos = end + 1
    if not cycles:
        raise SpecParseError("generator has no cycles", offset)
    return cycles


def _parse_atom(text, offset):
    """Parse a single atom into a recipe tuple; offsets feed error messages."""
    if not text:
        raise SpecParseError("empty group spec", offset)
    if text.startswith("perm:["):
        if not text.endswith("]"):
            raise SpecParseError("perm spec must end with ']'", offset + len(text))
        gens, start = [], offset + len("perm:[")
        for part in text[len("perm:[") : -1].split(";"):
            if part:
                gens.append(_parse_cycles(part, start))
            start += len(part) + 1
        if not gens:
            raise SpecParseError("perm spec has no generators", offset)
        return ("perm", gens, text)
    if text.startswith("SL"):
        dim, comma, p = text[3:-1].partition(",")
        if not (text.startswith("SL(") and text.endswith(")") and comma
                and ascii_digits(dim) and ascii_digits(p)):
            raise SpecParseError(f"malformed SL spec {text!r}", offset)
        dim, p = _spec_int(dim, offset), _spec_int(p, offset)
        if dim != 2:
            raise InvalidParameterError("only SL(2,p) is supported")
        if p not in _PRIMES:
            raise InvalidParameterError(f"SL(2,{p}) needs a prime p <= 7")
        return ("sl2", p, text)
    kind = "Dic" if text.startswith("Dic") else text[:1]
    digits = text[len(kind):]
    if kind not in ("Dic", "C", "D", "Q", "S", "A") or not ascii_digits(digits):
        raise SpecParseError(f"unrecognized group spec {text!r}", offset)
    n = _spec_int(digits, offset)
    if kind == "C":
        if n < 1:
            raise InvalidParameterError("cyclic groups need n >= 1")
        return ("cyclic", n, text)
    if kind == "D":
        if n < 4 or n % 2:
            raise InvalidParameterError(f"D{n}: dihedral order must be even and >= 4")
        return ("dihedral", n, text)
    if kind == "Dic":
        if n < 4 or n % 4:
            raise InvalidParameterError(
                f"Dic{n}: dicyclic order must be divisible by 4 and >= 4"
            )
        return ("dicyclic", n, text)
    if kind == "Q":
        if n < 8 or n & (n - 1):
            raise InvalidParameterError(f"Q{n}: quaternion order must be 2^k >= 8")
        return ("dicyclic", n, text)
    if n > 6:
        raise InvalidParameterError(f"{kind}{n}: only degrees up to 6 are supported")
    if n < 1:
        raise InvalidParameterError(f"{kind}{n}: degree must be >= 1")
    return ("symmetric" if kind == "S" else "alternating", n, text)


def parse_group_spec(text):
    """Parse a spec string into a list of atom recipes (one per product factor)."""
    norm = _normalize_spec(text)
    if not norm:
        raise SpecParseError("empty group spec", 0)
    return [_parse_atom(part, off) for part, off in _split_top_level(norm)]


def _build_atom(recipe, cap):
    kind, arg, label = recipe
    if kind == "cyclic":
        _check_cap(arg, cap, label)
        return Group(_cyclic_table(arg), label)
    if kind == "dihedral":
        _check_cap(arg, cap, label)
        return Group(_dihedral_table(arg), label)
    if kind == "dicyclic":
        _check_cap(arg, cap, label)
        return Group(_dicyclic_table(arg), label)
    if kind == "symmetric":
        _check_cap(math.factorial(arg), cap, label)
        return Group(_perm_group_table(_symmetric_perms(arg)), label)
    if kind == "alternating":
        order = max(1, math.factorial(arg) // 2)
        _check_cap(order, cap, label)
        evens = [p for p in _symmetric_perms(arg) if _perm_parity(p) == 0]
        return Group(_perm_group_table(evens), label)
    if kind == "sl2":
        p = arg
        _check_cap(p * (p * p - 1), cap, label)
        return Group(_sl2_table(p), label)
    if kind == "perm":
        return Group(_perm_group_table(_perm_spec_elements(arg, cap)), label)
    raise AssertionError(f"unknown recipe kind {kind}")


def _perm_spec_elements(gens_cycles, cap):
    """The permutations a parsed perm: spec generates, as tuples.

    Only the points named matter: numbering them in increasing order keeps
    the lexicographic element order and bounds the degree by the length of
    the spec.
    """
    points = sorted({pt for gen in gens_cycles for cyc in gen for pt in cyc})
    point = {pt: i for i, pt in enumerate(points)}
    degree = len(points)
    gens = []
    for gen in gens_cycles:
        perm = list(range(degree))
        for cyc in gen:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[point[a]] = point[b]
        gens.append(tuple(perm))
    return _close_perms(gens, degree, cap)


def _check_cap(order, cap, label):
    if cap is not None and order > cap:
        raise CapExceededError(f"{label} has order {order}, above the cap {cap}")


_GROUP_CACHE = {}


def construct_group(spec, cap=DEFAULT_ORDER_CAP):
    """Build (or fetch) the group named by a spec string.

    Identical specs return the identical Group instance, so per-group caches
    (lattices, mark tables) are shared across call sites.
    """
    norm = _normalize_spec(spec)
    cached = _GROUP_CACHE.get(norm)
    if cached is not None:
        _check_cap(cached.n, cap, norm)
        return cached
    recipes = parse_group_spec(norm)
    total = 1
    factors = []
    for recipe in recipes:
        label = recipe[2]
        g = _GROUP_CACHE.get(label)
        if g is None:
            g = _build_atom(recipe, cap)
            g.validate()
            _GROUP_CACHE[label] = g
        total *= g.n
        _check_cap(total, cap, norm)
        factors.append(g)
    G = reduce(direct_product, factors)
    if len(factors) > 1:
        # a single atom was validated and cached under its label, norm
        G.validate()
        _GROUP_CACHE[norm] = G
    return G


def cyclic_group(n):
    """The canonical cyclic group of order n (shared instance)."""
    return construct_group(f"C{n}", cap=None)
