"""Set-level models of the Burnside-ring operations, for tests only.

Each function here works on a concrete G-set, an explicit action table,
and decompose_gset turns the result back into an element of the Burnside
ring by orbit stabilizers. This gives an independent route to every
formula the package uses: the diagonal product for multiply, the action
pulled back along a map for restrict and inflate, the coset space G/L for
inducing [H/L], the orbit space for deflate, and spaces of equivariant
maps and fixed-point sets for tensor_induce and fixed_points.
marks_by_fixed_points counts the marks element by element, independently
of the containment counts the table of marks is built from, and
mackey_by_double_cosets walks each double coset element by element, where
the Mackey table tensor_induce reads works on numbered cosets.
moebius_by_recursion fills every Moebius value by the all-pairs recursion,
where the lattice computes them per subgroup on first read, in closed form
on nilpotent intervals; cayley_table_by_entries computes every table entry
on its own, where the constructors compose rows, with dihedral groups
as signed affine maps and dicyclic groups as rewritten words;
is_group_table checks every row, every column and every triple, where
Group.validate reads the generators' rows; check_subgroup tests a subgroup
for the identity, every inverse and every product, member by member;
derived_series_by_sets takes the commutators of all pairs and closes them
under products, where Group.is_solvable joins the commutators of
generators and their conjugates.
Work grows with the size of the sets, so keep the groups small. No module
of the package imports this one.
"""

from __future__ import annotations

from fractions import Fraction

from . import groups
from .burnside import BurnsideElement
from .errors import AlgebraError, PreconditionError
from .groups import Subgroup, mask_of
from .lattice import subgroup_lattice

__all__ = [
    "GSet",
    "coset_space",
    "decompose_gset",
    "product_gset",
    "restrict_gset",
    "inflate_gset",
    "fixed_points_gset",
    "deflate_gset",
    "map_space_gset",
    "marks_by_fixed_points",
    "double_cosets",
    "mackey_by_double_cosets",
    "moebius_by_recursion",
    "cayley_table_by_entries",
    "is_group_table",
    "check_subgroup",
    "derived_series_by_sets",
]


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


def marks_by_fixed_points(lat):
    """The table of marks counted on cosets: |(G/H)^K| is the number of
    cosets gH with g^-1 K g <= H, over one class representative per row
    and column."""
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
        rows.append(tuple(row_marks))
    return tuple(rows)


def double_cosets(G, K, H):
    """Minimal-element representatives of the double cosets K g H."""
    if K.parent is not G or H.parent is not G:
        raise PreconditionError("double cosets need subgroups of the same group")
    mul = G.mul
    seen = 0
    reps = []
    for g in range(G.n):
        if (seen >> g) & 1:
            continue
        reps.append(g)
        for a in K.members:
            row = mul[mul[a][g]]
            for b in H.members:
                seen |= 1 << row[b]
    return tuple(reps)


def mackey_by_double_cosets(f):
    """The Mackey table of f: A -> B walked element by element: for each
    subgroup class of B, with representative K, the classes of
    f^-1(g^-1 K g ∩ f(A)) in A over the minimal elements g of the double
    cosets K g f(A), each conjugate and preimage taken as a mask."""
    B = f.target
    alat, blat = subgroup_lattice(f.source), subgroup_lattice(B)
    fmask = f.image_mask()
    image = Subgroup(B, fmask)
    mul, inv = B.mul, B.inv
    rows = []
    for c in range(blat.n_classes()):
        K = blat.class_rep(c)
        entries = []
        for g in double_cosets(B, K, image):
            ig_row = mul[inv[g]]
            conj = mask_of(mul[ig_row[k]][g] for k in K.members)
            idx = alat.index.get(f.pull_mask(conj & fmask))
            if idx is None:
                raise AlgebraError("preimage of a subgroup is not a subgroup")
            entries.append(alat.class_of[idx])
        rows.append(tuple(entries))
    return tuple(rows)


def moebius_by_recursion(lat):
    """Every Moebius value of the lattice, {(k, h): mu}, by the all-pairs
    recursion mu(K, H) = -sum of mu(K, X) over K <= X < H, with below
    filled by testing every pair of subgroups."""
    masks = [s.mask for s in lat.subgroups]
    count = len(masks)
    below = tuple(
        tuple(j for j in range(i + 1) if masks[j] & masks[i] == masks[j])
        for i in range(count)
    )
    mu = {}
    for h in range(count):
        for k in below[h]:
            if k == h:
                mu[(k, h)] = 1
                continue
            km = masks[k]
            acc = 0
            for x in below[h]:
                if x != h and masks[x] & km == km:
                    acc += mu[(k, x)]
            mu[(k, h)] = -acc
    return mu


def _table_by_entries(elems, product):
    pos = {x: i for i, x in enumerate(elems)}
    return [[pos[product(x, y)] for y in elems] for x in elems]


def _perm_product(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _dihedral_elements(n):
    """D_n as the signed affine maps x -> e x + b on Z/(n/2): r^i is
    (+1, i) and s r^i is (-1, -i). The sign e is kept as a formal +-1, so
    D4, where -1 = +1 on Z/2, stays faithful."""
    m = n // 2
    return [(1, i) for i in range(m)] + [(-1, -i % m) for i in range(m)]


def _dihedral_product(n):
    """Composition: (e, b)(f, c) is x -> e (f x + c) + b."""
    m = n // 2

    def product(x, y):
        (e, b), (f, c) = x, y
        return e * f, (e * c + b) % m
    return product


def _dicyclic_elements(n):
    """Dic_n as the words a^i b^e, a of order n/2 and e in {0, 1}."""
    h = n // 2
    return [(i, 0) for i in range(h)] + [(i, 1) for i in range(h)]


def _dicyclic_product(n):
    """Words rewritten with b a = a^-1 b and b^2 = a^(n/4)."""
    h, m = n // 2, n // 4

    def product(x, y):
        (i, e), (j, f) = x, y
        if not e:
            return (i + j) % h, f
        if not f:
            return (i - j) % h, 1
        return (i - j + m) % h, 0
    return product


def _sl2_product(p):
    def product(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)
    return product


def cayley_table_by_entries(spec, cap=None):
    """(mul, identity, inv, conj_rows) of the group a spec names, every
    entry computed on its own: products of element pairs, the identity and
    inverses found by search, and a x a^-1 by two lookups. The element
    order is the one construct_group documents."""
    tables = []
    for kind, arg, _ in groups.parse_group_spec(spec):
        if kind == "cyclic":
            table = [[(i + j) % arg for j in range(arg)] for i in range(arg)]
        elif kind == "dihedral":
            table = _table_by_entries(_dihedral_elements(arg), _dihedral_product(arg))
        elif kind == "dicyclic":
            table = _table_by_entries(_dicyclic_elements(arg), _dicyclic_product(arg))
        elif kind == "sl2":
            table = _table_by_entries(groups._sl2_elements(arg), _sl2_product(arg))
        else:
            if kind == "perm":
                elems = groups._perm_spec_elements(arg, cap)
            else:
                elems = groups._symmetric_perms(arg)
                if kind == "alternating":
                    elems = [p for p in elems if groups._perm_parity(p) == 0]
            table = _table_by_entries(sorted(elems), _perm_product)
        tables.append(table)
    mul = tables[0]
    for other in tables[1:]:
        na, nb = len(mul), len(other)
        mul = [
            [mul[i // nb][k // nb] * nb + other[i % nb][k % nb] for k in range(na * nb)]
            for i in range(na * nb)
        ]
    n = len(mul)
    identity = next(
        e for e in range(n) if all(mul[e][x] == x == mul[x][e] for x in range(n))
    )
    inv = tuple(next(b for b in range(n) if mul[a][b] == identity) for a in range(n))
    conj = tuple(tuple(mul[mul[a][x]][inv[a]] for x in range(n)) for a in range(n))
    return tuple(map(tuple, mul)), identity, inv, conj


def is_group_table(table):
    """Whether every row and every column of the table is a permutation of
    0..n-1 and (x y) z = x (y z) for all n^3 triples; with a two-sided
    identity, whether the table is a group's."""
    n = len(table)
    full = list(range(n))
    if any(sorted(row) != full for row in table):
        return False
    if any(sorted(col) != full for col in zip(*table)):
        return False
    r = range(n)
    return all(table[table[x][y]][z] == table[x][table[y][z]] for x in r for y in r for z in r)


def check_subgroup(H):
    """Verify member by member that H holds the identity, the inverse of
    each member and the product of each pair, and that its order divides
    the group order; returns H, raises AlgebraError on failure."""
    G = H.parent
    if G.identity not in H:
        raise AlgebraError("subgroup is missing the identity")
    for a in H.members:
        if G.inv[a] not in H:
            raise AlgebraError(f"subgroup not closed under inverse of {a}")
        row = G.mul[a]
        for b in H.members:
            if row[b] not in H:
                raise AlgebraError(f"subgroup not closed under product {a}*{b}")
    if G.n % H.order != 0:
        raise AlgebraError("subgroup order does not divide the group order")
    return H


def derived_series_by_sets(G):
    """The derived series of G as frozensets of element indices, from G
    down to its first term equal to its own derived subgroup: each next
    term is the set of commutators a^-1 b^-1 a b over all pairs a, b of
    the last one, closed under products. G is solvable iff the last term
    is the identity alone."""
    mul, inv = G.mul, G.inv
    series = [frozenset(range(G.n))]
    while True:
        D = series[-1]
        commutators = {mul[mul[inv[a]][inv[b]]][mul[a][b]] for a in D for b in D}
        closure = [G.identity]
        found = {G.identity}
        for x in closure:
            for c in commutators:
                y = mul[x][c]
                if y not in found:
                    found.add(y)
                    closure.append(y)
        if found == D:
            return series
        series.append(frozenset(found))


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


def restrict_gset(X, f):
    """The same points with the source of f acting through f: restriction
    along an embedding, inflation along a projection."""
    if X.group is not f.target:
        raise PreconditionError("G-set does not live over the target of the map")
    return GSet(f.source, X.size, tuple(X.action[p] for p in f.images))


inflate_gset = restrict_gset


def _preimage_reps(qm):
    """The minimal preimage of each element of the quotient."""
    reps = {}
    for x, y in enumerate(qm.images):
        reps.setdefault(y, x)
    return [reps[t] for t in range(qm.target.n)]


def fixed_points_gset(X, qm):
    """The points fixed by the kernel N, with the residual G/N action."""
    if X.group is not qm.source:
        raise PreconditionError("G-set does not live over the source group")
    nmem = qm.kernel().members
    fixed = [p for p in range(X.size) if all(X.action[nn][p] == p for nn in nmem)]
    pos = {p: i for i, p in enumerate(fixed)}
    action = tuple(
        tuple(pos[X.action[g][p]] for p in fixed) for g in _preimage_reps(qm)
    )
    return GSet(qm.target, len(fixed), action)


def deflate_gset(X, qm):
    """Set-level deflation: the orbit space X/N with the residual action."""
    if X.group is not qm.source:
        raise PreconditionError("G-set does not live over the source group")
    nmem = qm.kernel().members
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
        tuple(orbit_id[X.action[g][p]] for p in reps) for g in _preimage_reps(qm)
    )
    return GSet(qm.target, len(reps), action)


def map_space_gset(emb, X):
    """H-equivariant maps G -> X as an explicit G-set (tensor-induction oracle).

    Maps f with f(g h) = h^-1 f(g) are stored by their values on the left
    transversal; g acts by (g f)(g1) = f(g^-1 g1).
    """
    G = emb.target
    Hgrp = emb.source
    mul, inv = G.mul, G.inv
    pos = {p: s for s, p in enumerate(emb.images)}
    coset_of = [-1] * G.n
    reps = []
    for g in range(G.n):
        if coset_of[g] >= 0:
            continue
        reps.append(g)
        row = mul[g]
        for s in range(Hgrp.n):
            coset_of[row[emb.images[s]]] = len(reps) - 1
    h_idx = [pos[mul[inv[reps[coset_of[g]]]][g]] for g in range(G.n)]
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
