"""Subgroup lattices with conjugacy classes, Moebius values, and the
coefficient arithmetic behind the commutativity criteria.

Enumeration is cyclic extension (Neubüser, 1960) up to conjugacy, in the
form of GAP's LatticeByCyclicExtension. The generators are the zuppos: one
generator z of each cyclic subgroup of prime-power order p^k. Only class
representatives H are extended, and only by zuppos z outside H with
z^p in H, one per N_G(H)-orbit. This is complete: adding the zuppos of a
subgroup in increasing order builds it by such steps, and
<H^a, z> = <H, z^(a^-1)>^a, so a conjugation-closed set that is closed at
its representatives is closed everywhere. Each new subgroup J brings in its
whole class at once. J is normal, a class of one, when the generators of
G conjugate the generators of J into J; otherwise a breadth-first search
over conjugation by the generators of G records a conjugator t for each
member. N_G(J) is grown from J by joining elements that normalize it
until its order is [G : class size], and the member t J t^-1 gets
t N_G(J) t^-1. Classes and normalizers are thus by-products of the
enumeration.

A zuppo z in N_G(H) is a prime-index step: z^p is in H, so
[<H, z> : H] = p and <H, z> = H u zH u ... u z^(p-1)H, built coset by
coset with no closure. When G is solvable (Group.is_solvable) only such
steps are taken, and this stays complete: a solvable subgroup J > 1 has a
normal subgroup M of prime index p, the p-part of any x in J outside M
generates a zuppo z outside M with z^p in M, so J = <M, z> is a step
from M, and conjugating by a with M^a the representative of M's class
makes J^a a step from that representative. In other groups a zuppo
outside N_G(H) is joined by Group.join_mask, which returns G as soon as
the join holds more than n/q elements, q the least prime dividing
[G : H]: no proper subgroup containing H is larger.

Two rules skip work whose result is already known, and neither changes
the lattice. Prime-index closure: if J = <H, z> and [J : H] = p is prime,
then <H, z'> = J for every z' in J outside H, since a subgroup strictly
between H and J would have an order strictly between |H| and p |H|
dividing p |H|. So once J is built, every zuppo with a generator in J
outside H is marked done for H, the coset build marking them as it
lists the cosets: its join would rebuild J, which is already listed.
Classes of one: when J is normal, N_G(J) = G, so the normalizer is not
grown by joins, and G's generators, which generate N_G(J), act on the
zuppos when J is extended. Conjugation by a central element is trivial,
so throughout only G's generators outside the center act.

A group realized as a section T/S of a parent G (groups.py), a subgroup
H = H/1 or a quotient G/N, is enumerated like any other group. It records
its parent, so that the subgroup budget can exempt it when the parent's
lattice is built: by the correspondence theorem its subgroups are the
images of G's subgroups K with S <= K <= T, never more than G has.

Subgroups are ordered by (order, sorted member indices); conjugacy-class
representatives are the minimal subgroups of their classes under that
order, which makes every derived table (marks, idempotent coefficients)
reproducible.

Containments are read off one map, built with the lattice: for each
zuppo generator z, the subgroups holding z, as a mask over subgroup
indices. A group is generated by its elements of prime-power order, each
generating the same cyclic subgroup as some zuppo generator, so K <= H
iff every zuppo generator in K lies in H (SubgroupLattice.below and
above). below rows and Moebius values (mu_column) are computed per
subgroup on first read and cached, so the table of marks and the
idempotents, which read class representatives only, never touch the
rest. mu(., H) is in closed form when H is nilpotent (P. Hall, 1936)
and a recursion over H's interval otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cache

from .errors import CapExceededError, PreconditionError
from .groups import Subgroup, _prime_factors, bits, mask_of

__all__ = [
    "DEFAULT_SUBGROUP_BUDGET",
    "SubgroupLattice",
    "subgroup_lattice",
    "m_sum",
    "m_constant",
    "m_cyclic",
    "check_gcd_property",
    "totient",
    "p_part",
    "divisors",
]

# Enumeration from scratch stops past this many subgroups. It admits
# S4xS4 (2,976 subgroups) and C2^6 (2,825), and stops C2^7 (29,212)
# within half a second on a 2-vCPU machine.
DEFAULT_SUBGROUP_BUDGET = 10000


def totient(n):
    """Euler's phi: n times the product of (1 - 1/p) over the primes p | n."""
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def p_part(n, p):
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@cache
def _elementary_mu(index):
    """mu(K, H) when H/K is a product of elementary abelian groups (C_p)^r
    of total order index: the product of (-1)^r p^(r(r-1)/2)."""
    mu = 1
    for p in _prime_factors(index):
        r = 0
        while index % p == 0:
            index //= p
            r += 1
        mu *= (-1) ** r * p ** (r * (r - 1) // 2)
    return mu


def _zuppos(G):
    """Cyclic subgroups of prime-power order p^k > 1 ("zuppos").

    Returns (zuppos, zuppo_of): zuppos lists the pairs (z, z^p) for the
    minimal-index generator z of each, and zuppo_of lists, by element,
    the position in zuppos of the cyclic subgroup it generates, or None
    when that is not a zuppo; both read off G.cyclic_subgroups().
    """
    walks, cyclic_of, _ = G.cyclic_subgroups()
    zuppos, position = [], [None] * len(walks)
    for c, powers in enumerate(walks):
        primes = _prime_factors(len(powers))
        if len(primes) == 1:
            position[c] = len(zuppos)
            zuppos.append((powers[0], powers[primes[0] - 1]))
    return zuppos, [None if c is None else position[c] for c in cyclic_of]


def _subgroup_classes(G, max_subgroups):
    """Every subgroup of G by conjugacy class, with its normalizer.

    Returns (orbits, normalizer, zuppos): orbits lists each class as its
    member masks, normalizer maps every subgroup mask to the mask of its
    normalizer, and zuppos is _zuppos(G)[0]. Raises CapExceededError as
    soon as the classes found hold more than max_subgroups subgroups
    (None: no bound).
    """
    mul, conj = G.mul, G.conj_rows()
    # conjugation by a central element is trivial
    zmask = G.center().mask
    gens = tuple(s for s in G.generators() if not (zmask >> s) & 1)
    zuppos, zuppo_of = _zuppos(G)
    primes = _prime_factors(G.n)  # ascending
    solvable = G.is_solvable()
    whole = (1 << G.n) - 1
    orbits = []
    normalizer = {}
    reps = []

    def add_class(jmask, jgens):
        conjugator = {jmask: G.identity}
        queue = [G.identity]
        # J = <jgens> is normal when G's generators conjugate jgens into J;
        # only otherwise does the search conjugate J member by member
        if not all((jmask >> conj[s][x]) & 1 for s in gens for x in jgens):
            members = tuple(bits(jmask))
            for t in queue:
                for s in gens:
                    st = mul[s][t]
                    row = conj[st]
                    cmask = mask_of([row[x] for x in members])
                    if cmask not in conjugator:
                        conjugator[cmask] = st
                        queue.append(st)
        # normalizer holds one entry per subgroup found so far
        if max_subgroups is not None and len(normalizer) + len(queue) > max_subgroups:
            raise CapExceededError(
                f"{G.label} has more than {max_subgroups} subgroups, "
                f"above the subgroup budget"
            )
        if len(queue) == 1:
            # a class of one: J is normal, so N_G(J) = G
            nmask, ngens = whole, gens
            normalizer[jmask] = whole
        else:
            target = G.n // len(queue)
            nmask, ngens = jmask, jgens
            for g in range(G.n):
                if nmask.bit_count() >= target:
                    break
                row = conj[g]
                if not (nmask >> g) & 1 and all((jmask >> row[x]) & 1 for x in jgens):
                    nmask = G.join_mask(nmask, g)
                    ngens += (g,)
            nmembers = tuple(bits(nmask))
            for cmask, t in conjugator.items():
                row = conj[t]
                normalizer[cmask] = mask_of([row[x] for x in nmembers])
        assert len(queue) * nmask.bit_count() == G.n, (
            "class size must equal [G : N_G(H)]"
        )
        orbits.append(tuple(conjugator))
        reps.append((jmask, jgens, ngens))

    add_class(1 << G.identity, ())
    for hmask, hgens, ngens in reps:
        # <H, z> and <H, a z a^-1> are conjugate for a in N_G(H), so one
        # zuppo per N_G(H)-orbit suffices; the orbit keeps z outside H and
        # z^p inside it, and keeps z in N_G(H) or out of it
        seen = set()
        hmembers = tuple(bits(hmask))
        horder = len(hmembers)
        nmask = normalizer[hmask]
        # a solvable group is reached by extensions of prime index
        allowed = nmask if solvable else whole
        for i, (z, zp) in enumerate(zuppos):
            if (
                i in seen
                or (hmask >> z) & 1
                or not (hmask >> zp) & 1
                or not (allowed >> z) & 1
            ):
                continue
            seen.add(i)
            orbit = [z]
            for x in orbit:
                for a in ngens:
                    j = zuppo_of[conj[a][x]]
                    if j not in seen:
                        seen.add(j)
                        orbit.append(zuppos[j][0])
            if (nmask >> z) & 1:
                # z normalizes H and z^p is in H, so [<H, z> : H] = p and
                # <H, z> = H u zH u ... u z^(p-1)H; every generator of J
                # outside H generates J over H, so no zuppo there needs
                # the join (seen may also take the None of the elements
                # outside every zuppo, which no lookup asks for)
                jmask, x = hmask, z
                while not (hmask >> x) & 1:
                    row = mul[x]
                    coset = [row[h] for h in hmembers]
                    jmask |= mask_of(coset)
                    seen.update(map(zuppo_of.__getitem__, coset))
                    x = row[z]
            else:
                # a proper subgroup above H has order at most n/q, for q
                # the least prime dividing [G : H]
                q = next(q for q in primes if G.n // horder % q == 0)
                jmask = G.join_mask(hmask, z, hmembers, G.n // q)
                if jmask.bit_count() // horder in primes:
                    # [J : H] prime: as above
                    seen.update(map(zuppo_of.__getitem__, bits(jmask & ~hmask)))
            if jmask not in normalizer:
                add_class(jmask, hgens + (z,))
    return orbits, normalizer, zuppos


class SubgroupLattice:
    """All subgroups of a finite group, with conjugation and Moebius data."""

    __slots__ = (
        "group",
        "subgroups",
        "index",
        "classes",
        "class_of",
        "reps",
        "normalizer_idx",
        "masks",
        "class_labels",
        "_label_to_class",
        "_class_orders",
        "_holders",
        "_below",
        "_mu",
        "_cache",
    )

    def __init__(self, G, max_subgroups=DEFAULT_SUBGROUP_BUDGET):
        """max_subgroups bounds the enumeration, except for a section of a
        parent whose lattice is built: it has no more subgroups than the
        parent."""
        self.group = G
        self._cache = {}
        parent = G._cache.get("section")
        if parent is not None and "lattice" in parent._cache:
            max_subgroups = None
        orbits, normalizer, zuppos = _subgroup_classes(G, max_subgroups)
        keyed = sorted((m.bit_count(), tuple(bits(m)), m) for m in normalizer)
        masks = [m for _, _, m in keyed]
        self.subgroups = tuple(Subgroup(G, m, members) for _, members, m in keyed)
        self.index = {m: i for i, m in enumerate(masks)}
        count = len(masks)
        self.classes = tuple(
            sorted(tuple(sorted(self.index[m] for m in orbit)) for orbit in orbits)
        )
        class_of = [-1] * count
        for c, cls in enumerate(self.classes):
            for i in cls:
                class_of[i] = c
        self.class_of = tuple(class_of)
        self.reps = tuple(cls[0] for cls in self.classes)
        self.normalizer_idx = tuple(self.index[normalizer[m]] for m in masks)
        self.masks = tuple(masks)
        self._class_orders = tuple(masks[r].bit_count() for r in self.reps)
        # for each zuppo generator z, the subgroups holding z, as a mask
        # over subgroup indices
        holders = {z: [] for z, _ in zuppos}
        for i, (_, members, _) in enumerate(keyed):
            for z in filter(holders.__contains__, members):
                holders[z].append(i)
        self._holders = {z: mask_of(held) for z, held in holders.items()}
        self._below = {}
        self._mu = {}

        labels = []
        seen = {}
        for c, rep in enumerate(self.reps):
            k = self.subgroups[rep].order
            labels.append(f"{k}:{seen.get(k, 0)}")
            seen[k] = seen.get(k, 0) + 1
        self.class_labels = tuple(labels)
        self._label_to_class = {lab: c for c, lab in enumerate(labels)}

    def __repr__(self):
        return (
            f"<SubgroupLattice of {self.group.label}: "
            f"{len(self.subgroups)} subgroups, {len(self.classes)} classes>"
        )

    def subgroup_index(self, H):
        if H.parent is not self.group:
            raise PreconditionError("subgroup belongs to a different group")
        idx = self.index.get(H.mask)
        assert idx is not None, "complete lattice is missing a subgroup"
        return idx

    def class_index(self, H):
        return self.class_of[self.subgroup_index(H)]

    def n_classes(self):
        return len(self.classes)

    def classes_of_order(self, d):
        """The classes of subgroups of order d, as a range: classes ascend
        by order."""
        orders = self._class_orders
        return range(bisect_left(orders, d), bisect_right(orders, d))

    def class_rep(self, c):
        return self.subgroups[self.reps[c]]

    def class_order(self, c):
        return self._class_orders[c]

    def class_label(self, c):
        return self.class_labels[c]

    def class_label_of(self, H):
        """The label of the conjugacy class holding subgroup H."""
        return self.class_labels[self.class_index(H)]

    def class_by_label(self, label):
        c = self._label_to_class.get(label)
        if c is None:
            raise PreconditionError(
                f"no subgroup class {label!r} in {self.group.label}"
            )
        return c

    def normalizer(self, H):
        return self.subgroups[self.normalizer_idx[self.subgroup_index(H)]]

    def below(self, h):
        """Indices of the subgroups of subgroup h, ascending, h itself last;
        computed on first read: the indices before h of the subgroups that
        hold no zuppo generator outside H."""
        row = self._below.get(h)
        if row is None:
            hm, outside = self.masks[h], 0
            for z, held in self._holders.items():
                if not (hm >> z) & 1:
                    outside |= held
            row = self._below[h] = (*bits(~outside & ((1 << h) - 1)), h)
        return row

    def above(self, kmask):
        """The subgroups that contain the subgroup with element mask kmask,
        as a mask over subgroup indices: those holding every zuppo
        generator in K."""
        acc = (1 << len(self.masks)) - 1
        for z, held in self._holders.items():
            if (kmask >> z) & 1:
                acc &= held
        return acc

    def mu_column(self, h):
        """The nonzero Moebius values mu(K, H) for H = subgroup h, as
        {index of K: value}; computed on first read.

        mu(K, H) is nonzero only when K is an intersection of maximal
        subgroups of H (P. Hall, 1936). H is nilpotent when it has one
        subgroup of each Sylow order; then its maximal subgroups are those
        of prime index, and for K containing their intersection Phi(H),
        H/K is a product of elementary abelian groups (C_p)^r, so
        mu(K, H) is the product of (-1)^r p^(r(r-1)/2). Otherwise mu runs
        top down over the interval, summing only the nonzero values.
        """
        col = self._mu.get(h)
        if col is not None:
            return col
        masks = self.masks
        below = self.below(h)
        orders = [masks[j].bit_count() for j in below]
        ho = orders[-1]
        primes = _prime_factors(ho)
        if all(orders.count(p_part(ho, p)) == 1 for p in primes):
            phi = masks[h]
            for j, jo in zip(below, orders):
                if ho // jo in primes:
                    phi &= masks[j]
            col = {
                j: _elementary_mu(ho // jo)
                for j, jo in zip(below, orders)
                if masks[j] & phi == phi
            }
        else:
            col = {h: 1}
            nonzero = [(masks[h], 1)]
            for j in reversed(below[:-1]):
                jm = masks[j]
                v = -sum(m for xm, m in nonzero if xm & jm == jm)
                if v:
                    col[j] = v
                    nonzero.append((jm, v))
        self._mu[h] = col
        return col

    def is_normal_class(self, c):
        return len(self.classes[c]) == 1

    def normal_class_indices(self):
        return tuple(c for c in range(len(self.classes)) if self.is_normal_class(c))

    def frattini_of(self, H):
        """Intersection of the maximal proper subgroups of H (H itself if none).

        mu(K, H) is nonzero only when K is an intersection of maximal
        subgroups of H, and mu(M, H) = -1 for each maximal M (P. Hall,
        1936), so the meet of H's Moebius column is Phi(H).
        """
        h = self.subgroup_index(H)
        phi = H.mask
        for j in self.mu_column(h):
            phi &= self.masks[j]
        return Subgroup(self.group, phi)

    def frattini(self):
        return self.frattini_of(self.group.full_subgroup())


def subgroup_lattice(G, max_subgroups=DEFAULT_SUBGROUP_BUDGET):
    """The (cached) subgroup lattice of G. Building it raises
    CapExceededError when G has more than max_subgroups subgroups, unless
    G is a section of a group whose lattice is built; None means no bound."""
    lat = G._cache.get("lattice")
    if lat is None:
        lat = SubgroupLattice(G, max_subgroups)
        G._cache["lattice"] = lat
    return lat


def m_sum(lat, l, kmask):
    """The sum of |X| mu(X, L) over the subgroups X <= L = subgroup l with
    X (L ∩ K) = L, for K given by its mask. As X ∩ (L ∩ K) = X ∩ K, that
    holds iff |X| |L ∩ K| = |L| |X ∩ K|. When L ∩ K = 1 only X = L
    qualifies, and the sum is |L| without reading L's Moebius column."""
    masks = lat.masks
    lm = masks[l]
    lo, ko = lm.bit_count(), (lm & kmask).bit_count()
    if ko == 1:
        return lo
    s = 0
    for x, mu in lat.mu_column(l).items():
        xm = masks[x]
        xo = xm.bit_count()
        if xo * ko == lo * (xm & kmask).bit_count():
            s += xo * mu
    return s


def m_constant(lat, L, K):
    """(1/|L|) * sum of |X| mu(X, L) over subgroups X <= L with X K = L.

    Defined for K normal in L; this is the coefficient that deflation by K
    picks up on the primitive idempotent attached to L.
    """
    li, ki = lat.subgroup_index(L), lat.subgroup_index(K)
    km = K.mask
    # K <= L <= N_G(K)
    if km & L.mask != km or L.mask & ~lat.masks[lat.normalizer_idx[ki]]:
        raise PreconditionError("m-constant needs K normal in L")
    from fractions import Fraction

    return Fraction(m_sum(lat, li, km), L.order)


def m_cyclic(t, n):
    """Closed form of the m-constant for cyclic groups of orders t and n | t."""
    if t % n:
        raise PreconditionError("m_cyclic needs n | t")
    from fractions import Fraction

    return Fraction(totient(t), n * totient(t // n))


def check_gcd_property(G, N):
    """Whether |H ∩ N| = gcd(|H|, |N|) for every subgroup H of G."""
    if N.parent is not G:
        raise PreconditionError("subgroup belongs to a different group")
    nm, no = N.mask, N.order
    gcd = math.gcd
    return all((m & nm).bit_count() == gcd(m.bit_count(), no) for m in subgroup_lattice(G).masks)
