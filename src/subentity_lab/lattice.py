"""Finite posets and complete lattices with exact integer arithmetic.

Elements are dense indices 0..n-1.  The order is closed at build time
after a topological sort of the given pairs, one row OR per element and
pair, giving each element's down-set and up-set as an integer bit row.
The bit rows (`up`, `down`) are the one stored form of the order, with two
inverse indices from a down-set (up-set) mask to its element.  A meet is
the element whose down-set is the intersection of the down-sets, a join
likewise through up-sets: one AND and one dict lookup, with no n² table.
The build tests a bottom and each element's join with each join-irreducible,
which is enough to make a finite poset a lattice.  Bottom, top and atoms
come from the same sets, the boolean `leq` table is a view read off the rows
on first use, and lattices compare equal and hash alike on the `up` rows.

The isomorphism search assigns elements one at a time and tests each
candidate image with two mask comparisons against the images already
placed.  It takes pinned pairs {x: y}, so a caller can ask for the first
automorphism with given values (fixing a plane and moving one atom) instead
of listing a whole group.  `_orbits` splits a set of points into the orbits
of a pointwise stabilizer and asks such questions only where cheaper
arguments leave points tied: twins (equal strict up- and down-sets) are
swapped by an automorphism that moves nothing else, points whose up- and
down-sets differ in size or in what they contain of the fixed set lie in
different orbits, and two join-irreducibles are often exchanged by a map
read off Birkhoff's representation in O(n) (`_swap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations


class LatticeError(Exception):
    pass


class NotAPartialOrder(LatticeError):
    """The supplied pairs contain a cycle (antisymmetry fails after closure)."""


class NotALattice(LatticeError):
    """Some pair lacks a unique greatest lower / least upper bound."""

    def __init__(self, pair, which):
        self.pair = pair
        self.which = which  # "meet" or "join"
        super().__init__(f"no unique {which} for element pair {pair}")


class EmptyInterval(LatticeError):
    pass


@dataclass(frozen=True)
class FiniteLattice:
    """Finite complete lattice over element indices 0..size-1.

    Equality and hashing read the `up` rows (size, bottom, top and atoms
    are fixed by them); `down` and the two indices are derived.
    """

    size: int
    bottom: int
    top: int
    atoms: tuple
    # bit rows: bit b of up[a], and bit a of down[b], is set iff a <= b
    up: tuple = field(repr=False)
    down: tuple = field(repr=False, compare=False)
    # inverse indices: the element whose up-set (down-set) is a given mask
    by_up: dict = field(repr=False, compare=False)
    by_down: dict = field(repr=False, compare=False)

    def lt(self, a, b):
        return a != b and bool(self.up[a] >> b & 1)

    @cached_property
    def _irreducibles(self):
        """(J, key, by_key): the join-irreducibles as a mask, each element's
        J-set `down[x] & J`, and the element of each J-set.

        x is join-irreducible iff its strict down-set is some element's
        down-set, i.e. x has exactly one lower cover.  Every element is the
        join of the join-irreducibles below it (Birkhoff), so x <= y iff
        key[x] is inside key[y], and distinct elements have distinct J-sets.
        """
        down, by_down = self.down, self.by_down
        irr = sum(1 << x for x in range(self.size) if down[x] ^ 1 << x in by_down)
        key = tuple(row & irr for row in down)
        return irr, key, {k: x for x, k in enumerate(key)}

    @cached_property
    def leq(self):
        """Boolean order table, leq[a][b] == (a <= b), read off the bit rows."""
        return tuple(tuple(bool(row >> b & 1) for b in range(self.size)) for row in self.up)

    @cached_property
    def _signature(self):
        """Per-element invariant used to prune the isomorphism search.

        (down-set size, up-set size, lower covers, upper covers), counted on
        bit rows: y covers x iff y is the only element of x's strict up-set
        below y.  Computed once per lattice, on first use.
        """
        up, down = self.up, self.down
        sig = []
        for x in range(self.size):
            above, below = up[x] & ~(1 << x), down[x] & ~(1 << x)
            sig.append((down[x].bit_count(), up[x].bit_count(),
                        sum(1 for y in _bits(below) if below & up[y] == 1 << y),
                        sum(1 for y in _bits(above) if above & down[y] == 1 << y)))
        return tuple(sig)

    @cached_property
    def _targets(self):
        """Elements grouped by `_signature`, ascending: the isomorphism search's candidates."""
        targets = {}
        for y, sig in enumerate(self._signature):
            targets.setdefault(sig, []).append(y)
        return targets


def build_lattice(size, order_pairs):
    """Build a FiniteLattice from a size and a list of (lower, upper) pairs.

    The pairs are closed reflexively and transitively in O(n + m) row ORs
    for m pairs: during a topological sort (Kahn) each down-set row is the
    OR of its lower neighbours' rows, and then each up-set row that of its
    upper neighbours' rows in reverse topological order.  Raises
    NotAPartialOrder on a cycle, where the sort stalls, and NotALattice,
    naming a pair, when there is no bottom or some element has no join with
    some join-irreducible (n·|J| lookups).
    """
    if size < 1:
        raise LatticeError("lattice needs at least one element")
    above = [[] for _ in range(size)]
    below = [[] for _ in range(size)]
    for a, b in order_pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise LatticeError(f"order pair ({a},{b}) out of range for size {size}")
        if a != b:
            above[a].append(b)
            below[b].append(a)
    # Kahn's sort: x is placed once every element below it in a pair is, and
    # its down-set row is then the OR of those elements' rows
    down = [1 << b for b in range(size)]  # bit a of down[b] is set iff a <= b
    waiting = [len(xs) for xs in below]
    order = [x for x in range(size) if not waiting[x]]
    for x in order:  # grows while it is walked
        row = down[x]
        for a in below[x]:
            row |= down[a]
        down[x] = row
        for y in above[x]:
            waiting[y] -= 1
            if not waiting[y]:
                order.append(y)
    if len(order) < size:
        raise NotAPartialOrder("cycle through elements %d and %d" % _cycle(above, order))
    up = [1 << a for a in range(size)]  # bit b of up[a] is set iff a <= b
    for a in reversed(order):
        row = up[a]
        for b in above[a]:
            row |= up[b]
        up[a] = row

    # a bound is the element whose down-set (up-set) is the intersection.  With
    # a bottom, x ∨ j for each x and each j with one lower cover gives every join,
    # by induction on b: a b with lower covers c1 ≠ c2 is c1 ∨ c2, so a ∨ b = (a ∨ c1) ∨ c2
    by_down = {mask: x for x, mask in enumerate(down)}
    by_up = {mask: x for x, mask in enumerate(up)}
    everything = (1 << size) - 1
    bottom = by_up.get(everything)
    irreducible = [up[j] for j in range(size) if down[j] ^ 1 << j in by_down]
    if bottom is None or any(row & col not in by_up for row in up for col in irreducible):
        raise NotALattice(*_unbounded(up, down, by_up, by_down))
    return FiniteLattice(
        size=size,
        bottom=bottom,
        top=by_down[everything],
        atoms=tuple(x for x in range(size) if down[x] & ~(1 << x) == 1 << bottom),
        up=tuple(up),
        down=tuple(down),
        by_up=by_up,
        by_down=by_down,
    )


def _unbounded(up, down, by_up, by_down):
    """(pair, "meet" or "join") for the first incomparable pair a < b lacking that bound.

    Run only on failure, meet first.  Comparable pairs have bounds and (b, a)
    fails when (a, b) does, so this names the pair a scan of all n² would."""
    for a, b in combinations(range(len(up)), 2):
        if up[a] >> b & 1 or down[a] >> b & 1:
            continue
        if down[a] & down[b] not in by_down:
            return (a, b), "meet"
        if up[a] & up[b] not in by_up:
            return (a, b), "join"


def _cycle(above, order):
    """The least element a on a cycle and the least b > a on a cycle with it.

    Run only once Kahn's sort has stalled.  The sort leaves exactly the
    elements on or above a cycle out of `order`, so everything reachable
    from them is left out too.
    """
    placed = set(order)
    left = [x for x in range(len(above)) if x not in placed]
    reach = {}  # x -> mask of the elements reachable from x
    for x in left:
        seen, todo = 0, [x]
        while todo:
            y = todo.pop()
            if not seen >> y & 1:
                seen |= 1 << y
                todo += above[y]
        reach[x] = seen
    for a in left:
        for b in _bits(reach[a] & -(2 << a)):
            if reach[b] >> a & 1:
                return a, b


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def meet(L, subset):
    """Greatest lower bound of a subset; the empty meet is the top element."""
    down = L.down
    acc = down[L.top]
    for x in subset:
        acc &= down[x]
    return L.by_down[acc]


def join(L, subset):
    """Least upper bound of a subset; the empty join is the bottom element."""
    up = L.up
    acc = up[L.bottom]
    for x in subset:
        acc &= up[x]
    return L.by_up[acc]


def interval(L, lo, hi):
    """The set {x : lo <= x <= hi}; raises EmptyInterval when lo is not below hi."""
    if not L.up[lo] >> hi & 1:
        raise EmptyInterval(f"{lo} is not below {hi}")
    return frozenset(_bits(L.up[lo] & L.down[hi]))


def _isomorphisms(L1, L2, pinned=None):
    """Order isomorphisms L1 -> L2 with f(x) = y for each pair of `pinned`, lexicographically.

    Each element's candidates are the targets of equal signature (only y
    for a pinned x).  Elements with a single candidate are assigned first,
    then the rest in ascending order, each trying ascending targets.  A
    single-candidate element has the same image in every map, so the maps
    still come out sorted by (f(0), f(1), ...).

    A candidate y for x is consistent with the elements already assigned
    iff y is unused and the assigned images above (below) y are exactly the
    images of the assigned elements above (below) x: two mask comparisons.
    """
    if L1.size != L2.size:
        return
    n = L1.size
    sig1, sig2 = L1._signature, L2._signature
    if L1 is not L2 and sorted(sig1) != sorted(sig2):
        return
    pinned = pinned or {}
    targets = L2._targets
    candidates = [([pinned[x]] if sig2[pinned[x]] == sig1[x] else []) if x in pinned
                  else targets[sig1[x]] for x in range(n)]
    if not all(candidates):
        return
    order = ([x for x in range(n) if len(candidates[x]) == 1]
             + [x for x in range(n) if len(candidates[x]) > 1])
    up1, down1, up2, down2 = L1.up, L1.down, L2.up, L2.down
    assign = [-1] * n

    def image(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << assign[low.bit_length() - 1]
            mask ^= low
        return out

    def frame(i, placed, used):
        # placed: mask of the elements assigned so far, used: mask of their images
        x = order[i]
        return (x, iter(candidates[x]), placed, used,
                image(up1[x] & placed), image(down1[x] & placed))

    # an explicit stack of frames, one per assigned level, so depth costs no Python frames
    stack = [frame(0, 0, 0)]
    while stack:
        x, untried, placed, used, want_up, want_down = stack[-1]
        for y in untried:
            if not used >> y & 1 and up2[y] & used == want_up and down2[y] & used == want_down:
                assign[x] = y
                if len(stack) < n:
                    stack.append(frame(len(stack), placed | 1 << x, used | 1 << y))
                    break
                yield tuple(assign)
        else:
            stack.pop()


def find_isomorphism(L1, L2):
    """Order isomorphism between two lattices as an assignment tuple, or None.

    Deterministic: the lexicographically least assignment is returned.
    """
    return next(_isomorphisms(L1, L2), None)


def automorphisms(L, fixed=()):
    """Order automorphisms fixing each element of `fixed`, as assignment tuples,
    lexicographically; has the identity."""
    return list(_isomorphisms(L, L, {x: x for x in fixed}))


def _orbits(L, fixed, points, found=None):
    """Orbits of `points` under the automorphisms fixing each element of the mask `fixed`.

    `points` must be closed under that group.  The orbits come back as
    ascending lists, ordered by their least element.  Points are first
    grouped by a key every such automorphism preserves: the sizes of their
    up- and down-sets and the parts of those sets inside `fixed`.  A group
    whose points are all twins (equal strict up- and down-sets; swapping two
    twins moves nothing else) is one orbit.  The twin classes left tied in a
    group are merged in a union-find, one step per pair of classes not yet
    merged: the step tries the `_swap` of the two classes' least points
    first, and asks `_isomorphisms` for a map only when the swap is not one.
    Every map found merges each class with its image.  When a list `found`
    is given, each map found, by a swap or a query, is appended to it, so a
    caller can reuse them.
    """
    up, down = L.up, L.down
    groups = {}
    for p in points:
        key = (up[p].bit_count(), down[p].bit_count(), up[p] & fixed, down[p] & fixed)
        groups.setdefault(key, []).append(p)
    if len(groups) == len(points):
        return sorted([p] for p in points)
    orbits = []
    for group in groups.values():
        twins = {}
        for p in sorted(group):
            twins.setdefault((up[p] ^ 1 << p, down[p] ^ 1 << p), []).append(p)
        classes = list(twins.values())
        if len(classes) == 1:
            orbits += classes
            continue
        index = {p: i for i, members in enumerate(classes) for p in members}
        parent = list(range(len(classes)))
        for i, j in combinations(range(len(classes)), 2):
            if _find(parent, i) == _find(parent, j):
                continue
            s, t = classes[i][0], classes[j][0]
            f = _swap(L, fixed, s, t) or next(
                _isomorphisms(L, L, {x: x for x in _bits(fixed)} | {s: t}), None)
            if f is not None:
                if found is not None:
                    found.append(f)
                for k, members in enumerate(classes):
                    parent[_find(parent, k)] = _find(parent, index[f[members[0]]])
        merged = {}
        for i, members in enumerate(classes):
            merged.setdefault(_find(parent, i), []).extend(members)
        orbits += (sorted(members) for members in merged.values())
    return sorted(orbits)


def _swap(L, fixed, s, t):
    """The automorphism exchanging s and t in every element's J-set, or None.

    J is the set of join-irreducibles (`FiniteLattice._irreducibles`).  For
    s and t in J with the same members of J above and below them, not
    counting each other, each x goes to the element whose J-set is x's with
    s and t exchanged.  Since x <= y iff J(x) is inside J(y), that is an
    automorphism exactly when every such set belongs to some element, and
    then it maps s to t.  Incomparability and the equal parts of J above
    and below are necessary for that, so testing them first on the masks
    only ends hopeless tries early.
    Only the elements holding exactly one of s and t move, so it fixes the
    mask `fixed` pointwise when no fixed element holds exactly one.
    """
    irr, key, by_key = L._irreducibles
    pair = 1 << s | 1 << t
    up, down = L.up, L.down
    moved = up[s] ^ up[t]
    others = irr & ~pair
    if (pair & ~irr or moved & pair != pair  # both in J, and incomparable
            or moved & (others | fixed) or (down[s] ^ down[t]) & others):
        return None
    f = list(range(L.size))
    for x in _bits(moved):
        y = by_key.get(key[x] ^ pair)
        if y is None:
            return None
        f[x] = y
    return tuple(f)


def _find(parent, x):
    """Root of x's class in a union-find given as a parent list."""
    while parent[x] != x:
        x = parent[x]
    return x
