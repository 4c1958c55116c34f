"""Finite posets and complete lattices with exact integer arithmetic.

Elements are dense indices 0..n-1.  The order is closed at build time on
integer bit rows, giving each element's down-set and up-set.  A meet is the
element whose down-set is the intersection of the two down-sets, a join
likewise through up-sets, and bottom, top and atoms come from the same
sets.  The boolean `leq` table and the eager meet/join tables make every
downstream query an O(1) lookup; the bit rows stay on the lattice (`up`,
`down`) for the set-valued queries.

The isomorphism search assigns elements one at a time and tests each
candidate image with two mask comparisons against the images already
placed.  It takes pinned pairs {x: y}, so a caller can ask for the first
automorphism with given values (fixing a plane and moving one atom) instead
of listing a whole group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


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
    """Finite complete lattice over element indices 0..size-1."""

    size: int
    leq: tuple  # closed boolean matrix, leq[a][b] == (a <= b)
    meet_table: tuple
    join_table: tuple
    bottom: int
    top: int
    atoms: tuple
    # bit rows: bit b of up[a], and bit a of down[b], is set iff a <= b
    up: tuple = field(repr=False, compare=False)
    down: tuple = field(repr=False, compare=False)

    def lt(self, a, b):
        return a != b and self.leq[a][b]

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


@dataclass(frozen=True)
class LatticeMap:
    """A verified order isomorphism between two finite lattices."""

    source: FiniteLattice
    target: FiniteLattice
    assignment: tuple
    kind: str  # "isomorphism" or "automorphism"

    def __call__(self, x):
        return self.assignment[x]

    def compose(self, other):
        """self after other (both must be automorphisms of the same lattice)."""
        assign = tuple(self.assignment[other.assignment[x]] for x in range(self.source.size))
        return LatticeMap(other.source, self.target, assign, self.kind)

    def inverse(self):
        inv = [0] * len(self.assignment)
        for x, y in enumerate(self.assignment):
            inv[y] = x
        return LatticeMap(self.target, self.source, tuple(inv), self.kind)


def build_lattice(size, order_pairs):
    """Build a FiniteLattice from a size and a list of (lower, upper) pairs.

    The pairs are closed reflexively and transitively.  Raises
    NotAPartialOrder on a cycle and NotALattice when some pair of elements
    has no unique greatest lower bound or least upper bound.
    """
    if size < 1:
        raise LatticeError("lattice needs at least one element")
    up = [1 << a for a in range(size)]  # bit b of up[a] is set iff a <= b
    for a, b in order_pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise LatticeError(f"order pair ({a},{b}) out of range for size {size}")
        up[a] |= 1 << b
    # Warshall closure
    for k in range(size):
        for i in range(size):
            if up[i] >> k & 1:
                up[i] |= up[k]
    down = [sum(1 << a for a in range(size) if up[a] >> b & 1) for b in range(size)]
    for a in range(size):
        above = up[a] & down[a] & -(2 << a)  # elements b > a with a <= b <= a
        if above:
            b = (above & -above).bit_length() - 1
            raise NotAPartialOrder(f"cycle through elements {a} and {b}")

    # a bound is the element whose down-set (up-set) is the intersection
    by_down = {mask: x for x, mask in enumerate(down)}
    by_up = {mask: x for x, mask in enumerate(up)}
    meet_table = [[0] * size for _ in range(size)]
    join_table = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            glb = by_down.get(down[a] & down[b])
            if glb is None:
                raise NotALattice((a, b), "meet")
            lub = by_up.get(up[a] & up[b])
            if lub is None:
                raise NotALattice((a, b), "join")
            meet_table[a][b] = glb
            join_table[a][b] = lub

    everything = (1 << size) - 1
    bottom = by_up[everything]
    return FiniteLattice(
        size=size,
        leq=tuple(tuple(bool(up[a] >> b & 1) for b in range(size)) for a in range(size)),
        meet_table=tuple(tuple(row) for row in meet_table),
        join_table=tuple(tuple(row) for row in join_table),
        bottom=bottom,
        top=by_down[everything],
        atoms=tuple(x for x in range(size) if down[x] & ~(1 << x) == 1 << bottom),
        up=tuple(up),
        down=tuple(down),
    )


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def meet(L, subset):
    """Greatest lower bound of a subset; the empty meet is the top element."""
    acc = L.top
    for x in subset:
        acc = L.meet_table[acc][x]
    return acc


def join(L, subset):
    """Least upper bound of a subset; the empty join is the bottom element."""
    acc = L.bottom
    for x in subset:
        acc = L.join_table[acc][x]
    return acc


def interval(L, lo, hi):
    """The set {x : lo <= x <= hi}; raises EmptyInterval when lo is not below hi."""
    if not L.leq[lo][hi]:
        raise EmptyInterval(f"{lo} is not below {hi}")
    return frozenset(x for x in range(L.size) if L.leq[lo][x] and L.leq[x][hi])


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
    if sorted(sig1) != sorted(sig2):
        return
    pinned = pinned or {}
    targets = {}
    for y in range(n):
        targets.setdefault(sig2[y], []).append(y)
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

    def backtrack(i, placed, used):
        # placed: mask of the elements assigned so far, used: mask of their images
        if i == n:
            yield tuple(assign)
            return
        x = order[i]
        want_up, want_down = image(up1[x] & placed), image(down1[x] & placed)
        for y in candidates[x]:
            if not used >> y & 1 and up2[y] & used == want_up and down2[y] & used == want_down:
                assign[x] = y
                yield from backtrack(i + 1, placed | 1 << x, used | 1 << y)

    yield from backtrack(0, 0, 0)


def find_isomorphism(L1, L2):
    """Order isomorphism between two lattices, or None.

    Deterministic: the lexicographically least assignment is returned.
    """
    found = next(_isomorphisms(L1, L2), None)
    if found is None:
        return None
    kind = "automorphism" if L1 is L2 else "isomorphism"
    return LatticeMap(L1, L2, found, kind)


def automorphisms(L, fixed=()):
    """Order automorphisms fixing each element of `fixed`, lexicographically; has identity."""
    return [LatticeMap(L, L, a, "automorphism")
            for a in _isomorphisms(L, L, {x: x for x in fixed})]
