"""Finite posets and complete lattices with exact integer arithmetic.

Elements are dense indices 0..n-1.  The order is closed at build time on
integer bit rows, giving each element's down-set and up-set.  A meet is the
element whose down-set is the intersection of the two down-sets, a join
likewise through up-sets, and bottom, top and atoms come from the same
sets.  The boolean `leq` table and the eager meet/join tables make every
downstream query an O(1) lookup.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    def lt(self, a, b):
        return a != b and self.leq[a][b]


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
    )


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


def _signature(L):
    """Per-element invariant used to prune the isomorphism search.

    (down-set size, up-set size, lower covers, upper covers), counted on bit
    rows: y covers x iff y is the only element of x's strict up-set below y.
    """
    n = L.size
    up = [sum(1 << y for y in range(n) if L.leq[x][y]) for x in range(n)]
    down = [sum(1 << y for y in range(n) if L.leq[y][x]) for x in range(n)]
    sig = []
    for x in range(n):
        above, below = up[x] & ~(1 << x), down[x] & ~(1 << x)
        covering = sum(1 for y in range(n) if above >> y & 1 and above & down[y] == 1 << y)
        covered = sum(1 for y in range(n) if below >> y & 1 and below & up[y] == 1 << y)
        sig.append((down[x].bit_count(), up[x].bit_count(), covered, covering))
    return sig


def _isomorphisms(L1, L2, fixed=()):
    """Order isomorphisms L1 -> L2 that fix each element of `fixed`.

    Elements are assigned in ascending order, each trying ascending targets
    of equal signature, so the maps come out lexicographically sorted.  An
    element of `fixed` has itself as its only candidate.
    """
    if L1.size != L2.size:
        return
    n = L1.size
    sig1 = _signature(L1)
    sig2 = sig1 if L2 is L1 else _signature(L2)
    if sorted(sig1) != sorted(sig2):
        return
    fixed = set(fixed)
    candidates = [[y for y in ((x,) if x in fixed else range(n)) if sig2[y] == sig1[x]]
                  for x in range(n)]
    assign = [-1] * n
    used = [False] * n

    def consistent(x, y):
        for x2 in range(x):
            y2 = assign[x2]
            if L1.leq[x][x2] != L2.leq[y][y2] or L1.leq[x2][x] != L2.leq[y2][y]:
                return False
        return True

    def backtrack(x):
        if x == n:
            yield tuple(assign)
            return
        for y in candidates[x]:
            if not used[y] and consistent(x, y):
                assign[x] = y
                used[y] = True
                yield from backtrack(x + 1)
                used[y] = False

    yield from backtrack(0)


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
    return [LatticeMap(L, L, a, "automorphism") for a in _isomorphisms(L, L, fixed)]
