"""Raw lattice presentations for the benchmark: (size, order pairs).

The benchmark hands the library only these pairs.  A seeded relabeling
draws a fresh presentation of the same lattice, so verdicts that are
invariant under isomorphism stay pinned while the inputs vary per seed.
"""

from __future__ import annotations


def boolean(k):
    """The Boolean algebra 2^k; element a is the bitmask of its atoms."""
    n = 1 << k
    return n, [(a, a | (1 << i)) for a in range(n) for i in range(k) if not a >> i & 1]


def mo(n):
    """MO_n: bottom 0, 2n atoms 1..2n, top 2n+1."""
    top = 2 * n + 1
    return top + 1, [(0, i) for i in range(1, top)] + [(i, top) for i in range(1, top)]


def chain_product(a, b):
    """C_a x C_b with the product order; element (i, j) is i*b + j."""
    pairs = []
    for i in range(a):
        for j in range(b):
            if i + 1 < a:
                pairs.append((i * b + j, (i + 1) * b + j))
            if j + 1 < b:
                pairs.append((i * b + j, i * b + j + 1))
    return a * b, pairs


def o6():
    """Benzene-ring hexagon: orthocomplemented, not orthomodular."""
    return 6, [(0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 5)]


def pentagon():
    """N5: 0 < 1 < 3 < 4 and 0 < 2 < 4."""
    return 5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]


def covering_counterexample():
    """Atom 4 with 1 v 4 = 3 and 2 strictly between 1 and 3."""
    return 6, [(0, 1), (1, 2), (2, 3), (3, 5), (0, 4), (4, 3)]


NAMED = {
    "B2": lambda: boolean(2),
    "B3": lambda: boolean(3),
    "B4": lambda: boolean(4),
    "B5": lambda: boolean(5),
    "MO2": lambda: mo(2),
    "MO3": lambda: mo(3),
    "MO4": lambda: mo(4),
    "MO5": lambda: mo(5),
    "C2xC4": lambda: chain_product(2, 4),
    "C3xC3": lambda: chain_product(3, 3),
    "C3xC4": lambda: chain_product(3, 4),
    "O6": o6,
    "N5": pentagon,
    "COV": covering_counterexample,
}


def relabel(presentation, rng):
    """The same lattice under a random permutation of its elements and pairs."""
    size, pairs = presentation
    perm = list(range(size))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) for a, b in pairs]
    rng.shuffle(out)
    return size, out
