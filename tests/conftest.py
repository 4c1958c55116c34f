import numpy as np
import pytest

from subentity_lab.lattice import build_lattice

FIXDIR = None  # set lazily below


def pytest_configure(config):
    global FIXDIR
    from pathlib import Path
    FIXDIR = Path(__file__).parent / "fixtures"


def chain(n):
    return build_lattice(n, [(i, i + 1) for i in range(n - 1)])


def boolean(k):
    # 2^k; element a is the bitmask of its atoms
    n = 1 << k
    return build_lattice(n, [(a, a | 1 << i)
                             for a in range(n) for i in range(k) if not a >> i & 1])


def mo(n):
    # MO_n: bottom 0, atoms 1..2n, top 2n+1
    top = 2 * n + 1
    return build_lattice(top + 1, [(0, i) for i in range(1, top)]
                         + [(i, top) for i in range(1, top)])


def chain_product(a, b):
    # C_a x C_b with the product order; element (i, j) is i*b + j
    return build_lattice(a * b,
                         [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
                         + [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)])


def boolean_square():
    return boolean(2)


def boolean_cube():
    # free Boolean algebra on 3 atoms; indices: 0, atoms 1-3, coatoms 4-6, top 7
    return build_lattice(8, [(0, 1), (0, 2), (0, 3),
                             (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6),
                             (4, 7), (5, 7), (6, 7)])


def mo2():
    return mo(2)


def o6():
    # benzene-ring hexagon: 0 < 1 < 3 < 5 and 0 < 2 < 4 < 5
    return build_lattice(6, [(0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 5)])


def n5():
    # pentagon: 0 < 1 < 3 < 4 and 0 < 2 < 4
    return build_lattice(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])


def covering_fail():
    # 0 < 1 < 2 < 3 < 5, 0 < 4 < 3: atom 4 with 1 v 4 = 3 and 2 strictly between
    return build_lattice(6, [(0, 1), (1, 2), (2, 3), (3, 5), (0, 4), (4, 3)])


def product(A, B):
    # A x B with the componentwise order; element (a, b) is a*|B| + b
    return build_lattice(A.size * B.size,
                         [(a * B.size + b, c * B.size + d)
                          for a in range(A.size) for c in range(A.size) if A.leq[a][c]
                          for b in range(B.size) for d in range(B.size)
                          if B.leq[b][d] and (a, b) != (c, d)])


def horizontal_sum(*lattices):
    # the lattices glued at their bottoms (element 0) and their tops (element 1)
    pairs, size = [], 2
    for L in lattices:
        index = {L.bottom: 0, L.top: 1}
        for x in range(L.size):
            if x not in index:
                index[x], size = size, size + 1
        pairs += [(index[a], index[b]) for a in range(L.size) for b in range(L.size)
                  if index[a] != index[b] and L.leq[a][b]]
    return build_lattice(size, pairs)


def no_orthocomplement8():
    # bottom 3, atoms 4 5 6, 0 = 4 v 6, 7 = 5 v 6, 1 above 4 alone, top 2.  An
    # involution pairing complements exists, but no orthocomplementation: a
    # search that tests order reversal only for x, not for its image y, accepts
    # (5, 6, 3, 2, 7, 0, 1, 4), where 6 <= 0 but 0' = 5 is not below 6' = 1
    return build_lattice(8, [(3, 4), (3, 5), (3, 6), (6, 0), (4, 0), (6, 7), (5, 7),
                             (4, 1), (0, 2), (7, 2), (1, 2)])


CORPUS = {
    "two_chain": chain(2),
    "three_chain": chain(3),
    "boolean_square": boolean_square(),
    "boolean_cube": boolean_cube(),
    "mo2": mo2(),
    "o6": o6(),
    "no_orthocomplement8": no_orthocomplement8(),
}


@pytest.fixture(params=sorted(CORPUS))
def corpus_lattice(request):
    return CORPUS[request.param]


# --- quantum helpers ------------------------------------------------------

def ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


def proj(v):
    return np.outer(v, np.conj(v))


Z0 = ket(1, 0)
Z1 = ket(0, 1)
PLUS = ket(1, 1)
MINUS = ket(1, -1)
BELL = ket(1, 0, 0, 1)
