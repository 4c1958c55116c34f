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


CORPUS = {
    "two_chain": chain(2),
    "three_chain": chain(3),
    "boolean_square": boolean_square(),
    "boolean_cube": boolean_cube(),
    "mo2": mo2(),
    "o6": o6(),
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
