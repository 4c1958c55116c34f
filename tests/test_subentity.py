"""Witness verification and search, cross-checked against a naive
double enumeration over all injections n and all surjections m, and,
on pairs beyond its reach, against a backtracking search over m."""

import random
from itertools import permutations, product

import numpy as np
import pytest

from subentity_lab import sps as sps_module
from subentity_lab import subentity as subentity_module
from subentity_lab.hilbert import DimensionMismatch, partial_trace, tensor
from subentity_lab.subentity import (
    BudgetExhausted,
    DomainMismatch,
    SubentityWitness,
    build_completed_model,
    canonical_witness_check,
    search_witness,
    verify_witness,
)
from subentity_lab.sps import atomic_sps, build_sps, quantum_sps

from conftest import (BELL, MINUS, PLUS, Z0, Z1, boolean, boolean_square, chain, ket, mo,
                      n5, o6, proj)


def oracle_witnesses(part, whole):
    """Every witness, by literal enumeration. Sorted by (n, m), the order
    the searcher explores."""
    found = []
    for n in permutations(range(whole.lattice.size), part.lattice.size):
        for m in product(range(part.num_states), repeat=whole.num_states):
            if set(m) != set(range(part.num_states)):
                continue
            if all(
                (a in part.xi[m[pw]]) == (n[a] in whole.xi[pw])
                for pw in range(whole.num_states)
                for a in range(part.lattice.size)
            ):
                found.append((n, m))
    return sorted(found)


def reference_search(part, whole):
    """The least witness in (n, m) order, or None: every injection n in
    lexicographic order, then a backtracking search for the least onto m
    among each compound state's candidates, the part states whose row is
    the n-preimage of its row."""
    by_row = {}
    for p, s in enumerate(part.strongest):
        by_row.setdefault(part.lattice.up[s], []).append(p)
    rows_w = [whole.lattice.up[s] for s in whole.strongest]

    def onto(i, uncovered, candidates, m):
        if i == len(candidates):
            return not uncovered
        for p in candidates[i]:
            m[i] = p
            if onto(i + 1, uncovered & ~(1 << p), candidates, m):
                return True
        return False

    for n in permutations(range(whole.lattice.size), part.lattice.size):
        inv = [sum(1 << a for a, y in enumerate(n) if row >> y & 1) for row in rows_w]
        if all(x in by_row for x in inv):
            m = [-1] * len(rows_w)
            if onto(0, (1 << part.num_states) - 1, [by_row[x] for x in inv], m):
                return SubentityWitness(m=tuple(m), n=n)
    return None


def pure_part_sps():
    return quantum_sps(
        [proj(Z0), proj(Z1), proj(PLUS), proj(MINUS)],
        [proj(Z0), proj(Z1), proj(PLUS), proj(MINUS)],
    )


def bell_whole_sps():
    lifted = [tensor(proj(v), np.eye(2)) for v in (Z0, Z1, PLUS, MINUS)]
    states = [
        proj(np.kron(Z0, Z0)),
        proj(np.kron(Z1, Z0)),
        proj(np.kron(PLUS, Z0)),
        proj(np.kron(MINUS, Z0)),
        proj(BELL),
    ]
    return quantum_sps(states, lifted)


# --- verify_witness -------------------------------------------------------


def test_identity_witness():
    S = build_sps(boolean_square(), 2,
                  [[False, True, False, True], [False, False, True, True]])
    w = SubentityWitness(m=(0, 1), n=(0, 1, 2, 3))
    assert verify_witness(S, S, w).ok


def test_constant_m_not_surjective():
    S = build_sps(boolean_square(), 2,
                  [[False, True, False, True], [False, False, True, True]])
    r = verify_witness(S, S, SubentityWitness(m=(0, 0), n=(0, 1, 2, 3)))
    assert not r.ok and r.clause == "m_surjective"


def test_noninjective_n():
    S = build_sps(boolean_square(), 2,
                  [[False, True, False, True], [False, False, True, True]])
    r = verify_witness(S, S, SubentityWitness(m=(0, 1), n=(0, 1, 1, 3)))
    assert not r.ok and r.clause == "n_injective"


def test_covariance_violation_reported():
    S = build_sps(boolean_square(), 2,
                  [[False, True, False, True], [False, False, True, True]])
    r = verify_witness(S, S, SubentityWitness(m=(1, 0), n=(0, 1, 2, 3)))
    assert not r.ok and r.clause == "covariance"


def test_domain_mismatch():
    S = build_sps(chain(2), 1, [[False, True]])
    with pytest.raises(DomainMismatch):
        verify_witness(S, S, SubentityWitness(m=(0, 0), n=(0, 1)))
    with pytest.raises(DomainMismatch):
        verify_witness(S, S, SubentityWitness(m=(0,), n=(0, 5)))


def test_covariance_set_level_restatement():
    # a witness passes iff xi(m(p')) equals the n-preimage of xi'(p')
    part = pure_part_sps().sps
    whole = bell_whole_sps().sps
    for n in permutations(range(whole.lattice.size), part.lattice.size):
        for m in product(range(part.num_states), repeat=whole.num_states):
            if set(m) != set(range(part.num_states)):
                continue
            clause = all(
                (a in part.xi[m[pw]]) == (n[a] in whole.xi[pw])
                for pw in range(whole.num_states)
                for a in range(part.lattice.size)
            )
            setwise = all(
                part.xi[m[pw]] == frozenset(
                    a for a in range(part.lattice.size) if n[a] in whole.xi[pw])
                for pw in range(whole.num_states)
            )
            assert clause == setwise
        break  # one injection suffices for the m sweep; keep the test quick


# --- search vs the naive oracle -------------------------------------------


def small_instances():
    sq = build_sps(boolean_square(), 2,
                   [[False, True, False, True], [False, False, True, True]])
    two = build_sps(chain(2), 1, [[False, True]])
    three = build_sps(chain(3), 2, [[False, True, True], [False, False, True]])
    cube_sq = build_sps(boolean_square(), 3,
                        [[False, True, False, True], [False, False, True, True],
                         [False, False, False, True]])
    return [
        (two, two), (two, three), (three, two), (two, sq), (sq, sq),
        (three, sq), (sq, three), (three, cube_sq), (sq, cube_sq),
    ]


@pytest.mark.parametrize("idx", range(len(small_instances())))
def test_search_matches_double_enumeration(idx):
    part, whole = small_instances()[idx]
    expect = oracle_witnesses(part, whole)
    got = search_witness(part, whole)
    if not expect:
        assert got is None
    else:
        n, m = expect[0]
        assert got == SubentityWitness(m=m, n=n)
        assert verify_witness(part, whole, got).ok


def random_system(rng, L, num_states):
    # states drawn with repetition, so that some share a row
    rows = [L.up[rng.choice([x for x in range(L.size) if x != L.bottom])]
            for _ in range(num_states)]
    return build_sps(L, num_states, rows)


def test_search_matches_double_enumeration_on_random_pairs():
    rng = random.Random(19)
    parts = [chain(2), chain(3), boolean(2), n5()]
    wholes = [chain(2), chain(3), chain(4), boolean(2), n5(), o6(), mo(2)]
    found = crowded = 0
    for _ in range(1000):
        part = random_system(rng, rng.choice(parts), rng.randint(1, 3))
        whole = random_system(rng, rng.choice(wholes), rng.randint(1, 4))
        expect = oracle_witnesses(part, whole)
        got = search_witness(part, whole)
        if not expect:
            assert got is None
            continue
        n, m = expect[0]
        assert got == SubentityWitness(m=m, n=n)
        found += 1
        # a class of compound states larger than the shared part row it maps to
        shared = [p for p in range(part.num_states)
                  if part.strongest.count(part.strongest[p]) > 1]
        crowded += sum(1 for p in shared if m.count(p) > 1) > 0
    # both verdicts occur, and the least m is read off classes that hold more
    # compound states than part states with a shared row
    assert found > 200 and 1000 - found > 200 and crowded > 50


def test_search_self_witness(corpus_lattice):
    S = atomic_sps(corpus_lattice)
    w = search_witness(S, S)
    assert w is not None and verify_witness(S, S, w).ok
    assert w == reference_search(S, S)


def test_search_has_no_depth_limit():
    # 1 200 compound states, all sent to the one part state, must not cost
    # an interpreter stack frame each
    part = build_sps(chain(2), 1, [0b10])
    whole = build_sps(chain(2), 1200, [0b10] * 1200)
    assert search_witness(part, whole) == SubentityWitness(m=(0,) * 1200, n=(0, 1))


def test_budget_exhaustion_reproducible():
    part = pure_part_sps().sps
    whole = bell_whole_sps().sps
    for _ in range(2):
        with pytest.raises(BudgetExhausted) as exc:
            search_witness(part, whole, budget=7)
        assert exc.value.budget == 7


# Each pair's node threshold: the search decides at this budget and runs out
# one node below it.  A node is one injection tried, so a "none" costs every
# injection: 6!, 8!/4! and 10!/6!.  A faster search may lower these; it must
# not move them while only the representation changes.
THRESHOLDS = {
    "pure-bell": (lambda: (pure_part_sps().sps, bell_whole_sps().sps), 720, None),
    "B2-B4": (lambda: (atomic_sps(boolean(2)), atomic_sps(boolean(4))), 169,
              SubentityWitness(m=(0, 1, 1, 1), n=(0, 1, 14, 15))),
    "MO2-B4": (lambda: (atomic_sps(mo(2)), atomic_sps(boolean(4))), 187,
               SubentityWitness(m=(0, 1, 2, 3), n=(0, 1, 2, 4, 8, 15))),
    "B2-MO3": (lambda: (atomic_sps(boolean(2)), atomic_sps(mo(3))), 1680, None),
    "B2-MO4": (lambda: (atomic_sps(boolean(2)), atomic_sps(mo(4))), 5040, None),
}


@pytest.mark.parametrize("pair", sorted(THRESHOLDS))
def test_search_node_threshold(pair):
    build, nodes, witness = THRESHOLDS[pair]
    part, whole = build()
    assert reference_search(part, whole) == witness
    assert search_witness(part, whole, budget=nodes) == witness
    with pytest.raises(BudgetExhausted):
        search_witness(part, whole, budget=nodes - 1)


# --- the quantum story ----------------------------------------------------


def test_entangled_compound_has_no_pure_witness():
    assert search_witness(pure_part_sps().sps, bell_whole_sps().sps) is None


def test_adding_maximal_mixture_restores_witness():
    part = quantum_sps(
        [proj(Z0), proj(Z1), proj(PLUS), proj(MINUS), np.eye(2) / 2],
        [proj(Z0), proj(Z1), proj(PLUS), proj(MINUS)],
    )
    whole = bell_whole_sps()
    w = search_witness(part.sps, whole.sps)
    assert w is not None
    assert verify_witness(part.sps, whole.sps, w).ok
    assert w.m[4] == 4  # the entangled compound state maps to the mixture


def test_build_completed_model_bell_only():
    model = build_completed_model((2, 2), [proj(BELL)],
                                  [proj(Z0), proj(Z1)])
    assert len(model.part.state_ops) == 1
    assert np.allclose(model.part.state_ops[0].matrix, np.eye(2) / 2)
    r = verify_witness(model.part.sps, model.whole.sps, model.witness)
    assert r.ok
    assert canonical_witness_check(model)


def test_build_completed_model_product_states():
    model = build_completed_model(
        (2, 2),
        [proj(np.kron(Z0, Z0)), proj(np.kron(Z1, Z0))],
        [proj(Z0), proj(Z1)],
    )
    assert len(model.part.state_ops) == 2
    assert verify_witness(model.part.sps, model.whole.sps, model.witness).ok
    assert canonical_witness_check(model)


def test_build_completed_model_mixed_roster():
    model = build_completed_model(
        (2, 2),
        [proj(BELL), proj(np.kron(Z0, Z0))],
        [proj(Z0), proj(Z1)],
    )
    mats = [S.matrix for S in model.part.state_ops]
    assert any(np.allclose(M, np.eye(2) / 2) for M in mats)
    assert any(np.allclose(M, proj(Z0)) for M in mats)
    assert verify_witness(model.part.sps, model.whole.sps, model.witness).ok
    assert canonical_witness_check(model)


def test_canonical_witness_check_catches_a_wrong_factor_reduction(monkeypatch):
    # Tr(W (P x I)) = Tr(Tr_B(W) P) for every W and P, so only a reduction
    # on the other factor can break it: |0>|1> is certain of |0><0| on A
    model = build_completed_model((2, 2), [proj(np.kron(Z0, Z1))], [proj(Z0), proj(Z1)])
    assert canonical_witness_check(model)
    monkeypatch.setattr(subentity_module, "partial_trace",
                        lambda W, dA, dB, keep: partial_trace(W, dA, dB, "B"))
    assert not canonical_witness_check(model)


def test_canonical_witness_check_reads_the_tolerance_the_model_was_built_with(monkeypatch):
    # reduced on the wrong factor, the state is |0>, certain of |0><0|, where the
    # whole state gives P x I only 0.9: a mismatch under 1e-9 but not under 0.2
    psi = np.sqrt(0.9) * np.kron(Z0, Z0) + np.sqrt(0.1) * np.kron(Z1, Z0)
    strict, loose = (build_completed_model((2, 2), [proj(psi)], [proj(Z0), proj(Z1)], eps)
                     for eps in (1e-9, 0.2))
    assert (strict.eps, loose.eps) == (1e-9, 0.2)
    monkeypatch.setattr(subentity_module, "partial_trace",
                        lambda W, dA, dB, keep: partial_trace(W, dA, dB, "B"))
    assert not canonical_witness_check(strict)
    assert canonical_witness_check(loose)


def test_wrong_factor_lifting_breaks_covariance():
    # lifting part properties onto the other tensor factor must fail on a
    # model whose two factors are prepared differently
    psi = np.sqrt(1 / 3) * np.kron(Z0, Z0) + np.sqrt(2 / 3) * np.kron(Z1, Z0)
    model = build_completed_model((2, 2), [proj(psi)], [proj(Z0), proj(Z1)])
    assert canonical_witness_check(model)
    eps = 1e-9
    W = model.whole.state_ops[0]
    R = partial_trace(W, 2, 2, "A")
    broken = False
    for P in model.part.prop_ops:
        wrong = tensor(np.eye(2), P.matrix)
        lhs = np.trace(W.matrix @ wrong).real >= 1 - eps
        rhs = np.trace(R.matrix @ P.matrix).real >= 1 - eps
        if lhs != rhs:
            broken = True
    assert broken


def test_build_completed_model_closes_the_part_once(monkeypatch):
    # three rotated coatoms of C^3 meet to the Boolean lattice 2^3; each pair
    # of part projections is met at most once and the whole is never closed
    U, _ = np.linalg.qr(np.array([[1, 2, 0], [0, 1, 1j], [1, 0, 1]]))
    coatoms = [np.eye(3) - proj(U[:, i]) for i in range(3)]
    wholes = [np.kron(proj(U[:, 0]), np.eye(2) / 2), proj(ket(1, 0, 0, 0, 1, 1))]
    dims_met = []
    original = sps_module.meet_projection

    def counting(P, Q):
        dims_met.append(P.dim)
        return original(P, Q)

    monkeypatch.setattr(sps_module, "meet_projection", counting)
    model = build_completed_model((3, 2), wholes, coatoms)
    k = model.part.sps.lattice.size
    assert k == 8
    assert set(dims_met) == {3}
    assert len(dims_met) <= k * (k - 1) // 2
    assert model.whole.sps.lattice == model.part.sps.lattice
    assert model.witness.n == tuple(range(k))
    assert verify_witness(model.part.sps, model.whole.sps, model.witness).ok
    assert canonical_witness_check(model)


def test_build_completed_model_part_property_on_the_whole_space():
    with pytest.raises(DimensionMismatch):
        build_completed_model((2, 2), [proj(BELL)], [tensor(proj(Z0), np.eye(2))])
