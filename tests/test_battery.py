import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehdetect import (
    ArrivalUnitPmf,
    BatteryDistribution,
    ChainSpec,
    GainLevelProbs,
    arrival_unit_pmf,
    battery_transition,
    gain_level_probs,
    quantize_gain,
    stationary_oracle,
    stationary_solve,
    steady_state_psi,
    transition_matrix,
    transmit_probability,
)
import ehdetect.battery

EDGES = (0.0, 0.1, 0.3, 0.6, 1.2, math.inf)


def test_quantize_gain_edges():
    assert quantize_gain(0.0, EDGES) == 0
    assert quantize_gain(0.05, EDGES) == 0
    assert quantize_gain(0.1, EDGES) == 1   # edges belong to the upper cell
    assert quantize_gain(0.3, EDGES) == 2
    assert quantize_gain(1.19, EDGES) == 3
    assert quantize_gain(1.2, EDGES) == 4
    assert quantize_gain(1e12, EDGES) == 4
    cells = quantize_gain(np.array([0.0, 0.05, 0.1, 0.3, 1.19, 1.2, 1e12]), EDGES)
    assert cells.dtype == np.int64
    assert cells.tolist() == [0, 0, 1, 2, 3, 4, 4]


def test_gain_level_probs_reference_values():
    gp = gain_level_probs(1.1, EDGES)
    # survival-function differences of the exponential gain law
    assert gp.pi[0] == pytest.approx(0.0868992837177377, rel=1e-14)
    assert gp.pi[-1] == pytest.approx(0.3359109812391624, rel=1e-14)
    assert float(gp.pi.sum()) == pytest.approx(1.0, abs=1e-15)
    assert gp.level_count == 5


@given(st.floats(0.05, 8.0),
       st.lists(st.floats(0.01, 9.0), min_size=1, max_size=6, unique=True))
@settings(max_examples=150, deadline=None)
def test_gain_level_probs_telescope(mean_gain, interior):
    edges = (0.0, *sorted(interior), math.inf)
    gp = gain_level_probs(mean_gain, edges)
    assert np.all(gp.pi >= 0.0)
    assert float(gp.pi.sum()) == pytest.approx(1.0, abs=1e-12)
    # each cell mass equals the survival gap at its edges
    for l in range(len(edges) - 1):
        expected = math.exp(-edges[l] / mean_gain) - (
            0.0 if math.isinf(edges[l + 1]) else math.exp(-edges[l + 1] / mean_gain))
        assert gp.pi[l] == pytest.approx(expected, abs=1e-14)


def test_arrival_unit_pmf_reference_values():
    # one unit banked iff the harvest exceeds zero but at most one unit's worth
    pmf = arrival_unit_pmf(mean_harvest=0.1, unit_energy=0.1, capacity=5).pmf
    assert pmf[0] == 0.0
    assert pmf[1] == pytest.approx(0.6321205588285577, rel=1e-14)
    assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(0.02, 5.0), st.floats(0.02, 2.0), st.integers(2, 40))
@settings(max_examples=150, deadline=None)
def test_arrival_unit_pmf_shape(mean_harvest, unit_energy, capacity):
    pmf = arrival_unit_pmf(mean_harvest, unit_energy, capacity).pmf
    r = unit_energy / mean_harvest
    assert pmf[0] == 0.0
    assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-12)
    # geometric decay between interior entries, tail folded at capacity
    for j in range(1, capacity - 1):
        if pmf[j] > 1e-300:
            assert pmf[j + 1] / pmf[j] == pytest.approx(math.exp(-r), rel=1e-9)
    assert pmf[capacity] == pytest.approx(math.exp(-(capacity - 1) * r), rel=1e-12)


def test_transmit_probability_models(two_sensor_scenario):
    net = two_sensor_scenario.network
    s = two_sensor_scenario.sensors[0]
    assert transmit_probability(net, s) == net.prior_h1
    from dataclasses import replace
    decision_net = replace(net, transmit_prob_model="decision")
    expected = net.prior_h0 * s.p_f + net.prior_h1 * s.p_d
    assert transmit_probability(decision_net, s) == pytest.approx(expected, rel=1e-15)


def _single_level_chain(capacity, arrival_pmf, transmit_prob):
    gp = GainLevelProbs(pi=np.array([0.0, 1.0]), thresholds=(0.0, 0.05, math.inf))
    arr = ArrivalUnitPmf(pmf=np.asarray(arrival_pmf, dtype=float))
    return gp, arr, ChainSpec(gain_probs=gp, arrivals=arr, transmit_prob=transmit_prob)


def test_transition_matrix_hand_enumerated():
    # K=3, exactly one unit arrives per slot, spend-all map, coin-flip spends:
    # from k the no-spend branch climbs to min(k+1, 3), the spend branch
    # drains to 0 then climbs to 1.
    gp, arr, _ = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    alpha = np.array([[0, 0, 0, 0], [0, 1, 2, 3]])
    M = transition_matrix(alpha, gp, arr, 0.5)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.5],
    ])
    np.testing.assert_allclose(M, expected, atol=1e-15)
    start = BatteryDistribution(psi=np.array([0.0, 0.0, 0.0, 1.0]))
    stepped = battery_transition(start, alpha, gp, arr, 0.5)
    np.testing.assert_allclose(stepped.psi, [0.0, 0.5, 0.0, 0.5], atol=1e-15)


def test_transition_matrix_rejects_bad_shape():
    gp, arr, _ = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="shape"):
        transition_matrix(np.zeros((2, 3), dtype=int), gp, arr, 0.5)


def test_transition_matrix_rejects_drains_outside_the_state():
    gp, arr, _ = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    for bad in ([0, -1, 0, 0], [0, 2, 2, 3]):
        with pytest.raises(ValueError, match=r"\[0, k\]"):
            transition_matrix(np.array([[0, 0, 0, 0], bad]), gp, arr, 0.5)


@given(st.integers(1, 12), st.integers(0, 3), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_transition_matrix_matches_brute_force(capacity, live_levels, tp, seed):
    rng = np.random.default_rng(seed)
    pmf = np.concatenate(([0.0], rng.dirichlet(np.ones(capacity))))
    pi = rng.dirichlet(np.ones(live_levels + 1))
    gp = GainLevelProbs(pi=pi, thresholds=(0.0, *range(1, live_levels + 1), math.inf))
    alpha = rng.integers(0, np.arange(1, capacity + 2),
                         size=(live_levels + 1, capacity + 1))
    # every level, both branches, every arrival count: drain, bank, cap at K
    expected = np.zeros((capacity + 1, capacity + 1))
    for l in range(live_levels + 1):
        for k in range(capacity + 1):
            for weight, a in ((tp * pi[l], alpha[l, k]), ((1.0 - tp) * pi[l], 0)):
                for j in range(capacity + 1):
                    expected[k, min(k - a + j, capacity)] += weight * pmf[j]
    M = transition_matrix(alpha, gp, ArrivalUnitPmf(pmf=pmf), tp)
    np.testing.assert_allclose(M, expected, rtol=0.0, atol=1e-13)


@given(st.integers(2, 10), st.floats(0.1, 3.0), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_transition_preserves_probability(capacity, mean_harvest, tp, seed):
    rng = np.random.default_rng(seed)
    gp = gain_level_probs(1.0, (0.0, 0.5, 1.5, math.inf))
    arr = arrival_unit_pmf(mean_harvest, 0.2, capacity)
    states = np.arange(capacity + 1)
    alpha = np.vstack([np.zeros(capacity + 1, dtype=int)] + [
        rng.integers(0, states + 1) for _ in range(2)
    ])
    M = transition_matrix(alpha, gp, arr, tp)
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(M >= -1e-15)
    psi = rng.dirichlet(np.ones(capacity + 1))
    nxt = battery_transition(BatteryDistribution(psi=psi), alpha, gp, arr, tp)
    assert float(nxt.psi.sum()) == pytest.approx(1.0, abs=1e-9)


def test_stationary_oracle_is_a_fixed_point():
    gp, arr, _ = _single_level_chain(5, [0.0, 0.55, 0.25, 0.12, 0.05, 0.03], 0.4)
    alpha = np.vstack([np.zeros(6, dtype=int), np.minimum(np.arange(6), 2)])
    psi = stationary_oracle(alpha, gp, arr, 0.4)
    M = transition_matrix(alpha, gp, arr, 0.4)
    np.testing.assert_allclose(psi.psi @ M, psi.psi, atol=1e-12)


def test_stationary_oracle_survives_singular_solver(monkeypatch):
    gp, arr, _ = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    alpha = np.array([[0, 0, 0, 0], [0, 1, 2, 3]])
    direct = stationary_oracle(alpha, gp, arr, 0.5)

    def boom(*a, **k):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "solve", boom)
    fallback = stationary_oracle(alpha, gp, arr, 0.5)
    np.testing.assert_allclose(fallback.psi, direct.psi, atol=1e-10)


def test_stationary_solve_stack_matches_single_solves():
    # a singular matrix in the stack falls back on its own: its neighbours
    # keep their direct solves, bit for bit
    gp, arr, _ = _single_level_chain(3, [0.0, 0.5, 0.3, 0.2], 0.6)
    chains = [transition_matrix(np.array([[0, 0, 0, 0], [0, a, min(a, 2), min(a, 3)]]),
                                gp, arr, 0.6) for a in (0, 1)]
    stack = np.stack([chains[0], np.eye(4), chains[1]])
    laws = stationary_solve(stack)
    assert laws.shape == (3, 4)
    for law, M in zip(laws[[0, 2]], chains):
        np.testing.assert_array_equal(law, stationary_solve(M))
        np.testing.assert_allclose(law @ M, law, atol=1e-12)
    # every law is stationary under the identity; the fallback starts uniform
    np.testing.assert_allclose(laws[1], 0.25)


def test_steady_state_matches_oracle():
    gp, arr, chain = _single_level_chain(
        5, [0.0, 0.55, 0.25, 0.12, 0.05, 0.03], 0.4)
    alpha = np.vstack([np.zeros(6, dtype=int), np.minimum(np.arange(6), 3)])
    psis, iters, problem = steady_state_psi([chain], lambda psis: [alpha])
    exact = stationary_oracle(alpha, gp, arr, 0.4)
    # the second round repeats the map, and its laws are the exact solve
    np.testing.assert_array_equal(psis[0].psi, exact.psi)
    assert iters == 2
    assert problem is None


def test_steady_state_detects_oscillation():
    gp, arr, chain = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 1.0)
    spend_all = np.vstack([np.zeros(4, dtype=int), np.arange(4)])
    idle = np.zeros((2, 4), dtype=int)

    calls = []

    def flip(psis):
        calls.append(None)
        return [spend_all if len(calls) % 2 else idle]

    # alternating maps never repeat the previous round, so the third round's
    # repeat of the first is a period-2 cycle
    psis, iters, problem = steady_state_psi([chain], flip)
    assert problem.startswith("unit maps oscillate with period 2 (iterations=3, residual=")
    assert iters == 3
    assert len(calls) == 3
    # the laws the third call saw: the stationary law of the idle map
    np.testing.assert_array_equal(psis[0].psi, stationary_oracle(idle, gp, arr, 1.0).psi)


def test_steady_state_names_the_exact_period():
    gp, arr, chain = _single_level_chain(
        5, [0.0, 0.55, 0.25, 0.12, 0.05, 0.03], 0.4)
    maps = [np.vstack([np.zeros(6, dtype=int), np.minimum(np.arange(6), c)])
            for c in range(1, 6)]
    seen = []

    def cycle(psis):
        seen.append(psis)
        return [maps[(len(seen) - 1) % 5]]

    psis, iters, problem = steady_state_psi([chain], cycle)
    assert problem.startswith("unit maps oscillate with period 5 (iterations=6, residual=")
    assert iters == 6
    # the laws the last update saw come back: the fifth map's
    assert psis is seen[-1]
    np.testing.assert_array_equal(psis[0].psi,
                                  stationary_oracle(maps[4], gp, arr, 0.4).psi)


def test_steady_state_iteration_cap(monkeypatch):
    gp, arr, chain = _single_level_chain(
        5, [0.0, 0.55, 0.25, 0.12, 0.05, 0.03], 0.4)
    # a new unit map every round, so only the cap can stop the loop
    maps = [np.vstack([np.zeros(6, dtype=int), np.minimum(np.arange(6), c)])
            for c in (1, 2, 3)]
    rounds = iter(maps)
    monkeypatch.setattr(ehdetect.battery, "MAX_ROUNDS", 3)
    psis, iters, problem = steady_state_psi([chain], lambda psis: [next(rounds)])
    assert iters == 3
    # the third call saw the second map's law; the residual is its change
    # from the first map's law
    laws = [stationary_oracle(a, gp, arr, 0.4).psi for a in maps[:2]]
    np.testing.assert_array_equal(psis[0].psi, laws[1])
    residual = float(np.max(np.abs(laws[1] - laws[0])))
    assert problem == f"iteration cap exceeded (iterations=3, residual={residual:.3e})"


def test_valid_maps_never_strand_probability_at_zero():
    # arrivals are at least one unit and spends never exceed the state, so
    # the stationary chain cannot sit at an empty battery
    gp, arr, _ = _single_level_chain(
        6, [0.0, 0.5, 0.3, 0.1, 0.06, 0.03, 0.01], 0.7)
    alpha = np.vstack([np.zeros(7, dtype=int), np.arange(7)])
    psi = stationary_oracle(alpha, gp, arr, 0.7)
    assert psi.psi[0] <= 1e-14
