import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from ehdetect.cli import EXIT_CONVERGENCE, main, read_table

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


def _searchsorted_cells(gains, thresholds):
    """quantize_gain before it counted edges, kept as its reference."""
    edges = np.asarray(thresholds, dtype=float)
    idx = np.searchsorted(edges, gains, side="right") - 1
    return np.clip(idx, 0, edges.size - 2).astype(np.int64)


@st.composite
def _edges_and_gains(draw):
    inner = sorted(draw(st.lists(st.floats(1e-9, 1e3), max_size=6, unique=True)))
    edges = (0.0, *inner, math.inf)
    # every edge (0 and +inf among them), the float just below each finite
    # one, a gain past the last finite edge, and random gains on and off the edges
    pinned = [*edges, *np.nextafter(edges[1:-1], -math.inf), 2.0 * edges[-2] + 1.0]
    drawn = draw(st.lists(st.floats(0.0, 2e3) | st.sampled_from(edges), max_size=40))
    return edges, np.array(pinned + drawn)


@given(_edges_and_gains())
def test_quantize_gain_counts_the_edges_searchsorted_finds(case):
    edges, gains = case
    cells = quantize_gain(gains, edges)
    assert cells.dtype == np.int64
    np.testing.assert_array_equal(cells, _searchsorted_cells(gains, edges))
    for g in gains:
        cell = quantize_gain(float(g), edges)
        assert type(cell) is int
        assert cell == int(_searchsorted_cells(float(g), edges))


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


def test_stationary_oracle_survives_singular_solver(monkeypatch, tmp_path, scenario_dir,
                                                   capsys):
    gp, arr, _ = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    alpha = np.array([[0, 0, 0, 0], [0, 1, 2, 3]])

    def boom(*a, **k):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "solve", boom)
    with pytest.raises(ValueError, match="singular"):
        stationary_oracle(alpha, gp, arr, 0.5)
    # the solve reports it through its outcome: one note, exit 3, flagged tables
    argv = ["powermap", "--scenario", str(scenario_dir / "toy.scn"), "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert err.count("did not settle") == 1
    assert "warning: battery fixed point did not settle: no unique stationary law" in err
    meta, _ = read_table(tmp_path / "power_map.csv")
    assert meta["converged"] == "false"
    _, rows = read_table(tmp_path / "summary.csv")
    assert {"metric": "converged", "value": "false"} in rows


def test_stationary_solve_stack_matches_single_solves():
    # the stack is one LAPACK call, and each law equals its own solve bit for bit
    gp, arr, _ = _single_level_chain(3, [0.0, 0.5, 0.3, 0.2], 0.6)
    chains = [transition_matrix(np.array([[0, 0, 0, 0], [0, a, min(a, 2), min(a, 3)]]),
                                gp, arr, 0.6) for a in (0, 1)]
    laws = stationary_solve(np.stack(chains))
    assert laws.shape == (2, 4)
    for law, M in zip(laws, chains):
        np.testing.assert_array_equal(law, stationary_solve(M))
        np.testing.assert_allclose(law @ M, law, atol=1e-12)
    # every law is stationary under the identity, so one such chain fails the stack
    with pytest.raises(ValueError, match="no unique stationary law"):
        stationary_solve(np.stack([chains[0], np.eye(4), chains[1]]))


def _drawn_chain(capacity, ratio, transmit_prob, pi, map_seed):
    """A chain with arrival_unit_pmf(1, ratio, K) and a random causal unit map:
    the dead level never drains and each live level drains 0..k at state k."""
    gp = GainLevelProbs(pi=pi, thresholds=(0.0, *range(1, len(pi)), math.inf))
    arr = arrival_unit_pmf(1.0, ratio, capacity)
    live = np.random.default_rng(map_seed).integers(
        0, np.arange(capacity + 1) + 1, size=(len(pi) - 1, capacity + 1))
    alpha = np.vstack([np.zeros(capacity + 1, dtype=np.int64), live])
    return alpha, gp, arr


# a nearly deterministic walk (one unit banked each slot, transmitting
# with probability 1 - 1e-9): LAPACK's law has an entry of -1
SEED_17_CHAIN = dict(capacity=100, ratio=1682.0, transmit_prob=1 - 1e-9,
                     pi=np.array([0.0, 1.0]), map_seed=17)


def test_ill_conditioned_chain_is_reported_not_iterated():
    alpha, gp, arr = _drawn_chain(**SEED_17_CHAIN)
    M = transition_matrix(alpha, gp, arr, SEED_17_CHAIN["transmit_prob"])
    with pytest.raises(ValueError, match=r"most negative entry -1\.000e\+00") as err:
        stationary_solve(M)
    chain = ChainSpec(gain_probs=gp, arrivals=arr,
                      transmit_prob=SEED_17_CHAIN["transmit_prob"])
    psis, iters, problem = steady_state_psi([chain], lambda psis: [alpha])
    assert problem == f"{err.value} (iterations=1, residual=inf)"
    assert iters == 1
    # the laws the only update saw: the full-battery start
    assert psis[0].psi[-1] == 1.0


@st.composite
def _extreme_chains(draw):
    capacity = draw(st.integers(1, 200))
    ratio = 10.0 ** draw(st.floats(-4.0, math.log10(3e3)))
    transmit_prob = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.floats(0.0, 15.0).map(lambda e: 1.0 - 10.0 ** -e)))
    live = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
    dead = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
    pi = np.array([dead, *(np.array(live) / sum(live) * (1.0 - dead))])
    pi[-1] = 1.0 - pi[:-1].sum()
    return dict(capacity=capacity, ratio=ratio, transmit_prob=transmit_prob, pi=pi,
                map_seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=300, deadline=None)
@example(SEED_17_CHAIN)
@given(_extreme_chains())
def test_stationary_solve_is_exact_or_raises(chain):
    # admissible chains at the harvest, transmit and capacity extremes: a law
    # comes back stationary and nonnegative, or the solve says it has none
    alpha, gp, arr = _drawn_chain(**chain)
    M = transition_matrix(alpha, gp, arr, chain["transmit_prob"])
    try:
        psi = stationary_solve(M)
    except ValueError as exc:
        assert "stationary law" in str(exc)
        return
    assert np.all(psi >= 0.0)
    assert abs(psi.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(psi @ M - psi)) <= 1e-10


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
