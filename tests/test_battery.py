import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehdetect import (
    ArrivalUnitPmf,
    BatteryDistribution,
    ChainSpec,
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
from ehdetect.cli import EXIT_CONVERGENCE, main
from references import read_table

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
    pi = gain_level_probs(1.1, EDGES)
    # survival-function differences of the exponential gain law
    assert pi[0] == pytest.approx(0.0868992837177377, rel=1e-14)
    assert pi[-1] == pytest.approx(0.3359109812391624, rel=1e-14)
    assert float(pi.sum()) == pytest.approx(1.0, abs=1e-15)
    assert pi.shape == (5,)
    with pytest.raises(ValueError, match="mean_gain must be > 0"):
        gain_level_probs(0.0, EDGES)


@given(st.floats(0.05, 8.0),
       st.lists(st.floats(0.01, 9.0), min_size=1, max_size=6, unique=True))
@settings(max_examples=150, deadline=None)
def test_gain_level_probs_telescope(mean_gain, interior):
    edges = (0.0, *sorted(interior), math.inf)
    pi = gain_level_probs(mean_gain, edges)
    assert np.all(pi >= 0.0)
    assert float(pi.sum()) == pytest.approx(1.0, abs=1e-12)
    # each cell mass equals the survival gap at its edges
    for l in range(len(edges) - 1):
        expected = math.exp(-edges[l] / mean_gain) - (
            0.0 if math.isinf(edges[l + 1]) else math.exp(-edges[l + 1] / mean_gain))
        assert pi[l] == pytest.approx(expected, abs=1e-14)


def test_arrival_unit_pmf_reference_values():
    # one unit banked iff the harvest exceeds zero but at most one unit's worth
    pmf = arrival_unit_pmf(mean_harvest=0.1, unit_energy=0.1, capacity=5).pmf
    assert pmf[0] == 0.0
    assert pmf[1] == pytest.approx(0.6321205588285577, rel=1e-14)
    assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-15)
    for args, message in (((0.0, 0.1, 5), "mean_harvest and unit_energy must be > 0"),
                          ((0.1, 0.0, 5), "mean_harvest and unit_energy must be > 0"),
                          ((0.1, 0.1, 0), "capacity must be >= 1")):
        with pytest.raises(ValueError, match=message):
            arrival_unit_pmf(*args)
    for pmf, message in (([1.0], "must cover states 0..K with K >= 1"),
                         ([[0.0, 1.0]], "must cover states 0..K with K >= 1"),
                         ([0.5, 0.5], r"pmf\[0\] must be exactly 0"),
                         ([0.0, 1.5, -0.5], "pmf must be >= 0 and sum to 1"),
                         ([0.0, 0.5, 0.4], "pmf must be >= 0 and sum to 1")):
        with pytest.raises(ValueError, match=message):
            ArrivalUnitPmf(pmf=pmf)


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
    assert transmit_probability(decision_net, s) == expected


def _single_level_chain(capacity, arrival_pmf, transmit_prob):
    arr = ArrivalUnitPmf(pmf=np.asarray(arrival_pmf, dtype=float))
    return ChainSpec(pi=np.array([0.0, 1.0]), arrivals=arr, transmit_prob=transmit_prob)


@pytest.mark.parametrize("pi, message", [
    ([[0.5, 0.5]], "one-dimensional"),
    ([0.0, 1.5, -0.5], ">= 0 and sum to 1"),
    ([0.2, 0.7], ">= 0 and sum to 1"),
    ([0.2, 0.8 + 2e-12], ">= 0 and sum to 1"),
], ids=["2-D", "negative", "short", "past-1e-12"])
def test_chain_spec_refuses_a_pi_that_is_not_a_probability_vector(pi, message):
    arr = arrival_unit_pmf(1.0, 1.0, 3)
    with pytest.raises(ValueError, match=message):
        ChainSpec(pi=pi, arrivals=arr, transmit_prob=0.5)


def test_chain_spec_stores_a_read_only_copy_of_pi():
    pi = np.array([0.25, 0.75])
    chain = ChainSpec(pi=pi, arrivals=arrival_unit_pmf(1.0, 1.0, 3), transmit_prob=0.5)
    pi[0] = 0.5
    assert chain.pi.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError, match="read-only"):
        chain.pi[0] = 0.5


def test_transition_matrix_hand_enumerated():
    # K=3, exactly one unit arrives per slot, spend-all map, coin-flip spends:
    # from k the no-spend branch climbs to min(k+1, 3), the spend branch
    # drains to 0 then climbs to 1.
    chain = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    alpha = np.array([[0, 0, 0, 0], [0, 1, 2, 3]])
    M = transition_matrix(alpha, chain)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.5],
    ])
    np.testing.assert_allclose(M, expected, atol=1e-15)
    start = BatteryDistribution(psi=np.array([0.0, 0.0, 0.0, 1.0]))
    stepped = battery_transition(start, alpha, chain)
    np.testing.assert_allclose(stepped.psi, [0.0, 0.5, 0.0, 0.5], atol=1e-15)


def test_transition_matrix_rejects_bad_shape():
    chain = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="shape"):
        transition_matrix(np.zeros((2, 3), dtype=int), chain)


def test_transition_matrix_rejects_drains_outside_the_state():
    chain = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    for bad in ([0, -1, 0, 0], [0, 2, 2, 3]):
        with pytest.raises(ValueError, match=r"\[0, k\]"):
            transition_matrix(np.array([[0, 0, 0, 0], bad]), chain)


@given(st.integers(1, 12), st.integers(0, 3), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_transition_matrix_matches_brute_force(capacity, live_levels, tp, seed):
    rng = np.random.default_rng(seed)
    pmf = np.concatenate(([0.0], rng.dirichlet(np.ones(capacity))))
    pi = rng.dirichlet(np.ones(live_levels + 1))
    alpha = rng.integers(0, np.arange(1, capacity + 2),
                         size=(live_levels + 1, capacity + 1))
    # every level, both branches, every arrival count: drain, bank, cap at K
    expected = np.zeros((capacity + 1, capacity + 1))
    for l in range(live_levels + 1):
        for k in range(capacity + 1):
            for weight, a in ((tp * pi[l], alpha[l, k]), ((1.0 - tp) * pi[l], 0)):
                for j in range(capacity + 1):
                    expected[k, min(k - a + j, capacity)] += weight * pmf[j]
    M = transition_matrix(alpha, ChainSpec(pi, ArrivalUnitPmf(pmf=pmf), tp))
    np.testing.assert_allclose(M, expected, rtol=0.0, atol=1e-13)


@given(st.integers(2, 10), st.floats(0.1, 3.0), st.floats(0.0, 1.0),
       st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_transition_preserves_probability(capacity, mean_harvest, tp, seed):
    rng = np.random.default_rng(seed)
    chain = ChainSpec(gain_level_probs(1.0, (0.0, 0.5, 1.5, math.inf)),
                      arrival_unit_pmf(mean_harvest, 0.2, capacity), tp)
    states = np.arange(capacity + 1)
    alpha = np.vstack([np.zeros(capacity + 1, dtype=int)] + [
        rng.integers(0, states + 1) for _ in range(2)
    ])
    M = transition_matrix(alpha, chain)
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(M >= -1e-15)
    psi = rng.dirichlet(np.ones(capacity + 1))
    nxt = battery_transition(BatteryDistribution(psi=psi), alpha, chain)
    assert float(nxt.psi.sum()) == pytest.approx(1.0, abs=1e-9)


def test_stationary_oracle_is_a_fixed_point():
    chain = _single_level_chain(5, [0.0, 0.55, 0.25, 0.12, 0.05, 0.03], 0.4)
    alpha = np.vstack([np.zeros(6, dtype=int), np.minimum(np.arange(6), 2)])
    psi = stationary_oracle(alpha, chain)
    M = transition_matrix(alpha, chain)
    np.testing.assert_allclose(psi.psi @ M, psi.psi, atol=1e-12)


@pytest.mark.parametrize("transmit_prob", [1.5, -0.1, math.nan])
def test_stationary_oracle_refuses_a_transmit_probability_outside_the_unit_interval(
        transmit_prob):
    alpha = np.vstack([np.zeros(6, dtype=int), np.minimum(np.arange(6), 2)])
    with pytest.raises(ValueError, match="transmit_prob must lie in"):
        stationary_oracle(alpha, _single_level_chain(
            5, [0.0, 0.55, 0.25, 0.12, 0.05, 0.03], transmit_prob))


def test_stationary_oracle_survives_singular_solver(monkeypatch, tmp_path, scenario_dir,
                                                   capsys):
    chain = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 0.5)
    alpha = np.array([[0, 0, 0, 0], [0, 1, 2, 3]])

    def boom(*a, **k):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "solve", boom)
    with pytest.raises(ValueError, match="singular"):
        stationary_oracle(alpha, chain)
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
    chain = _single_level_chain(3, [0.0, 0.5, 0.3, 0.2], 0.6)
    chains = [transition_matrix(np.array([[0, 0, 0, 0], [0, a, min(a, 2), min(a, 3)]]),
                                chain) for a in (0, 1)]
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
    arr = arrival_unit_pmf(1.0, ratio, capacity)
    live = np.random.default_rng(map_seed).integers(
        0, np.arange(capacity + 1) + 1, size=(len(pi) - 1, capacity + 1))
    alpha = np.vstack([np.zeros(capacity + 1, dtype=np.int64), live])
    return alpha, ChainSpec(pi, arr, transmit_prob)


# a nearly deterministic walk (one unit banked each slot, transmitting
# with probability 1 - 1e-9): LAPACK's law has an entry of -1
SEED_17_CHAIN = dict(capacity=100, ratio=1682.0, transmit_prob=1 - 1e-9,
                     pi=np.array([0.0, 1.0]), map_seed=17)


def test_ill_conditioned_chain_is_reported_not_iterated():
    alpha, chain = _drawn_chain(**SEED_17_CHAIN)
    M = transition_matrix(alpha, chain)
    with pytest.raises(ValueError, match=r"most negative entry -1\.000e\+00") as err:
        stationary_solve(M)
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
    alpha, spec = _drawn_chain(**chain)
    M = transition_matrix(alpha, spec)
    try:
        psi = stationary_solve(M)
    except ValueError as exc:
        assert "stationary law" in str(exc)
        return
    assert np.all(psi >= 0.0)
    assert abs(psi.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(psi @ M - psi)) <= 1e-10


def _old_drain_table(pmf):
    """The bank-step table as the chain builder once rebuilt it on every
    call, kept as the reference for ArrivalUnitPmf.drain_table."""
    K = pmf.size - 1
    states = np.arange(K + 1)
    table = np.triu(pmf[np.abs(states[None, :] - states[:, None])])
    table[:, K] = np.cumsum(pmf[::-1])  # Pr(beta >= K - s)
    table[K, K] = 1.0
    return table


@settings(max_examples=100, deadline=None)
@given(capacity=st.integers(1, 12), mean_harvest=st.floats(0.02, 5.0),
       unit_energy=st.floats(0.02, 2.0))
def test_drain_table_is_the_old_construction_and_read_only(capacity, mean_harvest,
                                                           unit_energy):
    arr = arrival_unit_pmf(mean_harvest, unit_energy, capacity)
    assert arr.drain_table.tobytes() == _old_drain_table(arr.pmf).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        arr.drain_table[0, capacity] = 0.5


def test_transition_matrix_sums_each_maps_levels_in_order_on_toy(toy_scenario):
    net = toy_scenario.network
    sensor = toy_scenario.sensors[0]
    K = net.capacity
    states = np.arange(K + 1)
    arr = arrival_unit_pmf(net.mean_harvest, net.unit_energy, K)
    pi = gain_level_probs(sensor.mean_gain, sensor.thresholds)
    table = _old_drain_table(arr.pmf)
    # every causal per-state unit choice, a superset of the rows
    # exhaustive_best_map gathers
    choices = np.array(list(itertools.product(*[range(k + 1) for k in states])))
    rng = np.random.default_rng(5)
    for tp in (0.0, 0.3, transmit_probability(net, sensor), 1.0):
        chain = ChainSpec(pi, arr, tp)
        alphas = choices[rng.integers(0, len(choices), size=(2, 4, pi.size))]
        alphas[..., 0, :] = 0
        batch = transition_matrix(alphas, chain)
        assert batch.shape == (2, 4, K + 1, K + 1)
        for index in np.ndindex(2, 4):
            alpha = alphas[index]
            M = transition_matrix(alpha, chain)
            # a batch gives each map's own matrix
            assert batch[index].tobytes() == M.tobytes()
            # the idle branch, then each level's weighted drain rows in level
            # order, as the exhaustive oracle's reference enumeration sums them
            rows = (1.0 - tp) * table + tp * pi[0] * table
            for l in range(1, pi.size):
                rows = rows + tp * pi[l] * table.take(states - alpha[l], axis=0)
            assert M.tobytes() == rows.tobytes()
            # the earlier contraction over all levels at once rounds differently
            old = ((1.0 - tp) * table
                   + tp * np.tensordot(pi, table.take(states - alpha, axis=0), axes=(0, 0)))
            np.testing.assert_allclose(M, old, rtol=0.0, atol=1e-15)


@st.composite
def _chains_of_one_capacity(draw):
    capacity = draw(st.integers(1, 12))
    chains = []
    for _ in range(draw(st.integers(1, 3))):
        live = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
        dead = draw(st.floats(0.0, 0.5))
        pi = np.array([dead, *(np.array(live) / sum(live) * (1.0 - dead))])
        pi[-1] = 1.0 - pi[:-1].sum()
        arr = arrival_unit_pmf(draw(st.floats(0.2, 5.0)), 1.0, capacity)
        chains.append(ChainSpec(pi=pi, arrivals=arr,
                                transmit_prob=draw(st.floats(0.0, 1.0))))
    return chains, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(_chains_of_one_capacity())
# nearly decomposable: under this plan the second chain's low states reach its
# absorbing full state in 2.3e13 slots on average, so no float law is unique
@example(([ChainSpec(np.array([0.0, 1.0]), arrival_unit_pmf(mean, 1.0, 12), tp)
           for mean, tp in ((1.0, 0.0), (0.25, 0.96875))], 0, 1))
def test_each_rounds_laws_equal_the_per_chain_oracle(case):
    # one stacked solve per round gives every chain stationary_oracle's law
    chains, seed, rounds = case
    rng = np.random.default_rng(seed)
    K = chains[0].arrivals.capacity
    states = np.arange(K + 1)
    plans = [[np.vstack([np.zeros(K + 1, dtype=np.int64),
                         rng.integers(0, states + 1,
                                      size=(c.pi.size - 1, K + 1))])
              for c in chains] for _ in range(rounds)]
    seen, returned = [], []

    def update(psis):
        seen.append(psis)
        returned.append(plans[min(len(seen), rounds) - 1])
        return returned[-1]

    _psis, iters, problem = steady_state_psi(chains, update)
    assert len(seen) == iters
    if problem is None or "oscillate" in problem:
        assert iters >= 2
    else:
        # a round whose stack holds a chain with no numerically unique law
        # stops the loop. Solved one by one, some chain of that round must
        # refuse, and only where its stationary system is so ill-conditioned
        # that the solve's error bound, cond * eps, passes the 1e-10 tolerance
        assert problem.startswith("no numerically unique stationary law")
        refused = 0
        for alpha, c in zip(returned[-1], chains):
            try:
                stationary_oracle(alpha, c)
            except ValueError as err:
                assert str(err).startswith("no numerically unique stationary law")
                system = transition_matrix(alpha, c) - np.eye(K + 1)
                system[:, K] = 1.0
                assert np.linalg.cond(system) * np.finfo(float).eps > 1e-10
                refused += 1
        assert refused
    for psis, alphas in zip(seen[1:], returned):
        for psi, alpha, c in zip(psis, alphas, chains):
            exact = stationary_oracle(alpha, c)
            assert psi.psi.tobytes() == exact.psi.tobytes()


def test_chains_of_different_capacities_are_refused_before_the_first_round():
    chains = [ChainSpec(pi=np.array([0.0, 1.0]), arrivals=arrival_unit_pmf(1.0, 1.0, k),
                        transmit_prob=0.5) for k in (5, 4, 5)]
    calls = []

    def update(psis):
        calls.append(psis)
        return [np.zeros((2, c.arrivals.capacity + 1), dtype=np.int64) for c in chains]

    with pytest.raises(ValueError, match="capacity, got capacities 4, 5$"):
        steady_state_psi(chains, update)
    assert calls == []


def test_a_bad_drain_in_the_second_chain_is_the_loops_problem():
    chain = _single_level_chain(3, [0.0, 0.5, 0.3, 0.2], 0.6)
    good = np.array([[0, 0, 0, 0], [0, 1, 1, 1]])
    bad = np.array([[0, 0, 0, 0], [0, 2, 0, 0]])  # two units out of state 1
    with pytest.raises(ValueError, match=r"must lie in \[0, k\]") as err:
        transition_matrix(bad, chain)
    psis, iters, problem = steady_state_psi([chain, chain], lambda psis: [good, bad])
    assert problem == f"{err.value} (iterations=1, residual=inf)"
    assert iters == 1
    assert [p.psi[-1] for p in psis] == [1.0, 1.0]


def test_steady_state_matches_oracle():
    chain = _single_level_chain(
        5, [0.0, 0.55, 0.25, 0.12, 0.05, 0.03], 0.4)
    alpha = np.vstack([np.zeros(6, dtype=int), np.minimum(np.arange(6), 3)])
    psis, iters, problem = steady_state_psi([chain], lambda psis: [alpha])
    exact = stationary_oracle(alpha, chain)
    # the second round repeats the map, and its laws are the exact solve
    np.testing.assert_array_equal(psis[0].psi, exact.psi)
    assert iters == 2
    assert problem is None


def test_steady_state_detects_oscillation():
    chain = _single_level_chain(3, [0.0, 1.0, 0.0, 0.0], 1.0)
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
    np.testing.assert_array_equal(psis[0].psi, stationary_oracle(idle, chain).psi)


def test_steady_state_names_the_exact_period():
    chain = _single_level_chain(
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
                                  stationary_oracle(maps[4], chain).psi)


def test_steady_state_iteration_cap(monkeypatch):
    chain = _single_level_chain(
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
    laws = [stationary_oracle(a, chain).psi for a in maps[:2]]
    np.testing.assert_array_equal(psis[0].psi, laws[1])
    residual = float(np.max(np.abs(laws[1] - laws[0])))
    assert problem == f"iteration cap exceeded (iterations=3, residual={residual:.3e})"


def test_valid_maps_never_strand_probability_at_zero():
    # arrivals are at least one unit and spends never exceed the state, so
    # the stationary chain cannot sit at an empty battery
    chain = _single_level_chain(
        6, [0.0, 0.5, 0.3, 0.1, 0.06, 0.03, 0.01], 0.7)
    alpha = np.vstack([np.zeros(7, dtype=int), np.arange(7)])
    psi = stationary_oracle(alpha, chain)
    assert psi.psi[0] <= 1e-14
