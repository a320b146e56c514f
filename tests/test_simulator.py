import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ehdetect import (
    BatteryDistribution,
    PowerMap,
    calibrate_threshold,
    fusion_llr,
    make_streams,
    optimize_power_map,
    run_monte_carlo,
    simulate_slots,
)
from ehdetect import simulator
from ehdetect.simulator import SimBatch, _merged_components


def _with_network(scenario, **changes):
    return replace(scenario, network=replace(scenario.network, **changes))


def _spend_one_map(scenario, most=1):
    """`most` units (one by default) per transmission at every live level,
    or the whole charge below that."""
    net = scenario.network
    K = net.capacity
    powers = []
    for sensor in scenario.sensors:
        L1 = sensor.level_count
        u = np.zeros((L1, K + 1), dtype=np.int64)
        u[1:] = np.minimum(np.arange(K + 1), most)
        powers.append(u * net.unit_power)
    return PowerMap(powers=tuple(powers), unit_energy=net.unit_energy,
                    slot_seconds=net.slot_seconds)


def _zero_map(scenario):
    net = scenario.network
    K = net.capacity
    powers = tuple(np.zeros((s.level_count, K + 1)) for s in scenario.sensors)
    return PowerMap(powers=powers, unit_energy=net.unit_energy,
                    slot_seconds=net.slot_seconds)


def test_step_equals_batch(toy_scenario, two_sensor_scenario):
    _assert_steps_equal_the_batch(toy_scenario, _spend_one_map(toy_scenario), 64)
    # two sensors that drain up to 3 units a slot but bank about 1: the
    # battery is rarely full, so the walk's full-battery guess is wrong for
    # most of its 46 chunks
    scenario = _with_network(two_sensor_scenario, mean_harvest=0.05)
    batch = _assert_steps_equal_the_batch(scenario, _spend_one_map(scenario, 3), 2_000)
    assert np.mean(batch.states == scenario.network.capacity) < 0.05


def _assert_steps_equal_the_batch(scenario, pmap, slots):
    # one slot per simulate_slots call, each carrying the batteries forward
    N = scenario.num_sensors
    batch = simulate_slots(scenario, pmap, slots, make_streams(123, N))
    streams = make_streams(123, N)
    batteries = None
    for t in range(slots):
        step = simulate_slots(scenario, pmap, 1, streams, batteries=batteries)
        batteries = step.batteries
        assert step.hypothesis[0] == batch.hypothesis[t]
        for field in ("gains", "levels", "states", "transmit", "amplitudes", "outputs",
                      "null_outputs"):
            np.testing.assert_array_equal(getattr(step, field)[:, 0],
                                          getattr(batch, field)[:, t], err_msg=field)
    assert batteries == batch.batteries
    return batch


def test_environment_draws_do_not_depend_on_the_map(toy_scenario):
    # gains, hypotheses, noise, and harvests come from their own substreams,
    # so changing the power map must not perturb them
    a = simulate_slots(toy_scenario, _zero_map(toy_scenario), 200, make_streams(7, 1))
    b = simulate_slots(toy_scenario, _spend_one_map(toy_scenario), 200, make_streams(7, 1))
    np.testing.assert_array_equal(a.hypothesis, b.hypothesis)
    np.testing.assert_array_equal(a.gains, b.gains)
    np.testing.assert_array_equal(a.levels, b.levels)
    np.testing.assert_array_equal(a.transmit, b.transmit)
    # outputs differ only through the amplitude term
    noise_a = a.outputs - a.amplitudes * a.transmit
    noise_b = b.outputs - b.amplitudes * b.transmit
    np.testing.assert_allclose(noise_a, noise_b, atol=1e-12)


def _spend_all_map(scenario):
    net = scenario.network
    K = net.capacity
    powers = []
    for sensor in scenario.sensors:
        L1 = sensor.level_count
        u = np.zeros((L1, K + 1), dtype=np.int64)
        u[1:, :] = np.arange(K + 1)
        powers.append(u * net.unit_power)
    return PowerMap(powers=tuple(powers), unit_energy=net.unit_energy,
                    slot_seconds=net.slot_seconds)


def test_battery_trajectory_respects_bounds(toy_scenario):
    pmap = _spend_all_map(toy_scenario)
    K = toy_scenario.network.capacity
    batch = simulate_slots(toy_scenario, pmap, 2000, make_streams(99, 1))
    assert batch.states.min() >= 0
    assert batch.states.max() <= K
    # reconstruct the walk: next = clip(state - alpha*u + beta, 0, K)
    alpha = pmap.units[0][batch.levels[0], batch.states[0]] * batch.transmit[0]
    inferred_gain = np.diff(batch.states[0]) + alpha[:-1]
    # arrivals bank at least one unit unless the battery was already capped
    uncapped = batch.states[0, 1:] < K
    assert np.all(inferred_gain[uncapped] >= 1)


def test_zero_power_map_never_drains_the_battery(toy_scenario):
    # a map's units follow from its powers, so zero power drains no unit; the
    # harvest is so scarce that a drained unit would show as a state below full
    sc = _with_network(toy_scenario, mean_harvest=0.1)
    K = sc.network.capacity
    batch = simulate_slots(sc, _zero_map(sc), 5_000, make_streams(5, 1))
    assert batch.transmit.any()
    assert not batch.amplitudes.any()
    np.testing.assert_array_equal(batch.states, K)
    assert batch.batteries == (K,)


def test_prior_transmit_model_follows_hypothesis(toy_scenario):
    sc = _with_network(toy_scenario, transmit_prob_model="prior")
    batch = simulate_slots(sc, _spend_one_map(sc), 500, make_streams(3, 1))
    np.testing.assert_array_equal(batch.transmit[0], batch.hypothesis)


def test_decision_transmit_model_matches_local_rates(toy_scenario):
    sensor = toy_scenario.sensors[0]
    slots = 200_000
    sc = _with_network(toy_scenario, transmit_prob_model="decision")
    batch = simulate_slots(sc, _spend_one_map(sc), slots, make_streams(11, 1))
    h1 = batch.hypothesis == 1
    for mask, rate in ((h1, sensor.p_d), (~h1, sensor.p_f)):
        n = int(mask.sum())
        se = math.sqrt(rate * (1 - rate) / n)
        assert abs(float(batch.transmit[0][mask].mean()) - rate) <= 5 * se


def test_environment_moments(toy_scenario):
    sensor = toy_scenario.sensors[0]
    net = toy_scenario.network
    slots = 200_000
    batch = simulate_slots(toy_scenario, _zero_map(toy_scenario), slots,
                           make_streams(17, 1))
    se_gain = sensor.mean_gain / math.sqrt(slots)
    assert abs(float(batch.gains[0].mean()) - sensor.mean_gain) <= 5 * se_gain
    p1 = net.prior_h1
    se_h = math.sqrt(p1 * (1 - p1) / slots)
    assert abs(float(batch.hypothesis.mean()) - p1) <= 5 * se_h
    # zero map: outputs are pure noise
    assert abs(float(batch.outputs[0].mean())) <= 5 * math.sqrt(
        sensor.noise_var / slots)
    assert abs(float(batch.outputs[0].var()) - sensor.noise_var) <= 0.05


def _one_slot_batch(y, amp, hypothesis=1):
    return SimBatch(
        hypothesis=np.array([hypothesis], dtype=np.int8),
        gains=np.array([[1.0]]),
        levels=np.array([[1]], dtype=np.int64),
        states=np.array([[1]], dtype=np.int64),
        transmit=np.array([[1]], dtype=np.int8),
        amplitudes=np.array([[amp]]),
        outputs=np.array([[y]]),
        null_outputs=np.array([[y]]),
        batteries=(1,),
    )


def test_genie_llr_reference_value(toy_scenario):
    # single sensor, y = 1, amplitude 1, unit noise, (p_f, p_d) = (0.2, 0.9)
    llr = fusion_llr(_one_slot_batch(1.0, 1.0), toy_scenario)
    assert llr[0] == pytest.approx(0.33786676791032366, rel=1e-14)
    # zero amplitude carries no evidence
    llr = fusion_llr(_one_slot_batch(1.0, 0.0), toy_scenario)
    assert llr[0] == 0.0


def test_genie_llr_sign_tracks_output(toy_scenario):
    batch = _one_slot_batch(-2.0, 1.0)
    assert fusion_llr(batch, toy_scenario)[0] < 0.0
    batch = _one_slot_batch(3.0, 1.0)
    assert fusion_llr(batch, toy_scenario)[0] > 0.0


def test_map_marginal_collapses_to_genie_on_flat_maps(toy_scenario):
    # when the map gives every reachable state the same power, marginalizing
    # over the battery adds nothing and the two fusion modes agree exactly
    pmap = _spend_one_map(toy_scenario)
    batch = simulate_slots(toy_scenario, pmap, 400, make_streams(21, 1))
    assert batch.states.min() >= 1  # toy harvest keeps the battery charged
    K = toy_scenario.network.capacity
    psi = np.zeros(K + 1)
    psi[1:] = 1.0 / K  # any support inside the charged states works
    psis = (BatteryDistribution(psi=psi),)
    genie = fusion_llr(batch, _with_network(toy_scenario, fc_knowledge="genie"), pmap)
    marginal = fusion_llr(batch, _with_network(toy_scenario, fc_knowledge="map_marginal"),
                          pmap, psis=psis)
    np.testing.assert_allclose(marginal, genie, atol=1e-10)


def test_map_marginal_requires_psis(toy_scenario):
    batch = _one_slot_batch(1.0, 1.0)
    with pytest.raises(ValueError, match="psis"):
        fusion_llr(batch, _with_network(toy_scenario, fc_knowledge="map_marginal"))


def _marginal_setup(scenario):
    sc = _with_network(scenario, fc_knowledge="map_marginal")
    pmap = _spend_one_map(sc)
    batch = simulate_slots(sc, pmap, 8, make_streams(3, sc.num_sensors))
    psi = np.full(sc.network.capacity + 1, 1.0 / (sc.network.capacity + 1))
    return sc, pmap, batch, BatteryDistribution(psi=psi)


@pytest.mark.parametrize("count, missing", [(1, "sensor 1 has none"),
                                            (3, r"psis\[2\] matches no sensor")])
def test_map_marginal_names_the_sensor_a_psi_count_misses(two_sensor_scenario, count, missing):
    sc, pmap, batch, psi = _marginal_setup(two_sensor_scenario)
    with pytest.raises(ValueError, match=missing):
        fusion_llr(batch, sc, pmap, psis=(psi,) * count)


@pytest.mark.parametrize("extra", [-1, 1])
def test_map_marginal_names_the_sensor_whose_psi_has_the_wrong_length(
        two_sensor_scenario, extra):
    sc, pmap, batch, psi = _marginal_setup(two_sensor_scenario)
    K = sc.network.capacity
    wrong = BatteryDistribution(psi=np.full(K + 1 + extra, 1.0 / (K + 1 + extra)))
    with pytest.raises(ValueError, match=f"sensor 1: psi covers {K + 1 + extra} battery states"):
        fusion_llr(batch, sc, pmap, psis=(psi, wrong))


def test_map_marginal_rejects_a_map_for_another_sensor_count(two_sensor_scenario):
    # the missing sensor's table used to be indexed past the end (IndexError)
    sc, pmap, batch, psi = _marginal_setup(two_sensor_scenario)
    one = replace(pmap, powers=pmap.powers[:1])
    with pytest.raises(ValueError, match="the power map covers 1 sensors, the scenario has 2"):
        fusion_llr(batch, sc, one, psis=(psi, psi))


def test_map_marginal_rejects_a_table_with_an_extra_level_row(toy_scenario):
    # the extra row used to be ignored
    sc, pmap, batch, psi = _marginal_setup(toy_scenario)
    K = sc.network.capacity
    tall = replace(pmap, powers=(np.vstack([pmap.powers[0], np.zeros(K + 1)]),))
    with pytest.raises(ValueError, match=r"sensor 0: the power map needs a 3 x 6"):
        fusion_llr(batch, sc, tall, psis=(psi,))


def test_map_marginal_rejects_levels_outside_the_map(toy_scenario):
    sc, pmap, batch, psi = _marginal_setup(toy_scenario)
    levels = batch.levels.copy()
    levels[0, -1] = toy_scenario.sensors[0].level_count
    with pytest.raises(ValueError, match="sensor 0: batch levels must lie in 0..2"):
        fusion_llr(replace(batch, levels=levels), sc, pmap, psis=(psi,))


def test_merged_components_add_the_mass_of_equal_powers(toy_scenario):
    K = toy_scenario.network.capacity
    psi = np.linspace(0.5, 1.5, K + 1)
    psi /= psi.sum()
    # a flat map merges every level to one component carrying all the mass
    for powers, masses in _merged_components(_zero_map(toy_scenario).powers[0], psi):
        np.testing.assert_array_equal(powers, [0.0])
        assert masses == pytest.approx([psi.sum()], abs=1e-15)
    # spend-one is flat over the charged states only, so the empty state is
    # a second component at each live level until its mass is zero
    table = _spend_one_map(toy_scenario).powers[0]
    assert [p.size for p, _ in _merged_components(table, psi)] == [1, 2, 2]
    psi[0] = 0.0
    assert [p.size for p, _ in _merged_components(table, psi / psi.sum())] == [1, 1, 1]
    # any map: each level's merged masses sum to one
    out = optimize_power_map(toy_scenario)
    for powers, masses in _merged_components(out.power_map.powers[0], out.psi_star[0].psi):
        assert np.unique(powers).size == powers.size
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def _per_state_llr(batch, scenario, power_map, psis):
    # the mixture over all K+1 battery states, one log-sum-exp term per state
    total = np.zeros(batch.hypothesis.size)
    for n, sensor in enumerate(scenario.sensors):
        with np.errstate(divide="ignore"):
            log_psi = np.log(psis[n].psi)
        inv = 1.0 / (2.0 * sensor.noise_var)
        y = batch.outputs[n]
        amp = np.sqrt(batch.gains[n][:, None] * power_map.powers[n][batch.levels[n]])
        t_sig = logsumexp(log_psi[None, :] - (y[:, None] - amp) ** 2 * inv, axis=1)
        t0 = -(y ** 2) * inv
        num = np.logaddexp(math.log(sensor.p_d) + t_sig, math.log1p(-sensor.p_d) + t0)
        den = np.logaddexp(math.log(sensor.p_f) + t_sig, math.log1p(-sensor.p_f) + t0)
        total += num - den
    return total


@st.composite
def _marginal_cases(draw, toy):
    # either few components that tie across states, or 8 to 13 distinct
    # powers at every live level, the regime of a many-component map
    many = draw(st.booleans())
    K = draw(st.integers(7, 12) if many else st.integers(1, 6))
    level_count = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sensors, powers, psis = [], [], []
    for _ in range(draw(st.integers(1, 2))):
        edges = (0.0,) + tuple(0.5 * i for i in range(1, level_count)) + (math.inf,)
        sensors.append(replace(toy.sensors[0], thresholds=edges,
                               noise_var=draw(st.sampled_from([0.25, 1.0, 4.0]))))
        u = np.zeros((level_count, K + 1), dtype=np.int64)
        for level in range(1, level_count):
            if many:
                # every state spends its whole charge, and every state keeps
                # mass below, so the level mixes K + 1 distinct powers
                u[level] = np.arange(K + 1)
            else:
                # at most two units per slot, so powers tie across states
                u[level] = [draw(st.integers(0, min(k, 2))) for k in range(K + 1)]
        u[draw(st.integers(1, level_count - 1))] = 0  # one live level left dead
        powers.append(u * toy.network.unit_power)
        masses = [0.1, 0.5, 1.0] if many else [0.0, 0.1, 0.5, 1.0]
        weights = np.array([draw(st.sampled_from(masses)) for _ in range(K + 1)])
        weights[draw(st.integers(0, K))] = 1.0  # at least one state holds mass
        psis.append(BatteryDistribution(psi=weights / weights.sum()))
    scenario = replace(toy, sensors=tuple(sensors), network=replace(
        toy.network, capacity=K, fc_knowledge="map_marginal"))
    pmap = PowerMap(powers=tuple(powers), unit_energy=toy.network.unit_energy,
                    slot_seconds=toy.network.slot_seconds)
    slots = draw(st.integers(1, 40))
    N = len(sensors)
    scale = draw(st.sampled_from([1.0, 10.0]))  # 10 pushes every term far below zero
    outputs = rng.normal(0.0, scale, (N, slots))
    batch = SimBatch(
        hypothesis=rng.integers(0, 2, slots).astype(np.int8),
        gains=rng.exponential(1.0, (N, slots)),
        levels=rng.integers(0, level_count, (N, slots)),
        states=np.zeros((N, slots), dtype=np.int64),
        transmit=np.ones((N, slots), dtype=np.int8),
        amplitudes=np.zeros((N, slots)),
        outputs=outputs,
        null_outputs=outputs,
        batteries=(K,) * N,
    )
    return scenario, pmap, tuple(psis), batch


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_merged_mixture_matches_the_per_state_reference(toy_scenario, data):
    scenario, pmap, psis, batch = data.draw(_marginal_cases(toy_scenario))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_FUSION_CHUNK", 3)  # several blocks per level
        llr = fusion_llr(batch, scenario, pmap, psis=psis)
    np.testing.assert_allclose(llr, _per_state_llr(batch, scenario, pmap, psis),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("fc_knowledge", ["genie", "map_marginal"])
def test_zero_map_statistic_is_numerical_dust(toy_scenario, fc_knowledge):
    # every amplitude is 0, so both hypotheses give one output law and the
    # statistic is exactly 0, with no rounding dust around it; map_marginal
    # mixes over a uniform psi whose float sum is not exactly 1
    scenario = _with_network(toy_scenario, fc_knowledge=fc_knowledge)
    zero = _zero_map(scenario)
    states = scenario.network.capacity + 1
    psi = BatteryDistribution(np.full(states, 1.0 / states))
    assert psi.psi.sum() != 1.0
    batch = simulate_slots(scenario, zero, 2000, make_streams(5, 1))
    llr = fusion_llr(batch, scenario, zero, (psi,))
    assert np.all(llr == 0.0)


def _slot_range(batch, start, stop):
    """Slots start..stop-1 of `batch` as a batch of their own."""
    return replace(batch, **{f.name: getattr(batch, f.name)[..., start:stop]
                             for f in fields(SimBatch) if f.name != "batteries"})


@pytest.mark.parametrize("many", [True, False], ids=["many_components", "lone_component"])
def test_a_slots_statistic_does_not_depend_on_how_slots_are_blocked(two_sensor_scenario,
                                                                    monkeypatch, many):
    # capped calibration blocks equal the whole batch bit for bit only if no
    # slot's statistic depends on its neighbours or on the block bound. Many:
    # every live level mixes about 50 distinct powers, as on a many-component
    # map. Lone: spend-one with an empty battery never occupied, so every
    # live level is one component of nonzero power.
    sc = _with_network(two_sensor_scenario, fc_knowledge="map_marginal")
    K = sc.network.capacity
    rng = np.random.default_rng(8)
    if many:
        pmap = _spend_all_map(sc)
        weights = rng.random((sc.num_sensors, K + 1))
        weights[rng.random(weights.shape) < 0.5] = 0.0
    else:
        pmap = _spend_one_map(sc)
        weights = np.ones((sc.num_sensors, K + 1))
        weights[:, 0] = 0.0
    psis = tuple(BatteryDistribution(psi=w / w.sum()) for w in weights)
    for table, dist in zip(pmap.powers, psis):
        live = [p.size for p, _ in _merged_components(table, dist.psi)[1:]]
        assert min(live) >= 8 if many else max(live) == 1
    slots = 3_000
    batch = simulate_slots(sc, pmap, slots, make_streams(17, 2))
    whole = fusion_llr(batch, sc, pmap, psis=psis)
    # one-slot pieces leave one slot at a level, which fills a block alone
    cuts = [0, 1, 2, 5, 700, slots - 1, slots]
    pieces = [fusion_llr(_slot_range(batch, a, b), sc, pmap, psis=psis)
              for a, b in zip(cuts, cuts[1:])]
    np.testing.assert_array_equal(np.concatenate(pieces), whole)
    for bound in (1, 2, 3):
        monkeypatch.setattr(simulator, "_FUSION_CHUNK", bound)
        np.testing.assert_array_equal(fusion_llr(batch, sc, pmap, psis=psis), whole)


def _fraction_sqrt(q, bits=200):
    """sqrt(q) for a Fraction q, to within 2^-bits."""
    return Fraction(math.isqrt(q.numerator * 4**bits // q.denominator), 2**bits)


def test_lone_component_log_likelihood_does_not_cancel_at_large_outputs(toy_scenario,
                                                                        monkeypatch):
    # spend-one on charged states only: every live level is one component, so
    # d = inv (2 y sqrt(g p) - g p) exactly; the y^2 / (2 sigma^2) of the
    # signal and noise hypotheses, up to 1e12 here, must cancel before rounding
    sc = _with_network(toy_scenario, fc_knowledge="map_marginal")
    pmap = _spend_one_map(sc)
    K = sc.network.capacity
    psi = np.zeros(K + 1)
    psi[1:] = 1.0 / K
    slots = 2_000
    rng = np.random.default_rng(11)
    y = rng.uniform(-1e6, 1e6, slots)
    gains = rng.exponential(1.0, slots)
    levels = rng.integers(1, sc.sensors[0].level_count, slots)
    batch = SimBatch(
        hypothesis=np.ones(slots, dtype=np.int8),
        gains=gains[None, :],
        levels=levels[None, :],
        states=np.ones((1, slots), dtype=np.int64),
        transmit=np.ones((1, slots), dtype=np.int8),
        amplitudes=np.zeros((1, slots)),
        outputs=y[None, :],
        null_outputs=y[None, :],
        batteries=(K,),
    )
    captured = []

    def capture(d, p_f, p_d):
        captured.append(d.copy())
        return np.zeros_like(d)

    monkeypatch.setattr(simulator, "_binary_llr", capture)
    fusion_llr(batch, sc, pmap, psis=(BatteryDistribution(psi=psi),))
    inv = 1 / (2 * Fraction(sc.sensors[0].noise_var))
    exact = []
    for y_s, g_s, level in zip(y, gains, levels):
        gp = Fraction(g_s) * Fraction(pmap.powers[0][level, 1])
        exact.append(float(inv * (2 * Fraction(y_s) * _fraction_sqrt(gp) - gp)))
    np.testing.assert_allclose(captured[0], exact, rtol=1e-13, atol=0.0)


def _logaddexp_binary_llr(d, p_f, p_d):
    """The statistic as a difference of two logaddexp terms, the form the
    scaled ratio replaced, kept as its reference."""
    num = np.logaddexp(math.log(p_d) + d, math.log1p(-p_d))
    den = np.logaddexp(math.log(p_f) + d, math.log1p(-p_f))
    return num - den


# probabilities anywhere in (0, 1), and within 1e-15..1e-3 of either end
_PROBABILITIES = st.one_of(
    st.floats(1e-6, 1.0 - 1e-6),
    st.floats(1e-15, 1e-3),
    st.floats(1e-15, 1e-3).map(lambda p: 1.0 - p),
)


@given(d=st.floats(-700.0, 700.0), p_f=_PROBABILITIES, p_d=_PROBABILITIES)
@settings(max_examples=400, deadline=None)
@example(d=-30.0, p_f=0.5, p_d=1.0 - 1e-12)     # 1 + (p_d - p_f)(e^d - 1) cancels
@example(d=494.0, p_f=1.0 - 1e-12, p_d=1e-12)   # and so does 1 + p_f (e^d - 1)
@example(d=700.0, p_f=1e-15, p_d=0.5)
@example(d=-700.0, p_f=0.2, p_d=0.9)
def test_binary_llr_matches_the_logaddexp_form(d, p_f, p_d):
    # both slope signs: p_d may lie above or below p_f
    got = simulator._binary_llr(np.array([d]), p_f, p_d)[0]
    assert got == pytest.approx(_logaddexp_binary_llr(d, p_f, p_d), rel=0.0, abs=1e-12)


@given(d=st.floats(-1e6, 1e6), p_f=_PROBABILITIES, p_d=_PROBABILITIES)
@example(d=1e6, p_f=1e-15, p_d=1.0 - 1e-15)
@example(d=-1e6, p_f=1.0 - 1e-15, p_d=1e-15)
def test_binary_llr_is_finite_far_out_and_exactly_zero_at_zero(d, p_f, p_d):
    llr = simulator._binary_llr(np.array([d, 0.0, -0.0]), p_f, p_d)
    assert np.isfinite(llr[0])
    assert llr[1] == 0.0 and llr[2] == 0.0


@given(y=st.floats(-50.0, 50.0), rates=st.lists(_PROBABILITIES, min_size=2, max_size=2,
                                                unique=True).map(sorted))
def test_genie_statistic_is_exactly_zero_at_zero_amplitude(toy_scenario, y, rates):
    p_f, p_d = rates
    sc = replace(toy_scenario, sensors=(replace(toy_scenario.sensors[0], p_f=p_f, p_d=p_d),))
    assert fusion_llr(_one_slot_batch(y, 0.0), sc)[0] == 0.0


@pytest.mark.parametrize("model", ["prior", "decision"])
def test_null_outputs_equal_the_outputs_on_h0_slots(two_sensor_scenario, model):
    sc = _with_network(two_sensor_scenario, transmit_prob_model=model)
    batch = simulate_slots(sc, _spend_one_map(sc), 5_000, make_streams(13, 2))
    h0 = batch.hypothesis == 0
    assert 0 < h0.sum() < h0.size
    np.testing.assert_array_equal(batch.null_outputs[:, h0], batch.outputs[:, h0])
    # under H1 a slot that spends power sends a different output
    assert np.any(batch.null_outputs[:, ~h0] != batch.outputs[:, ~h0])


@pytest.mark.parametrize("model", ["prior", "decision"])
def test_null_outputs_replay_the_noise_and_decision_streams(two_sensor_scenario, model):
    # a slot's null output is a * u0 + w: u0 is the local decision under H0
    # (never under the prior model) and w the noise, both from the slot's own
    # draws, so replaying the streams in their documented order gives it
    sc = _with_network(two_sensor_scenario, transmit_prob_model=model)
    slots = 3_000
    batch = simulate_slots(sc, _spend_one_map(sc), slots, make_streams(29, 2))
    replay = make_streams(29, 2)
    for n, (sensor, st_n) in enumerate(zip(sc.sensors, replay.sensors)):
        dec = st_n.decision.random(slots)
        w = st_n.noise.normal(0.0, math.sqrt(sensor.noise_var), slots)
        u0 = dec < sensor.p_f if model == "decision" else 0
        np.testing.assert_array_equal(batch.null_outputs[n], batch.amplitudes[n] * u0 + w)


def test_calibration_hits_target_in_sample(toy_scenario):
    out = optimize_power_map(toy_scenario)
    tau, achieved = calibrate_threshold(toy_scenario, out.power_map, 0.1,
                                        samples=20_000, seed=31,
                                        psis=out.psi_star)
    assert achieved <= 0.1  # the conservative quantile never overshoots
    assert achieved >= 0.1 - 0.01


def _spy_on_simulate_slots(monkeypatch):
    calls = []
    walk = simulator.simulate_slots

    def spy(scenario, power_map, slots, *args, **kwargs):
        calls.append(slots)
        return walk(scenario, power_map, slots, *args, **kwargs)

    monkeypatch.setattr(simulator, "simulate_slots", spy)
    return calls


@pytest.mark.parametrize("prior_h0", [0.5, 0.05])
def test_calibration_simulates_exactly_the_warmup_and_the_samples(toy_scenario, monkeypatch,
                                                                  prior_h0):
    # every slot is a null sample, so a rare null costs no extra slots
    scenario = _with_network(toy_scenario, prior_h0=prior_h0)
    out = optimize_power_map(toy_scenario)
    calls = _spy_on_simulate_slots(monkeypatch)
    calibrate_threshold(scenario, out.power_map, 0.1, samples=3_000, seed=9)
    assert calls == [10 * scenario.network.capacity, 3_000]


@pytest.mark.parametrize("fc_knowledge,measure", [
    pytest.param("genie", False, id="genie"),
    pytest.param("map_marginal", False, id="map_marginal"),
    pytest.param("map_marginal", True, id="run_monte_carlo"),
])
def test_calibration_blocks_are_capped_without_moving_a_sample(toy_scenario, monkeypatch,
                                                               fc_knowledge, measure):
    # a long calibration or measured run is cut into capped blocks that draw
    # the same slots, so nothing may move
    scenario = _with_network(toy_scenario, prior_h0=0.05, fc_knowledge=fc_knowledge)
    out = optimize_power_map(toy_scenario)

    def run():
        if not measure:
            return calibrate_threshold(scenario, out.power_map, 0.1, samples=45_000, seed=9,
                                       psis=out.psi_star)
        rep = run_monte_carlo(scenario, out.power_map, 0.0, slots=45_000, seed=9,
                              psis=out.psi_star)
        return (rep.pd_fc, rep.pf_fc, rep.ci_pd, rep.ci_pf,
                [psi.tolist() for psi in rep.empirical_psi])

    whole = run()
    monkeypatch.setattr(simulator, "_CALIBRATION_BLOCK", 4_096)
    calls = _spy_on_simulate_slots(monkeypatch)
    assert run() == whole
    # warm-up, then eleven capped blocks for the 45 000 slots
    assert len(calls) > 10
    assert max(calls) <= 4_096
    assert sum(calls) == 10 * scenario.network.capacity + 45_000


def _calibrate_on_one_batch(scenario, power_map, target_pf, samples, seed, psis):
    """Calibration as one whole-run batch, kept as its reference: warm up,
    simulate `samples` slots in one call, fuse every slot's null output and
    take the conservative quantile."""
    streams = make_streams(seed, scenario.num_sensors)
    batteries = simulate_slots(scenario, power_map, 10 * scenario.network.capacity,
                               streams).batteries
    batch = simulate_slots(scenario, power_map, samples, streams, batteries=batteries)
    null = replace(batch, outputs=batch.null_outputs)
    null_llr = fusion_llr(null, scenario, power_map, psis=psis)
    threshold = float(np.quantile(null_llr, 1.0 - target_pf, method="higher"))
    return threshold, float(np.mean(null_llr > threshold))


@pytest.mark.parametrize("model", ["prior", "decision"])
@pytest.mark.parametrize("fc_knowledge", ["genie", "map_marginal"])
def test_calibration_fuses_the_null_output_of_every_slot(toy_scenario, monkeypatch,
                                                         fc_knowledge, model):
    # capped blocks make several calls; the result must still be the whole
    # batch's bit for bit, and every fused slot must carry its null output
    scenario = _with_network(toy_scenario, prior_h0=0.05, fc_knowledge=fc_knowledge,
                             transmit_prob_model=model)
    out = optimize_power_map(toy_scenario)
    expected = _calibrate_on_one_batch(scenario, out.power_map, 0.1, 10_000, 9, out.psi_star)

    fused = []
    fuse = simulator.fusion_llr

    def spy(batch, *args, **kwargs):
        np.testing.assert_array_equal(batch.outputs, batch.null_outputs)
        fused.append(batch.hypothesis.size)
        return fuse(batch, *args, **kwargs)

    monkeypatch.setattr(simulator, "_CALIBRATION_BLOCK", 4_096)
    monkeypatch.setattr(simulator, "fusion_llr", spy)
    got = calibrate_threshold(scenario, out.power_map, 0.1, samples=10_000, seed=9,
                              psis=out.psi_star)
    assert got == expected
    assert fused == [4_096, 4_096, 1_808]


@pytest.mark.parametrize("call, match", [
    (lambda sc, m: calibrate_threshold(sc, m, 0.1, samples=500.5, seed=1),
     r"samples must be a whole number >= 1, got 500\.5"),
    (lambda sc, m: calibrate_threshold(sc, m, 0.1, samples=0, seed=1),
     r"samples must be a whole number >= 1, got 0"),
    (lambda sc, m: calibrate_threshold(sc, m, 0.1, samples=500, seed=1, warmup=-3),
     r"warmup must be a whole number >= 0, got -3"),
    (lambda sc, m: calibrate_threshold(sc, m, 0.1, samples=500, seed=1, warmup=2.5),
     r"warmup must be a whole number >= 0, got 2\.5"),
    (lambda sc, m: run_monte_carlo(sc, m, 0.0, slots=1000.0, seed=1),
     r"slots must be a whole number >= 1, got 1000\.0"),
    (lambda sc, m: run_monte_carlo(sc, m, 0.0, slots=0, seed=1),
     r"slots must be a whole number >= 1, got 0"),
    (lambda sc, m: run_monte_carlo(sc, m, 0.0, slots=1000, seed=1, warmup=-3),
     r"warmup must be a whole number >= 0, got -3"),
    (lambda sc, m: run_monte_carlo(sc, m, 0.0, slots=1000, seed=1, warmup=2.5),
     r"warmup must be a whole number >= 0, got 2\.5"),
], ids=["calibrate_float_samples", "calibrate_zero_samples", "calibrate_negative_warmup",
        "calibrate_float_warmup", "measure_float_slots", "measure_zero_slots",
        "measure_negative_warmup", "measure_float_warmup"])
def test_bad_counts_raise_before_anything_is_simulated(toy_scenario, monkeypatch, call, match):
    calls = []
    monkeypatch.setattr(simulator, "simulate_slots", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=match):
        call(toy_scenario, _spend_one_map(toy_scenario))
    assert calls == []


@pytest.mark.parametrize("measure", [False, True], ids=["calibrate", "measure"])
@pytest.mark.parametrize("psi_sizes, match", [
    (None, "map_marginal fusion needs power_map and psis"),
    ((101,), "sensor 1 has none"),
    ((101, 100), "sensor 1: psi covers 100 battery states"),
], ids=["no_psis", "one_psi", "short_psi"])
def test_bad_map_marginal_inputs_raise_before_anything_is_simulated(
        two_sensor_scenario, monkeypatch, measure, psi_sizes, match):
    sc = _with_network(two_sensor_scenario, fc_knowledge="map_marginal")
    pmap = _spend_one_map(sc)
    psis = psi_sizes and tuple(BatteryDistribution(psi=np.full(m, 1.0 / m)) for m in psi_sizes)
    calls = []
    monkeypatch.setattr(simulator, "simulate_slots", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=match):
        if measure:
            run_monte_carlo(sc, pmap, 0.0, slots=1000, seed=1, psis=psis)
        else:
            calibrate_threshold(sc, pmap, 0.1, samples=1000, seed=1, psis=psis)
    assert calls == []


def test_calibration_holds_out_of_sample(toy_scenario):
    out = optimize_power_map(toy_scenario)
    tau, _ = calibrate_threshold(toy_scenario, out.power_map, 0.1,
                                 samples=50_000, seed=41, psis=out.psi_star)
    rep = run_monte_carlo(toy_scenario, out.power_map, tau, slots=50_000,
                          seed=43, psis=out.psi_star)
    se = math.sqrt(0.1 * 0.9 / (0.5 * 50_000))
    assert abs(rep.pf_fc - 0.1) <= 5 * se
    assert rep.pd_fc > rep.pf_fc


def test_calibration_holds_out_of_sample_with_a_rare_null(toy_scenario):
    # one slot in twenty is a true null, but calibration scores the null
    # output of every slot, so the held-out rate must still hit the target
    scenario = _with_network(toy_scenario, prior_h0=0.05)
    out = optimize_power_map(scenario)
    tau, _ = calibrate_threshold(scenario, out.power_map, 0.1,
                                 samples=50_000, seed=41, psis=out.psi_star)
    rep = run_monte_carlo(scenario, out.power_map, tau, slots=400_000,
                          seed=43, psis=out.psi_star)
    se = math.sqrt(0.1 * 0.9 / (0.05 * 400_000))
    assert abs(rep.pf_fc - 0.1) <= 5 * se


def test_monte_carlo_report_contract(toy_scenario):
    out = optimize_power_map(toy_scenario)
    rep = run_monte_carlo(toy_scenario, out.power_map, 0.0, slots=5_000,
                          seed=2, psis=out.psi_star)
    assert rep.samples == 5_000
    assert rep.seed == 2
    assert len(rep.empirical_psi) == 1
    assert float(rep.empirical_psi[0].sum()) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= rep.pf_fc <= rep.pd_fc <= 1.0
    assert rep.ci_pd > 0.0 and rep.ci_pf > 0.0
    # inf is the width of a class the run never saw; nan and negatives are faults
    for name in ("ci_pd", "ci_pf"):
        assert getattr(replace(rep, **{name: math.inf}), name) == math.inf
        for bad in (math.nan, -0.5, -math.inf):
            with pytest.raises(ValueError, match=name):
                replace(rep, **{name: bad})


def test_occupancy_matches_chain(toy_scenario):
    out = optimize_power_map(toy_scenario)
    rep = run_monte_carlo(toy_scenario, out.power_map, 0.0, slots=150_000,
                          seed=8, psis=out.psi_star)
    tv = 0.5 * float(np.abs(rep.empirical_psi[0] - out.psi_star[0].psi).sum())
    assert tv <= 0.01


def test_warmup_advances_the_stream(toy_scenario):
    out = optimize_power_map(toy_scenario)
    a = run_monte_carlo(toy_scenario, out.power_map, 0.0, slots=2_000, seed=4,
                        warmup=0, psis=out.psi_star)
    b = run_monte_carlo(toy_scenario, out.power_map, 0.0, slots=2_000, seed=4,
                        warmup=500, psis=out.psi_star)
    assert a.pd_fc != b.pd_fc  # different measured windows


# ---------------------------------------------------------------------------
# the chunked battery walk


def _plain_int_walk(units, levels, transmit, harvest, start, K):
    """The slot-by-slot loop the chunked walk replaced, kept verbatim as its
    reference (only the loop's inputs are now arguments)."""
    alpha_rows = [row.tolist() for row in units]
    lv_list = levels.tolist()
    u_list = transmit.tolist()
    beta_list = harvest.tolist()
    b = int(start)
    out_states = np.empty(levels.size, dtype=np.int64)
    for t in range(levels.size):
        out_states[t] = b
        if u_list[t]:
            b -= alpha_rows[lv_list[t]][b]
        b += beta_list[t]
        if b > K:
            b = K
    return out_states, b


@st.composite
def _walk_cases(draw):
    K = draw(st.integers(1, 30))
    level_count = draw(st.integers(2, 4))  # 1-3 live levels
    chunk = draw(st.sampled_from([1, 2, 3, 4, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = np.zeros((level_count, K + 1), dtype=np.int64)
    slots = draw(st.one_of(
        st.sampled_from([0, 1, 2]),
        # a last chunk one slot short, exactly full, or one slot over
        st.builds(lambda q, r: q * chunk + r, st.integers(1, 60), st.sampled_from([-1, 0, 1])),
        st.integers(3, 1_500),
    ))
    if draw(st.booleans()):
        # one-unit drains and one-unit harvests: two paths keep their distance
        # until the clamp, so the guesses are wrong and the repair walks
        units[1:, 1:] = 1
        harvest = np.ones(slots, dtype=np.int64)
    else:
        # any causal map: each state drains at most its own charge
        units[1:] = rng.integers(0, np.arange(K + 1) + 1, size=(level_count - 1, K + 1))
        units[draw(st.integers(1, level_count - 1))] *= draw(st.sampled_from([0, 1]))
        harvest = rng.integers(0, draw(st.sampled_from([1, 2, 3, K + 2])), slots)
    levels = rng.integers(0, level_count, slots)
    transmit = (rng.random(slots) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))).astype(np.int8)
    start = draw(st.integers(0, K))
    return units, levels, transmit, harvest, start, chunk


@given(_walk_cases())
@settings(max_examples=300, deadline=None)
@example((np.array([[0, 0, 0], [0, 1, 1]]), np.ones(9, dtype=np.int64),
          np.ones(9, dtype=np.int8), np.ones(9, dtype=np.int64), 0, 3))
def test_chunked_walk_equals_the_plain_int_loop(case):
    units, levels, transmit, harvest, start, chunk = case
    K = units.shape[1] - 1
    states = np.empty(levels.size, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_WALK_CHUNK", chunk)
        end = simulator._walk(units, (levels + 1) * transmit, harvest, start, states)
    ref_states, ref_end = _plain_int_walk(units, levels, transmit, harvest, start, K)
    assert states.tobytes() == ref_states.tobytes()
    assert type(end) is int and end == ref_end


def test_second_pass_leaves_nothing_to_repair_once_paths_couple(monkeypatch):
    # a drain of the whole charge every 10 slots, one unit banked per slot:
    # the battery never refills, so every full-battery guess after chunk 0 is
    # wrong, but each chunk's path couples at its first drain. The second
    # pass restarts every chunk from its predecessor's true end.
    K, slots = 50, 5_000
    units = np.zeros((2, K + 1), dtype=np.int64)
    units[1] = np.arange(K + 1)
    codes = np.where(np.arange(slots) % 10 == 0, 2, 0)
    harvest = np.ones(slots, dtype=np.int64)
    repaired = []
    rejoin = simulator._rejoin
    monkeypatch.setattr(simulator, "_rejoin",
                        lambda *args: repaired.append(args[-2]) or rejoin(*args))
    states = np.empty(slots, dtype=np.int64)
    end = simulator._walk(units, codes, harvest, K, states)
    ref_states, ref_end = _plain_int_walk(units, codes // 2, codes // 2, harvest, K, K)
    assert states.tobytes() == ref_states.tobytes() and end == ref_end
    assert states[slots // 2:].max() < K  # the guesses really were wrong
    assert repaired == []


def test_zero_slots_return_the_start_batteries(two_sensor_scenario):
    pmap = _spend_one_map(two_sensor_scenario)
    batch = simulate_slots(two_sensor_scenario, pmap, 0, make_streams(1, 2), batteries=(0, 37))
    assert batch.batteries == (0, 37)
    assert batch.states.shape == (2, 0)


@pytest.mark.parametrize("slots, batteries, match", [
    (5, (-1, 100), r"sensor 0: battery must be a whole number of units in 0\.\.100, got -1"),
    (5, (101, 100), r"sensor 0: battery .* got 101"),
    (5, (100, 2.7), r"sensor 1: battery .* got 2\.7"),
    (1, (100, -1), r"sensor 1: battery .* got -1"),
    (5, (100,), r"need one battery per sensor: got 1 for 2 sensors; sensor 1 has none"),
    (5, (100, 100, 3), r"got 3 for 2 sensors; batteries\[2\] matches no sensor"),
    (-1, None, r"slots must be a whole number >= 0, got -1"),
    (2.0, None, r"slots must be a whole number >= 0, got 2\.0"),
], ids=["negative", "over_capacity", "fraction", "second_negative", "too_few", "too_many",
        "negative_slots", "float_slots"])
def test_bad_batteries_and_slots_raise(two_sensor_scenario, slots, batteries, match):
    pmap = _spend_one_map(two_sensor_scenario)
    with pytest.raises(ValueError, match=match):
        simulate_slots(two_sensor_scenario, pmap, slots, make_streams(1, 2), batteries=batteries)


def test_streams_for_another_sensor_count_are_rejected(two_sensor_scenario):
    # the sensor without a stream used to keep np.empty rows and no end battery
    with pytest.raises(ValueError, match="streams cover 1 sensors, the scenario has 2"):
        simulate_slots(two_sensor_scenario, _spend_one_map(two_sensor_scenario), 5,
                       make_streams(1, 1))


def test_power_map_for_another_sensor_count_is_rejected(toy_scenario):
    # the second table used to be ignored
    pmap = _spend_one_map(toy_scenario)
    two = replace(pmap, powers=pmap.powers * 2)
    with pytest.raises(ValueError, match="the power map covers 2 sensors, the scenario has 1"):
        simulate_slots(toy_scenario, two, 5, make_streams(1, 1))


def test_power_map_in_other_energy_units_is_rejected(toy_scenario):
    # toy's battery counts 0.2 J units; the solved map rebuilt in 0.4 J units
    # drains [0, 1, 1, 2, 2, 3] units per live row instead of [0, 1, 2, 3, 4, 5],
    # and used to run without an error
    solved = optimize_power_map(toy_scenario).power_map
    coarse = PowerMap(powers=solved.powers, unit_energy=0.4, slot_seconds=1.0)
    assert coarse.units[0][1].tolist() == [0, 1, 1, 2, 2, 3]
    match = (r"the power map counts 0\.4 J units over 1\.0 s slots, "
             r"the network 0\.2 J units over 1\.0 s slots")
    with pytest.raises(ValueError, match=match):
        simulate_slots(toy_scenario, coarse, 5, make_streams(1, 1))
    with pytest.raises(ValueError, match=match):
        run_monte_carlo(toy_scenario, coarse, 0.0, slots=1000, seed=1)


def test_power_map_of_another_shape_is_rejected(toy_scenario, two_sensor_scenario):
    # toy has 3 levels and 6 battery states, two_sensor 5 levels and 101
    with pytest.raises(ValueError, match=r"sensor 0: the power map needs a 5 x 101"):
        simulate_slots(two_sensor_scenario, _spend_one_map(toy_scenario), 5, make_streams(1, 2))
