import math
import subprocess
import sys
import tracemalloc
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
from ehdetect.simulator import SimBatch, _fusion_plan
from references import package_env


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
    # the same with five levels on sensor 1 and two on sensor 2, so the
    # fused walk's table holds drain rows of two sizes at their own offsets
    first, second = scenario.sensors
    second = replace(second, thresholds=(0.0, 0.4, math.inf))
    scenario = replace(scenario, sensors=(first, second))
    pmap = _spend_one_map(scenario, 3)
    assert [table.shape for table in pmap.units] == [(5, 101), (2, 101)]
    batch = _assert_steps_equal_the_batch(scenario, pmap, 1_000)
    # sensor 2 drains only above the higher edge and stays near full
    assert np.mean(batch.states[0] == scenario.network.capacity) < 0.05


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
    with pytest.raises(ValueError, match="need one power table per sensor: got 1 for 2 sensors; "
                                         "sensor 1 has none"):
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


def _components(plan):
    """Per sensor, per level, the (components x 3) coefficients of a
    `_fusion_plan`, without the zero row that pads a lone level to two."""
    coefs, _ = plan
    for levels in coefs:
        for coef, lone in levels:
            assert coef.shape[0] >= 2
            if lone:
                np.testing.assert_array_equal(coef[1], 0.0)
    return [[coef[:1] if lone else coef for coef, lone in levels] for levels in coefs]


def _sensor_plan(scenario, table, psi):
    """`_fusion_plan` of the scenario's first sensor alone, with power table
    `table` and stationary distribution `psi`: per level, its coefficients."""
    net = scenario.network
    sc = replace(scenario, sensors=scenario.sensors[:1],
                 network=replace(net, fc_knowledge="map_marginal"))
    pmap = PowerMap(powers=(table,), unit_energy=net.unit_energy, slot_seconds=net.slot_seconds)
    (coefs,) = _components(_fusion_plan(sc, pmap, (BatteryDistribution(psi=psi),)))
    return coefs


def test_merged_components_add_the_mass_of_equal_powers(toy_scenario):
    K = toy_scenario.network.capacity
    inv = 1.0 / (2.0 * toy_scenario.sensors[0].noise_var)
    psi = np.linspace(0.5, 1.5, K + 1)
    psi /= psi.sum()
    # a flat map merges every level to one component carrying all the mass,
    # so its log-mass is exactly 0 and its linear form is 0
    for coef in _sensor_plan(toy_scenario, _zero_map(toy_scenario).powers[0], psi):
        np.testing.assert_array_equal(coef, [[0.0, 0.0, 0.0]])
    # spend-one is flat over the charged states only, so the empty state is
    # a second component at each live level until its mass is zero
    table = _spend_one_map(toy_scenario).powers[0]
    coefs = _sensor_plan(toy_scenario, table, psi)
    assert [c.shape[0] for c in coefs] == [1, 2, 2]
    for coef in coefs[1:]:
        np.testing.assert_allclose(np.exp(coef[:, 0]), [psi[0], psi[1:].sum()], rtol=1e-13)
        np.testing.assert_allclose(-coef[:, 2] / inv, [0.0, table[1, 1]], rtol=1e-15)
    psi[0] = 0.0
    coefs = _sensor_plan(toy_scenario, table, psi / psi.sum())
    assert [c.shape[0] for c in coefs] == [1, 1, 1]
    # any map: one row per distinct power of the occupied states, and each
    # level's merged masses sum to one
    out = optimize_power_map(toy_scenario)
    table, psi = out.power_map.powers[0], out.psi_star[0].psi
    for row, coef in zip(table, _sensor_plan(toy_scenario, table, psi)):
        np.testing.assert_allclose(-coef[:, 2] / inv, np.unique(row[psi > 0.0]), rtol=1e-15)
        np.testing.assert_allclose(coef[:, 1], 2.0 * inv * np.sqrt(-coef[:, 2] / inv),
                                   rtol=1e-15)
        assert np.exp(coef[:, 0]).sum() == pytest.approx(1.0, abs=1e-12)


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
def _marginal_cases(draw, toy, many_capacities=st.integers(7, 12), slot_counts=st.integers(1, 40)):
    # either few components that tie across states, or K + 1 distinct powers
    # at every live level (8 to 13 by default), the regime of a many-component
    # map; level 0 is a lone component, and so is one more level
    many = draw(st.booleans())
    K = draw(many_capacities if many else st.integers(1, 6))
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
        # one live level left dead, or spending one unit from every charged
        # state, which is one component of nonzero power once the empty
        # state holds no mass (and leaves K components at a many level)
        charged = draw(st.booleans())
        u[draw(st.integers(1, level_count - 1))] = np.minimum(np.arange(K + 1), charged)
        powers.append(u * toy.network.unit_power)
        masses = [0.1, 0.5, 1.0] if many else [0.0, 0.1, 0.5, 1.0]
        weights = np.array([draw(st.sampled_from(masses)) for _ in range(K + 1)])
        weights[draw(st.integers(0, K))] = 1.0  # at least one state holds mass
        if charged:
            weights[0] = 0.0
            weights[draw(st.integers(1, K))] = 1.0
        psis.append(BatteryDistribution(psi=weights / weights.sum()))
    scenario = replace(toy, sensors=tuple(sensors), network=replace(
        toy.network, capacity=K, fc_knowledge="map_marginal"))
    pmap = PowerMap(powers=tuple(powers), unit_energy=toy.network.unit_energy,
                    slot_seconds=toy.network.slot_seconds)
    slots = draw(slot_counts)
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
    for coefs in _components(_fusion_plan(sc, pmap, psis)):
        live = [coef.shape[0] for coef in coefs[1:]]
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


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_no_gemm_block_moves_a_slots_statistic(toy_scenario, data):
    # every level's linear forms are one gemm per block; the gemm must give a
    # slot the same bits whatever the block's width, offset and row count
    # (2 to 130, a lone level's zero row included), or capped calibration
    # blocks would not equal the whole batch. A BLAS build that fails this
    # must not run map_marginal fusion.
    scenario, pmap, psis, batch = data.draw(_marginal_cases(
        toy_scenario, many_capacities=st.integers(1, 129), slot_counts=st.integers(2, 400)))
    whole = fusion_llr(batch, scenario, pmap, psis=psis).tobytes()
    slots = batch.hypothesis.size
    inner = data.draw(st.lists(st.integers(1, slots - 1), max_size=6, unique=True))
    cuts = [0, *sorted(inner), slots]
    pieces = [fusion_llr(_slot_range(batch, a, b), scenario, pmap, psis=psis)
              for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(pieces).tobytes() == whole
    for bound in (1, 2, 3, data.draw(st.integers(4, 1 << 16))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_FUSION_CHUNK", bound)
            assert fusion_llr(batch, scenario, pmap, psis=psis).tobytes() == whole, bound


_FUSE_ONE_BATCH = """\
import hashlib, sys
import numpy as np
from dataclasses import replace
from ehdetect import (BatteryDistribution, PowerMap, fusion_llr, load_scenario, make_streams,
                      simulate_slots, simulator)
scenario, tables = sys.argv[1:]
base = load_scenario(scenario)
sc = replace(base, network=replace(base.network, fc_knowledge="map_marginal",
                                   mean_harvest=2.0, power_budget=70.0))
with np.load(tables) as saved:
    pmap = PowerMap(powers=(saved["p0"], saved["p1"]), unit_energy=sc.network.unit_energy,
                    slot_seconds=sc.network.slot_seconds)
    psis = (BatteryDistribution(saved["psi0"]), BatteryDistribution(saved["psi1"]))
batch = simulate_slots(sc, pmap, 8192, make_streams(31, 2))
for bound in (simulator._FUSION_CHUNK, 1 << 20):
    simulator._FUSION_CHUNK = bound
    print(hashlib.sha256(fusion_llr(batch, sc, pmap, psis=psis).tobytes()).hexdigest())
"""


def test_map_marginal_statistic_does_not_follow_the_blas_thread_count(tmp_path, scenario_dir,
                                                                      two_sensor_scenario):
    # the benchmark runs OpenBLAS on its default thread count and the CLI on
    # one; the gemm of the linear forms must give the same bytes on both.
    # OpenBLAS by default runs a gemm of at most 2^18 multiply-adds on one
    # thread, as every block under the default bound is, so each child also
    # fuses with blocks of up to 2^20 elements, which it splits. The map is
    # solved here and handed over, as the solve's own last bits follow the
    # thread count
    sc = _with_network(two_sensor_scenario, mean_harvest=2.0, power_budget=70.0)
    out = optimize_power_map(sc)
    tables = tmp_path / "map_70w.npz"
    np.savez(tables, p0=out.power_map.powers[0], p1=out.power_map.powers[1],
             psi0=out.psi_star[0].psi, psi1=out.psi_star[1].psi)
    digests = []
    for threads in ("1", "2"):
        # the variable is in the child's environment before it imports numpy
        run = subprocess.run([sys.executable, "-c", _FUSE_ONE_BATCH,
                              str(scenario_dir / "two_sensor.scn"), str(tables)],
                             capture_output=True, text=True,
                             env=package_env(OPENBLAS_NUM_THREADS=threads), check=False)
        assert run.returncode == 0, run.stderr
        digests += run.stdout.split()
    assert len(digests) == 4 and len(digests[0]) == 64
    assert set(digests) == {digests[0]}


@pytest.mark.parametrize("solved", [False, True], ids=["spend_one", "solved_map"])
def test_lone_component_levels_equal_their_log_sum_exp(two_sensor_scenario, solved):
    # a lone component's statistic skips the log-sum-exp; a second component
    # of a log-mass far below every term sends the level through it, adding
    # exp(-1e308 - peak) = 0 to the sum, so both must give the same bits.
    # Not -inf: the gemm raises invalid on that row, although it comes out
    # -inf, and _fusion_plan never emits it, as it drops states with psi = 0
    sc = _with_network(two_sensor_scenario, fc_knowledge="map_marginal")
    if solved:
        out = optimize_power_map(sc)
        pmap, psis = out.power_map, out.psi_star
    else:
        pmap = _spend_one_map(sc)
        psi = np.ones(sc.network.capacity + 1)
        psi[0] = 0.0
        psis = (BatteryDistribution(psi=psi / psi.sum()),) * 2
    plan = _fusion_plan(sc, pmap, psis)
    assert sum(coef.shape[0] == 1 for coefs in _components(plan) for coef in coefs) >= 5
    coefs, scratch = plan
    padded = (tuple(tuple((np.vstack([coef[:1], [-1e308, 0.0, 0.0]]), False) if lone
                          else (coef, lone) for coef, lone in levels) for levels in coefs),
              scratch)
    batch = simulate_slots(sc, pmap, 5_000, make_streams(23, 2))
    lone = simulator._fuse(batch, batch.outputs, sc, plan)
    np.testing.assert_array_equal(simulator._fuse(batch, batch.outputs, sc, padded), lone)
    np.testing.assert_array_equal(fusion_llr(batch, sc, pmap, psis=psis), lone)


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


@pytest.mark.parametrize("model", ["prior", "decision"])
def test_transmit_bits_replay_the_decision_stream(two_sensor_scenario, model):
    # a slot transmits when its decision draw falls below its hypothesis's
    # rate: p_f or p_d under the decision model, 0 or 1 (the hypothesis
    # itself) under the prior model
    sc = _with_network(two_sensor_scenario, transmit_prob_model=model)
    slots = 3_000
    batch = simulate_slots(sc, _spend_one_map(sc), slots, make_streams(31, 2))
    h1 = batch.hypothesis == 1
    assert 0 < h1.sum() < slots
    replay = make_streams(31, 2)
    for n, (sensor, st_n) in enumerate(zip(sc.sensors, replay.sensors)):
        dec = st_n.decision.random(slots)
        expected = dec < np.where(h1, sensor.p_d, sensor.p_f) if model == "decision" else h1
        assert batch.transmit[n].dtype == np.int8
        np.testing.assert_array_equal(batch.transmit[n], expected.astype(np.int8))


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


@pytest.mark.parametrize("fc_knowledge,measure,warmup", [
    pytest.param("genie", False, None, id="genie"),
    pytest.param("map_marginal", False, None, id="map_marginal"),
    pytest.param("map_marginal", True, None, id="run_monte_carlo"),
    pytest.param("genie", False, 10_000, id="long_warmup"),
    pytest.param("map_marginal", True, 10_000, id="run_monte_carlo_long_warmup"),
])
def test_calibration_blocks_are_capped_without_moving_a_sample(toy_scenario, monkeypatch,
                                                               fc_knowledge, measure, warmup):
    # a long calibration, measured run or warm-up is cut into capped blocks
    # that draw the same slots, so nothing may move
    scenario = _with_network(toy_scenario, prior_h0=0.05, fc_knowledge=fc_knowledge)
    out = optimize_power_map(toy_scenario)

    def run():
        if not measure:
            return calibrate_threshold(scenario, out.power_map, 0.1, samples=45_000, seed=9,
                                       warmup=warmup, psis=out.psi_star)
        rep = run_monte_carlo(scenario, out.power_map, 0.0, slots=45_000, seed=9,
                              warmup=warmup, psis=out.psi_star)
        return (rep.pd_fc, rep.pf_fc, rep.ci_pd, rep.ci_pf,
                [psi.tolist() for psi in rep.empirical_psi])

    monkeypatch.setattr(simulator, "_CALIBRATION_BLOCK", 1 << 18)
    whole = run()
    monkeypatch.setattr(simulator, "_CALIBRATION_BLOCK", 4_096)
    calls = _spy_on_simulate_slots(monkeypatch)
    assert run() == whole
    # the warm-up's blocks, then eleven capped blocks for the 45 000 slots
    warmed = 10 * scenario.network.capacity if warmup is None else warmup
    assert len(calls) == -(-warmed // 4_096) + 11
    assert max(calls) <= 4_096
    assert sum(calls) == warmed + 45_000


@pytest.mark.parametrize("model", ["prior", "decision"])
@pytest.mark.parametrize("fc_knowledge", ["genie", "map_marginal"])
def test_block_size_moves_no_calibration_or_measurement(two_sensor_scenario, monkeypatch,
                                                        fc_knowledge, model):
    # three blocks and a remainder at the shipped block size, one block at
    # 2^18: the threshold, its rate and every reported number stay the same
    scenario = _with_network(two_sensor_scenario, fc_knowledge=fc_knowledge,
                             transmit_prob_model=model)
    out = optimize_power_map(scenario)
    slots = 3 * simulator._CALIBRATION_BLOCK + 1_234

    def run():
        calls = _spy_on_simulate_slots(monkeypatch)
        threshold, rate = calibrate_threshold(scenario, out.power_map, 0.1, samples=slots,
                                              seed=5, psis=out.psi_star)
        rep = run_monte_carlo(scenario, out.power_map, threshold, slots=slots, seed=6,
                              psis=out.psi_star)
        return calls, (threshold, rate, rep.pd_fc, rep.pf_fc, rep.ci_pd, rep.ci_pf,
                       [psi.tobytes() for psi in rep.empirical_psi])

    calls, blocked = run()
    assert len(calls) == 2 * (1 + 4)  # warm-up and four blocks, twice
    monkeypatch.setattr(simulator, "_CALIBRATION_BLOCK", 1 << 18)
    calls, whole = run()
    assert len(calls) == 2 * (1 + 1)
    assert blocked == whole


@pytest.mark.parametrize("grows, fc_knowledge", [
    ("slots", "genie"), ("warmup", "genie"), ("slots", "map_marginal"), ("warmup", "map_marginal"),
], ids=["slots", "warmup", "slots-map_marginal", "warmup-map_marginal"])
def test_measured_run_memory_does_not_grow_with_its_length(two_sensor_scenario, grows,
                                                           fc_knowledge):
    # run_monte_carlo keeps counts between blocks and warms up in blocks of
    # the same size, so four times the slots or the warm-up take four times
    # the blocks and no more memory; the bound is about twice the traced
    # peak of one 2^13-slot block with genie fusion. map_marginal fusion adds
    # one buffer per call, which every block reuses
    sc = _with_network(two_sensor_scenario, fc_knowledge=fc_knowledge)
    out = optimize_power_map(sc)

    def peak(length):
        counts = {"slots": 1_000, "warmup": None, grows: length}
        tracemalloc.start()
        try:
            run_monte_carlo(sc, out.power_map, 0.1, seed=3, psis=out.psi_star, **counts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # leaves out what a first call sets up once
    short, long = peak(40_000), peak(160_000)
    assert long <= short * 1.02
    assert long < 4_000_000


def test_scaled_standard_draws_equal_the_scaled_distributions():
    # simulate_slots scales standard draws in place in its rows; NumPy's
    # exponential(scale) and normal(0, sigma) are the same products
    for scale in (1.1, 0.3, 7.0):
        row = np.empty(5_000)
        np.random.default_rng(4).standard_exponential(out=row)
        row *= scale
        assert row.tobytes() == np.random.default_rng(4).exponential(scale, 5_000).tobytes()
        np.random.default_rng(4).standard_normal(out=row)
        row *= scale
        assert row.tobytes() == np.random.default_rng(4).normal(0.0, scale, 5_000).tobytes()
        np.random.default_rng(4).random(out=row)
        assert row.tobytes() == np.random.default_rng(4).random(5_000).tobytes()


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
    fuse = simulator._fuse

    def spy(batch, outputs, *args):
        assert outputs is batch.null_outputs
        fused.append(batch.hypothesis.size)
        return fuse(batch, outputs, *args)

    monkeypatch.setattr(simulator, "_CALIBRATION_BLOCK", 4_096)
    monkeypatch.setattr(simulator, "_fuse", spy)
    got = calibrate_threshold(scenario, out.power_map, 0.1, samples=10_000, seed=9,
                              psis=out.psi_star)
    assert got == expected
    assert fused == [4_096, 4_096, 1_808]


@pytest.mark.parametrize("measure", [False, True], ids=["calibrate", "measure"])
@pytest.mark.parametrize("fc_knowledge", ["genie", "map_marginal"])
def test_one_fusion_plan_serves_every_block_of_a_call(two_sensor_scenario, monkeypatch,
                                                      fc_knowledge, measure):
    # the components and coefficients depend on the map and psi alone, so a
    # call of several blocks builds them once, and genie fusion never does
    sc = _with_network(two_sensor_scenario, fc_knowledge=fc_knowledge)
    out = optimize_power_map(sc)
    builds, blocks = [], []
    plan, fuse = simulator._fusion_plan, simulator._fuse

    def count_builds(*args):
        built = plan(*args)
        builds.append(built is not None)
        return built

    def count_blocks(batch, outputs, scenario, built):
        blocks.append(built)
        return fuse(batch, outputs, scenario, built)

    monkeypatch.setattr(simulator, "_CALIBRATION_BLOCK", 2_048)
    monkeypatch.setattr(simulator, "_fusion_plan", count_builds)
    monkeypatch.setattr(simulator, "_fuse", count_blocks)
    if measure:
        run_monte_carlo(sc, out.power_map, 0.0, slots=7_000, seed=2, psis=out.psi_star)
    else:
        calibrate_threshold(sc, out.power_map, 0.1, samples=7_000, seed=2, psis=out.psi_star)
    assert len(blocks) == 4
    if fc_knowledge == "genie":
        assert builds == [False] and blocks == [None] * 4
    else:
        assert builds == [True]
        assert all(built is blocks[0] for built in blocks)


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
    (lambda sc, m: calibrate_threshold(sc, m, 0.1, samples=True, seed=1),
     r"samples must be a whole number >= 1, got True"),
    (lambda sc, m: run_monte_carlo(sc, m, 0.0, slots=True, seed=1),
     r"slots must be a whole number >= 1, got True"),
    (lambda sc, m: run_monte_carlo(sc, m, 0.0, slots=1000, seed=1, warmup=True),
     r"warmup must be a whole number >= 0, got True"),
    (lambda sc, m: run_monte_carlo(sc, m, math.nan, slots=1000, seed=1),
     r"threshold must be a number, got nan"),
    (lambda sc, m: calibrate_threshold(sc, m, 1.0, samples=500, seed=1),
     r"target_pf must lie in \(0, 1\)"),
], ids=["calibrate_float_samples", "calibrate_zero_samples", "calibrate_negative_warmup",
        "calibrate_float_warmup", "measure_float_slots", "measure_zero_slots",
        "measure_negative_warmup", "measure_float_warmup", "calibrate_bool_samples",
        "measure_bool_slots", "measure_bool_warmup", "measure_nan_threshold",
        "calibrate_target_pf"])
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


def _slot_counts(most):
    """0-2 slots, any count up to `most`, or s^2 + r slots with r in
    {0, 1, s - 1, s, s + 1, 2s}: the walk's chunks of S = isqrt(s^2 + r) = s
    slots then end in a last chunk that is full, one slot long, one slot
    short or one slot over."""
    squares = st.integers(1, math.isqrt(most)).flatmap(
        lambda s: st.sampled_from([s * s + r for r in (0, 1, s - 1, s, s + 1, 2 * s)]))
    return st.one_of(st.sampled_from([0, 1, 2]), squares, st.integers(3, most))


def _harvests(draw, rng, K, slots):
    """Whole-unit harvests as floats, the dtype simulate_slots passes, drawn
    below 1, 2, 3, K + 2 or 3K + 6: past K, the walk clips them to K."""
    return rng.integers(0, draw(st.sampled_from([1, 2, 3, K + 2, 3 * K + 6])), slots).astype(float)


@st.composite
def _walk_cases(draw):
    K = draw(st.integers(1, 30))
    level_count = draw(st.integers(2, 4))  # 1-3 live levels
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = np.zeros((level_count, K + 1), dtype=np.int64)
    slots = draw(_slot_counts(1_500))
    if draw(st.booleans()):
        # one-unit drains and one-unit harvests: two paths keep their distance
        # until the clamp, so the guesses are wrong and the repair walks
        units[1:, 1:] = 1
        harvest = np.ones(slots)
    else:
        # any causal map: each state drains at most its own charge
        units[1:] = rng.integers(0, np.arange(K + 1) + 1, size=(level_count - 1, K + 1))
        units[draw(st.integers(1, level_count - 1))] *= draw(st.sampled_from([0, 1]))
        harvest = _harvests(draw, rng, K, slots)
    levels = rng.integers(0, level_count, slots)
    transmit = (rng.random(slots) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))).astype(np.int8)
    start = draw(st.integers(0, K))
    return units, levels, transmit, harvest, start


def _fresh_walk(units, codes, harvest, starts, out):
    """One walk on a plan of its own, as a direct simulate_slots runs it."""
    plan = simulator._WalkPlan(units, codes.shape[1])
    return simulator._walk(plan, codes, harvest, starts, out)


# lead-ins of none, one slot, the shipped length, and longer than any chunk
# (the cases draw at most 1 520 slots, so S <= 38)
_LEADS = st.sampled_from([0, 1, 32, 64])


@given(_walk_cases(), _LEADS)
@settings(max_examples=300, deadline=None)
@example((np.array([[0, 0, 0], [0, 1, 1]]), np.ones(9, dtype=np.int64),
          np.ones(9, dtype=np.int8), np.ones(9), 0), 32)
def test_chunked_walk_equals_the_plain_int_loop(case, lead):
    units, levels, transmit, harvest, start = case
    K = units.shape[1] - 1
    states = np.empty((1, levels.size), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_LEAD", lead)
        (end,) = _fresh_walk((units,), ((levels + 1) * transmit)[None], harvest[None],
                             (start,), states)
    ref_states, ref_end = _plain_int_walk(units, levels, transmit, harvest.astype(np.int64),
                                          start, K)
    assert states.tobytes() == ref_states.tobytes()
    assert type(end) is int and end == ref_end


@st.composite
def _walks_within_a_bound(draw):
    """A `_walk_cases` walk of T slots and a plan bound `most` >= T: T itself,
    S^2 + 2S for S = isqrt(T) (the most slots with T's chunk length, and the
    most chunks, S + 2), the same for S + 1, or any count up to 4T + 9."""
    case = draw(_walk_cases())
    T = case[1].size
    S = math.isqrt(T)
    most = draw(st.one_of(st.sampled_from([T, S * S + 2 * S, (S + 1) * (S + 3)]),
                          st.integers(T, 4 * T + 9)))
    return case, most


@given(_walks_within_a_bound(), _LEADS)
@settings(max_examples=200, deadline=None)
@example(((np.array([[0, 0, 0], [0, 1, 1]]), np.ones(35, dtype=np.int64),
           np.ones(35, dtype=np.int8), np.ones(35), 0), 35), 32)
def test_a_plan_for_most_slots_walks_every_shorter_walk_as_its_own(case, lead):
    # _blocks sizes a call's one plan from its longest block alone; every
    # shorter walk in it, over whatever a longer one left in its buffers,
    # must give the bytes of a plan built for its own length. The example
    # is the tight case: 35 = 5^2 + 2 * 5 slots walk in S + 2 = 7 chunks
    (units, levels, transmit, harvest, start), most = case
    codes = ((levels + 1) * transmit)[None]
    states, alone = (np.empty(codes.shape, dtype=np.int64) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_LEAD", lead)
        plan = simulator._WalkPlan((units,), most)
        for buffer in (plan.lanes, plan.after, plan.index):
            buffer.fill(-1)
        end = simulator._walk(plan, codes, harvest[None], (start,), states)
        assert end == _fresh_walk((units,), codes, harvest[None], (start,), alone)
    assert states.tobytes() == alone.tobytes()


def _walk_every(period, monkeypatch):
    """Walk 5 000 slots from a full battery of 100 units that banks one unit
    a slot and drains its whole charge every `period` slots, counting the
    locksteps and the chunks that `_rejoin` repairs."""
    K, slots = 100, 5_000
    units = np.zeros((2, K + 1), dtype=np.int64)
    units[1] = np.arange(K + 1)
    codes = np.where(np.arange(slots) % period == 0, 2, 0)
    harvest = np.ones(slots, dtype=np.int64)
    locksteps, repaired = [], []
    lockstep, rejoin = simulator._lockstep, simulator._rejoin
    monkeypatch.setattr(simulator, "_lockstep",
                        lambda *args: locksteps.append(args[-1].size) or lockstep(*args))
    monkeypatch.setattr(simulator, "_rejoin",
                        lambda *args: repaired.append(args[-2]) or rejoin(*args))
    states = np.empty((1, slots), dtype=np.int64)
    (end,) = _fresh_walk((units,), codes[None], harvest[None], (K,), states)
    ref_states, ref_end = _plain_int_walk(units, codes // 2, codes // 2, harvest, K, K)
    assert states.tobytes() == ref_states.tobytes() and end == ref_end
    # the battery never refills, so every full-battery guess after chunk 0 is wrong
    assert states[0, period:].max() < K
    return locksteps, repaired


def test_lead_in_couples_the_guesses_before_their_chunks(monkeypatch):
    # a drain every 10 slots: each chunk's 32-slot lead-in holds three, so
    # every guess meets the true path before its chunk starts
    assert simulator._LEAD == 32
    locksteps, repaired = _walk_every(10, monkeypatch)
    assert len(locksteps) == 1
    assert repaired == []


def test_rejoin_repairs_the_chunks_whose_lead_in_missed(monkeypatch):
    # a drain every 50 slots: a lead-in of 32 slots often holds none, so
    # those chunks start wrong and are repaired in order; the others start
    # right. One lockstep walks all 72 chunks of 70 slots, and _walk_every
    # checks the repaired path against the plain loop
    assert simulator._LEAD == 32
    locksteps, repaired = _walk_every(50, monkeypatch)
    assert locksteps == [72]
    assert 0 < len(repaired) < 71


@st.composite
def _fused_walk_cases(draw):
    # 1-3 sensors on one capacity and one slot count, each with its own level
    # count, map, transmit rate, harvest and start
    K = draw(st.integers(1, 30))
    slots = draw(_slot_counts(800))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sensors = []
    for _ in range(draw(st.integers(1, 3))):
        level_count = draw(st.integers(2, 6))
        units = np.zeros((level_count, K + 1), dtype=np.int64)
        if draw(st.booleans()):
            units[1:, 1:] = 1
            harvest = np.ones(slots)
        else:
            units[1:] = rng.integers(0, np.arange(K + 1) + 1, size=(level_count - 1, K + 1))
            harvest = _harvests(draw, rng, K, slots)
        levels = rng.integers(0, level_count, slots)
        rate = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
        transmit = (rng.random(slots) < rate).astype(np.int8)
        sensors.append((units, levels, transmit, harvest, draw(st.integers(0, K))))
    return K, sensors


def _two_sensors_of_two_sizes():
    # a one-unit drain on a 2-level sensor and whole-charge drains on a
    # 4-level one, from different starts: a wrong offset reads the other's row
    K, slots = 6, 40
    small = np.array([[0] * (K + 1), [0] + [1] * K])
    large = np.zeros((4, K + 1), dtype=np.int64)
    large[1:] = np.arange(K + 1)
    ones = np.ones(slots, dtype=np.int64)
    cycle = np.arange(slots) % 4
    return K, [(small, ones, np.ones(slots, dtype=np.int8), ones, 0),
                  (large, cycle, (cycle > 0).astype(np.int8), 2 * ones, K)]


def _harvest_past_a_full_row():
    # a silent sensor stays full and harvests 3K + 2 units every other slot.
    # Its battery K plus that harvest would index past the end of its silent
    # table row, and past its level-0 row, into its whole-charge drain, and
    # mode="clip" would not flag it. The empty slot after it would then show
    # the drained battery, so only the harvest's clip to K keeps it full
    K, slots = 3, 9
    whole = np.zeros((2, K + 1), dtype=np.int64)
    whole[1] = np.arange(K + 1)
    zeros = np.zeros(slots, dtype=np.int64)
    harvest = np.where(np.arange(slots) % 2 == 0, 3.0 * K + 2, 0.0)
    return K, [(whole, zeros, zeros.astype(np.int8), harvest, K),
               (np.array([[0] * (K + 1), [0] + [1] * K]), zeros, np.ones(slots, dtype=np.int8),
                np.ones(slots), 0)]


@given(_fused_walk_cases(), _LEADS)
@settings(max_examples=200, deadline=None)
@example(_two_sensors_of_two_sizes(), 32)
@example(_harvest_past_a_full_row(), 32)
def test_fused_walk_gives_each_sensor_its_plain_int_loop(case, lead):
    K, sensors = case
    units = tuple(units for units, *_ in sensors)
    codes = np.array([(levels + 1) * transmit for _, levels, transmit, _, _ in sensors])
    harvest = np.array([harvest for *_, harvest, _ in sensors])
    states = np.empty(codes.shape, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_LEAD", lead)
        ends = _fresh_walk(units, codes, harvest, tuple(s[-1] for s in sensors), states)
    assert len(ends) == len(sensors)
    for n, (units_n, levels, transmit, harvest_n, start) in enumerate(sensors):
        ref_states, ref_end = _plain_int_walk(units_n, levels, transmit,
                                              harvest_n.astype(np.int64), start, K)
        assert states[n].tobytes() == ref_states.tobytes(), f"sensor {n}"
        assert type(ends[n]) is int and ends[n] == ref_end, f"sensor {n}"


@st.composite
def _block_loops(draw):
    """One `_blocks` call: 1 or 2 sensors of different level counts, either
    transmit model, and a warm-up and kept run that each may end in a block
    of their own length. `steps`: a transmission drains two units and every
    slot banks exactly one, so paths move one unit a slot and meet only at
    either end, and the chunks' guesses are often wrong (`_walk_cases`'
    one-unit case, moved off a full battery); otherwise any causal map."""
    first = draw(st.integers(2, 4))
    second = draw(st.sampled_from([c for c in (2, 3, 4) if c != first]))
    block = draw(st.integers(1, 1_200))
    return dict(K=draw(st.integers(1, 30)),
                level_counts=(first, second)[:draw(st.integers(1, 2))],
                steps=draw(st.booleans()),
                mean_harvest=draw(st.sampled_from([0.05, 0.3, 1.0, 3.0])),
                model=draw(st.sampled_from(["prior", "decision"])),
                block=block, warmup=draw(st.integers(0, 2 * block + 7)),
                slots=draw(st.integers(1, 3 * block)), seed=draw(st.integers(0, 2**32 - 1)))


def _block_loop_map(toy, case):
    K, steps = case["K"], case["steps"]
    rng = np.random.default_rng(case["seed"])
    sensors, powers = [], []
    for level_count in case["level_counts"]:
        edges = (0.0,) + tuple(0.4 * i for i in range(1, level_count)) + (math.inf,)
        sensors.append(replace(toy.sensors[0], thresholds=edges))
        u = np.zeros((level_count, K + 1), dtype=np.int64)
        if steps:
            u[1:] = np.minimum(np.arange(K + 1), 2)
        else:
            u[1:] = rng.integers(0, np.arange(K + 1) + 1, size=(level_count - 1, K + 1))
        powers.append(u * toy.network.unit_power)
    # 1e-9 J is far below one 0.2 J unit, so every slot banks exactly one
    scenario = replace(toy, sensors=tuple(sensors), network=replace(
        toy.network, capacity=K, mean_harvest=1e-9 if steps else case["mean_harvest"],
        transmit_prob_model=case["model"]))
    return scenario, PowerMap(powers=tuple(powers), unit_energy=toy.network.unit_energy,
                              slot_seconds=toy.network.slot_seconds)


def _lengths(count, block):
    return [block] * (count // block) + [count % block] * (count % block > 0)


@given(_block_loops(), _LEADS)
@settings(max_examples=60, deadline=None)
@example(dict(K=30, level_counts=(2, 4), steps=True, mean_harvest=1.0, model="prior",
              block=100, warmup=37, slots=250, seed=8), 1)
def test_a_calls_walk_plan_gives_every_block_the_bytes_of_its_own(toy_scenario, case, lead):
    # _blocks walks every block of a call on one plan's buffers; a fresh
    # simulate_slots per block, continuing from the last one's batteries,
    # must give the same batch, and no later block may overwrite a held one.
    # Each kept block comes with the fusion statistic of its own outputs
    block, warmup, slots, seed = case["block"], case["warmup"], case["slots"], case["seed"]
    scenario, pmap = _block_loop_map(toy_scenario, case)
    walk, batches = simulator.simulate_slots, []

    def spy(*args, **kwargs):
        batches.append(walk(*args, **kwargs))
        return batches[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_LEAD", lead)
        mp.setattr(simulator, "_CALIBRATION_BLOCK", block)
        mp.setattr(simulator, "simulate_slots", spy)
        yielded = list(simulator._blocks(scenario, pmap, slots, seed, warmup, None, False))
        kept = [b for b, _ in yielded]
        assert [b.hypothesis.size for b in batches] == (_lengths(warmup, block)
                                                        + _lengths(slots, block))
        kept_count = len(_lengths(slots, block))
        assert len(kept) == kept_count
        assert all(a is b for a, b in zip(kept, batches[-kept_count:]))
        assert all(llr.tobytes() == fusion_llr(b, scenario).tobytes() for b, llr in yielded)
        streams, batteries = make_streams(seed, scenario.num_sensors), None
        for t, batch in enumerate(batches):
            alone = walk(scenario, pmap, batch.hypothesis.size, streams, batteries=batteries)
            for f in fields(SimBatch):
                got, want = getattr(batch, f.name), getattr(alone, f.name)
                if f.name == "batteries":
                    assert got == want, f"block {t}"
                else:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                        f"block {t}: {f.name}"
            batteries = alone.batteries


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
    (True, None, r"slots must be a whole number >= 0, got True"),
    (5, (True, 100), r"sensor 0: battery .* got True"),
], ids=["negative", "over_capacity", "fraction", "second_negative", "too_few", "too_many",
        "negative_slots", "float_slots", "bool_slots", "bool_battery"])
def test_bad_batteries_and_slots_raise(two_sensor_scenario, slots, batteries, match):
    pmap = _spend_one_map(two_sensor_scenario)
    with pytest.raises(ValueError, match=match):
        simulate_slots(two_sensor_scenario, pmap, slots, make_streams(1, 2), batteries=batteries)


def test_streams_for_another_sensor_count_are_rejected(two_sensor_scenario):
    # the sensor without a stream used to keep np.empty rows and no end battery
    pmap = _spend_one_map(two_sensor_scenario)
    with pytest.raises(ValueError, match="need one stream set per sensor: got 1 for 2 sensors; "
                                         "sensor 1 has none"):
        simulate_slots(two_sensor_scenario, pmap, 5, make_streams(1, 1))
    with pytest.raises(ValueError, match=r"got 3 for 2 sensors; streams\.sensors\[2\] matches"):
        simulate_slots(two_sensor_scenario, pmap, 5, make_streams(1, 3))


def test_power_map_for_another_sensor_count_is_rejected(toy_scenario):
    # the second table used to be ignored
    pmap = _spend_one_map(toy_scenario)
    two = replace(pmap, powers=pmap.powers * 2)
    with pytest.raises(ValueError, match=r"need one power table per sensor: got 2 for 1 sensors; "
                                         r"power_map\.powers\[1\] matches no sensor"):
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
