import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehdetect import (
    BatteryDistribution,
    LocalObservationModel,
    NetworkParams,
    PowerMap,
    Scenario,
    ScenarioError,
    SensorParams,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    units_from_power,
)
from ehdetect import config
from references import convex_region_bounds

FORMAT_MD = Path(__file__).resolve().parent.parent / "scenarios" / "FORMAT.md"

MINIMAL = """\
[network]
prior_h0 = 0.5
capacity = 4
unit_energy = 0.1
slot_seconds = 0.1
mean_harvest = 1.0
drop_fraction = 0.2
power_budget = 1.0

[sensor.1]
mean_gain = 1.0
noise_var = 1.0
p_f = 0.2
p_d = 0.9
outage_confidence = 0.9
thresholds = 0, 0.5, inf
"""


def test_minimal_scenario_parses():
    sc = loads_scenario(MINIMAL)
    assert sc.num_sensors == 1
    assert sc.network.capacity == 4
    assert sc.sensors[0].level_count == 2
    assert sc.network.prior_h1 == 0.5
    assert sc.network.unit_power == pytest.approx(1.0)


def test_bundled_scenarios_round_trip(toy_scenario, two_sensor_scenario):
    for sc in (toy_scenario, two_sensor_scenario):
        again = loads_scenario(dumps_scenario(sc))
        assert again == sc


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "nope.scn")


@pytest.mark.parametrize("raw,offset", [
    (b"\xff\xfe[network]\n", 0),            # a UTF-16 byte-order mark
    (b"[network]\n# caf\xe9\n", 15),         # Latin-1 in a comment
])
def test_load_scenario_rejects_text_that_is_not_utf8(tmp_path, raw, offset):
    path = tmp_path / "bad.scn"
    path.write_bytes(raw)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert str(path) in str(err.value)
    assert f"not UTF-8 text at byte {offset} " in str(err.value)


@pytest.mark.parametrize("mutation,fragment", [
    ("thresholds = 0.1, 0.5, inf", "first"),
    ("thresholds = 0, 0.5, 2.0", "last"),
    ("thresholds = 0, 0.5, 0.5, inf", "increas"),
    ("thresholds = 0, inf, 1.0, inf", "last"),
    ("thresholds = 0, , inf", "empty"),
    ("p_f = 0.9", "p_f"),          # p_f >= p_d
    ("p_f = nan", "nan"),
    ("mean_gain = inf", "finite"),
    ("mean_gain = -1.0", "mean_gain"),
    ("outage_confidence = 1.0", "outage_confidence"),
])
def test_sensor_field_errors(mutation, fragment):
    key = mutation.split(" =")[0]
    lines = [
        mutation if line.startswith(key + " ") else line
        for line in MINIMAL.splitlines()
    ]
    with pytest.raises(ScenarioError) as err:
        loads_scenario("\n".join(lines))
    assert fragment in str(err.value)
    assert "sensor.1" in str(err.value)


@pytest.mark.parametrize("mutation,fragment", [
    ("prior_h0 = 1.0", "prior_h0"),
    ("capacity = 0", "capacity"),
    ("capacity = 2.5", "integer"),
    ("unit_energy = 0", "unit_energy"),
    ("drop_fraction = 1.0", "drop_fraction"),
    ("power_budget = -2", "power_budget"),
])
def test_network_field_errors(mutation, fragment):
    key = mutation.split(" =")[0]
    lines = [
        mutation if line.startswith(key + " ") else line
        for line in MINIMAL.splitlines()
    ]
    with pytest.raises(ScenarioError) as err:
        loads_scenario("\n".join(lines))
    assert fragment in str(err.value)


LOCAL_MINIMAL = MINIMAL.replace(
    "p_f = 0.2\np_d = 0.9\n",
    "local_amplitude = 2.0\nlocal_noise_sigma = 1.0\nlocal_lrt_threshold = 1.0\n",
)
NUMERIC_KEYS = [
    *(("network", key, MINIMAL) for key in (
        "prior_h0", "capacity", "unit_energy", "slot_seconds",
        "mean_harvest", "drop_fraction", "power_budget")),
    *(("sensor.1", key, MINIMAL) for key in (
        "mean_gain", "noise_var", "p_f", "p_d", "outage_confidence", "thresholds")),
    *(("sensor.1", key, LOCAL_MINIMAL) for key in (
        "local_amplitude", "local_noise_sigma", "local_lrt_threshold")),
]


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "abc"])
@pytest.mark.parametrize("section,key,text", NUMERIC_KEYS,
                         ids=[key for _, key, _ in NUMERIC_KEYS])
def test_non_numbers_name_section_and_key_once(section, key, text, bad):
    # for thresholds the bad value is the one interior edge
    value = f"0, {bad}, inf" if key == "thresholds" else bad
    lines = [f"{key} = {value}" if line.startswith(key + " ") else line
             for line in text.splitlines()]
    with pytest.raises(ScenarioError) as err:
        loads_scenario("\n".join(lines))
    message = str(err.value)
    assert message.startswith(f"[{section}] {key}: ")
    assert message.count(f"[{section}]") == 1


def test_format_doc_lists_the_keys_the_loader_accepts():
    # the first column of each key table in FORMAT.md, against the loader's table
    doc = FORMAT_MD.read_text(encoding="utf-8")
    tables = {"[network]": config._NETWORK_KEYS, "[sensor.i]": config._SENSOR_KEYS}
    for heading, table in tables.items():
        body = doc.split(f"## `{heading}` keys", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in body.splitlines() if line.startswith("| `")]
        documented = [key for cell in rows for key in re.findall(r"`(\w+)`", cell)]
        assert sorted(documented) == sorted(table), heading


def test_invalid_modes_rejected(toy_scenario):
    net = toy_scenario.network
    with pytest.raises(ScenarioError, match="transmit_prob_model"):
        replace(net, transmit_prob_model="sometimes")
    with pytest.raises(ScenarioError, match="fc_knowledge"):
        replace(net, fc_knowledge="psychic")


def test_capacity_takes_numpy_integers_and_stores_an_int(toy_scenario):
    # the simulator's whole-number rule: numpy integers count, bools and floats do not
    net = toy_scenario.network
    for whole in (np.int64(5), np.int32(5)):
        made = replace(net, capacity=whole)
        assert made.capacity == 5 and type(made.capacity) is int
    for bad in (True, 5.0):
        with pytest.raises(ScenarioError, match="capacity: must be an integer"):
            replace(net, capacity=bad)


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        loads_scenario(MINIMAL + "bogus = 1\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        loads_scenario(MINIMAL.replace("power_budget = 1.0",
                                       "power_budget = 1.0\ntypo_key = 3"))


def test_sensor_numbering_must_be_consecutive():
    text = MINIMAL.replace("[sensor.1]", "[sensor.2]")
    with pytest.raises(ScenarioError, match="consecutive"):
        loads_scenario(text)


def test_missing_section_and_keys():
    with pytest.raises(ScenarioError, match="network"):
        loads_scenario("[sensor.1]\nmean_gain = 1\n")
    with pytest.raises(ScenarioError, match="missing required key"):
        loads_scenario(MINIMAL.replace("mean_harvest = 1.0\n", ""))
    with pytest.raises(ScenarioError, match=r"unknown section \[sensors\.1\]"):
        loads_scenario(MINIMAL.replace("[sensor.1]", "[sensors.1]"))


def test_rates_and_local_model_are_exclusive():
    text = MINIMAL + "local_amplitude = 2.0\nlocal_noise_sigma = 1.0\nlocal_lrt_threshold = 1.0\n"
    with pytest.raises(ScenarioError, match="not both"):
        loads_scenario(text)
    # incomplete trio
    text = MINIMAL.replace("p_f = 0.2\np_d = 0.9\n", "local_amplitude = 2.0\n")
    with pytest.raises(ScenarioError, match="local"):
        loads_scenario(text)
    # p_f alone
    with pytest.raises(ScenarioError, match="need both p_f and p_d"):
        loads_scenario(MINIMAL.replace("p_d = 0.9\n", ""))


def test_local_model_derives_rates_and_round_trips():
    text = MINIMAL.replace(
        "p_f = 0.2\np_d = 0.9\n",
        "local_amplitude = 2.0\nlocal_noise_sigma = 1.0\nlocal_lrt_threshold = 1.0\n",
    )
    sc = loads_scenario(text)
    sensor = sc.sensors[0]
    assert sensor.local_obs is not None
    assert 0.0 < sensor.p_f < sensor.p_d < 1.0
    dumped = dumps_scenario(sc)
    assert "local_amplitude" in dumped
    assert "p_f =" not in dumped  # derived rates stay derived
    assert loads_scenario(dumped) == sc


def test_local_model_must_carry_its_operating_point(toy_scenario):
    # the file keeps the local model and drops the rates, so a sensor whose
    # rates differ from its model's used to reload as another sensor
    sensor = toy_scenario.sensors[0]
    model = LocalObservationModel(amplitude=1.0, noise_sigma=1.0, threshold=0.5)
    match = (r"p_f/p_d: \(0\.2, 0\.9\) must equal the local model's operating point "
             r"\(0\.3085375387259869, 0\.6914624612740131\)")
    with pytest.raises(ScenarioError, match=match):
        replace(sensor, local_obs=model)
    local = replace(sensor, p_f=0.3085375387259869, p_d=0.6914624612740131, local_obs=model)
    assert (local.p_f, local.p_d) == model.operating_point()
    with pytest.raises(ScenarioError, match="must equal the local model's operating point"):
        replace(local, p_f=0.3)
    sc = replace(toy_scenario, sensors=(local,))
    assert loads_scenario(dumps_scenario(sc)) == sc


@st.composite
def scenarios(draw):
    prior = draw(st.floats(0.05, 0.95))
    capacity = draw(st.integers(1, 12))
    n_sensors = draw(st.integers(1, 3))
    sensors = []
    for _ in range(n_sensors):
        local_obs = None
        if draw(st.booleans()):
            p_f = draw(st.floats(0.01, 0.5))
            p_d = draw(st.floats(p_f + 0.05, 0.99))
        else:
            # |threshold| / sigma <= 2 and |threshold - amplitude| / sigma <= 6
            # keep both rates strictly inside (0, 1) and apart
            local_obs = LocalObservationModel(amplitude=draw(st.floats(0.1, 4.0)),
                                              noise_sigma=draw(st.floats(1.0, 3.0)),
                                              threshold=draw(st.floats(-2.0, 2.0)))
            p_f, p_d = local_obs.operating_point()
        n_edges = draw(st.integers(1, 4))
        interior = sorted(draw(st.lists(
            st.floats(0.01, 5.0), min_size=n_edges, max_size=n_edges,
            unique=True)))
        sensors.append(SensorParams(
            mean_gain=draw(st.floats(0.1, 5.0)),
            noise_var=draw(st.floats(0.1, 4.0)),
            p_f=p_f, p_d=p_d,
            outage_confidence=draw(st.floats(0.5, 0.99)),
            thresholds=(0.0, *interior, math.inf),
            local_obs=local_obs,
        ))
    network = NetworkParams(
        prior_h0=prior,
        capacity=capacity,
        unit_energy=draw(st.floats(0.01, 1.0)),
        slot_seconds=draw(st.floats(0.01, 2.0)),
        mean_harvest=draw(st.floats(0.05, 5.0)),
        drop_fraction=draw(st.floats(0.01, 0.9)),
        power_budget=draw(st.floats(0.1, 100.0)),
    )
    return Scenario(network=network, sensors=tuple(sensors))


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_bit_exact(sc):
    again = loads_scenario(dumps_scenario(sc))
    assert again == sc


def test_battery_distribution_validation():
    with pytest.raises(ValueError):
        BatteryDistribution(psi=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        BatteryDistribution(psi=np.array([-0.1, 1.1]))
    # tiny negative dust is forgiven and clipped
    psi = BatteryDistribution(psi=np.array([1.0 + 1e-14, -1e-14]))
    assert psi.psi[1] == 0.0
    assert psi.capacity == 1
    assert psi.cdf()[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        psi.psi[0] = 0.5  # frozen


def test_power_map_validation():
    ue, ts = 0.5, 1.0
    good_p = np.array([[0.0, 0.0], [0.0, 0.5]])
    pm = PowerMap(powers=(good_p,), unit_energy=ue, slot_seconds=ts)
    assert pm.capacity == 1
    assert pm.num_sensors == 1
    np.testing.assert_array_equal(pm.units[0], [[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="level 0"):
        PowerMap(powers=(np.array([[0.1, 0.0], [0.0, 0.0]]),), unit_energy=ue, slot_seconds=ts)
    with pytest.raises(ValueError, match="causality"):
        PowerMap(powers=(np.array([[0.0, 0.0], [0.0, 0.8]]),), unit_energy=ue, slot_seconds=ts)
    with pytest.raises(ValueError, match="2-D"):
        PowerMap(powers=(np.zeros(2),), unit_energy=ue, slot_seconds=ts)
    # the units are derived from the powers, never given
    with pytest.raises(TypeError):
        PowerMap(powers=(good_p,), units=(np.array([[0, 0], [0, 1]]),),
                 unit_energy=ue, slot_seconds=ts)


def test_power_map_allows_ragged_levels():
    ue, ts = 0.5, 1.0
    p1 = np.zeros((2, 3))
    p2 = np.zeros((4, 3))
    pm = PowerMap(powers=(p1, p2), unit_energy=ue, slot_seconds=ts)
    assert pm.capacity == 2
    assert [u.shape for u in pm.units] == [(2, 3), (4, 3)]
    # but the battery axis must agree
    with pytest.raises(ValueError, match="battery axis"):
        PowerMap(powers=(p1, np.zeros((2, 4))), unit_energy=ue, slot_seconds=ts)


@st.composite
def _power_tables(draw):
    """Valid power tables for 1-3 sensors, ragged levels, with entries on and
    off whole-unit boundaries, and the network they are rounded against."""
    unit_energy = draw(st.floats(1e-3, 1e3))
    slot_seconds = draw(st.floats(1e-3, 1e3))
    K = draw(st.integers(1, 8))
    net = NetworkParams(prior_h0=0.5, capacity=K, unit_energy=unit_energy,
                        slot_seconds=slot_seconds, mean_harvest=1.0, drop_fraction=0.5,
                        power_budget=1.0)
    states = np.arange(K + 1)
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        levels = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(["fraction", "whole", "cap"]))
        if kind == "whole":  # whole units at most the state, as the causality clamp gives
            frac = np.array([[draw(st.integers(0, k)) for k in states] for _ in range(levels)])
            frac = frac / np.maximum(states, 1)
        elif kind == "cap":
            frac = np.ones((levels, K + 1))
        else:
            frac = np.array([[draw(st.floats(0.0, 1.0)) for _ in states] for _ in range(levels)])
        tables.append(np.vstack([np.zeros(K + 1), frac * (states * net.unit_power)]))
    return net, tables


@given(_power_tables())
@settings(max_examples=200, deadline=None)
def test_power_map_units_are_the_rounding_rule(case):
    net, tables = case
    pm = PowerMap(powers=tuple(tables), unit_energy=net.unit_energy,
                  slot_seconds=net.slot_seconds)
    states = np.arange(net.capacity + 1)
    for p, u in zip(tables, pm.units):
        expected = units_from_power(p, states, net)
        assert u.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(u, expected, strict=True)
        # what PowerMap used to check of given units holds by construction
        assert not u[0].any() and (u >= 0).all() and (u <= states).all()
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 1


def test_convex_region_bounds_and_membership():
    lo, hi = convex_region_bounds(0.2)
    assert lo == pytest.approx(0.65 - math.sqrt(1 + 12 * 0.2 - 12 * 0.04) / 4)
    assert hi == pytest.approx(0.65 + math.sqrt(1 + 12 * 0.2 - 12 * 0.04) / 4)
    assert lo < 0.9 < hi


def test_convex_region_of_bundled_sensors(two_sensor_scenario):
    for sensor in two_sensor_scenario.sensors:
        lo, hi = convex_region_bounds(sensor.p_f)
        assert lo <= sensor.p_d <= hi


def test_scenario_replace_round_trip(two_sensor_scenario):
    # dataclasses.replace is how sweeps build variants; it must revalidate
    richer = replace(two_sensor_scenario,
                     network=replace(two_sensor_scenario.network, mean_harvest=9.0))
    assert richer.network.mean_harvest == 9.0
    with pytest.raises(ScenarioError):
        replace(two_sensor_scenario,
                network=replace(two_sensor_scenario.network, prior_h0=2.0))


def test_local_observation_model_validation():
    with pytest.raises(ValueError):
        LocalObservationModel(amplitude=-1.0, noise_sigma=1.0, threshold=0.0)
    with pytest.raises(ValueError):
        LocalObservationModel(amplitude=1.0, noise_sigma=0.0, threshold=0.0)
