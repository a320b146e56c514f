"""Scenario parameters for an energy-harvesting detection network.

A scenario couples one set of network-wide constants (hypothesis prior, battery
capacity, slot timing, harvesting rate, power budget) with per-sensor channel
and local-detector parameters. Scenario files are flat ``key = value`` text
with one ``[network]`` section and consecutively numbered ``[sensor.1]``,
``[sensor.2]``, ... sections; see ``scenarios/FORMAT.md`` for the schema.

All containers are frozen dataclasses validated on construction, so a value
that parses is a value the rest of the package can trust.
"""

from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detection import local_lrt_probabilities

__all__ = [
    "ScenarioError",
    "LocalObservationModel",
    "SensorParams",
    "NetworkParams",
    "Scenario",
    "PowerMap",
    "units_from_power",
    "BatteryDistribution",
    "MonteCarloReport",
    "load_scenario",
    "loads_scenario",
    "emit_scenario",
    "dumps_scenario",
]

TRANSMIT_PROB_MODELS = ("prior", "decision")
FC_KNOWLEDGE_MODES = ("genie", "map_marginal")


class ScenarioError(ValueError):
    """A scenario file or parameter set failed validation."""


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"{where}: {msg}")


def _is_whole(value) -> bool:
    """An integer, numpy's included, that is not a bool: True would count as 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _one_per_sensor(scenario, items, what: str, name: str) -> None:
    """Raise ValueError unless `items` holds one `what` per sensor, naming the
    first sensor without one or, as name[N], the first entry without a sensor."""
    n, N = len(items), scenario.num_sensors
    if n != N:
        why = f"sensor {n} has none" if n < N else f"{name}[{N}] matches no sensor"
        raise ValueError(f"need one {what} per sensor: got {n} for {N} sensors; {why}")


def _fits_each_sensor(scenario, tables, what: str) -> None:
    """Raise ValueError unless each sensor's table is (its levels x K+1),
    naming the first sensor whose `what` has another shape. With another
    shape the walk's flat next-state table would read a neighbouring row,
    and the chain fails deep inside without naming the sensor."""
    states = scenario.network.capacity + 1
    for n, (sensor, table) in enumerate(zip(scenario.sensors, tables)):
        if np.shape(table) != (sensor.level_count, states):
            raise ValueError(f"sensor {n}: the {what} needs a {sensor.level_count} x {states} "
                             "(levels x battery states) table")


def _finite_positive(value: float, where: str) -> None:
    _require(isinstance(value, (int, float)), where, "must be a number")
    _require(math.isfinite(value) and value > 0.0, where, "must be finite and > 0")


def _probability(value: float, where: str) -> None:
    _require(isinstance(value, (int, float)), where, "must be a number")
    _require(math.isfinite(value) and 0.0 < value < 1.0, where, "must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class LocalObservationModel:
    """Gaussian observation channel behind a sensor's local threshold test.

    The sensor sees ``amplitude + noise`` when the event is present and pure
    noise otherwise, and decides by comparing the raw observation against
    ``threshold``. The induced (p_f, p_d) operating point is what the rest of
    the pipeline consumes.
    """

    amplitude: float
    noise_sigma: float
    threshold: float

    def __post_init__(self) -> None:
        _finite_positive(self.amplitude, "local_amplitude")
        _finite_positive(self.noise_sigma, "local_noise_sigma")
        _require(math.isfinite(self.threshold), "local_lrt_threshold", "must be finite")

    def operating_point(self) -> tuple[float, float]:
        """(p_f, p_d) of the threshold test on one Gaussian observation."""
        return local_lrt_probabilities(self.amplitude, self.noise_sigma, self.threshold)


@dataclass(frozen=True)
class SensorParams:
    """One sensor: fading statistics, receiver noise, local detector, outage demand.

    thresholds are the gain-quantizer cell edges: the first edge must be 0,
    edges must be strictly increasing, and the last edge must be ``inf`` so the
    cells cover every possible gain. A sensor with ``len(thresholds) == L + 2``
    has quantizer levels ``0 .. L``; level 0 is the dead zone that never
    transmits. A sensor with a local observation model must carry its
    operating point as (p_f, p_d), bit for bit.
    """

    mean_gain: float                 # mean of the exponentially distributed channel power gain
    noise_var: float                 # receiver noise variance seen by the fusion center
    p_f: float                       # local false-alarm probability
    p_d: float                       # local detection probability
    outage_confidence: float         # required probability of staying above the battery-drop floor
    thresholds: tuple[float, ...]
    local_obs: LocalObservationModel | None = None

    def __post_init__(self) -> None:
        _finite_positive(self.mean_gain, "mean_gain")
        _finite_positive(self.noise_var, "noise_var")
        _probability(self.p_f, "p_f")
        _probability(self.p_d, "p_d")
        _require(self.p_f < self.p_d, "p_f/p_d", "must satisfy 0 < p_f < p_d < 1")
        if self.local_obs is not None:
            point = self.local_obs.operating_point()
            _require(point == (self.p_f, self.p_d), "p_f/p_d", f"({self.p_f!r}, {self.p_d!r}) "
                     f"must equal the local model's operating point {point!r}")
        _probability(self.outage_confidence, "outage_confidence")
        edges = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", edges)
        _require(len(edges) >= 2, "thresholds", "need at least two edges (one quantizer level)")
        _require(edges[0] == 0.0, "thresholds", "first edge must be 0")
        _require(edges[-1] == math.inf, "thresholds", "last edge must be inf so levels cover all gains")
        _require(all(math.isfinite(t) for t in edges[:-1]), "thresholds",
                 "inf is only allowed as the last edge")
        for a, b in zip(edges, edges[1:]):
            _require(a < b, "thresholds", "edges must be strictly increasing")

    @property
    def level_count(self) -> int:
        """Number of quantizer cells, including the no-transmit level 0."""
        return len(self.thresholds) - 1


@dataclass(frozen=True)
class NetworkParams:
    """Network-wide constants shared by every sensor."""

    prior_h0: float                  # prior probability of the null hypothesis
    capacity: int                    # battery size in whole energy units
    unit_energy: float               # Joules per battery unit
    slot_seconds: float              # duration of one sensing/reporting slot
    mean_harvest: float              # mean harvested energy per slot, Joules
    drop_fraction: float             # battery drop below this fraction counts as an outage
    power_budget: float              # network-wide average transmit power cap, Watts
    transmit_prob_model: str = "prior"
    fc_knowledge: str = "genie"

    def __post_init__(self) -> None:
        _probability(self.prior_h0, "prior_h0")
        _require(_is_whole(self.capacity), "capacity", "must be an integer")
        object.__setattr__(self, "capacity", int(self.capacity))
        _require(self.capacity >= 1, "capacity", "must be >= 1")
        # the battery chain is a dense (K+1) x (K+1) float64 matrix; past this
        # its byte count overflows NumPy's index type, and a solve would fail
        # deep inside with a traceback
        most = math.isqrt(np.iinfo(np.intp).max // 8) - 1
        _require(self.capacity <= most, "capacity",
                 f"must be at most {most}, so that NumPy can size a (K+1) x (K+1) "
                 "float64 battery chain")
        _finite_positive(self.unit_energy, "unit_energy")
        _finite_positive(self.slot_seconds, "slot_seconds")
        _finite_positive(self.mean_harvest, "mean_harvest")
        _probability(self.drop_fraction, "drop_fraction")
        _finite_positive(self.power_budget, "power_budget")
        _require(self.transmit_prob_model in TRANSMIT_PROB_MODELS, "transmit_prob_model",
                 f"must be one of {TRANSMIT_PROB_MODELS}")
        _require(self.fc_knowledge in FC_KNOWLEDGE_MODES, "fc_knowledge",
                 f"must be one of {FC_KNOWLEDGE_MODES}")

    @property
    def prior_h1(self) -> float:
        return 1.0 - self.prior_h0

    @property
    def unit_power(self) -> float:
        """Watts delivered by draining one battery unit over one slot."""
        return self.unit_energy / self.slot_seconds


@dataclass(frozen=True)
class Scenario:
    """A network description plus its sensors, in file order."""

    network: NetworkParams
    sensors: tuple[SensorParams, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensors", tuple(self.sensors))
        _require(len(self.sensors) >= 1, "sensors", "need at least one sensor")

    @property
    def num_sensors(self) -> int:
        return len(self.sensors)


@dataclass(frozen=True)
class BatteryDistribution:
    """Probability vector over battery states 0..K."""

    psi: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.psi, dtype=float)
        _require(arr.ndim == 1 and arr.size >= 2, "psi", "must be a 1-D vector over states 0..K")
        _require(bool(np.all(np.isfinite(arr))), "psi", "entries must be finite")
        _require(bool(np.all(arr >= -1e-13)) and bool(np.all(arr <= 1.0 + 1e-12)),
                 "psi", "entries must lie in [0, 1]")
        arr = np.maximum(arr, 0.0)  # forgive solver dust below the -1e-13 gate
        _require(abs(float(arr.sum()) - 1.0) <= 1e-12, "psi", "must sum to 1 within 1e-12")
        arr.flags.writeable = False
        object.__setattr__(self, "psi", arr)

    @property
    def capacity(self) -> int:
        return self.psi.size - 1

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.psi)


def units_from_power(power, state, network: NetworkParams):
    """Whole battery units needed to fund a slot power, never beyond the state.

    Rounds up, since partial units cannot be drawn; a 1e-9 slack absorbs float
    dust when the power sits exactly on a unit boundary (as the causality and
    zero clamps produce). The re-clamp to the state keeps rounding from ever
    violating causality. Vectorized: power and state broadcast. The network
    may be a PowerMap: only unit_energy and slot_seconds are read.
    """
    q = np.asarray(power, dtype=float) * (network.slot_seconds / network.unit_energy)
    alpha = np.minimum(np.maximum(np.ceil(q - 1e-9).astype(np.int64), 0), state)
    return int(alpha) if alpha.ndim == 0 else alpha


@dataclass(frozen=True)
class PowerMap:
    """Transmit power lookup, one table per sensor.

    ``powers[n][l, k]`` is the slot power in Watts a sensor uses at quantizer
    level l with k stored units; ``units[n][l, k]`` is the whole number of
    battery units that transmission drains, derived by units_from_power.
    Level 0 never transmits, and no entry may promise more energy than the
    battery state holds.
    """

    powers: tuple[np.ndarray, ...]
    unit_energy: float
    slot_seconds: float
    units: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _finite_positive(self.unit_energy, "unit_energy")
        _finite_positive(self.slot_seconds, "slot_seconds")
        _require(len(self.powers) >= 1, "power map", "powers need one table per sensor")
        frozen_p, frozen_u = [], []
        capacity = None
        for n, p in enumerate(self.powers):
            where = f"power map sensor {n}"
            p = np.array(p, dtype=float)
            _require(p.ndim == 2, where, "tables must be 2-D")
            if capacity is None:
                capacity = p.shape[1] - 1
            _require(p.shape[1] - 1 == capacity, where, "battery axis must match across sensors")
            _require(bool(np.all(np.isfinite(p))) and bool(np.all(p >= 0.0)), where,
                     "powers must be finite and >= 0")
            _require(bool(np.all(p[0, :] == 0.0)), where, "level 0 must carry zero power")
            states = np.arange(p.shape[1])
            # 1-ulp forgiveness: the per-state watt cap is computed in floats
            cap = states * (self.unit_energy / self.slot_seconds)
            _require(bool(np.all(p <= cap[None, :] * (1.0 + 1e-12) + 1e-15)), where,
                     "power*slot must never exceed the stored energy (causality)")
            p.flags.writeable = False
            u = units_from_power(p, states, self)
            u.flags.writeable = False
            frozen_p.append(p)
            frozen_u.append(u)
        object.__setattr__(self, "powers", tuple(frozen_p))
        object.__setattr__(self, "units", tuple(frozen_u))

    @property
    def num_sensors(self) -> int:
        return len(self.powers)

    @property
    def capacity(self) -> int:
        return self.powers[0].shape[1] - 1


@dataclass(frozen=True)
class MonteCarloReport:
    """Detection estimates and battery occupancy from one simulated run."""

    pd_fc: float
    pf_fc: float
    ci_pd: float                     # 95% binomial half-width of pd_fc, inf with no H1 slot
    ci_pf: float                     # 95% binomial half-width of pf_fc, inf with no H0 slot
    empirical_psi: tuple[np.ndarray, ...]
    threshold: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("pd_fc", "pf_fc"):
            v = getattr(self, name)
            _require(0.0 <= v <= 1.0, name, "must lie in [0, 1]")
        for name in ("ci_pd", "ci_pf"):
            v = getattr(self, name)
            _require(v >= 0.0, name, "must be >= 0 (inf for an empty class), not nan")
        hists = []
        for n, h in enumerate(self.empirical_psi):
            arr = np.array(h, dtype=float)
            _require(arr.ndim == 1 and bool(np.all(arr >= 0.0)), f"empirical_psi[{n}]",
                     "must be a non-negative vector")
            _require(abs(float(arr.sum()) - 1.0) <= 1e-9, f"empirical_psi[{n}]",
                     "must sum to 1 within 1e-9")
            arr.flags.writeable = False
            hists.append(arr)
        object.__setattr__(self, "empirical_psi", tuple(hists))
        _require(self.samples >= 1, "samples", "must be >= 1")


# ---------------------------------------------------------------------------
# scenario file round trip
#
# One table per section maps each key, in file order, to the converter that
# turns its text into a value. A converter only parses: the dataclasses rule
# on every range, and _section names the section in any error exactly once.


def _number(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{key}: not a number: {raw!r}") from None
    _require(not math.isnan(value), key, "nan is not allowed")
    return value


def _integer(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{key}: not an integer: {raw!r}") from None


def _edges(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    _require(all(parts), key, "empty entry in list")
    return tuple(_number(key, p) for p in parts)


def _text(key: str, raw: str) -> str:
    return raw


# the keys are NetworkParams' fields
_NETWORK_KEYS = {
    "prior_h0": _number, "capacity": _integer, "unit_energy": _number,
    "slot_seconds": _number, "mean_harvest": _number, "drop_fraction": _number,
    "power_budget": _number, "transmit_prob_model": _text, "fc_knowledge": _text,
}
_NETWORK_OPTIONAL = ("transmit_prob_model", "fc_knowledge")
# SensorParams' fields, with the local_* model as the alternative to p_f/p_d
_SENSOR_KEYS = {
    "mean_gain": _number, "noise_var": _number, "p_f": _number, "p_d": _number,
    "local_amplitude": _number, "local_noise_sigma": _number,
    "local_lrt_threshold": _number, "outage_confidence": _number, "thresholds": _edges,
}
_SENSOR_RATES = ("p_f", "p_d")
# the LocalObservationModel field behind each local_* key
_SENSOR_LOCAL = {"local_amplitude": "amplitude", "local_noise_sigma": "noise_sigma",
                 "local_lrt_threshold": "threshold"}
_SENSOR_OPTIONAL = _SENSOR_RATES + tuple(_SENSOR_LOCAL)


def _section(parser: configparser.ConfigParser, name: str, table: dict,
             optional: tuple[str, ...], build):
    """`build` applied to the section's values as `table` converts them. Any
    error, the dataclasses' included, comes out as "[name] key: reason"."""
    try:
        raw = dict(parser.items(name))
        for key in table:
            if key not in optional and key not in raw:
                raise ScenarioError(f"missing required key {key!r}")
        for key in raw:
            if key not in table:
                raise ScenarioError(f"unknown key {key!r}")
        return build({key: table[key](key, text) for key, text in raw.items()})
    except ScenarioError as exc:
        raise ScenarioError(f"[{name}] {exc}") from None


def _sensor(values: dict) -> SensorParams:
    local = {attr: values.pop(key) for key, attr in _SENSOR_LOCAL.items() if key in values}
    rates = [k for k in _SENSOR_RATES if k in values]
    if local and rates:
        raise ScenarioError("give either p_f/p_d or the local_* observation model, not both")
    if local and len(local) != len(_SENSOR_LOCAL):
        missing = sorted(k for k, attr in _SENSOR_LOCAL.items() if attr not in local)
        raise ScenarioError(f"incomplete local observation model; missing {missing}")
    if not local and len(rates) != len(_SENSOR_RATES):
        raise ScenarioError("need both p_f and p_d (or a local_* model)")
    if local:
        values["local_obs"] = LocalObservationModel(**local)
        values["p_f"], values["p_d"] = values["local_obs"].operating_point()
    return SensorParams(**values)


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario text. See load_scenario for the file-path front end."""
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",),
        inline_comment_prefixes=None, strict=True,
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from None

    sections = parser.sections()
    if "network" not in sections:
        raise ScenarioError("missing [network] section")
    sensor_sections = [s for s in sections if s != "network"]
    for s in sensor_sections:
        if not s.startswith("sensor."):
            raise ScenarioError(f"unknown section [{s}] (expected [network] or [sensor.i])")
    expected = [f"sensor.{i}" for i in range(1, len(sensor_sections) + 1)]
    if sorted(sensor_sections) != sorted(expected) or not sensor_sections:
        raise ScenarioError(
            "sensor sections must be numbered consecutively from [sensor.1]; "
            f"got {sensor_sections or 'none'}"
        )

    network = _section(parser, "network", _NETWORK_KEYS, _NETWORK_OPTIONAL,
                       lambda values: NetworkParams(**values))
    sensors = [_section(parser, name, _SENSOR_KEYS, _SENSOR_OPTIONAL, _sensor)
               for name in expected]
    return Scenario(network=network, sensors=tuple(sensors))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file.

    Raises ScenarioError on malformed or inconsistent content, a file that is
    not UTF-8 text included, and OSError if the file cannot be read at all.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start} "
                            f"({exc.reason})") from exc
    return loads_scenario(text, source=str(path))


def _fmt(value) -> str:
    # repr round-trips doubles exactly, which is what reload tests rely on
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_section(out: io.StringIO, table: dict, values: dict) -> None:
    for key in table:
        if key in values:
            out.write(f"{key} = {_fmt(values[key])}\n")


def dumps_scenario(scenario: Scenario) -> str:
    out = io.StringIO()
    out.write("# energy-harvesting detection network scenario\n")
    out.write("[network]\n")
    _write_section(out, _NETWORK_KEYS, vars(scenario.network))
    for i, sensor in enumerate(scenario.sensors, start=1):
        out.write(f"\n[sensor.{i}]\n")
        values = dict(vars(sensor))
        if sensor.local_obs is not None:  # derived rates stay derived
            del values["p_f"], values["p_d"]
            values.update((key, getattr(sensor.local_obs, attr))
                          for key, attr in _SENSOR_LOCAL.items())
        _write_section(out, _SENSOR_KEYS, values)
    return out.getvalue()


def emit_scenario(scenario: Scenario, path) -> None:
    """Write a scenario file that load_scenario reproduces bit-exactly."""
    Path(path).write_text(dumps_scenario(scenario), encoding="utf-8", newline="\n")
