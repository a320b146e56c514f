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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

__all__ = [
    "ScenarioError",
    "LocalObservationModel",
    "SensorParams",
    "NetworkParams",
    "Scenario",
    "PowerMap",
    "BatteryDistribution",
    "MonteCarloReport",
    "load_scenario",
    "loads_scenario",
    "emit_scenario",
    "dumps_scenario",
    "convex_region_bounds",
    "validate_convex_region",
]

TRANSMIT_PROB_MODELS = ("prior", "decision")
FC_KNOWLEDGE_MODES = ("genie", "map_marginal")


class ScenarioError(ValueError):
    """A scenario file or parameter set failed validation."""


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"{where}: {msg}")


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
        from .detection import local_lrt_probabilities

        return local_lrt_probabilities(self.amplitude, self.noise_sigma, self.threshold)


@dataclass(frozen=True)
class SensorParams:
    """One sensor: fading statistics, receiver noise, local detector, outage demand.

    thresholds are the gain-quantizer cell edges: the first edge must be 0,
    edges must be strictly increasing, and the last edge must be ``inf`` so the
    cells cover every possible gain. A sensor with ``len(thresholds) == L + 2``
    has quantizer levels ``0 .. L``; level 0 is the dead zone that never
    transmits.
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
        _probability(self.outage_confidence, "outage_confidence")
        edges = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", edges)
        _require(len(edges) >= 2, "thresholds", "need at least two edges (one quantizer level)")
        _require(edges[0] == 0.0, "thresholds", "first edge must be 0")
        _require(edges[-1] == math.inf, "thresholds", "last edge must be inf so levels cover all gains")
        for a, b in zip(edges, edges[1:]):
            _require(a < b, "thresholds", "edges must be strictly increasing")
        _require(all(math.isfinite(t) for t in edges[:-1]), "thresholds",
                 "inf is only allowed as the last edge")

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
        _require(isinstance(self.capacity, int) and not isinstance(self.capacity, bool),
                 "capacity", "must be an integer")
        _require(self.capacity >= 1, "capacity", "must be >= 1")
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


@dataclass(frozen=True)
class PowerMap:
    """Transmit power lookup, one table per sensor.

    ``powers[n][l, k]`` is the slot power in Watts a sensor uses at quantizer
    level l with k stored units; ``units[n][l, k]`` is the whole number of
    battery units that transmission drains. Level 0 never transmits, and no
    entry may promise more energy than the battery state holds.
    """

    powers: tuple[np.ndarray, ...]
    units: tuple[np.ndarray, ...]
    unit_energy: float
    slot_seconds: float

    def __post_init__(self) -> None:
        _finite_positive(self.unit_energy, "unit_energy")
        _finite_positive(self.slot_seconds, "slot_seconds")
        _require(len(self.powers) == len(self.units) and len(self.powers) >= 1,
                 "power map", "powers and units need one table per sensor")
        frozen_p, frozen_u = [], []
        capacity = None
        for n, (p, u) in enumerate(zip(self.powers, self.units)):
            where = f"power map sensor {n}"
            p = np.array(p, dtype=float)
            u = np.array(u)
            _require(p.ndim == 2 and u.shape == p.shape, where, "tables must be 2-D and congruent")
            _require(np.issubdtype(u.dtype, np.integer), where, "units must be integers")
            if capacity is None:
                capacity = p.shape[1] - 1
            _require(p.shape[1] - 1 == capacity, where, "battery axis must match across sensors")
            _require(bool(np.all(np.isfinite(p))) and bool(np.all(p >= 0.0)), where,
                     "powers must be finite and >= 0")
            _require(bool(np.all(p[0, :] == 0.0)), where, "level 0 must carry zero power")
            _require(bool(np.all(u[0, :] == 0)), where, "level 0 must carry zero units")
            _require(bool(np.all(u >= 0)), where, "units must be >= 0")
            states = np.arange(p.shape[1])
            _require(bool(np.all(u <= states[None, :])), where,
                     "units must never exceed the battery state (causality)")
            # 1-ulp forgiveness: the per-state watt cap is computed in floats
            cap = states * (self.unit_energy / self.slot_seconds)
            _require(bool(np.all(p <= cap[None, :] * (1.0 + 1e-12) + 1e-15)), where,
                     "power*slot must never exceed the stored energy (causality)")
            p.flags.writeable = False
            u = u.astype(np.int64)
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
    ci_pd: float                     # 95% binomial half-width of pd_fc
    ci_pf: float                     # 95% binomial half-width of pf_fc
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
            _require(math.isfinite(v) and v >= 0.0, name, "must be finite and >= 0")
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

_NETWORK_REQUIRED = (
    "prior_h0", "capacity", "unit_energy", "slot_seconds",
    "mean_harvest", "drop_fraction", "power_budget",
)
_NETWORK_OPTIONAL = ("transmit_prob_model", "fc_knowledge")
_SENSOR_REQUIRED = ("mean_gain", "noise_var", "outage_confidence", "thresholds")
_SENSOR_RATES = ("p_f", "p_d")
_SENSOR_LOCAL = ("local_amplitude", "local_noise_sigma", "local_lrt_threshold")


def _parse_float(section: str, key: str, raw: str, allow_inf: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: not a number: {raw!r}") from None
    if math.isnan(value):
        raise ScenarioError(f"[{section}] {key}: nan is not allowed")
    if not allow_inf and math.isinf(value):
        raise ScenarioError(f"[{section}] {key}: must be finite")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _parse_thresholds(section: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if any(not p for p in parts):
        raise ScenarioError(f"[{section}] thresholds: empty entry in list")
    values = []
    for i, part in enumerate(parts):
        v = _parse_float(section, "thresholds", part, allow_inf=True)
        if math.isinf(v) and i != len(parts) - 1:
            raise ScenarioError(f"[{section}] thresholds: inf is only allowed as the last edge")
        values.append(v)
    return tuple(values)


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

    net_raw = dict(parser.items("network"))
    for key in _NETWORK_REQUIRED:
        if key not in net_raw:
            raise ScenarioError(f"[network] missing required key {key!r}")
    for key in net_raw:
        if key not in _NETWORK_REQUIRED + _NETWORK_OPTIONAL:
            raise ScenarioError(f"[network] unknown key {key!r}")
    try:
        network = NetworkParams(
            prior_h0=_parse_float("network", "prior_h0", net_raw["prior_h0"]),
            capacity=_parse_int("network", "capacity", net_raw["capacity"]),
            unit_energy=_parse_float("network", "unit_energy", net_raw["unit_energy"]),
            slot_seconds=_parse_float("network", "slot_seconds", net_raw["slot_seconds"]),
            mean_harvest=_parse_float("network", "mean_harvest", net_raw["mean_harvest"]),
            drop_fraction=_parse_float("network", "drop_fraction", net_raw["drop_fraction"]),
            power_budget=_parse_float("network", "power_budget", net_raw["power_budget"]),
            transmit_prob_model=net_raw.get("transmit_prob_model", "prior").strip(),
            fc_knowledge=net_raw.get("fc_knowledge", "genie").strip(),
        )
    except ScenarioError as exc:
        raise ScenarioError(f"[network] {exc}") from None

    sensors = []
    for name in expected:
        raw = dict(parser.items(name))
        for key in _SENSOR_REQUIRED:
            if key not in raw:
                raise ScenarioError(f"[{name}] missing required key {key!r}")
        for key in raw:
            if key not in _SENSOR_REQUIRED + _SENSOR_RATES + _SENSOR_LOCAL:
                raise ScenarioError(f"[{name}] unknown key {key!r}")

        has_rates = [k for k in _SENSOR_RATES if k in raw]
        has_local = [k for k in _SENSOR_LOCAL if k in raw]
        if has_local and has_rates:
            raise ScenarioError(
                f"[{name}] give either p_f/p_d or the local_* observation model, not both"
            )
        if has_local and len(has_local) != len(_SENSOR_LOCAL):
            missing = sorted(set(_SENSOR_LOCAL) - set(has_local))
            raise ScenarioError(f"[{name}] incomplete local observation model; missing {missing}")
        if not has_local and len(has_rates) != len(_SENSOR_RATES):
            raise ScenarioError(f"[{name}] need both p_f and p_d (or a local_* model)")

        local_obs = None
        if has_local:
            try:
                local_obs = LocalObservationModel(
                    amplitude=_parse_float(name, "local_amplitude", raw["local_amplitude"]),
                    noise_sigma=_parse_float(name, "local_noise_sigma", raw["local_noise_sigma"]),
                    threshold=_parse_float(name, "local_lrt_threshold", raw["local_lrt_threshold"]),
                )
            except ScenarioError as exc:
                raise ScenarioError(f"[{name}] {exc}") from None
            p_f, p_d = local_obs.operating_point()
        else:
            p_f = _parse_float(name, "p_f", raw["p_f"])
            p_d = _parse_float(name, "p_d", raw["p_d"])

        try:
            sensors.append(SensorParams(
                mean_gain=_parse_float(name, "mean_gain", raw["mean_gain"]),
                noise_var=_parse_float(name, "noise_var", raw["noise_var"]),
                p_f=p_f,
                p_d=p_d,
                outage_confidence=_parse_float(name, "outage_confidence", raw["outage_confidence"]),
                thresholds=_parse_thresholds(name, raw["thresholds"]),
                local_obs=local_obs,
            ))
        except ScenarioError as exc:
            raise ScenarioError(f"[{name}] {exc}") from None

    return Scenario(network=network, sensors=tuple(sensors))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file.

    Raises ScenarioError on malformed or inconsistent content and OSError if
    the file cannot be read at all.
    """
    text = Path(path).read_text(encoding="utf-8")
    return loads_scenario(text, source=str(path))


def _fmt(value) -> str:
    # repr round-trips doubles exactly, which is what reload tests rely on
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps_scenario(scenario: Scenario) -> str:
    net = scenario.network
    out = io.StringIO()
    out.write("# energy-harvesting detection network scenario\n")
    out.write("[network]\n")
    for key in _NETWORK_REQUIRED + _NETWORK_OPTIONAL:
        out.write(f"{key} = {_fmt(getattr(net, key))}\n")
    for i, sensor in enumerate(scenario.sensors, start=1):
        out.write(f"\n[sensor.{i}]\n")
        out.write(f"mean_gain = {_fmt(sensor.mean_gain)}\n")
        out.write(f"noise_var = {_fmt(sensor.noise_var)}\n")
        if sensor.local_obs is not None:
            out.write(f"local_amplitude = {_fmt(sensor.local_obs.amplitude)}\n")
            out.write(f"local_noise_sigma = {_fmt(sensor.local_obs.noise_sigma)}\n")
            out.write(f"local_lrt_threshold = {_fmt(sensor.local_obs.threshold)}\n")
        else:
            out.write(f"p_f = {_fmt(sensor.p_f)}\n")
            out.write(f"p_d = {_fmt(sensor.p_d)}\n")
        out.write(f"outage_confidence = {_fmt(sensor.outage_confidence)}\n")
        edges = ", ".join(_fmt(t) for t in sensor.thresholds)
        out.write(f"thresholds = {edges}\n")
    return out.getvalue()


def emit_scenario(scenario: Scenario, path) -> None:
    """Write a scenario file that load_scenario reproduces bit-exactly."""
    Path(path).write_text(dumps_scenario(scenario), encoding="utf-8", newline="\n")


def convex_region_bounds(p_f: float) -> tuple[float, float]:
    """Band of detection probabilities where the divergence stays concave in power.

    For a false-alarm rate in (0, 1) the band is
        3/4 - p_f/2 -+ sqrt(1 + 12 p_f - 12 p_f^2) / 4.
    Outside it the optimizer's stationarity condition may have multiple roots.
    """
    _probability(p_f, "p_f")
    radical = math.sqrt(1.0 + 12.0 * p_f - 12.0 * p_f * p_f)
    center = 0.75 - 0.5 * p_f
    return center - 0.25 * radical, center + 0.25 * radical


def validate_convex_region(sensors) -> tuple[bool, ...]:
    """Per-sensor membership of (p_f, p_d) in the concavity band."""
    flags = []
    for s in sensors:
        lo, hi = convex_region_bounds(s.p_f)
        flags.append(bool(lo <= s.p_d <= hi and 0.0 < s.p_f < s.p_d < 1.0))
    return tuple(flags)
