"""Slot-level Monte Carlo of the sensing, harvesting, and fusion pipeline.

Every random variable gets its own counter-seeded substream (one hypothesis
stream plus gain/decision/noise/energy per sensor), and every stream is drawn
exactly once per slot whether or not the value ends up used. That discipline
makes single-slot stepping and whole-batch simulation produce bit-identical
sample paths, and keeps runs comparable across fusion or transmit variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .battery import quantize_gain
from .config import MonteCarloReport, PowerMap, Scenario

__all__ = [
    "SensorStreams",
    "Streams",
    "EpisodeState",
    "SlotRecord",
    "SimBatch",
    "make_streams",
    "initial_state",
    "step_episode",
    "simulate_slots",
    "fusion_llr",
    "calibrate_threshold",
    "run_monte_carlo",
]


@dataclass(frozen=True)
class SensorStreams:
    gain: np.random.Generator
    decision: np.random.Generator
    noise: np.random.Generator
    energy: np.random.Generator


@dataclass(frozen=True)
class Streams:
    hypothesis: np.random.Generator
    sensors: tuple[SensorStreams, ...]


def make_streams(seed: int, num_sensors: int) -> Streams:
    """Independent substreams from one master seed.

    The spawn tree is part of the file-format contract: child 0 drives the
    hypothesis, child 1 + n spawns the four per-sensor streams in the order
    gain, decision, noise, energy.
    """
    children = np.random.SeedSequence(seed).spawn(num_sensors + 1)
    sensors = []
    for n in range(num_sensors):
        g, d, w, e = children[1 + n].spawn(4)
        sensors.append(SensorStreams(
            gain=np.random.default_rng(g),
            decision=np.random.default_rng(d),
            noise=np.random.default_rng(w),
            energy=np.random.default_rng(e),
        ))
    return Streams(hypothesis=np.random.default_rng(children[0]),
                   sensors=tuple(sensors))


@dataclass(frozen=True)
class EpisodeState:
    """Start-of-slot batteries, in whole units."""

    batteries: tuple[int, ...]
    slot: int = 0


def initial_state(scenario: Scenario) -> EpisodeState:
    return EpisodeState(
        batteries=tuple(scenario.network.capacity for _ in scenario.sensors),
        slot=0,
    )


@dataclass(frozen=True)
class SlotRecord:
    """Everything observable about one slot, per sensor where applicable."""

    hypothesis: int
    gains: tuple[float, ...]
    levels: tuple[int, ...]
    states: tuple[int, ...]
    transmit: tuple[int, ...]
    amplitudes: tuple[float, ...]   # would-use amplitude sqrt(gain * power)
    outputs: tuple[float, ...]


@dataclass(frozen=True)
class SimBatch:
    """Column-major record of many slots (sensor-major 2-D arrays)."""

    hypothesis: np.ndarray
    gains: np.ndarray
    levels: np.ndarray
    states: np.ndarray
    transmit: np.ndarray
    amplitudes: np.ndarray
    outputs: np.ndarray
    batteries: tuple[int, ...]      # end-of-batch, feeds the next batch


def simulate_slots(scenario: Scenario, power_map: PowerMap, slots: int,
                   streams: Streams, batteries=None) -> SimBatch:
    """Run `slots` consecutive slots and record the full sample path.

    The only sequential part is the battery recursion; draws, quantization,
    and channel outputs are vectorized. Batteries continue from `batteries`
    (default: full). The network's transmit_prob_model decides who transmits.
    """
    net = scenario.network
    N = scenario.num_sensors
    K = net.capacity
    if batteries is None:
        batteries = tuple(K for _ in range(N))

    hyp = (streams.hypothesis.random(slots) < net.prior_h1).astype(np.int8)
    gains = np.empty((N, slots))
    levels = np.empty((N, slots), dtype=np.int64)
    states = np.empty((N, slots), dtype=np.int64)
    transmit = np.empty((N, slots), dtype=np.int8)
    amplitudes = np.empty((N, slots))
    outputs = np.empty((N, slots))
    end = []

    for n, (sensor, st) in enumerate(zip(scenario.sensors, streams.sensors)):
        g = st.gain.exponential(sensor.mean_gain, slots)
        dec = st.decision.random(slots)
        w = st.noise.normal(0.0, math.sqrt(sensor.noise_var), slots)
        en = st.energy.exponential(net.mean_harvest, slots)

        lv = quantize_gain(g, sensor.thresholds)
        if net.transmit_prob_model == "prior":
            u = hyp.astype(np.int8)
        else:
            u = np.where(hyp == 1, dec < sensor.p_d, dec < sensor.p_f).astype(np.int8)
        beta = np.ceil(en / net.unit_energy).astype(np.int64)

        # sequential battery walk over plain Python ints
        alpha_rows = [row.tolist() for row in power_map.units[n]]
        lv_list = lv.tolist()
        u_list = u.tolist()
        beta_list = beta.tolist()
        b = int(batteries[n])
        out_states = states[n]
        for t in range(slots):
            out_states[t] = b
            if u_list[t]:
                b -= alpha_rows[lv_list[t]][b]
            b += beta_list[t]
            if b > K:
                b = K
        end.append(b)

        p = power_map.powers[n][lv, out_states]
        a = np.sqrt(g * p)
        gains[n] = g
        levels[n] = lv
        transmit[n] = u
        amplitudes[n] = a
        outputs[n] = a * u + w

    return SimBatch(
        hypothesis=hyp,
        gains=gains,
        levels=levels,
        states=states,
        transmit=transmit,
        amplitudes=amplitudes,
        outputs=outputs,
        batteries=tuple(end),
    )


def step_episode(scenario: Scenario, power_map: PowerMap, state: EpisodeState,
                 streams: Streams) -> tuple[SlotRecord, EpisodeState]:
    """Advance one slot; draw-for-draw identical to simulate_slots.

    Each substream is private to one variable, so consuming one value per
    stream here lines up exactly with the batched draws.
    """
    batch = simulate_slots(scenario, power_map, 1, streams, batteries=state.batteries)
    record = SlotRecord(
        hypothesis=int(batch.hypothesis[0]),
        gains=tuple(float(x) for x in batch.gains[:, 0]),
        levels=tuple(int(x) for x in batch.levels[:, 0]),
        states=tuple(int(x) for x in batch.states[:, 0]),
        transmit=tuple(int(x) for x in batch.transmit[:, 0]),
        amplitudes=tuple(float(x) for x in batch.amplitudes[:, 0]),
        outputs=tuple(float(x) for x in batch.outputs[:, 0]),
    )
    return record, EpisodeState(batteries=batch.batteries, slot=state.slot + 1)


def _binary_llr(t_sig: np.ndarray, t0: np.ndarray, p_f: float, p_d: float) -> np.ndarray:
    # log-likelihood ratio of a two-point mixture over "spoke" vs "stayed silent"
    num = np.logaddexp(math.log(p_d) + t_sig, math.log1p(-p_d) + t0)
    den = np.logaddexp(math.log(p_f) + t_sig, math.log1p(-p_f) + t0)
    return num - den


def fusion_llr(batch: SimBatch, scenario: Scenario, power_map: PowerMap | None = None,
               psis=None, chunk: int = 65_536) -> np.ndarray:
    """Per-slot fusion statistic, summed over sensors.

    The network's fc_knowledge picks the statistic. genie: the center knows
    each sensor's would-use amplitude, battery state included. map_marginal:
    the center knows the map and the gain but not the battery, so the signal
    hypothesis is a mixture over the stationary distributions `psis`.
    """
    slots = batch.hypothesis.size
    total = np.zeros(slots)
    if scenario.network.fc_knowledge == "genie":
        for n, sensor in enumerate(scenario.sensors):
            y = batch.outputs[n]
            a = batch.amplitudes[n]
            inv = 1.0 / (2.0 * sensor.noise_var)
            t_sig = -(y - a) ** 2 * inv
            t0 = -(y ** 2) * inv
            total += _binary_llr(t_sig, t0, sensor.p_f, sensor.p_d)
        return total

    if power_map is None or psis is None:
        raise ValueError("map_marginal fusion needs power_map and psis")
    for n, sensor in enumerate(scenario.sensors):
        table = power_map.powers[n]
        log_psi = np.full(psis[n].psi.size, -np.inf)
        pos = psis[n].psi > 0.0
        log_psi[pos] = np.log(psis[n].psi[pos])
        inv = 1.0 / (2.0 * sensor.noise_var)
        for start in range(0, slots, chunk):
            sl = slice(start, min(start + chunk, slots))
            y = batch.outputs[n][sl]
            amp = np.sqrt(batch.gains[n][sl, None] * table[batch.levels[n][sl]])
            t_sig = logsumexp(log_psi[None, :] - (y[:, None] - amp) ** 2 * inv, axis=1)
            t0 = -(y ** 2) * inv
            total[sl] += _binary_llr(t_sig, t0, sensor.p_f, sensor.p_d)
    return total


def calibrate_threshold(scenario: Scenario, power_map: PowerMap, target_pf: float,
                        samples: int, seed: int, warmup: int | None = None,
                        psis=None) -> tuple[float, float]:
    """Pick the fusion threshold hitting a false-alarm target.

    Runs the normally mixed chain and collects the statistic on the slots
    where the null actually held (the hypothesis draw is independent of the
    battery past, so those slots sample the unbiased battery state). The
    threshold is the conservative empirical quantile: deciding on strictly
    greater keeps the false-alarm estimate at or below target_pf.

    Returns (threshold, in-sample false-alarm rate at that threshold).
    """
    if not 0.0 < target_pf < 1.0:
        raise ValueError("target_pf must lie in (0, 1)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    net = scenario.network
    streams = make_streams(seed, scenario.num_sensors)
    warmup = 10 * net.capacity if warmup is None else warmup
    batteries = None
    if warmup > 0:
        batteries = simulate_slots(scenario, power_map, warmup, streams).batteries

    collected: list[np.ndarray] = []
    have = 0
    block = int(samples / max(net.prior_h0, 1e-6) * 1.05) + 1024
    while have < samples:
        batch = simulate_slots(scenario, power_map, block, streams, batteries=batteries)
        batteries = batch.batteries
        llr = fusion_llr(batch, scenario, power_map, psis=psis)
        null = llr[batch.hypothesis == 0]
        collected.append(null)
        have += null.size
        block = max(4096, int((samples - have) / max(net.prior_h0, 1e-6) * 1.1) + 256)
    null_llr = np.concatenate(collected)[:samples]
    threshold = float(np.quantile(null_llr, 1.0 - target_pf, method="higher"))
    achieved = float(np.mean(null_llr > threshold))
    return threshold, achieved


def run_monte_carlo(scenario: Scenario, power_map: PowerMap, threshold: float,
                    slots: int, seed: int, warmup: int | None = None,
                    psis=None) -> MonteCarloReport:
    """Measure fusion-level detection and false-alarm rates plus occupancy.

    Warm-up slots (default 10x capacity) burn in the batteries and are
    excluded from every estimate. Confidence intervals are 95% binomial
    half-widths on the respective conditional sample counts.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    net = scenario.network
    streams = make_streams(seed, scenario.num_sensors)
    warmup = 10 * net.capacity if warmup is None else warmup
    batteries = None
    if warmup > 0:
        batteries = simulate_slots(scenario, power_map, warmup, streams).batteries
    batch = simulate_slots(scenario, power_map, slots, streams, batteries=batteries)
    llr = fusion_llr(batch, scenario, power_map, psis=psis)
    decide = llr > threshold

    h1 = batch.hypothesis == 1
    n1 = int(np.count_nonzero(h1))
    n0 = slots - n1
    pd = float(np.mean(decide[h1])) if n1 else 0.0
    pf = float(np.mean(decide[~h1])) if n0 else 0.0
    ci_pd = 1.96 * math.sqrt(pd * (1.0 - pd) / n1) if n1 else math.inf
    ci_pf = 1.96 * math.sqrt(pf * (1.0 - pf) / n0) if n0 else math.inf
    psi_hat = tuple(
        np.bincount(batch.states[n], minlength=net.capacity + 1) / slots
        for n in range(scenario.num_sensors)
    )
    return MonteCarloReport(
        pd_fc=pd, pf_fc=pf, ci_pd=ci_pd, ci_pf=ci_pf,
        empirical_psi=psi_hat, threshold=threshold, samples=slots, seed=seed,
    )
