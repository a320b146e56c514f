"""Slot-level Monte Carlo of the sensing, harvesting, and fusion pipeline.

Every random variable gets its own counter-seeded substream (one hypothesis
stream plus gain/decision/noise/energy per sensor), and every stream is drawn
exactly once per slot whether or not the value ends up used. That discipline
makes a run cut into consecutive `simulate_slots` calls (each continuing from
the last call's end batteries) produce the sample path of one whole-run call,
bit for bit, and keeps runs comparable across fusion or transmit variants.

The battery recursion is the one sequential step. It runs as a speculative
chunked walk: chunks of slots are guessed in numpy lockstep and then checked
in order, and any chunk that started from a wrong guess is repaired slot by
slot. The path is the same as a slot-by-slot loop would give.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .battery import quantize_gain
from .config import MonteCarloReport, PowerMap, Scenario

__all__ = [
    "SensorStreams",
    "Streams",
    "SimBatch",
    "make_streams",
    "simulate_slots",
    "fusion_llr",
    "calibrate_threshold",
    "run_monte_carlo",
]

# map_marginal fusion evaluates at most about this many elements per
# (merged components x slots) block of one level, so the block bounds the
# fusion's working memory independently of the run length. At 2^16 elements
# a block is 0.5 MB and stays in cache across its in-place passes. A block
# has at least two slots, because NumPy sums a one-column block along the
# components pairwise but a wider one row by row, and a slot's statistic
# must not depend on how the slots were blocked. For the same reason the
# block is built by einsum and not by `@`: BLAS may round an element
# differently depending on the block's width.
_FUSION_CHUNK = 1 << 16
# The battery walk guesses chunks of about sqrt(slots) slots, at most this
# many, in lockstep. sqrt balances the lockstep steps (one per slot of a
# chunk) against the sequential check (one per chunk); past the cap longer
# runs only widen each lockstep step, which costs less per slot.
_WALK_CHUNK = 192
# calibrate_threshold and run_monte_carlo simulate at most this many slots per
# call, so a long run costs more calls, not more memory.
_CALIBRATION_BLOCK = 1 << 18


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
class SimBatch:
    """Column-major record of many slots (sensor-major 2-D arrays).

    `null_outputs` is what each slot's outputs would have been under H0, from
    the same battery state, gain, decision uniform and noise: none of those
    depends on the slot's hypothesis, so every slot is a null sample. On the
    H0 slots it equals `outputs` bit for bit.
    """

    hypothesis: np.ndarray
    gains: np.ndarray
    levels: np.ndarray
    states: np.ndarray
    transmit: np.ndarray
    amplitudes: np.ndarray
    outputs: np.ndarray
    null_outputs: np.ndarray
    batteries: tuple[int, ...]      # end-of-batch, feeds the next batch


def _check_count(name: str, value, least: int) -> None:
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")


def _check_map(scenario: Scenario, power_map: PowerMap) -> None:
    """Raise ValueError unless the power map holds one (levels x K+1) table
    per sensor, in the network's energy units."""
    net = scenario.network
    for n, (sensor, table) in enumerate(zip(scenario.sensors, power_map.powers)):
        # with a table of another shape the walk's flat next-state table
        # would read a neighbouring row instead of failing
        shape = (sensor.level_count, net.capacity + 1)
        if table.shape != shape:
            raise ValueError(f"sensor {n}: the power map needs a {shape[0]} x {shape[1]} "
                             "(levels x battery states) table")
    if len(power_map.powers) != scenario.num_sensors:
        raise ValueError(f"the power map covers {len(power_map.powers)} sensors, "
                         f"the scenario has {scenario.num_sensors}")
    if (power_map.unit_energy, power_map.slot_seconds) != (net.unit_energy, net.slot_seconds):
        # its units would drain another number of the battery's units
        raise ValueError(f"the power map counts {power_map.unit_energy} J units over "
                         f"{power_map.slot_seconds} s slots, the network "
                         f"{net.unit_energy} J units over {net.slot_seconds} s slots")


def simulate_slots(scenario: Scenario, power_map: PowerMap, slots: int,
                   streams: Streams, batteries=None) -> SimBatch:
    """Run `slots` consecutive slots and record the full sample path.

    Draws, quantization, and channel outputs are vectorized; each sensor's
    battery recursion runs as a speculative chunked walk (`_walk`) with the
    same result as stepping it slot by slot. Batteries continue from
    `batteries`, one whole number of units in 0..capacity per sensor
    (default: full). `slots` = 0 returns them unchanged. The network's
    transmit_prob_model decides who transmits. Raises ValueError on a
    negative or non-integer `slots`, on streams or a power map for another
    sensor count, on a bad battery (naming the sensor), on power tables
    whose shape does not match the sensor, and on a map in other energy
    units.
    """
    net = scenario.network
    N = scenario.num_sensors
    K = net.capacity
    _check_count("slots", slots, 0)
    if len(streams.sensors) != N:
        raise ValueError(f"streams cover {len(streams.sensors)} sensors, the scenario has {N}")
    batteries = (K,) * N if batteries is None else tuple(batteries)
    if len(batteries) != N:
        why = (f"sensor {len(batteries)} has none" if len(batteries) < N
               else f"batteries[{N}] matches no sensor")
        raise ValueError(f"need one battery per sensor: got {len(batteries)} "
                         f"for {N} sensors; {why}")
    for n, b in enumerate(batteries):
        if not isinstance(b, numbers.Integral) or not 0 <= b <= K:
            raise ValueError(f"sensor {n}: battery must be a whole number of units "
                             f"in 0..{K}, got {b!r}")
    _check_map(scenario, power_map)
    batteries = tuple(int(b) for b in batteries)

    hyp = (streams.hypothesis.random(slots) < net.prior_h1).astype(np.int8)
    gains = np.empty((N, slots))
    levels = np.empty((N, slots), dtype=np.int64)
    states = np.empty((N, slots), dtype=np.int64)
    transmit = np.empty((N, slots), dtype=np.int8)
    amplitudes = np.empty((N, slots))
    outputs = np.empty((N, slots))
    null_outputs = np.empty((N, slots))
    end = []

    for n, (sensor, st) in enumerate(zip(scenario.sensors, streams.sensors)):
        g = st.gain.exponential(sensor.mean_gain, slots)
        dec = st.decision.random(slots)
        # normal(0, sigma) draws standard normals and scales them; doing the
        # scaling in place gives the same numbers bit for bit, with one array
        w = st.noise.standard_normal(slots)
        w *= math.sqrt(sensor.noise_var)
        en = st.energy.exponential(net.mean_harvest, slots)

        lv = quantize_gain(g, sensor.thresholds)
        # u0: whether the slot would transmit under H0
        if net.transmit_prob_model == "prior":
            u0 = 0
            u = hyp.astype(np.int8)
        else:
            u0 = dec < sensor.p_f
            u = np.where(hyp == 1, dec < sensor.p_d, u0).astype(np.int8)
        beta = np.ceil(en / net.unit_energy).astype(np.int64)

        end.append(_walk(power_map.units[n], (lv + 1) * u, beta, batteries[n], states[n]))

        p = power_map.powers[n][lv, states[n]]
        a = np.sqrt(g * p)
        gains[n] = g
        levels[n] = lv
        transmit[n] = u
        amplitudes[n] = a
        outputs[n] = a * u + w
        null_outputs[n] = a * u0 + w

    return SimBatch(
        hypothesis=hyp,
        gains=gains,
        levels=levels,
        states=states,
        transmit=transmit,
        amplitudes=amplitudes,
        outputs=outputs,
        null_outputs=null_outputs,
        batteries=tuple(end),
    )


def _walk(units: np.ndarray, codes: np.ndarray, harvest: np.ndarray, start: int,
          out: np.ndarray) -> int:
    """One sensor's battery path: writes the start-of-slot states to `out`.

    Slot t drains units[level][b] from battery b when it transmits, which
    codes[t] = level + 1 says (0: silent), then banks harvest[t] units up to
    the capacity K. Returns the battery after the last slot.

    The path from a known state is fixed, and two paths that reach one state
    agree from then on; paths from different states meet at the clamp or
    after a drain (the coupling of Propp & Wilson 1996). So the slots are cut
    into chunks and guessed in parallel, then checked in order:

    1. Every chunk walks in numpy lockstep, chunk 0 from `start` and every
       other chunk from a full battery.
    2. The chunks whose guessed start missed the end step 1 gave the chunk
       before them walk again from that end.
    3. A Python loop over the chunk boundaries carries the true battery.
       Where it differs from a chunk's start, the chunk is walked slot by slot
       until it meets its guessed path, or to its end.

    Correctness rests on step 3 alone. Steps 1 and 2 only make it rare that
    it has to walk a slot, and if no paths meet it walks every slot once.
    """
    T = codes.size
    if T == 0:
        return start
    K = units.shape[1] - 1
    width = K + 1
    S = min(_WALK_CHUNK, math.isqrt(T))
    C = -(-T // S)
    # table[c * width + b] is battery b after the drain of code c
    table = np.concatenate((np.arange(width), (np.arange(width) - units).ravel()))
    offsets = _slot_major(codes * width, S, C)
    banked = _slot_major(harvest, S, C)
    guess = np.full(C, K, dtype=np.int64)
    guess[0] = start
    path = _lockstep(table, offsets, banked, guess, K)
    redo = np.flatnonzero(path[0, 1:] != path[S, :-1]) + 1
    if redo.size:
        path[:, redo] = _lockstep(table, offsets[:, redo], banked[:, redo],
                                  path[S, redo - 1], K)
    starts, ends = path[0].tolist(), path[S].tolist()
    steps = table.tolist()
    b = ends[0]
    for c in range(1, C):
        if b == starts[c]:
            b = ends[c]
        else:
            b = _rejoin(steps, offsets[:, c].tolist(), banked[:, c].tolist(), path[:, c], b, K)
    out[:] = path[:S].T.reshape(-1)[:T]
    return b


def _slot_major(values: np.ndarray, S: int, C: int) -> np.ndarray:
    """`values` cut into C chunks of S slots, as an (S, C) array: row s holds
    slot s of every chunk, so a lockstep step reads one contiguous row. The
    last chunk is padded with zeros, a silent slot that banks nothing."""
    out = np.zeros((S, C), dtype=np.int64)
    full = values.size // S
    out[:, :full] = values[:full * S].reshape(full, S).T
    if full < C:
        out[:values.size - full * S, full] = values[full * S:]
    return out


def _lockstep(table: np.ndarray, offsets: np.ndarray, banked: np.ndarray,
              starts: np.ndarray, K: int) -> np.ndarray:
    """Walk every column of the (S, C) slot arrays at once from `starts`.

    Returns the (S + 1, C) states: row s is the state before slot s of each
    chunk, row S the state after its last slot.
    """
    S = offsets.shape[0]
    path = np.empty((S + 1, starts.size), dtype=np.int64)
    path[0] = starts
    index = np.empty(starts.size, dtype=np.intp)
    for s in range(S):
        np.add(offsets[s], path[s], out=index)
        after = path[s + 1]
        # every index is a code row plus a state in 0..K, so none is clipped
        table.take(index, out=after, mode="clip")
        after += banked[s]
        np.minimum(after, K, out=after)
    return path


def _rejoin(steps: list, offsets: list, banked: list, path: np.ndarray, b: int, K: int) -> int:
    """Walk one chunk from its true start `b` on Python ints.

    Overwrites the chunk's guessed `path` (S + 1 states, the last its end)
    until the true state meets it; from there the guess is the true path.
    Returns the chunk's true end.
    """
    guess = path.tolist()
    fixed = []
    for s, (offset, bank) in enumerate(zip(offsets, banked)):
        if b == guess[s]:
            path[:s] = fixed
            return guess[-1]
        fixed.append(b)
        b = steps[offset + b] + bank
        if b > K:
            b = K
    fixed.append(b)
    path[:] = fixed
    return b


def _binary_llr(d: np.ndarray, p_f: float, p_d: float) -> np.ndarray:
    """Log-likelihood ratio of the two-point mixtures over "spoke" vs "stayed
    silent", log((p_d e^d + 1 - p_d) / (p_f e^d + 1 - p_f)), where d is the
    log-likelihood ratio of an output that was sent against silence.

    Numerator and denominator are both divided by e^max(d, 0), so each is a
    sum of two nonnegative terms that cannot overflow or cancel, whatever d
    and however close p_f and p_d lie to 0 or 1. At d = 0 both are
    p + (1 - p), which rounds to exactly 1, so the statistic is exactly 0.
    """
    u = np.exp(np.minimum(d, 0.0))
    v = np.exp(-np.maximum(d, 0.0))
    ratio = p_d * u + (1.0 - p_d) * v
    ratio /= p_f * u + (1.0 - p_f) * v
    return np.log(ratio, out=ratio)


def _merged_components(table: np.ndarray, psi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level, the distinct powers of `table` and the psi mass that uses each.

    States that spend the same power at a level are one component of the
    battery mixture, so their masses add. States with psi = 0 contribute no
    component. Returns one (powers, masses) pair per level; each level's
    masses sum to psi.sum().
    """
    live = psi > 0.0
    mass = psi[live]
    components = []
    for row in table:
        powers, which = np.unique(row[live], return_inverse=True)
        components.append((powers, np.bincount(which, weights=mass, minlength=powers.size)))
    return components


def _check_marginal_inputs(scenario: Scenario, power_map: PowerMap | None, psis) -> None:
    """Raise ValueError unless map_marginal fusion has a power map that
    simulate_slots would take and one psi per sensor that covers the map's
    battery states; a no-op for genie fusion, which needs neither."""
    if scenario.network.fc_knowledge != "map_marginal":
        return
    if power_map is None or psis is None:
        raise ValueError("map_marginal fusion needs power_map and psis")
    _check_map(scenario, power_map)
    N = scenario.num_sensors
    if len(psis) != N:
        why = f"sensor {len(psis)} has none" if len(psis) < N else f"psis[{N}] matches no sensor"
        raise ValueError(f"map_marginal fusion needs one psi per sensor: got {len(psis)} "
                         f"for {N} sensors; {why}")
    for n, (table, dist) in enumerate(zip(power_map.powers, psis)):
        if dist.psi.size != table.shape[1]:
            raise ValueError(f"sensor {n}: psi covers {dist.psi.size} battery states, "
                             f"but the power map has {table.shape[1]} (K+1)")


def fusion_llr(batch: SimBatch, scenario: Scenario, power_map: PowerMap | None = None,
               psis=None) -> np.ndarray:
    """Per-slot fusion statistic, summed over sensors.

    The network's fc_knowledge picks the statistic. genie: the center knows
    each sensor's would-use amplitude, battery state included. map_marginal:
    the center knows the map and the gain but not the battery, so the signal
    hypothesis is a mixture over the stationary distributions `psis`, one per
    sensor. Battery states that spend the same power at a level form one
    component of that mixture, so the cost grows with the number of distinct
    powers per level, not with the capacity.

    Against silence, component c (power p_c, normalised mass m_c) of a slot
    with output y and gain g has the log-likelihood
    log m_c - inv (y - sqrt(g p_c))^2 + inv y^2, inv = 1 / (2 sigma^2). The
    y^2 terms cancel exactly, leaving the linear form
    c0_c + c1_c (y sqrt(g)) + c2_c g with c0 = log m_c,
    c1 = 2 inv sqrt(p_c) and c2 = -inv p_c, so the sent-vs-silent
    log-likelihood ratio d is a log-sum-exp of it over the components, with
    no large terms to cancel. A level's (components x slots) block of linear
    forms is one einsum over at most about `_FUSION_CHUNK` elements; max,
    subtract, exp and sum then run in place. The cost is about five passes
    per (slot, component) element plus a few per slot. It is einsum and not
    `@`, and a block never has one slot, so that a slot's statistic does not
    depend on how the slots were blocked (see `_FUSION_CHUNK`).
    """
    slots = batch.hypothesis.size
    total = np.zeros(slots)
    if scenario.network.fc_knowledge == "genie":
        for n, sensor in enumerate(scenario.sensors):
            y = batch.outputs[n]
            a = batch.amplitudes[n]
            # (y^2 - (y - a)^2) / (2 sigma^2), exactly 0 where a is
            d = (2.0 * y - a) * a * (1.0 / (2.0 * sensor.noise_var))
            total += _binary_llr(d, sensor.p_f, sensor.p_d)
        return total

    _check_marginal_inputs(scenario, power_map, psis)
    for n, sensor in enumerate(scenario.sensors):
        table = power_map.powers[n]
        levels = batch.levels[n]
        # every slot must fall in one level's group below, or its statistic is never set
        if slots and not 0 <= levels.min() <= levels.max() < table.shape[0]:
            raise ValueError(f"sensor {n}: batch levels must lie in 0..{table.shape[0] - 1}, "
                             "the power map's levels")
        inv = 1.0 / (2.0 * sensor.noise_var)
        # each slot's inputs to the linear forms: 1, y sqrt(g), g
        x = np.empty((3, slots))
        x[0] = 1.0
        np.sqrt(batch.gains[n], out=x[1])
        x[1] *= batch.outputs[n]
        x[2] = batch.gains[n]
        d = np.empty(slots)
        for level, (powers, masses) in enumerate(_merged_components(table, psis[n].psi)):
            # normalised per level, so a lone component has log-mass exactly 0
            # even where psi's float sum is not exactly 1
            coef = np.stack([np.log(masses / masses.sum()), 2.0 * inv * np.sqrt(powers),
                             -inv * powers], axis=1)
            width = max(2, _FUSION_CHUNK // powers.size)
            where = np.flatnonzero(levels == level)
            for start in range(0, where.size, width):
                idx = where[start:start + width]
                if idx.size == 1:
                    idx = idx.repeat(2)  # never a one-column block, see _FUSION_CHUNK
                # take, not x[:, idx]: that gather comes out column-major, and
                # einsum over it runs about five times slower
                z = np.einsum("ck,kn->cn", coef, x.take(idx, axis=1))
                peak = z.max(axis=0)
                z -= peak
                np.exp(z, out=z)
                d[idx] = np.log(z.sum(axis=0)) + peak
        total += _binary_llr(d, sensor.p_f, sensor.p_d)
    return total


def _blocks(scenario: Scenario, power_map: PowerMap, slots: int, seed: int,
            warmup: int | None):
    """The `slots` slots after `warmup` slots (default 10x capacity) from full
    batteries, as consecutive batches of at most `_CALIBRATION_BLOCK` slots."""
    warmup = 10 * scenario.network.capacity if warmup is None else warmup
    _check_count("warmup", warmup, 0)
    streams = make_streams(seed, scenario.num_sensors)
    batteries = None
    if warmup > 0:
        batteries = simulate_slots(scenario, power_map, warmup, streams).batteries
    for start in range(0, slots, _CALIBRATION_BLOCK):
        batch = simulate_slots(scenario, power_map, min(_CALIBRATION_BLOCK, slots - start),
                               streams, batteries=batteries)
        batteries = batch.batteries
        yield batch


def calibrate_threshold(scenario: Scenario, power_map: PowerMap, target_pf: float,
                        samples: int, seed: int, warmup: int | None = None,
                        psis=None) -> tuple[float, float]:
    """Pick the fusion threshold hitting a false-alarm target.

    Simulates `samples` slots of the normally mixed chain after the warm-up
    and scores every one of them as a null sample: the fusion statistic of
    the slot's `null_outputs`, the output it would have had under H0. The
    battery state, gain, decision uniform and noise of a slot do not depend
    on its hypothesis, so each slot samples the null law at the stationary
    battery state whichever hypothesis held (conditional Monte Carlo), and
    the cost does not depend on prior_h0. Adjacent slots share a battery
    state, so the samples are correlated, not independent.

    The threshold is the conservative empirical quantile: deciding on
    strictly greater keeps the false-alarm estimate at or below target_pf.
    Where the statistic has an atom (the genie statistic is exactly 0 on
    every slot where no sensor would spend power) and the quantile falls on
    it, the whole atom stays below the threshold, so the achieved rate can
    fall well below target_pf.

    Returns (threshold, in-sample false-alarm rate at that threshold).
    Raises ValueError, before simulating anything, on a `target_pf` outside
    (0, 1), a `samples` that is not a whole number >= 1, a `warmup` that is
    not a whole number >= 0, or map_marginal fusion without one fitting psi
    per sensor.
    """
    if not 0.0 < target_pf < 1.0:
        raise ValueError("target_pf must lie in (0, 1)")
    _check_count("samples", samples, 1)
    _check_marginal_inputs(scenario, power_map, psis)
    null_llr = np.concatenate([
        fusion_llr(replace(batch, outputs=batch.null_outputs), scenario, power_map, psis=psis)
        for batch in _blocks(scenario, power_map, samples, seed, warmup)])
    threshold = float(np.quantile(null_llr, 1.0 - target_pf, method="higher"))
    achieved = float(np.mean(null_llr > threshold))
    return threshold, achieved


def run_monte_carlo(scenario: Scenario, power_map: PowerMap, threshold: float,
                    slots: int, seed: int, warmup: int | None = None,
                    psis=None) -> MonteCarloReport:
    """Measure fusion-level detection and false-alarm rates plus occupancy.

    Warm-up slots (default 10x capacity) burn in the batteries and are
    excluded from every estimate. Confidence intervals are 95% binomial
    half-widths on the respective conditional sample counts; a hypothesis
    that held in no measured slot gets rate 0 and half-width inf. The run is
    simulated in blocks of at most `_CALIBRATION_BLOCK` slots and only counts
    are kept, so memory does not grow with `slots`. Raises ValueError, before
    simulating anything, on a `slots` that is not a whole number >= 1, a
    `warmup` that is not a whole number >= 0, or map_marginal fusion without
    one fitting psi per sensor.
    """
    _check_count("slots", slots, 1)
    _check_marginal_inputs(scenario, power_map, psis)
    net = scenario.network
    n1 = hits1 = hits0 = 0
    counts = np.zeros((scenario.num_sensors, net.capacity + 1), dtype=np.int64)
    for batch in _blocks(scenario, power_map, slots, seed, warmup):
        decide = fusion_llr(batch, scenario, power_map, psis=psis) > threshold
        h1 = batch.hypothesis == 1
        n1 += int(np.count_nonzero(h1))
        hits1 += int(np.count_nonzero(decide & h1))
        hits0 += int(np.count_nonzero(decide & ~h1))
        for n, states in enumerate(batch.states):
            counts[n] += np.bincount(states, minlength=net.capacity + 1)

    n0 = slots - n1
    pd = hits1 / n1 if n1 else 0.0
    pf = hits0 / n0 if n0 else 0.0
    ci_pd = 1.96 * math.sqrt(pd * (1.0 - pd) / n1) if n1 else math.inf
    ci_pf = 1.96 * math.sqrt(pf * (1.0 - pf) / n0) if n0 else math.inf
    return MonteCarloReport(
        pd_fc=pd, pf_fc=pf, ci_pd=ci_pd, ci_pf=ci_pf,
        empirical_psi=tuple(counts / slots), threshold=threshold, samples=slots, seed=seed,
    )
