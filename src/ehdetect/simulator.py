"""Slot-level Monte Carlo of the sensing, harvesting, and fusion pipeline.

Every random variable gets its own counter-seeded substream (one hypothesis
stream plus gain/decision/noise/energy per sensor), and every stream is drawn
exactly once per slot whether or not the value ends up used. That discipline
makes a run cut into consecutive `simulate_slots` calls (each continuing from
the last call's end batteries) produce the sample path of one whole-run call,
bit for bit, and keeps runs comparable across fusion or transmit variants.

The battery recursion is the one sequential step. It runs as a speculative
chunked walk: chunks of slots of every sensor are guessed together in one
numpy lockstep and then checked in order, and any chunk that started from a
wrong guess is repaired slot by slot. Each guess first walks a short lead-in
of the slots before its chunk, so it is rarely wrong. A lockstep step is one
add and one take: the drain table takes the clamp to the capacity, and each
slot's offset into it carries the harvest banked in the slot before. The
path is the same as a slot-by-slot loop would give.

Calibration and measurement, warm-up included, simulate in blocks small
enough that a block's arrays stay in cache, so a long run costs more blocks,
not more memory. One block loop (`_blocks`) simulates and fuses every block
of a call, and builds once per call what a block needs but does not return:
the walk's drain table and buffers (`_WalkPlan`, sized from the longest
block alone), what fusion needs of the power map and psi, and the one
buffer that map_marginal fusion writes each block's linear forms into (one
gemm with at least two rows and two columns per block). Each batch gets
fresh rows, and a call drops one before it simulates the next. So after its
first blocks a call's block loop writes only memory that the allocator
already holds, and takes no page faults. When a call ends, the allocator
may still hand its memory back to the kernel (glibc trims the top of its
heap once the free memory there passes a threshold), and the next call then
faults it in again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .battery import _transmit_rates, quantize_gain
from .config import (MonteCarloReport, PowerMap, Scenario, _fits_each_sensor, _is_whole,
                     _one_per_sensor)

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
# a block is 0.5 MB and stays in cache across its in-place passes; one buffer
# of that size per call holds every block. A block has at least two slots,
# because NumPy sums a one-column block along the components pairwise but a
# wider one row by row, and a slot's statistic must not depend on how the
# slots were blocked. For the same reason the block is one gemm with at
# least two rows and two columns: NumPy sends a one-row product to gemv,
# which rounds an element differently depending on the block's width, so a
# one-component level carries a second row of zeros.
_FUSION_CHUNK = 1 << 16
# Each guessed chunk of the walk first walks this many slots before it from a
# full battery, so a drain or the clamp in them has usually coupled its guess
# to the true path before the chunk starts. On the benchmark's two maps, 32
# slots left no chunk of twelve 2^13-slot blocks to repair; 16 left the
# 70 W map 1-4 chunks in 8 of the 12 blocks.
_LEAD = 32
# calibrate_threshold and run_monte_carlo simulate at most this many slots per
# call, warm-up included, so a long run costs more calls, not more memory. A
# block of two sensors holds about 0.8 MB of batch rows and its walk 0.5 MB
# of buffers: reused heap memory, not fresh pages the kernel maps on first
# touch, as at 2^18 slots (about 27 MB per 100k-slot call). On a 2-vCPU
# Xeon, 2^13 ran the benchmark's Monte Carlo points fastest of 2^12..2^16;
# below it the walk's per-block steps cost more than they save.
_CALIBRATION_BLOCK = 1 << 13


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
    if not _is_whole(value) or value < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")


def _check_map(scenario: Scenario, power_map: PowerMap) -> None:
    """Raise ValueError unless the power map holds one (levels x K+1) table
    per sensor, in the network's energy units."""
    net = scenario.network
    _fits_each_sensor(scenario, power_map.powers, "power map")
    _one_per_sensor(scenario, power_map.powers, "power table", "power_map.powers")
    if (power_map.unit_energy, power_map.slot_seconds) != (net.unit_energy, net.slot_seconds):
        # its units would drain another number of the battery's units
        raise ValueError(f"the power map counts {power_map.unit_energy} J units over "
                         f"{power_map.slot_seconds} s slots, the network "
                         f"{net.unit_energy} J units over {net.slot_seconds} s slots")


def simulate_slots(scenario: Scenario, power_map: PowerMap, slots: int,
                   streams: Streams, batteries=None, *, _plan: _WalkPlan | None = None
                   ) -> SimBatch:
    """Run `slots` consecutive slots and record the full sample path.

    Draws, quantization, and channel outputs are vectorized and written in
    place into the batch's rows; the sensors' battery recursions run together
    as one speculative chunked walk (`_walk`) with the same result as
    stepping each slot by slot. Batteries continue from
    `batteries`, one whole number of units in 0..capacity per sensor
    (default: full). `slots` = 0 returns them unchanged. A slot transmits
    when its decision draw falls below its hypothesis's rate, one of the two
    the chain's transmit_probability weighs (0 and 1 under ``prior``). Raises
    ValueError on a negative, non-integer or bool `slots`, on streams,
    batteries or power tables for another sensor count, on a bad battery
    (naming the sensor), on power tables whose shape does not match the
    sensor, and on a map in other energy units. `_plan` is private: a block
    loop passes the `_WalkPlan` of this map that all its blocks share.
    """
    net = scenario.network
    N = scenario.num_sensors
    K = net.capacity
    _check_count("slots", slots, 0)
    _one_per_sensor(scenario, streams.sensors, "stream set", "streams.sensors")
    batteries = (K,) * N if batteries is None else tuple(batteries)
    _one_per_sensor(scenario, batteries, "battery", "batteries")
    for n, b in enumerate(batteries):
        if not _is_whole(b) or not 0 <= b <= K:
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
    # the walk reads its slot codes from the rows of `states`, which it
    # overwrites with the path, and its harvests from the rows of
    # `amplitudes`, which are filled after it
    codes = states
    harvest = amplitudes
    scratch = np.empty(slots)
    transmit_h0 = np.empty((N, slots), dtype=bool)  # whether each slot would transmit under H0

    for n, (sensor, st) in enumerate(zip(scenario.sensors, streams.sensors)):
        # exponential(scale) draws scale * standard_exponential and
        # normal(0, sigma) sigma * standard_normal; scaling the standard draws
        # in place gives the same numbers bit for bit
        g = st.gain.standard_exponential(out=gains[n])
        g *= sensor.mean_gain
        w = st.noise.standard_normal(out=null_outputs[n])  # the noise, until the outputs
        w *= math.sqrt(sensor.noise_var)
        en = st.energy.standard_exponential(out=scratch)
        en *= net.mean_harvest
        en /= net.unit_energy
        np.ceil(en, out=harvest[n])
        dec = st.decision.random(out=scratch)

        levels[n] = quantize_gain(g, sensor.thresholds)
        rate_h0, rate_h1 = _transmit_rates(net, sensor)
        u = np.less(dec, rate_h1, out=transmit[n].view(bool))
        u &= hyp.view(bool)  # rate_h0 <= rate_h1, so dec < the slot's rate is H1 & u1 | u0
        u |= np.less(dec, rate_h0, out=transmit_h0[n])
        np.add(levels[n], 1, out=codes[n])
        codes[n] *= transmit[n]

    if _plan is None:
        _plan = _WalkPlan(power_map.units, slots)
    end = _walk(_plan, codes, harvest, batteries, states)

    for n in range(N):
        a, w = amplitudes[n], null_outputs[n]
        # each slot's power, gathered from the flat table at level * (K + 1) + state
        flat = levels[n] * (K + 1)
        flat += states[n]
        np.multiply(gains[n], power_map.powers[n].take(flat), out=a)
        np.sqrt(a, out=a)
        # outputs a * u + w, then null_outputs a * u0 + w in place of w
        np.multiply(a, transmit[n], out=outputs[n])
        outputs[n] += w
        w += np.multiply(a, transmit_h0[n], out=scratch)

    return SimBatch(
        hypothesis=hyp,
        gains=gains,
        levels=levels,
        states=states,
        transmit=transmit,
        amplitudes=amplitudes,
        outputs=outputs,
        null_outputs=null_outputs,
        batteries=end,
    )


class _WalkPlan:
    """The drain table and working buffers of the battery walk (`_walk`).

    `table[base[n] + c * width + x]` is sensor n's battery min(x, K) after
    the drain of code c, with width = 2K + 1. The lane, path and index
    buffers hold any walk of at most `most` slots: a T-slot walk has chunks
    of S = isqrt(T) slots and lead + S + 1 rows, and as T < (S + 1)^2, at
    most S + 2 of them, while S never falls as T grows. A walk uses views of
    the buffers' fronts and rewrites every cell it reads. `_blocks` builds
    one plan per Monte Carlo call, and every block walks in it, into pages
    the blocks before it touched; a direct `simulate_slots` builds its own.
    A plan lives no longer than its call, so it holds no memory between
    calls and reads `_LEAD` as it stands when the call starts.
    """

    def __init__(self, units, most: int):
        N = len(units)
        K = units[0].shape[1] - 1
        self.K, self.width, self.lead = K, 2 * K + 1, _LEAD
        clamp = np.minimum(np.arange(self.width), K)
        tables = [np.concatenate((clamp, (clamp - u[:, clamp]).ravel())) for u in units]
        self.base = np.cumsum([0] + [t.size for t in tables[:-1]])
        self.table = np.concatenate(tables)
        S = math.isqrt(most)
        cols = N * (S + 2)
        self.lanes = np.empty(2 * (min(self.lead, S) + S + 1) * cols, dtype=np.int64)
        self.after = np.empty(self.lanes.size // 2, dtype=np.int64)
        self.index = np.empty(cols, dtype=np.intp)


def _walk(plan: _WalkPlan, codes: np.ndarray, harvest: np.ndarray, starts,
          out: np.ndarray) -> tuple:
    """Every sensor's battery path: writes the start-of-slot states to `out`.

    Row n of the (sensors x slots) arrays is sensor n's: slot t drains
    units[n][level][b] from battery b when it transmits, which
    codes[n, t] = level + 1 says (0: silent), then banks harvest[n, t] units
    (a whole number >= 0, of any dtype) up to the capacity K. `plan` holds
    the units' drain table and buffers for at least this many slots. The
    sensors share K but not their level counts. `out` is written last, so it
    may be `codes`. Returns each sensor's battery after the last slot, as
    ints.

    The path from a known state is fixed, and two paths that reach one state
    agree from then on; paths from different states meet at the clamp or
    after a drain (the coupling of Propp & Wilson 1996). So each sensor's
    T slots are cut into C chunks of S = isqrt(T) slots, which balances the
    lockstep's S steps against the check's C <= S + 2, and the chunks are
    guessed in parallel, then checked in order:

    1. The chunks of all sensors walk side by side in one numpy lockstep,
       over one flat table of every sensor's drains. A lane carries the
       battery after each slot's drain, before its harvest: a post-drain
       battery is >= 0, so banking min(harvest, K) clamps to the same state,
       and that clipped harvest is folded into the next slot's offset (which
       also carries the sensor's and the code's row). The table's rows run
       over x in 0..2K and take the clamp, row c at x being the drain of
       code c from battery min(x, K), so a step is one add and one take.
       Every chunk but a sensor's first starts from a full battery and first
       walks the `_LEAD` slots before it (its lead-in), so its guess has
       usually met the true path by the chunk's first slot. A sensor's chunk
       0 starts from its start battery, and its lead-in is silent padding
       that banks nothing. The start-of-slot states then come back in one
       pass, as min(post-drain battery + banked harvest, K).
    2. A Python loop over each sensor's chunk boundaries carries its true
       battery. Where it differs from a chunk's start, as after a lead-in
       with no drain or clamp in it, the chunk is repaired slot by slot, in
       order, until it meets its guessed path, or to its end.

    Correctness rests on step 2 alone. Step 1 only makes it rare that it has
    to walk a slot, and if no paths meet it walks every slot once.
    """
    N, T = codes.shape
    if T == 0:
        return tuple(starts)
    K, width = plan.K, plan.width
    S = math.isqrt(T)
    C = -(-T // S)
    lead = min(plan.lead, S)  # a lead-in reaches back at most one chunk
    rows, cols = lead + S + 1, N * C
    # slot-major lanes, (lead + S + 1, N * C): column n * C + c walks sensor n's
    # slots c * S - lead .. (c + 1) * S - 1, so a lockstep step reads one
    # contiguous row. A slot's code sits in its own row and its harvest one
    # row below, in the next slot's. Slots before the first or after the last
    # are padding: zeros, a silent slot that banks nothing. The lanes hold
    # the last block's values, so each padding row is zeroed here.
    full = T // S
    lanes = plan.lanes[:2 * rows * cols].reshape(2, rows, N, C)
    for lane, values, first in zip(lanes, (codes, harvest), (lead, lead + 1)):
        # (N, C, S) view of the chunks' own slots
        chunks = lane[first:first + S].transpose(1, 2, 0)
        chunks[:, :full] = values[:, :full * S].reshape(N, full, S)
        if full < C:
            chunks[:, full, :T - full * S] = values[:, full * S:]
            chunks[:, full, T - full * S:] = 0
        # a chunk's lead-in is the end of the chunk before it; chunk 0's is
        # padding, and so is the harvest lane's row 0, the slot before a lead-in
        lane[first - lead:first, :, 1:] = lane[first + S - lead:first + S, :, :-1]
        lane[first - lead:first, :, 0] = 0
        lane[:first - lead] = 0
    offsets, banked = lanes.reshape(2, rows, cols)
    offsets = offsets[:-1]  # the code lane's last row only matches the harvest lane's
    np.minimum(banked, K, out=banked)  # exact, as a drained battery is >= 0
    offsets *= width
    offsets += plan.base.repeat(C)
    offsets += banked[:-1]
    after = plan.after[:rows * cols].reshape(rows, cols)
    after[0] = K
    after[0, ::C] = starts
    _lockstep(plan.table, offsets, after, plan.index[:cols])
    # each chunk's own S slots from here on: its states and its end
    path = after[lead:]
    path += banked[lead:]
    np.minimum(path, K, out=path)
    firsts, lasts = path[0].tolist(), path[S].tolist()
    steps = None
    end = []
    for first in range(0, cols, C):
        b = lasts[first]
        for c in range(first + 1, first + C):
            if b == firsts[c]:
                b = lasts[c]
                continue
            if steps is None:
                steps = plan.table.tolist()
            # the slots' table rows without the harvest folded in, and each
            # slot's own harvest
            b = _rejoin(steps, (offsets[lead:, c] - banked[lead:-1, c]).tolist(),
                        banked[lead + 1:, c].tolist(), path[:, c], b, K)
        end.append(b)
    # back to slot order, one sensor's contiguous row at a time
    chunks = path[:S].reshape(S, N, C).transpose(1, 2, 0)
    for n in range(N):
        out[n, :full * S].reshape(full, S)[:] = chunks[n, :full]
        if full < C:
            out[n, full * S:] = chunks[n, full, :T - full * S]
    return tuple(end)


def _lockstep(table: np.ndarray, offsets: np.ndarray, after: np.ndarray,
              index: np.ndarray) -> None:
    """Walk every column of the (S, C) offsets at once from after[0].

    Writes the post-drain batteries to the rest of the (S + 1, C) `after`:
    row s + 1 is the battery after slot s's drain, before its harvest.
    `index` is (C,) scratch.
    """
    for s in range(offsets.shape[0]):
        np.add(offsets[s], after[s], out=index)
        # every index is a code row plus a battery and a harvest in 0..K, so
        # none is clipped
        table.take(index, out=after[s + 1], mode="clip")


def _rejoin(steps: list, offsets: list, banked: list, path: np.ndarray, b: int, K: int) -> int:
    """Walk one chunk from its true start `b` on Python ints.

    steps[offsets[s] + b] is battery b after slot s's drain, and banked[s]
    the slot's harvest. Overwrites the chunk's guessed `path` (S + 1 states,
    the last its end) until the true state meets it; from there the guess is
    the true path. Returns the chunk's true end.
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
    Uses `d` as scratch: its values are lost.
    """
    u = np.minimum(d, 0.0)
    np.exp(u, out=u)
    v = np.maximum(d, 0.0, out=d)
    np.negative(v, out=v)
    np.exp(v, out=v)
    ratio = p_d * u
    ratio += (1.0 - p_d) * v
    # the denominator p_f u + (1 - p_f) v, in place in u
    u *= p_f
    v *= 1.0 - p_f
    u += v
    ratio /= u
    return np.log(ratio, out=ratio)


def _fusion_plan(scenario: Scenario, power_map: PowerMap | None, psis):
    """What map_marginal fusion needs of the map and psi, built once per call.

    Raises ValueError unless map_marginal fusion has a power map that
    simulate_slots would take and one psi per sensor that covers the map's
    battery states. Battery states that spend the same power at a level are
    one component of that sensor's mixture, and their psi masses add; states
    with psi = 0 contribute none. Returns (coefs, scratch). Per sensor, per
    level, coefs holds the (rows x 3) coefficients (c0, c1, c2) of the
    components' linear forms (see `fusion_llr`), one row per distinct power,
    and whether the level has one component. A lone level gets a second row
    of zeros, whose linear form is never read, so that every block is a gemm
    with at least two rows (see `_FUSION_CHUNK`). The masses are normalised
    per level, so a lone component has c0 = log 1 = 0 exactly even where
    psi's float sum is not 1. scratch is the one buffer every block of the
    call writes its linear forms into: `_FUSION_CHUNK` elements, or two
    slots of the largest level if that is more. Returns None for genie
    fusion, which needs neither the map nor psi.
    """
    if scenario.network.fc_knowledge == "genie":
        return None
    if power_map is None or psis is None:
        raise ValueError("map_marginal fusion needs power_map and psis")
    _check_map(scenario, power_map)
    _one_per_sensor(scenario, psis, "psi", "psis")
    plan = []
    size = _FUSION_CHUNK
    for n, (sensor, table, dist) in enumerate(zip(scenario.sensors, power_map.powers, psis)):
        if dist.psi.size != table.shape[1]:
            raise ValueError(f"sensor {n}: psi covers {dist.psi.size} battery states, "
                             f"but the power map has {table.shape[1]} (K+1)")
        inv = 1.0 / (2.0 * sensor.noise_var)
        live = dist.psi > 0.0
        mass = dist.psi[live]
        coefs = []
        for row in table:
            powers, which = np.unique(row[live], return_inverse=True)
            masses = np.bincount(which, weights=mass, minlength=powers.size)
            coef = np.stack([np.log(masses / masses.sum()), 2.0 * inv * np.sqrt(powers),
                             -inv * powers], axis=1)
            lone = powers.size == 1
            if lone:
                coef = np.vstack([coef, np.zeros(3)])
            coefs.append((coef, lone))
            size = max(size, 2 * coef.shape[0])
        plan.append(tuple(coefs))
    return tuple(plan), np.empty(size)


def _fuse(batch: SimBatch, outputs: np.ndarray, scenario: Scenario, plan) -> np.ndarray:
    """`fusion_llr` of a checked batch, had it sent `outputs` (its outputs or
    its null outputs), with map_marginal fusion read from `plan`
    (`_fusion_plan`; None for genie)."""
    slots = batch.hypothesis.size
    total = np.zeros(slots)
    for n, sensor in enumerate(scenario.sensors):
        if plan is None:
            y = outputs[n]
            a = batch.amplitudes[n]
            # (y^2 - (y - a)^2) / (2 sigma^2), exactly 0 where a is
            d = 2.0 * y
            d -= a
            d *= a
            d *= 1.0 / (2.0 * sensor.noise_var)
            total += _binary_llr(d, sensor.p_f, sensor.p_d)
            continue
        coefs, scratch = plan
        levels = batch.levels[n]
        # each slot's inputs to the linear forms: 1, y sqrt(g), g
        x = np.empty((3, slots))
        x[0] = 1.0
        np.sqrt(batch.gains[n], out=x[1])
        x[1] *= outputs[n]
        x[2] = batch.gains[n]
        d = np.empty(slots)
        for level, (coef, lone) in enumerate(coefs[n]):
            rows = coef.shape[0]
            # as many slots as the scratch holds, at least two
            width = scratch.size // rows
            where = np.flatnonzero(levels == level)
            for start in range(0, where.size, width):
                idx = where[start:start + width]
                if idx.size == 1:
                    idx = idx.repeat(2)  # never a one-column block, see _FUSION_CHUNK
                z = scratch[:rows * idx.size].reshape(rows, idx.size)
                # take, not x[:, idx]: that gather comes out column-major, and
                # the gemm over it runs slower and rounds differently
                np.matmul(coef, x.take(idx, axis=1), out=z)
                if lone:
                    # the log-sum-exp of one term z is log(exp(z - z)) + z =
                    # 0 + z: the first row itself (a -0.0 may stay -0.0, which
                    # _binary_llr's exp cannot tell from 0.0)
                    d[idx] = z[0]
                    continue
                peak = z.max(axis=0)
                z -= peak
                np.exp(z, out=z)
                d[idx] = np.log(z.sum(axis=0)) + peak
        total += _binary_llr(d, sensor.p_f, sensor.p_d)
    return total


def fusion_llr(batch: SimBatch, scenario: Scenario, power_map: PowerMap | None = None,
               psis=None) -> np.ndarray:
    """Per-slot fusion statistic, summed over sensors.

    The network's fc_knowledge picks the statistic. genie: the center knows
    each sensor's would-use amplitude, battery state included. map_marginal:
    the center knows the map and the gain but not the battery, so the signal
    hypothesis is a mixture over the stationary distributions `psis`, one per
    sensor. Battery states that spend the same power at a level form one
    component of that mixture, so the cost grows with the number of distinct
    powers per level, not with the capacity. The components and their
    coefficients depend only on the map and psis, so a Monte Carlo call
    builds them once (`_blocks`), not once per block.

    Against silence, component c (power p_c, normalised mass m_c) of a slot
    with output y and gain g has the log-likelihood
    log m_c - inv (y - sqrt(g p_c))^2 + inv y^2, inv = 1 / (2 sigma^2). The
    y^2 terms cancel exactly, leaving the linear form
    c0_c + c1_c (y sqrt(g)) + c2_c g with c0 = log m_c,
    c1 = 2 inv sqrt(p_c) and c2 = -inv p_c, so the sent-vs-silent
    log-likelihood ratio d is a log-sum-exp of it over the components, with
    no large terms to cancel. A level's (components x slots) block of linear
    forms is one gemm with at least two rows and two columns, over at most
    about `_FUSION_CHUNK` elements, written into one buffer that every block
    of the call reuses; max, subtract, exp and sum then run in place. The
    cost is about five passes per (slot, component) element plus a few per
    slot. A level with one component skips the log-sum-exp: its linear form
    is d, bit for bit, and its block carries a second row of zeros that is
    never read. So no product has one row or one column, and a slot's
    statistic does not depend on how the slots were blocked (see
    `_FUSION_CHUNK`).
    """
    plan = _fusion_plan(scenario, power_map, psis)
    if plan is not None and batch.hypothesis.size:
        for n, coefs in enumerate(plan[0]):
            levels = batch.levels[n]
            # every slot must fall in one level's group, or its statistic is never set
            if not 0 <= levels.min() <= levels.max() < len(coefs):
                raise ValueError(f"sensor {n}: batch levels must lie in 0..{len(coefs) - 1}, "
                                 "the power map's levels")
    return _fuse(batch, batch.outputs, scenario, plan)


def _blocks(scenario: Scenario, power_map: PowerMap, slots: int, seed: int,
            warmup: int | None, psis, null: bool):
    """The `slots` slots after `warmup` slots (default 10x capacity) from full
    batteries, in blocks of at most `_CALIBRATION_BLOCK` slots, each with
    the fusion statistic of its null outputs if `null`, else its outputs.
    The warm-up is not yielded. One fusion plan, built first so that every
    ValueError comes before the first draw, and one `_WalkPlan` serve the
    call. A batch is dropped before the next block, so a caller that drops
    it and its statistic too holds one block's rows at a time."""
    fusion = _fusion_plan(scenario, power_map, psis)
    warmup = 10 * scenario.network.capacity if warmup is None else warmup
    _check_count("warmup", warmup, 0)
    streams = make_streams(seed, scenario.num_sensors)
    walk = _WalkPlan(power_map.units, min(_CALIBRATION_BLOCK, max(warmup, slots)))
    batteries = None
    for kept, count in ((False, warmup), (True, slots)):
        for start in range(0, count, _CALIBRATION_BLOCK):
            batch = simulate_slots(scenario, power_map, min(_CALIBRATION_BLOCK, count - start),
                                   streams, batteries=batteries, _plan=walk)
            batteries = batch.batteries
            if kept:
                yield batch, _fuse(batch, batch.null_outputs if null else batch.outputs,
                                   scenario, fusion)
            del batch


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
    null_llr = np.empty(samples)
    start = 0
    for batch, llr in _blocks(scenario, power_map, samples, seed, warmup, psis, null=True):
        null_llr[start:start + llr.size] = llr
        start += llr.size
        del batch, llr  # before the next block's rows, see _blocks
    # the quantile partitions null_llr in place; the rate counts, so order is moot
    threshold = float(np.quantile(null_llr, 1.0 - target_pf, method="higher",
                                  overwrite_input=True))
    achieved = float(np.mean(null_llr > threshold))
    return threshold, achieved


def run_monte_carlo(scenario: Scenario, power_map: PowerMap, threshold: float,
                    slots: int, seed: int, warmup: int | None = None,
                    psis=None) -> MonteCarloReport:
    """Measure fusion-level detection and false-alarm rates plus occupancy.

    Warm-up slots (default 10x capacity) burn in the batteries and are
    excluded from every estimate. Confidence intervals are 95% binomial
    half-widths on the respective conditional sample counts; a hypothesis
    that held in no measured slot gets rate 0 and half-width inf. The warm-up
    and the run are simulated in blocks of at most `_CALIBRATION_BLOCK` slots
    and only counts are kept, so memory grows with neither. Raises
    ValueError, before simulating anything, on a NaN `threshold` (+-inf
    decide every slot one way), a `slots` that is not a whole number >= 1, a
    `warmup` that is not a whole number >= 0, or map_marginal fusion without
    one fitting psi per sensor.
    """
    if math.isnan(threshold):
        # every comparison with NaN is False: the run would report no detection
        raise ValueError(f"threshold must be a number, got {threshold!r}")
    _check_count("slots", slots, 1)
    net = scenario.network
    n1 = hits1 = hits0 = 0
    counts = np.zeros((scenario.num_sensors, net.capacity + 1), dtype=np.int64)
    for batch, llr in _blocks(scenario, power_map, slots, seed, warmup, psis, null=False):
        decide = llr > threshold
        h1 = batch.hypothesis == 1
        n1 += int(np.count_nonzero(h1))
        hits1 += int(np.count_nonzero(decide & h1))
        hits0 += int(np.count_nonzero(decide & ~h1))
        for n in range(scenario.num_sensors):
            counts[n] += np.bincount(batch.states[n], minlength=net.capacity + 1)
        del batch, llr  # before the next block's rows, see _blocks

    n0 = slots - n1
    pd = hits1 / n1 if n1 else 0.0
    pf = hits0 / n0 if n0 else 0.0
    ci_pd = 1.96 * math.sqrt(pd * (1.0 - pd) / n1) if n1 else math.inf
    ci_pf = 1.96 * math.sqrt(pf * (1.0 - pf) / n0) if n0 else math.inf
    return MonteCarloReport(
        pd_fc=pd, pf_fc=pf, ci_pd=ci_pd, ci_pf=ci_pf,
        empirical_psi=tuple(counts / slots), threshold=threshold, samples=slots, seed=seed,
    )
