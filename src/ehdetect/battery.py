"""Battery-state Markov chain of a harvesting sensor.

The state is the number of stored energy units (0..K). Each slot the sensor
may drain a level- and state-dependent number of units and then banks a random
number of harvested units. A drain never exceeds the stored units, so only the
capacity end saturates and the chain lives on a finite ladder. Harvested
energy is exponential and is banked in whole units, which makes the per-slot
unit arrival count geometric-like with its tail folded into the capacity
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import BatteryDistribution

__all__ = [
    "ArrivalUnitPmf",
    "ChainSpec",
    "quantize_gain",
    "gain_level_probs",
    "arrival_unit_pmf",
    "transmit_probability",
    "transition_matrix",
    "battery_transition",
    "stationary_solve",
    "stationary_oracle",
    "steady_state_psi",
]


# Policy-iteration rounds of the battery fixed point. It has no tolerance: it
# stops exactly when the unit map repeats, or gives up after this many rounds.
MAX_ROUNDS = 1_000


@dataclass(frozen=True)
class ArrivalUnitPmf:
    """Distribution of whole energy units banked per slot, tail folded at K.

    pmf[0] is exactly 0: any positive harvest banks at least one unit.
    drain_table[s, j] = Pr(min(s + beta, K) = j) is the bank step from the
    post-drain state s; it is built once, and like pmf it is read-only.
    """

    pmf: np.ndarray
    drain_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.array(self.pmf, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("pmf must cover states 0..K with K >= 1")
        if arr[0] != 0.0:
            raise ValueError("pmf[0] must be exactly 0")
        if not (np.all(arr >= 0.0) and abs(float(arr.sum()) - 1.0) <= 1e-12):
            raise ValueError("pmf must be >= 0 and sum to 1 within 1e-12")
        arr.flags.writeable = False
        object.__setattr__(self, "pmf", arr)
        # s climbs to s + j with pmf[j], and the whole tail Pr(beta >= K - s)
        # lands on K
        K = arr.size - 1
        states = np.arange(K + 1)
        table = np.triu(arr[np.abs(states[None, :] - states[:, None])])
        table[:, K] = np.cumsum(arr[::-1])
        table[K, K] = 1.0
        table.flags.writeable = False
        object.__setattr__(self, "drain_table", table)

    @property
    def capacity(self) -> int:
        return self.pmf.size - 1


@dataclass(frozen=True)
class ChainSpec:
    """Everything the chain of one sensor needs besides its unit map: the
    gain-cell probabilities pi (one per level, kept read-only), the folded
    arrival law, and the chance transmit_prob that a slot spends energy."""

    pi: np.ndarray
    arrivals: ArrivalUnitPmf
    transmit_prob: float

    def __post_init__(self) -> None:
        arr = np.array(self.pi, dtype=float)
        if arr.ndim != 1:
            raise ValueError("pi must be one-dimensional: one probability per quantizer cell")
        if not (np.all(arr >= 0.0) and abs(float(arr.sum()) - 1.0) <= 1e-12):
            raise ValueError("cell probabilities must be >= 0 and sum to 1 within 1e-12")
        arr.flags.writeable = False
        object.__setattr__(self, "pi", arr)
        if not 0.0 <= self.transmit_prob <= 1.0:
            raise ValueError("transmit_prob must lie in [0, 1]")


def quantize_gain(gain, thresholds):
    """Quantizer cell index of a gain draw: the l with mu_l <= gain < mu_{l+1}.

    Vectorized: an array of gains gives an int64 array of cell indices, each
    the number of inner edges mu_1..mu_L-1 the gain reaches.
    """
    edges = np.asarray(thresholds, dtype=float)
    gain = np.asarray(gain, dtype=float)
    idx = np.zeros(gain.shape, dtype=np.int64)
    # one branch-free pass per inner edge. Against searchsorted+clip on a
    # 2-vCPU Xeon, for a simulation block of 4k-262k gains: 0.06-0.4x its
    # time at the bundled 3 and 5 levels, break-even at 16-50 levels, slower
    # beyond; peak memory 2.3 MiB instead of 6 at 262k gains
    for edge in edges[1:-1]:
        idx += gain >= edge
    return int(idx) if idx.ndim == 0 else idx


def gain_level_probs(mean_gain: float, thresholds) -> np.ndarray:
    """Cell probabilities of an exponential gain under the given edges, one per cell.

    Pr(level l) = exp(-mu_l / mean_gain) - exp(-mu_{l+1} / mean_gain); the last
    cell reaches to infinity, where the survival function is zero.
    """
    if mean_gain <= 0.0:
        raise ValueError("mean_gain must be > 0")
    edges = np.asarray(thresholds, dtype=float)
    surv = np.exp(-edges / mean_gain)  # exp(-inf) == 0.0
    return surv[:-1] - surv[1:]


def arrival_unit_pmf(mean_harvest: float, unit_energy: float, capacity: int) -> ArrivalUnitPmf:
    """Pmf of ceil(E / unit_energy) for exponential E, folded at the capacity.

    Pr(j) = exp(-(j-1) r) - exp(-j r) with r = unit_energy / mean_harvest for
    1 <= j < K, and the entire tail Pr(>= K) = exp(-(K-1) r) sits at K.
    """
    if mean_harvest <= 0.0 or unit_energy <= 0.0:
        raise ValueError("mean_harvest and unit_energy must be > 0")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    r = unit_energy / mean_harvest
    j = np.arange(1, capacity + 1, dtype=float)
    pmf = np.zeros(capacity + 1)
    pmf[1:] = np.exp(-(j - 1.0) * r) - np.exp(-j * r)
    pmf[capacity] = math.exp(-(capacity - 1) * r)
    return ArrivalUnitPmf(pmf=pmf)


def transmit_probability(network, sensor) -> float:
    """Chance the chain spends energy in a slot, under the configured model.

    ``prior`` charges the spend branch with the prior of the alternative,
    ``decision`` with the chance the sensor votes 1. The simulator follows
    the same model: under ``prior`` a sensor spends on exactly the H1 slots.
    """
    if network.transmit_prob_model == "prior":
        return network.prior_h1
    return network.prior_h0 * sensor.p_f + network.prior_h1 * sensor.p_d


def _drain_rows(alpha, arrivals: ArrivalUnitPmf) -> np.ndarray:
    """out[..., k, j] = Pr(min(k - alpha[..., k] + beta, K) = j): drain, then bank.

    beta is the folded arrival count. The rows are arrivals.drain_table
    gathered at the post-drain states s = k - alpha[..., k], for any leading
    batch shape of alpha. A drain must lie in [0, k].
    """
    alpha = np.asarray(alpha, dtype=np.int64)
    states = np.arange(arrivals.capacity + 1)
    if np.any((alpha < 0) | (alpha > states)):
        raise ValueError("every drain alpha[..., k] must lie in [0, k]")
    # take, not fancy indexing: the same rows in 0.7-0.9x the time at K = 100
    # (2-vCPU Xeon, NumPy 2.4)
    return arrivals.drain_table.take(states - alpha, axis=0)


def transition_matrix(alpha, chain: ChainSpec) -> np.ndarray:
    """One-slot transition matrix of the battery ladder under a unit map.

    alpha[l, k] is the units drained when transmitting at level l from state
    k, one row per cell of chain.pi; it must lie in [0, k]. The no-spend
    branch (weight 1 - transmit_prob) climbs by the arrivals alone; the spend
    branch mixes the level-conditional drains with the cell probabilities.
    """
    alpha = np.asarray(alpha, dtype=np.int64)
    arrivals, tp = chain.arrivals, chain.transmit_prob
    shape = (chain.pi.size, arrivals.capacity + 1)
    if alpha.shape != shape:
        raise ValueError(f"alpha must have shape {shape}, got {alpha.shape}")
    spend = np.tensordot(chain.pi, _drain_rows(alpha, arrivals), axes=(0, 0))
    return (1.0 - tp) * arrivals.drain_table + tp * spend


def battery_transition(psi: BatteryDistribution, alpha, chain: ChainSpec) -> BatteryDistribution:
    """Push a battery distribution through one slot of the chain under a unit map."""
    return BatteryDistribution(psi=psi.psi @ transition_matrix(alpha, chain))


def stationary_solve(M) -> np.ndarray:
    """Stationary laws of a stack of transition matrices, shape (..., K+1, K+1).

    Solves psi (M - I) = 0 with the normalization row appended, one LAPACK
    solve for the whole stack. Raises ValueError, naming the worst residual
    and most negative entry, unless every law is finite, >= -1e-10 and has
    sup-norm residual |psi M - psi| <= 1e-10, or when the system is singular
    (a reducible ladder). Returns the laws, clipped at zero and renormalized.
    """
    M = np.asarray(M, dtype=float)
    K1 = M.shape[-1]
    # built untransposed and passed as a view: the solver copies its input
    # anyway, and a strided subtraction over the stack costs more than the check
    B = M - np.eye(K1)
    B[..., :, K1 - 1] = 1.0
    b = np.zeros((K1, 1))
    b[K1 - 1] = 1.0
    try:
        psi = np.linalg.solve(np.swapaxes(B, -1, -2),
                              np.broadcast_to(b, B.shape[:-1] + (1,)))[..., 0]
    except np.linalg.LinAlgError:
        raise ValueError("no unique stationary law: the stationary system "
                         "is singular") from None
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.abs(np.einsum("...k,...kj->...j", psi, M) - psi)
        # NaN and inf fail one of the comparisons, so non-finite laws fail too
        if not np.all((residual <= 1e-10) & (psi >= -1e-10)):
            raise ValueError("no numerically unique stationary law: worst residual "
                             f"{np.max(residual):.3e} (tol 1e-10), most negative "
                             f"entry {np.min(psi):.3e} (tol -1e-10)")
    psi = np.maximum(psi, 0.0)
    psi /= psi.sum(axis=-1, keepdims=True)
    return psi


def stationary_oracle(alpha, chain: ChainSpec) -> BatteryDistribution:
    """Stationary distribution of one chain under a unit map (see _stationary_laws)."""
    return _stationary_laws([alpha], [chain])[0]


def _stationary_laws(alphas, chains) -> list[BatteryDistribution]:
    """Stationary law of every chain under its unit map, from one stacked stationary_solve.

    The chains must share one capacity. A drain outside [0, k] or a chain
    with no numerically unique law raises ValueError (see stationary_solve).
    """
    M = np.stack([transition_matrix(a, c) for a, c in zip(alphas, chains)])
    return [BatteryDistribution(psi=psi) for psi in stationary_solve(M)]


def steady_state_psi(chains, alpha_update):
    """Policy iteration on the unit maps until they repeat.

    chains is one ChainSpec per sensor; alpha_update maps the current list of
    BatteryDistribution to the list of per-sensor unit maps for this round.
    The chains must share one capacity, or ValueError names the capacities
    before the first round. Starts from full batteries; each round replaces
    every distribution with stationary_oracle's law of its chain under the
    round's unit map, all chains in one stacked solve. Stops
    when a round returns the previous round's maps, whose stationary laws it
    was given, so they are a fixed point whose laws are exactly
    stationary_oracle's. It also stops on a repeat of any older round,
    naming the period, at the MAX_ROUNDS cap, and on the ValueError
    stationary_oracle would raise (a drain outside [0, k], or no numerically
    unique law).

    Returns (distributions, iterations, problem). The distributions are the
    ones the last alpha_update call saw. problem is None at a fixed point;
    otherwise it names the period, the cap or the solve's error, then the
    iterations and the sup-norm change of the last law update (the residual).
    """
    capacities = sorted({chain.arrivals.capacity for chain in chains})
    if len(capacities) > 1:
        raise ValueError("chains must share one battery capacity, got capacities "
                         + ", ".join(map(str, capacities)))
    psis = []
    for chain in chains:
        K = chain.arrivals.capacity
        start = np.zeros(K + 1)
        start[K] = 1.0
        psis.append(BatteryDistribution(psi=start))

    seen: dict[bytes, int] = {}
    residual = math.inf
    for it in range(1, MAX_ROUNDS + 1):
        alphas = alpha_update(psis)
        key = b"".join(np.asarray(a, dtype=np.int64).tobytes() for a in alphas)
        first = seen.setdefault(key, it)
        if first == it - 1:
            return psis, it, None
        if first < it:
            problem = f"unit maps oscillate with period {it - first}"
            break
        if it == MAX_ROUNDS:
            problem = "iteration cap exceeded"
            break
        try:
            nxt = _stationary_laws(alphas, chains)
        except ValueError as exc:
            problem = str(exc)
            break
        residual = max(float(np.max(np.abs(n.psi - p.psi))) for n, p in zip(nxt, psis))
        psis = nxt
    return psis, it, f"{problem} (iterations={it}, residual={residual:.3e})"
