"""Budgeted transmit-power maps by price search plus battery fixed point.

The network maximizes the summed per-sensor divergence subject to a shared
average-power budget, per-state causality (a slot cannot drain more than the
battery holds), and a per-state outage cap. For a fixed battery distribution
the problem separates: each (sensor, level) pair has a stationarity power
where the marginal divergence gain equals the budget price, clamped into the
feasible interval. The price is found by bisection on the monotone expected
power, and the battery distribution is re-settled under the resulting integer
unit map until the two fixed points agree.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .battery import (
    ArrivalUnitPmf,
    ChainSpec,
    ConvergenceError,
    GainLevelProbs,
    arrival_unit_pmf,
    gain_level_probs,
    stationary_oracle,
    stationary_solve,
    steady_state_psi,
    transmit_probability,
)
from .config import (
    BatteryDistribution,
    NetworkParams,
    PowerMap,
    Scenario,
    SensorParams,
    validate_convex_region,
)
from .detection import RocCoefficients, roc_coefficients, sensor_j_divergence

__all__ = [
    "OptimizerSettings",
    "KktReport",
    "OptimizationOutcome",
    "ExhaustiveResult",
    "marginal_divergence_gain",
    "outage_cap",
    "stationarity_root",
    "clamp_power",
    "units_from_power",
    "lambda_search",
    "optimize_power_map",
    "evaluate_unit_map",
    "exhaustive_best_map",
]

# activity codes used in KktReport.active
INTERIOR, CLAMP_CAUSALITY, CLAMP_OUTAGE, CLAMP_ZERO, LEVEL_ZERO = 0, 1, 2, 3, 4

# non-monotone root scan, scaled per level by the power beyond which the gain
# is surely below the price
_SCAN = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 8192)))


@dataclass(frozen=True)
class OptimizerSettings:
    """Tolerances and caps for the two nested searches.

    budget_tol is relative to the budget and bounds both the budget miss and
    the complementary-slackness product; psi_tol is the sup-norm stop of the
    battery fixed point; root_tol is relative on the stationarity residual.
    """

    budget_tol: float = 1e-6
    psi_tol: float = 1e-6
    root_tol: float = 1e-9
    max_price_iters: int = 10_000
    max_outer_iters: int = 1_000

    def __post_init__(self) -> None:
        for name in ("budget_tol", "psi_tol", "root_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class KktReport:
    """Stationarity and activity audit of a returned map.

    residuals[n][l, k] is |marginal gain - price| where the entry is interior
    and NaN elsewhere; active[n][l, k] holds the activity codes 0=interior,
    1=causality clamp, 2=outage clamp, 3=zero power, 4=dead level. Exact ties
    resolve to the smallest code, matching the clamp order.
    """

    residuals: tuple[np.ndarray, ...]
    active: tuple[np.ndarray, ...]
    max_interior_residual: float
    slackness: float


@dataclass(frozen=True)
class OptimizationOutcome:
    power_map: PowerMap
    psi_star: tuple[BatteryDistribution, ...]
    lambda_star: float
    objective_j: float
    expected_power: float
    kkt: KktReport
    outer_iterations: int
    converged: bool
    warnings: tuple[str, ...]


def marginal_divergence_gain(power, mu, coeffs: RocCoefficients, noise_var: float):
    """d/dp of the per-sensor divergence at quantized gain mu.

    Vectorized: power and mu may be arrays that broadcast.
    """
    p = np.asarray(power, dtype=float)
    s = noise_var
    slope1, slope2 = coeffs.slopes
    d1 = s + coeffs.den1 * mu * p
    d2 = s + coeffs.den2 * mu * p
    out = slope1 * s * mu / (d1 * d1) + slope2 * s * mu / (d2 * d2)
    return float(out) if np.ndim(out) == 0 else out


def outage_cap(state: int, sensor: SensorParams, network: NetworkParams) -> float:
    """Largest slot power that keeps the battery-drop constraint satisfiable.

    The constraint demands the next battery stay above drop_fraction * state
    with probability outage_confidence. Only the spend branch can violate it,
    so the cap solves the exponential-tail inequality in closed form; when the
    transmit prior already absorbs the allowed failure mass the cap is vacuous
    (+inf).
    """
    prior_h1 = network.prior_h1
    slack = prior_h1 - 1.0 + sensor.outage_confidence
    if slack <= 0.0:
        return math.inf
    joules = (-network.mean_harvest * math.log(slack / prior_h1)
              - state * network.unit_energy * (network.drop_fraction - 1.0))
    return joules / network.slot_seconds


def stationarity_root(lam: float, mu, coeffs: RocCoefficients,
                      noise_var: float, root_tol: float = 1e-9):
    """Power where the marginal divergence gain equals the price lam.

    Vectorized over mu: an array of gains gives an array of roots. Returns 0.0
    on a dead level (mu == 0) and +inf when lam <= 0 (the gain stays positive,
    so nothing stops the power short of the clamps). When even the zero-power
    gain is at or below the price there is no positive root and the sentinel
    -1.0 is returned for the positive-part clamp to absorb.

    Inside the concavity band the gain is strictly decreasing and a doubling
    bracket plus bisection suffices; outside it the gain may be non-monotone,
    in which case the smallest crossing on a dense scan is bracketed instead
    and a RuntimeWarning is emitted. The bisection runs until every level
    meets the relative residual root_tol at the same step.
    """
    m = np.asarray(mu, dtype=float)
    if np.any(m < 0.0):
        raise ValueError("mu must be >= 0")
    if noise_var <= 0.0:
        raise ValueError("noise_var must be > 0")
    out = np.zeros(m.shape)
    live = m > 0.0
    if lam <= 0.0:
        out[live] = math.inf
    elif np.any(live):
        out[live] = _live_roots(lam, m[live], coeffs, noise_var, root_tol)
    return float(out) if out.ndim == 0 else out


def _live_roots(lam, mu, coeffs, noise_var, root_tol):
    """stationarity_root on a 1-D array of positive gains and a positive price."""
    def f(p):
        return marginal_divergence_gain(p, mu, coeffs, noise_var) - lam

    slope1, slope2 = coeffs.slopes
    out = np.full(mu.size, -1.0)
    if slope1 >= 0.0 and slope2 >= 0.0:
        solve = f(0.0) > 0.0
        hi = np.ones(mu.size)
        growing = solve.copy()
        while np.any(growing):
            hi[growing] *= 2.0
            growing &= (hi <= 1e300) & (f(hi) > 0.0)
        out[solve & (hi > 1e300)] = math.inf
        solve &= hi <= 1e300
        lo = np.zeros(mu.size)
    else:
        warnings.warn(
            "operating point outside the concavity band: marginal gain may be "
            "non-monotone; returning the smallest stationary power",
            RuntimeWarning,
        )
        # beyond p_big both terms are within lam/2 of zero, so f < 0 for sure
        p_big = np.ones(mu.size)
        for slope, den in ((slope1, coeffs.den1), (slope2, coeffs.den2)):
            need = np.sqrt(np.maximum(abs(slope) * noise_var * mu / (0.5 * lam), 1e-30))
            p_big = np.maximum(p_big, (need + noise_var) / (den * mu))
        grid = p_big[:, None] * _SCAN
        vals = f(grid.T).T
        change = np.diff(np.sign(vals), axis=1) != 0
        solve = change.any(axis=1)
        out[~solve & (vals[:, 0] > 0.0)] = math.inf
        rows = np.arange(mu.size)
        i = np.argmax(change, axis=1)
        lo, hi = grid[rows, i], grid[rows, i + 1]
        flip = vals[rows, i] < 0.0  # orient so f(lo) > 0 > f(hi)
        lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    if not np.any(solve):
        return out
    mu_s, lo, hi = mu[solve], lo[solve], hi[solve]
    for _ in range(220):
        mid = 0.5 * (lo + hi)
        fm = marginal_divergence_gain(mid, mu_s, coeffs, noise_var) - lam
        above = fm > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if np.max(np.abs(fm)) <= root_tol * lam:
            break
    out[solve] = mid
    return out


def clamp_power(p_prime, state, phi, network: NetworkParams):
    """Project a stationarity candidate onto the feasible slot-power interval.

    Feasible slot power is capped by the stored energy (state units over one
    slot), by the outage cap phi, and below by zero. The caps are taken in the
    order causality, outage, positive part, which is the documented clamp
    precedence for exact ties. Vectorized: the arguments broadcast.
    """
    caps = np.minimum(np.asarray(state) * network.unit_power, phi)
    out = np.minimum(caps, np.maximum(p_prime, 0.0))
    return float(out) if np.ndim(out) == 0 else out


def units_from_power(power, state, network: NetworkParams):
    """Whole battery units needed to fund a slot power, never beyond the state.

    Rounds up, since partial units cannot be drawn; a 1e-9 slack absorbs float
    dust when the power sits exactly on a unit boundary (as the causality and
    zero clamps produce). The re-clamp to the state keeps rounding from ever
    violating causality. Vectorized: power and state broadcast.
    """
    q = np.asarray(power, dtype=float) * (network.slot_seconds / network.unit_energy)
    alpha = np.clip(np.ceil(q - 1e-9).astype(np.int64), 0, state)
    return int(alpha) if alpha.ndim == 0 else alpha


# ---------------------------------------------------------------------------
# internal per-sensor context


@dataclass(frozen=True)
class _SensorCtx:
    coeffs: RocCoefficients
    gain_probs: GainLevelProbs
    arrivals: ArrivalUnitPmf
    transmit_prob: float
    noise_var: float
    mu: np.ndarray            # lower cell edges, shape (L+1,)
    phi: np.ndarray           # outage cap per state, shape (K+1,)
    causality: np.ndarray
    lambda_ceiling: float     # price above which every root vanishes


def _sensor_context(network: NetworkParams, sensor: SensorParams) -> _SensorCtx:
    coeffs = roc_coefficients(sensor.p_f, sensor.p_d)
    gp = gain_level_probs(sensor.mean_gain, sensor.thresholds)
    arr = arrival_unit_pmf(network.mean_harvest, network.unit_energy, network.capacity)
    states = np.arange(network.capacity + 1, dtype=float)
    phi = np.array([outage_cap(int(k), sensor, network) for k in range(network.capacity + 1)])
    mu = np.asarray(sensor.thresholds[:-1], dtype=float)
    slope1, slope2 = coeffs.slopes
    ceiling = (max(slope1, 0.0) + max(slope2, 0.0)) * float(mu.max()) / sensor.noise_var
    return _SensorCtx(
        coeffs=coeffs,
        gain_probs=gp,
        arrivals=arr,
        transmit_prob=transmit_probability(network, sensor),
        noise_var=sensor.noise_var,
        mu=mu,
        phi=phi,
        causality=states * network.unit_power,
        lambda_ceiling=ceiling,
    )


def _roots_for(ctx: _SensorCtx, lam: float, root_tol: float) -> np.ndarray:
    """Stationarity roots for levels 0..L (index 0 is the dead level)."""
    roots = np.zeros(ctx.mu.size)
    roots[1:] = stationarity_root(lam, ctx.mu[1:], ctx.coeffs, ctx.noise_var, root_tol)
    return roots


def _map_for_lambda(lam: float, ctxs, network: NetworkParams, root_tol: float):
    """Clamped power tables and raw roots for every sensor at one price."""
    powers, roots = [], []
    for ctx in ctxs:
        r = _roots_for(ctx, lam, root_tol)
        P = np.zeros((ctx.mu.size, ctx.phi.size))
        P[1:, :] = clamp_power(r[1:, None], np.arange(ctx.phi.size), ctx.phi, network)
        powers.append(P)
        roots.append(r)
    return powers, roots


def _units(powers, network: NetworkParams) -> list[np.ndarray]:
    return [units_from_power(P, np.arange(P.shape[1]), network) for P in powers]


def _expected_power(powers, psi_arrays, ctxs) -> float:
    total = 0.0
    for P, psi, ctx in zip(powers, psi_arrays, ctxs):
        total += float(np.einsum("l,lk,k->", ctx.gain_probs.pi, P, psi))
    return total


def _objective(powers, psi_arrays, ctxs) -> float:
    total = 0.0
    for P, psi, ctx in zip(powers, psi_arrays, ctxs):
        J = sensor_j_divergence(ctx.mu[:, None], P, ctx.coeffs, ctx.noise_var)
        total += float(np.einsum("l,lk,k->", ctx.gain_probs.pi, J, psi))
    return total


def _lambda_search(psi_arrays, ctxs, network: NetworkParams,
                   settings: OptimizerSettings, budget: float | None):
    """Price, power tables, roots, expected power, and any flags."""
    B = network.power_budget if budget is None else float(budget)
    flags: list[str] = []
    lam_max = max(ctx.lambda_ceiling for ctx in ctxs)

    def ep_at(lam: float):
        powers, roots = _map_for_lambda(lam, ctxs, network, settings.root_tol)
        return powers, roots, _expected_power(powers, psi_arrays, ctxs)

    if B <= 0.0:
        powers, roots, ep = ep_at(lam_max)
        flags.append("nonpositive budget: every level priced out")
        return lam_max, powers, roots, ep, flags

    tol_abs = settings.budget_tol * B
    powers0, roots0, ep0 = ep_at(0.0)
    if ep0 <= B + tol_abs:
        return 0.0, powers0, roots0, ep0, flags

    # lam_max prices every level out, so hi is always the feasible end
    lo, hi = 0.0, lam_max
    at_hi = ep_at(hi)
    for _ in range(settings.max_price_iters):
        lam = 0.5 * (lo + hi)
        if not lo < lam < hi:
            break
        powers, roots, ep = at = ep_at(lam)
        if abs(ep - B) <= tol_abs / max(1.0, lam):
            return lam, powers, roots, ep, flags
        if ep > B:
            lo = lam
        else:
            hi, at_hi = lam, at
    flags.append("price bracket collapsed before meeting the budget tolerance")
    return (hi, *at_hi, flags)


def lambda_search(psis, scenario: Scenario, settings: OptimizerSettings | None = None,
                  budget: float | None = None):
    """Find the budget price for fixed battery distributions.

    Returns (lambda_star, power_map, expected_power). The expected power is
    evaluated with the clamped continuous powers under the given
    distributions; the map also carries the rounded unit counts.
    """
    settings = settings or OptimizerSettings()
    net = scenario.network
    ctxs = [_sensor_context(net, s) for s in scenario.sensors]
    psi_arrays = [p.psi for p in psis]
    lam, powers, _roots, ep, _flags = _lambda_search(psi_arrays, ctxs, net,
                                                     settings, budget)
    units = _units(powers, net)
    pmap = PowerMap(powers=tuple(powers), units=tuple(units),
                    unit_energy=net.unit_energy, slot_seconds=net.slot_seconds)
    return lam, pmap, ep


def _kkt_report(lam, powers, roots, psi_arrays, ctxs, network, ep,
                budget=None) -> KktReport:
    B = network.power_budget if budget is None else float(budget)
    residuals, actives = [], []
    worst = 0.0
    for P, r, ctx in zip(powers, roots, ctxs):
        L1, K1 = P.shape
        res = np.full((L1, K1), np.nan)
        act = np.full((L1, K1), LEVEL_ZERO, dtype=np.int64)
        for l in range(1, L1):
            cand = np.vstack([
                ctx.causality,
                ctx.phi,
                np.full(K1, max(r[l], 0.0) if math.isfinite(r[l]) else math.inf),
            ])
            low = cand.min(axis=0)
            code = np.argmax(cand <= low[None, :], axis=0) + 1  # first of ties
            interior = (code == 3) & (r[l] > 0.0) & np.isfinite(r[l]) \
                & (cand[2] < cand[0]) & (cand[2] < cand[1])
            act[l] = np.where(interior, INTERIOR, code)
            if np.any(interior):
                gain = marginal_divergence_gain(P[l][interior], float(ctx.mu[l]),
                                                ctx.coeffs, ctx.noise_var)
                res[l][interior] = np.abs(gain - lam)
                worst = max(worst, float(np.max(res[l][interior])))
        residuals.append(res)
        actives.append(act)
    return KktReport(
        residuals=tuple(residuals),
        active=tuple(actives),
        max_interior_residual=worst,
        slackness=lam * (ep - B),
    )


def optimize_power_map(scenario: Scenario,
                       settings: OptimizerSettings | None = None) -> OptimizationOutcome:
    """Joint price search and battery fixed point for a whole scenario.

    Alternates: given the current battery distributions, price the budget and
    derive the clamped map; given the map's unit counts, push each battery
    chain one slot. On convergence the certificate (price, expected power,
    stationarity residuals, activity codes) is recomputed at the settled
    distributions. Non-convergence is reported through the converged flag and
    the warnings list instead of raising, so callers can still inspect the
    last iterate.
    """
    settings = settings or OptimizerSettings()
    net = scenario.network
    notes: list[str] = []
    for i, ok in enumerate(validate_convex_region(scenario.sensors)):
        if not ok:
            msg = (f"sensor {i}: operating point outside the concavity band; "
                   "the stationarity condition may have multiple roots")
            notes.append(msg)
            warnings.warn(msg, RuntimeWarning)

    ctxs = [_sensor_context(net, s) for s in scenario.sensors]
    chains = [ChainSpec(ctx.gain_probs, ctx.arrivals, ctx.transmit_prob)
              for ctx in ctxs]

    def update(psis):
        arrays = [p.psi for p in psis]
        _lam, powers, _roots, _ep, _fl = _lambda_search(arrays, ctxs, net,
                                                        settings, None)
        return _units(powers, net)

    converged = True
    try:
        psis, iters = steady_state_psi(chains, update, eps2=settings.psi_tol,
                                       max_iters=settings.max_outer_iters)
    except ConvergenceError as exc:
        converged = False
        psis = exc.psis
        iters = exc.iterations
        notes.append(f"battery fixed point did not settle: {exc}")

    psi_arrays = [p.psi for p in psis]
    lam, powers, roots, ep, flags = _lambda_search(psi_arrays, ctxs, net,
                                                   settings, None)
    notes.extend(flags)
    units = _units(powers, net)
    pmap = PowerMap(powers=tuple(powers), units=tuple(units),
                    unit_energy=net.unit_energy, slot_seconds=net.slot_seconds)
    kkt = _kkt_report(lam, powers, roots, psi_arrays, ctxs, net, ep)
    return OptimizationOutcome(
        power_map=pmap,
        psi_star=tuple(psis),
        lambda_star=lam,
        objective_j=_objective(powers, psi_arrays, ctxs),
        expected_power=ep,
        kkt=kkt,
        outer_iterations=iters,
        converged=converged,
        warnings=tuple(notes),
    )


# ---------------------------------------------------------------------------
# exhaustive oracle for tiny instances


@dataclass(frozen=True)
class ExhaustiveResult:
    objective_j: float
    units: np.ndarray
    expected_power: float
    psi: BatteryDistribution
    candidates: int
    feasible: int


def evaluate_unit_map(scenario: Scenario, units) -> tuple[float, float, tuple[BatteryDistribution, ...]]:
    """Exact objective and expected power of an integer unit map.

    Each sensor's chain is solved for its exact stationary distribution and
    the divergence is scored at the unit powers alpha * unit_energy / slot.
    """
    net = scenario.network
    ctxs = [_sensor_context(net, s) for s in scenario.sensors]
    alphas = [np.asarray(alpha, dtype=np.int64) for alpha in units]
    psis = tuple(stationary_oracle(alpha, ctx.gain_probs, ctx.arrivals, ctx.transmit_prob)
                 for ctx, alpha in zip(ctxs, alphas))
    powers = [alpha * net.unit_power for alpha in alphas]
    psi_arrays = [p.psi for p in psis]
    return (_objective(powers, psi_arrays, ctxs),
            _expected_power(powers, psi_arrays, ctxs), psis)


def exhaustive_best_map(scenario: Scenario, max_capacity: int = 8,
                        max_levels: int = 3, max_candidates: int = 2_000_000,
                        batch: int = 20_000) -> ExhaustiveResult:
    """Enumerate every admissible integer unit map of a tiny single-sensor scenario.

    Admissible means the per-entry causality and outage caps hold; feasible
    additionally means the exact stationary expected power fits the budget.
    Every candidate is scored with its own exact stationary distribution, so
    this is a true global oracle (and why the guard rails are tight).
    """
    net = scenario.network
    if scenario.num_sensors != 1:
        raise ValueError("exhaustive search supports single-sensor scenarios only")
    sensor = scenario.sensors[0]
    K = net.capacity
    L1 = sensor.level_count
    if K > max_capacity or (L1 - 1) > max_levels:
        raise ValueError(
            f"scenario too large for exhaustive search (capacity {K} > {max_capacity} "
            f"or levels {L1 - 1} > {max_levels})"
        )
    ctx = _sensor_context(net, sensor)
    unit_power = net.unit_power
    states = np.arange(K + 1)
    # hard per-state unit cap from causality and the outage cap
    amax = np.minimum(states, np.floor(ctx.phi / unit_power + 1e-9).astype(np.int64))

    per_level = [np.array(list(itertools.product(*[range(a + 1) for a in amax])),
                          dtype=np.int64) for _ in range(L1 - 1)]
    counts = [c.shape[0] for c in per_level]
    total = int(np.prod(counts)) if counts else 1
    if total > max_candidates:
        raise ValueError(f"{total} candidate maps exceed the {max_candidates} cap")

    from .battery import _shift_rows  # row table shared with the chain builder

    rows = _shift_rows(ctx.arrivals.pmf)
    idle = rows[states + K]
    base = (1.0 - ctx.transmit_prob) * idle
    pi = ctx.gain_probs.pi
    # per-level gathered spend kernels, weighted by cell probability
    spend = [ctx.transmit_prob * pi[1 + l]
             * rows[states[None, :] - per_level[l] + K]
             for l in range(L1 - 1)]
    idle_weighted = ctx.transmit_prob * pi[0] * idle  # dead level never drains

    j_table = sensor_j_divergence(ctx.mu[:, None], (states * unit_power)[None, :],
                                  ctx.coeffs, ctx.noise_var)
    budget = net.power_budget * (1.0 + 1e-12) + 1e-15

    best_j = -math.inf
    best_idx = -1
    best_psi = None
    best_ep = math.nan
    feasible = 0
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total))
        sub = idx.copy()
        level_idx = []
        for cnt in reversed(counts):
            level_idx.append(sub % cnt)
            sub //= cnt
        level_idx.reverse()
        M = np.broadcast_to(base + idle_weighted, (idx.size, K + 1, K + 1)).copy()
        alphas = []
        for l in range(L1 - 1):
            sel = per_level[l][level_idx[l]]
            alphas.append(sel)
            M += spend[l][level_idx[l]]
        psi = stationary_solve(M)

        ep = np.zeros(idx.size)
        jval = np.full(idx.size, pi[0] * 2.0)  # dead level scores the floor
        for l in range(L1 - 1):
            a = alphas[l]
            ep += pi[1 + l] * np.einsum("bk,bk->b", psi, a * unit_power)
            jval += pi[1 + l] * np.einsum("bk,bk->b", psi, j_table[1 + l, a])
        ok = ep <= budget
        feasible += int(np.count_nonzero(ok))
        if np.any(ok):
            cand = np.where(ok, jval, -math.inf)
            arg = int(np.argmax(cand))
            if cand[arg] > best_j:
                best_j = float(cand[arg])
                best_idx = int(idx[arg])
                best_psi = psi[arg].copy()
                best_ep = float(ep[arg])

    if best_idx < 0:
        raise ValueError("no feasible unit map under the budget")
    sub = best_idx
    chosen = []
    for cnt in reversed(counts):
        chosen.append(sub % cnt)
        sub //= cnt
    chosen.reverse()
    units = np.vstack([np.zeros(K + 1, dtype=np.int64)] +
                      [per_level[l][chosen[l]] for l in range(L1 - 1)])
    return ExhaustiveResult(
        objective_j=best_j,
        units=units,
        expected_power=best_ep,
        psi=BatteryDistribution(psi=best_psi),
        candidates=total,
        feasible=feasible,
    )
