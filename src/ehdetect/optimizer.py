"""Budgeted transmit-power maps by price search plus battery fixed point.

The network maximizes the summed per-sensor divergence subject to a shared
average-power budget, per-state causality (a slot cannot drain more than the
battery holds), and a per-state outage cap. For a fixed battery distribution
the problem separates: each (sensor, level) pair has a stationarity power
where the marginal divergence gain equals the budget price, clamped into the
feasible interval. Each level's root is its own safeguarded Newton iteration
on Python floats: a call has only a handful of levels, and numpy's per-call
overhead on such small arrays would outweigh the few dozen float operations
of a step. The price is found on the monotone expected power by regula
falsi (Illinois variant) with a bisection fallback. The battery
distributions are then replaced by the exact stationary laws of the
resulting integer unit map, and the two steps repeat (policy iteration)
until the unit map comes back unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .battery import (
    ArrivalUnitPmf,
    ChainSpec,
    GainLevelProbs,
    _drain_rows,
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

# Relative to the budget: bounds the price search's budget miss and the
# complementary-slackness product of its certificate.
BUDGET_TOL = 1e-6
# Relative to the price: a root stops at its first iterate whose gain is
# within ROOT_TOL * price of the price.
ROOT_TOL = 1e-9
MAX_PRICE_ITERS = 10_000  # evaluations before the price bracket counts as collapsed
# Guard rails of the exhaustive oracle, whose candidate count is the product
# of the per-state unit choices raised to the number of live levels.
EXHAUSTIVE_MAX_CAPACITY = 8
EXHAUSTIVE_MAX_LEVELS = 3
EXHAUSTIVE_MAX_CANDIDATES = 2_000_000
EXHAUSTIVE_BATCH = 20_000  # candidate maps per stacked linear solve

# non-monotone root scan, scaled per level by the power beyond which the gain
# is surely below the price
_SCAN = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 8192)))


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
    price_evaluations: int    # expected-power evaluations over all rounds
    converged: bool
    warnings: tuple[str, ...]


def marginal_divergence_gain(power, mu, coeffs: RocCoefficients, noise_var: float):
    """d/dp of the per-sensor divergence at quantized gain mu.

    Vectorized: power and mu may be arrays that broadcast.
    """
    out, _ = _gain_and_derivative(np.asarray(power, dtype=float), mu, coeffs,
                                  noise_var, derivative=False)
    return float(out) if np.ndim(out) == 0 else out


def _gain_and_derivative(p, mu, coeffs: RocCoefficients, noise_var: float,
                         derivative=True):
    """The marginal divergence gain and its power derivative (None if not asked)."""
    s = noise_var
    slope1, slope2 = coeffs.slopes
    d1 = s + coeffs.den1 * mu * p
    d2 = s + coeffs.den2 * mu * p
    t1 = slope1 * s * mu / (d1 * d1)
    t2 = slope2 * s * mu / (d2 * d2)
    if not derivative:
        return t1 + t2, None
    return t1 + t2, -2.0 * mu * (coeffs.den1 * t1 / d1 + coeffs.den2 * t2 / d2)


def outage_cap(state, sensor: SensorParams, network: NetworkParams):
    """Largest slot power that keeps the battery-drop constraint satisfiable.

    The constraint demands the next battery stay above drop_fraction * state
    with probability outage_confidence. Only the spend branch can violate it,
    so the cap solves the exponential-tail inequality in closed form; when the
    transmit prior already absorbs the allowed failure mass the cap is vacuous
    (+inf). Vectorized: an array of states gives an array of caps.
    """
    prior_h1 = network.prior_h1
    slack = prior_h1 - 1.0 + sensor.outage_confidence
    if slack <= 0.0:
        return math.inf if np.ndim(state) == 0 else np.full(np.shape(state), math.inf)
    joules = (-network.mean_harvest * math.log(slack / prior_h1)
              - state * network.unit_energy * (network.drop_fraction - 1.0))
    return joules / network.slot_seconds


def stationarity_root(lam: float, mu, coeffs: RocCoefficients, noise_var: float):
    """Power where the marginal divergence gain equals the price lam.

    Takes a scalar gain or an array of gains (one root per entry). Returns 0.0
    on a dead level (mu == 0) and +inf when lam <= 0 (the gain stays positive,
    so nothing stops the power short of the clamps). When even the zero-power
    gain is at or below the price there is no positive root and the sentinel
    -1.0 is returned for the positive-part clamp to absorb; lam = +inf prices
    every level out this way. A NaN lam, a NaN, infinite or negative mu, and
    a noise_var that is not finite and positive raise ValueError.

    Every term of the gain is below lam/2 beyond a closed-form power p_big.
    Inside the concavity band the gain is strictly decreasing, so [0, p_big]
    brackets the only crossing; outside it the gain may be non-monotone, in
    which case the smallest crossing on a dense scan of [0, p_big] (all
    levels at once) is bracketed instead. The call does not warn; a solve
    reports an operating point outside the band once, as a note on its
    OptimizationOutcome. A level whose zero-power gain without its
    negative-slope term is at or below lam cannot rise above the price at
    any power; it returns -1.0, and its scan stays at zero power. A level
    that can rise above the price but whose p_big overflows (as when lam / 2
    underflows) returns +inf on either path, as for lam <= 0.
    Each level's bracket then feeds its own safeguarded Newton iteration
    (rtsafe, Press et al., Numerical Recipes 9.4) on gain**-0.5 = lam**-0.5,
    which is linear in power when one term of the gain is live. As in
    rtsafe, a step that leaves the bracket, or that is over half the step
    before last, bisects instead. A level stops at its first iterate whose
    residual is within ROOT_TOL * lam, so its root does not depend on the
    other levels in the call.
    """
    m = np.asarray(mu, dtype=float)
    if not ((m >= 0.0) & (m < math.inf)).all():
        raise ValueError("mu must be finite and >= 0")
    if not 0.0 < noise_var < math.inf:
        raise ValueError("noise_var must be finite and > 0")
    if math.isnan(lam):
        raise ValueError("lam must not be NaN")
    out = np.zeros(m.shape)
    live = m > 0.0
    if lam <= 0.0:
        out[live] = math.inf
    elif live.any():
        out[live] = _live_roots(lam, m[live], coeffs, noise_var)
    return float(out) if out.ndim == 0 else out


def _live_roots(lam, mu, coeffs, noise_var):
    """stationarity_root on a 1-D array of positive gains and a positive price."""
    slope1, slope2 = coeffs.slopes
    mus = mu.tolist()
    if slope1 >= 0.0 and slope2 >= 0.0:
        # the gain decreases, so [0, p_big] holds the only crossing
        roots = []
        for m in mus:
            g, dg = _gain_and_derivative(0.0, m, coeffs, noise_var)
            if g > lam:
                hi = _p_big(lam, m, coeffs, noise_var)
                roots.append(_rtsafe(lam, m, 0.0, hi, g, dg, coeffs, noise_var))
            else:
                roots.append(-1.0)
        return roots
    out = np.full(mu.size, -1.0)
    # A term of the gain is at most its zero-power value, and at most 0 where
    # its slope is negative. So a level whose positive terms sum to lam or
    # less at zero power never rises above the price: its scan stays at
    # p = 0, where it finds no crossing and the level is priced out. This
    # also keeps out a gain so small that p_big overflows, whose scan would
    # start at inf * 0 = NaN. The bound repeats the operations of
    # _gain_and_derivative at p = 0, so it bounds the computed gains too.
    s = noise_var
    pos1, pos2 = max(slope1, 0.0) * s, max(slope2, 0.0) * s
    ends = np.array([_p_big(lam, m, coeffs, noise_var)
                     if pos1 * m / (s * s) + pos2 * m / (s * s) > lam else 0.0
                     for m in mus])
    # A level that can rise above a price so small that its bracket end
    # overflows is unbounded, as inside the band; its scan stays at p = 0.
    unbounded = ends == math.inf
    grid = np.where(unbounded, 0.0, ends)[:, None] * _SCAN
    vals = marginal_divergence_gain(grid.T, mu, coeffs, noise_var).T - lam
    change = np.diff(np.sign(vals), axis=1) != 0
    solve = change.any(axis=1)
    out[(~solve & (vals[:, 0] > 0.0)) | unbounded] = math.inf
    rows = np.flatnonzero(solve)
    i = np.argmax(change[rows], axis=1)
    lo, hi = grid[rows, i], grid[rows, i + 1]
    flip = vals[rows, i] < 0.0  # orient so f(lo) > 0 > f(hi)
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    g, dg = _gain_and_derivative(lo, mu[rows], coeffs, noise_var)
    for r, m, a, b, ga, dga in zip(rows, mu[rows].tolist(), lo.tolist(),
                                   hi.tolist(), g.tolist(), dg.tolist()):
        out[r] = _rtsafe(lam, m, a, b, ga, dga, coeffs, noise_var)
    return out


def _p_big(lam, mu, coeffs, noise_var):
    """A power beyond which both terms of the gain are within lam/2 of zero."""
    p_big = 1.0
    try:
        for slope, den in zip(coeffs.slopes, (coeffs.den1, coeffs.den2)):
            need = math.sqrt(max(abs(slope) * noise_var * mu / (0.5 * lam), 1e-30))
            p_big = max(p_big, (need + noise_var) / (den * mu))
    except ZeroDivisionError:  # a price or gain so small that a divisor underflows
        return math.inf
    return p_big


def _rtsafe(lam, mu, lo, hi, g, dg, coeffs, noise_var):
    """One level's root in [lo, hi] on Python floats.

    g > lam and dg are the gain and its slope at lo, the f > 0 end, where the
    iteration starts. Returns the first iterate within ROOT_TOL * lam, or the
    last of 220.
    """
    p = lo
    # the last step and the one before it; rtsafe starts mid-bracket with
    # both at the bracket width, this loop starts at an end, so twice that
    dx = dx_old = 2.0 * abs(hi - lo)
    for _ in range(220):
        ok, ratio = False, g / lam
        # a zero slope or a negative ratio makes the float64 Newton step
        # infinite or NaN, which fails the tests below: bisect without it
        if dg != 0.0 and ratio >= 0.0:
            # Newton on g**-0.5 = lam**-0.5, exact when one term of the gain is live
            newton = 2.0 * g * (1.0 - math.sqrt(ratio)) / dg
            step, size = p + newton, abs(newton)
            # bisect when the step leaves the bracket or is over half the step
            # before last, so a crawling Newton sequence still halves the bracket
            ok = (step - lo) * (step - hi) < 0.0 and size + size <= dx_old
        mid = 0.5 * (lo + hi)
        dx_old, dx = dx, (size if ok else abs(hi - mid))
        p = step if ok else mid
        g, dg = _gain_and_derivative(p, mu, coeffs, noise_var)
        if g > lam:
            lo = p
        else:
            hi = p
        if abs(g - lam) <= ROOT_TOL * lam:
            break
    return p


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
    phi = outage_cap(np.arange(network.capacity + 1), sensor, network)
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


def _map_for_lambda(lam: float, ctxs, network: NetworkParams):
    """Clamped power tables and raw roots for every sensor at one price."""
    powers, roots = [], []
    for ctx in ctxs:
        r = np.zeros(ctx.mu.size)  # index 0 is the dead level
        r[1:] = stationarity_root(lam, ctx.mu[1:], ctx.coeffs, ctx.noise_var)
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


def _lambda_search(psi_arrays, ctxs, network: NetworkParams):
    """Price, power tables, roots, expected power, flags, and price evaluations."""
    B = network.power_budget
    flags: list[str] = []
    lam_max = max(ctx.lambda_ceiling for ctx in ctxs)
    evaluations = 0

    def ep_at(lam: float):
        nonlocal evaluations
        evaluations += 1
        powers, roots = _map_for_lambda(lam, ctxs, network)
        return powers, roots, _expected_power(powers, psi_arrays, ctxs)

    tol_abs = BUDGET_TOL * B
    powers0, roots0, ep0 = ep_at(0.0)
    if ep0 <= B + tol_abs:
        return 0.0, powers0, roots0, ep0, flags, evaluations

    # regula falsi with the Illinois modification on ep(lam) - B, bisecting
    # when the secant point is not strictly inside the bracket; lam_max prices
    # every level out, so hi is always the feasible end
    lo, hi = 0.0, lam_max
    at_hi = ep_at(hi)
    f_lo, f_hi = ep0 - B, at_hi[2] - B
    moved = None  # the end the previous step replaced
    for _ in range(MAX_PRICE_ITERS):
        lam = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
            if not lo < lam < hi:
                break
        powers, roots, ep = at = ep_at(lam)
        if abs(ep - B) <= tol_abs / max(1.0, lam):
            return lam, powers, roots, ep, flags, evaluations
        if ep > B:
            lo, f_lo = lam, ep - B
            if moved == "lo":
                f_hi *= 0.5  # hi kept twice in a row
            moved = "lo"
        else:
            hi, f_hi, at_hi = lam, ep - B, at
            if moved == "hi":
                f_lo *= 0.5
            moved = "hi"
    flags.append("price bracket collapsed before meeting the budget tolerance")
    return (hi, *at_hi, flags, evaluations)


def lambda_search(psis, scenario: Scenario):
    """Find the budget price for fixed battery distributions.

    Returns (lambda_star, power_map, expected_power). The expected power is
    evaluated with the clamped continuous powers under the given
    distributions; the map also carries the rounded unit counts.
    """
    net = scenario.network
    ctxs = [_sensor_context(net, s) for s in scenario.sensors]
    psi_arrays = [p.psi for p in psis]
    lam, powers, _roots, ep, _flags, _evals = _lambda_search(psi_arrays, ctxs, net)
    units = _units(powers, net)
    pmap = PowerMap(powers=tuple(powers), units=tuple(units),
                    unit_energy=net.unit_energy, slot_seconds=net.slot_seconds)
    return lam, pmap, ep


def _kkt_report(lam, powers, roots, ctxs, network, ep) -> KktReport:
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
        slackness=lam * (ep - network.power_budget),
    )


def optimize_power_map(scenario: Scenario) -> OptimizationOutcome:
    """Joint price search and battery fixed point for a whole scenario.

    Policy iteration: given the current battery distributions, price the
    budget and derive the clamped map; given the map's unit counts, solve
    each battery chain for its exact stationary law. It stops when the unit
    map repeats, so psi_star is the stationary law of the returned units. The
    certificate (price, expected power, stationarity residuals, activity
    codes) is the last price search's, made at psi_star.

    The outcome is the only channel for trouble: the solve neither raises
    nor emits Python warnings over it. converged is False when the unit map
    cycles or hits battery.MAX_ROUNDS, and the last iterate is returned for
    inspection. warnings holds one note per condition: each sensor outside
    the concavity band, a fixed point that did not settle, and a price
    bracket that collapsed before meeting the budget tolerance (which leaves
    converged True).
    """
    net = scenario.network
    notes = [f"sensor {i}: operating point outside the concavity band; "
             "the stationarity condition may have multiple roots"
             for i, ok in enumerate(validate_convex_region(scenario.sensors)) if not ok]

    ctxs = [_sensor_context(net, s) for s in scenario.sensors]
    chains = [ChainSpec(ctx.gain_probs, ctx.arrivals, ctx.transmit_prob)
              for ctx in ctxs]

    last = None  # the price search of the final round, at the returned laws
    price_evaluations = 0

    def update(psis):
        nonlocal last, price_evaluations
        last = _lambda_search([p.psi for p in psis], ctxs, net)
        price_evaluations += last[-1]
        return _units(last[1], net)

    psis, iters, problem = steady_state_psi(chains, update)
    if problem is not None:
        notes.append(f"battery fixed point did not settle: {problem}")

    psi_arrays = [p.psi for p in psis]
    lam, powers, roots, ep, flags, _evals = last
    notes.extend(flags)
    units = _units(powers, net)
    pmap = PowerMap(powers=tuple(powers), units=tuple(units),
                    unit_energy=net.unit_energy, slot_seconds=net.slot_seconds)
    kkt = _kkt_report(lam, powers, roots, ctxs, net, ep)
    return OptimizationOutcome(
        power_map=pmap,
        psi_star=tuple(psis),
        lambda_star=lam,
        objective_j=_objective(powers, psi_arrays, ctxs),
        expected_power=ep,
        kkt=kkt,
        outer_iterations=iters,
        price_evaluations=price_evaluations,
        converged=problem is None,
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


def exhaustive_best_map(scenario: Scenario) -> ExhaustiveResult:
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
    if K > EXHAUSTIVE_MAX_CAPACITY or (L1 - 1) > EXHAUSTIVE_MAX_LEVELS:
        raise ValueError(
            f"scenario too large for exhaustive search (capacity {K} > "
            f"{EXHAUSTIVE_MAX_CAPACITY} or levels {L1 - 1} > {EXHAUSTIVE_MAX_LEVELS})"
        )
    ctx = _sensor_context(net, sensor)
    unit_power = net.unit_power
    states = np.arange(K + 1)
    # hard per-state unit cap from causality and the outage cap
    amax = np.minimum(states, np.floor(ctx.phi / unit_power + 1e-9).astype(np.int64))

    # every live level picks its row from the same per-state unit choices;
    # a candidate map is one mixed-radix number with a digit per live level
    counts = (int(np.prod(amax + 1)),) * (L1 - 1)
    total = math.prod(counts)
    if total > EXHAUSTIVE_MAX_CANDIDATES:
        raise ValueError(
            f"{total} candidate maps exceed the {EXHAUSTIVE_MAX_CANDIDATES} cap")
    choices = np.array(list(itertools.product(*[range(a + 1) for a in amax])),
                       dtype=np.int64)

    rows = _drain_rows(np.vstack([np.zeros(K + 1, dtype=np.int64), choices]),
                       ctx.arrivals)
    idle = rows[0]
    base = (1.0 - ctx.transmit_prob) * idle
    pi = ctx.gain_probs.pi
    # per-level gathered spend kernels, weighted by cell probability
    spend = [ctx.transmit_prob * pi[1 + l] * rows[1:] for l in range(L1 - 1)]
    idle_weighted = ctx.transmit_prob * pi[0] * idle  # dead level never drains
    del rows, idle  # held through the batch loop, they raise its peak RSS by ~1 MB

    j_table = sensor_j_divergence(ctx.mu[:, None], (states * unit_power)[None, :],
                                  ctx.coeffs, ctx.noise_var)
    budget = net.power_budget * (1.0 + 1e-12) + 1e-15

    best_j = -math.inf
    best_idx = -1
    best_psi = None
    best_ep = math.nan
    feasible = 0
    for start in range(0, total, EXHAUSTIVE_BATCH):
        idx = np.arange(start, min(start + EXHAUSTIVE_BATCH, total))
        # a lone dead level leaves no digit to decode
        level_idx = np.unravel_index(idx, counts) if counts else ()
        M = np.broadcast_to(base + idle_weighted, (idx.size, K + 1, K + 1)).copy()
        alphas = []
        for l in range(L1 - 1):
            sel = choices[level_idx[l]]
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
    chosen = np.unravel_index(best_idx, counts)
    units = np.vstack([np.zeros(K + 1, dtype=np.int64)] + [choices[c] for c in chosen])
    return ExhaustiveResult(
        objective_j=best_j,
        units=units,
        expected_power=best_ep,
        psi=BatteryDistribution(psi=best_psi),
        candidates=total,
        feasible=feasible,
    )
