"""Budgeted transmit-power maps by price search plus battery fixed point.

The network maximizes the summed per-sensor divergence subject to a shared
average-power budget, per-state causality (a slot cannot drain more than the
battery holds), and a per-state outage cap. For a fixed battery distribution
the problem separates: each (sensor, level) pair has a stationarity power
where the marginal divergence gain equals the budget price, clamped into the
feasible interval. The gain has at most one interior maximum, at a power in
closed form, so each level's crossing is bracketed on a monotone piece of
its gain and no scan is run. Each level's root is its own safeguarded Newton
iteration on Python floats: a call has only a handful of levels, and numpy's
per-call overhead on such small arrays would outweigh the few dozen float
operations of a step. A solve builds each live level's gain constants
(_gain_constants, which the one gain kernel _gain_and_slope reads) and the
price-free parts of its bracket once, as Python floats (_Level), so a price
evaluation runs the root iterations, one in-place clamp at zero, one clamp
to the caps and one einsum per sensor, and nothing else; its roots equal
stationarity_root's bit for bit. The price is found on the monotone expected
power by regula falsi (Illinois variant) with a bisection fallback, up to
the largest gain a live level reaches, where every power is 0. The battery
distributions are then replaced by the exact stationary laws of the
resulting integer unit map, all sensors' chains in one stacked solve, and
the two steps repeat (policy iteration) until the unit map comes back
unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .battery import (
    ChainSpec,
    _stationary_laws,
    arrival_unit_pmf,
    gain_level_probs,
    stationary_oracle,  # no caller here: perfbench's tracer patches this name
    stationary_solve,
    steady_state_psi,
    transition_matrix,
    transmit_probability,
)
from .config import (
    BatteryDistribution,
    NetworkParams,
    PowerMap,
    Scenario,
    SensorParams,
    _fits_each_sensor,
    _one_per_sensor,
    units_from_power,
)
from .detection import RocCoefficients, roc_coefficients, sensor_j_divergence

__all__ = [
    "KktReport",
    "OptimizationOutcome",
    "ExhaustiveRefused",
    "ExhaustiveResult",
    "marginal_divergence_gain",
    "outage_cap",
    "stationarity_root",
    "optimize_power_map",
    "evaluate_unit_map",
    "exhaustive_best_map",
]

# activity codes used in KktReport.active
INTERIOR, CLAMP_CAUSALITY, CLAMP_OUTAGE, CLAMP_ZERO, LEVEL_ZERO = 0, 1, 2, 3, 4

# Relative to the budget: bounds the price search's budget miss, and the
# certificate's complementary-slackness product, which validate checks as
# |lambda_star * (expected_power - power_budget)| <= BUDGET_TOL * power_budget.
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
# float64 values per stacked (chains, K+1, K+1) array of one batch: about
# 1 MiB at any capacity, so a batch's matrices stay inside a 4 MiB L2 cache
EXHAUSTIVE_BATCH_ELEMENTS = 1 << 17
# Relative to the largest divergence or spend of a state: the oracle re-scores
# a candidate with the stacked solve where its regenerative spend lies this
# close to the budget, or its objective this close to the best one. A
# regenerative law is kept only when its error bound is a hundredth of it.
_RESCORE_MARGIN = 1e-9
# Below this chance of reaching K in one slot from some state, the error bound
# of a regenerative law, a rounded residual over that chance, cannot reach its
# tolerance, and the group's K x K system may be singular in floating point
_MIN_LEAK = 1e-6


@dataclass(frozen=True)
class KktReport:
    """Stationarity and activity audit of a returned map.

    residuals[n][l, k] is |marginal gain - price| where the entry is interior
    and NaN elsewhere; active[n][l, k] holds the activity codes 0=interior,
    1=causality clamp, 2=outage clamp, 3=zero power, 4=dead level. The codes
    are read off the stored powers in the clamp's order: the first cap a
    power equals (causality, outage, zero) names the clamp, and a live entry
    equal to none of them is interior.
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
    # an overflowing d * d gives the gain's limit, 0; the dropped slope grows as mu**2
    with np.errstate(over="ignore"):
        out, _ = _gain_and_slope(np.asarray(power, dtype=float),
                                 *_gain_constants(mu, coeffs, noise_var))
    return float(out) if np.ndim(out) == 0 else out


def _gain_constants(mu, coeffs: RocCoefficients, s: float):
    """The first eight _Level fields of the gain at mu, floats or arrays as mu is."""
    return (s, coeffs.slope1 * s * mu, coeffs.slope2 * s * mu,
            coeffs.den1 * mu, coeffs.den2 * mu, coeffs.den1, coeffs.den2, -2.0 * mu)


def _gain_and_slope(p, s, a1, a2, b1, b2, den1, den2, m2):
    """The gain at power p and its slope, from _gain_constants'; all broadcast."""
    d1 = s + b1 * p
    d2 = s + b2 * p
    t1 = a1 / (d1 * d1)
    t2 = a2 / (d2 * d2)
    return t1 + t2, m2 * (den1 * t1 / d1 + den2 * t2 / d2)


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
    Inside the concavity band the gain only falls. Outside it (_gain_peak)
    it first rises to a peak whose power is in closed form
    (_level_constants), and then it falls. So no scan is run: a level whose
    zero-power gain is above lam crosses it once, falling, on [0, p_big];
    otherwise a level whose peak gain is above lam crosses it first rising,
    on [0, peak], which is the smallest crossing; any other level never
    rises above the price and returns -1.0. The falling bracket ends no
    further than where some d_i = s + b_i * p reaches half the square root
    of the largest float, so d_i * d_i stays finite; a level whose gain is
    still above lam there (at prices below about 1e-307) returns +inf, as for
    lam <= 0. Where both b_i underflow to 0 the gain is flat and p_big
    overflows: the iteration then bisects to +inf unless its first Newton
    step is finite. The call does not warn; a solve
    reports an operating point outside the band once, as a note on its
    OptimizationOutcome.
    Each level's bracket then feeds its own safeguarded Newton iteration
    (rtsafe, Press et al., Numerical Recipes 9.4) on gain**-0.5 = lam**-0.5,
    which is linear in power when one term of the gain is live. As in
    rtsafe, a step that leaves the bracket, or that is over half the step
    before last, bisects instead. A level stops at its first iterate whose
    residual is within ROOT_TOL * lam, so its root does not depend on the
    other levels in the call. A solve runs the same code on level constants
    it builds once (_SensorCtx.levels), so its roots equal this call's.
    """
    m = np.asarray(mu, dtype=float)
    if not ((m >= 0.0) & (m < math.inf)).all():
        raise ValueError("mu must be finite and >= 0")
    if not 0.0 < noise_var < math.inf:
        raise ValueError("noise_var must be finite and > 0")
    if math.isnan(lam):
        raise ValueError("lam must not be NaN")
    live = m > 0.0
    levels = [_level_constants(x, coeffs, noise_var) for x in m[live].tolist()]
    out = _roots(lam, live, levels)
    return float(out) if out.ndim == 0 else out


class _Level(NamedTuple):
    """Python-float constants of one live level's marginal divergence gain.

    With d_i = s + b_i * p and t_i = a_i / d_i**2, the gain at power p is
    t1 + t2 and its slope is m2 * (den1 * t1 / d1 + den2 * t2 / d2). The
    first eight fields are _gain_constants', and _gain_and_slope evaluates
    the gain from them; _rtsafe reads them too and runs that kernel's six
    operations inline, in its order, so its gains equal the kernel's bit
    for bit. A sign flip is exact, so abs_a_i equals |slope_i| * s * mu bit
    for bit too. abs_a_i and top are the price-free parts of _falling_root's
    bracket, built here so a price evaluation does not rebuild them.
    """

    s: float            # noise variance
    a1: float           # slope_i * s * mu
    a2: float
    b1: float           # den_i * mu
    b2: float
    den1: float
    den2: float
    m2: float           # -2 * mu
    g0: float           # gain at zero power
    dg0: float          # its slope
    peak: float         # power of the gain's interior maximum, 0.0 if it has none
    g_peak: float       # gain there (g0 without a peak)
    dg_peak: float      # its slope
    abs_a1: float       # abs(a_i)
    abs_a2: float
    top: float          # power where some d_i reaches half the square root of the
                        # largest float, so d_i * d_i stays finite; +inf if no b_i > 0


def _gain_peak(coeffs: RocCoefficients):
    """(r, den_i, den_j) where the marginal gain rises to an interior peak,
    None where it only falls: the concavity band.

    With a positive term i and a negative term j, the gain's slope vanishes
    where (s + den_j*mu*p) = r * (s + den_i*mu*p), r**3 = the ratio below,
    and that is a maximum past zero power exactly when r > 1 and
    den_j > r * den_i. r > 1 is read off the sign of coeffs.tilt, which
    stays exact where r**3 is within rounding of 1, and the second test is
    made on r**3, so no cube root's rounding decides it; r is taken only for
    the peak's power. Neither mu nor the noise variance s enters the test,
    so it is one per sensor, live levels or not.
    """
    if coeffs.slope1 * coeffs.slope2 < 0.0 and coeffs.tilt < 0.0:
        (sp, dp), (sn, dn) = sorted(((coeffs.slope1, coeffs.den1),
                                     (coeffs.slope2, coeffs.den2)), reverse=True)
        r3 = -sn * dn / (sp * dp)
        if dn ** 3 > r3 * dp ** 3:
            # r3 rounds to 1 or below where only tilt resolves r > 1
            return max(r3, 1.0) ** (1.0 / 3.0), dp, dn
    return None


def _level_constants(mu: float, coeffs: RocCoefficients, noise_var: float) -> _Level:
    """The _Level of a live gain mu, a Python float."""
    s = noise_var
    gain = _gain_constants(mu, coeffs, s)
    g0, dg0 = _gain_and_slope(0.0, *gain)
    peak, g_peak, dg_peak = 0.0, g0, dg0
    rising = _gain_peak(coeffs)
    if rising is not None:
        # mu cancels out of r; dividing by it last turns an underflowing mu
        # into +inf rather than a zero divisor. A peak past half the largest
        # float is taken there: the gain still rises up to it, and a
        # bisection's lo + hi on [0, peak] stays finite. At the band's edge
        # the peak recedes without bound, and there dn - r * dp can round to
        # zero or below while the exact test on r**3 still says it rises
        r, dp, dn = rising
        span = dn - r * dp
        peak = 0.5 * sys.float_info.max
        if span > 0.0:
            peak = min(s * (r - 1.0) / span / mu, peak)
        g_peak, dg_peak = _gain_and_slope(peak, *gain)
    _, a1, a2, b1, b2 = gain[:5]
    b = max(b1, b2)
    return _Level(*gain, g0=g0, dg0=dg0, peak=peak, g_peak=g_peak, dg_peak=dg_peak,
                  abs_a1=abs(a1), abs_a2=abs(a2),
                  top=(0.5 * math.sqrt(sys.float_info.max) - s) / b if b > 0.0
                  else math.inf)


def _roots(lam, live, levels) -> np.ndarray:
    """Every level's root at a price that is not NaN: 0.0 where live is False,
    and levels[i] the constants of the i-th live level."""
    out = np.zeros(live.shape)
    if lam <= 0.0:
        out[live] = math.inf
    elif levels:
        out[live] = _live_roots(lam, levels)
    return out


def _live_roots(lam, levels):
    """The roots of the live levels at a positive price, bracketed as
    stationarity_root says: falling on [0, p_big], else rising on [0, peak]."""
    return [_falling_root(lam, lv) if lv.g0 > lam
            else _rtsafe(lam, lv, lv.peak, 0.0, lv.g_peak, lv.dg_peak)
            if lv.g_peak > lam else -1.0 for lv in levels]


def _falling_root(lam, level: _Level):
    """The crossing on [0, p_big], where p_big is a power beyond which both
    terms of the gain are within lam/2 of zero, with the bracket cut at
    level.top, where d * d could overflow; +inf when the gain is still above
    lam at the cut, or when a price or gain so small that a divisor
    underflows leaves p_big unbounded."""
    s, half = level.s, 0.5 * lam
    try:
        hi = max(1.0,
                 (math.sqrt(max(level.abs_a1 / half, 1e-30)) + s) / level.b1,
                 (math.sqrt(max(level.abs_a2 / half, 1e-30)) + s) / level.b2)
    except ZeroDivisionError:
        hi = math.inf
    if level.top < hi:
        hi = level.top
        if _gain_and_slope(hi, *level[:8])[0] > lam:
            return math.inf
    return _rtsafe(lam, level, 0.0, hi, level.g0, level.dg0)


def _rtsafe(lam, level: _Level, lo, hi, g, dg):
    """One level's root between lo and hi, in either order, on Python floats.

    g > lam and dg are the gain and its slope at lo, the f > 0 end, where the
    iteration starts. Returns the first iterate within ROOT_TOL * lam, or the
    last of 220.
    """
    s, a1, a2, b1, b2, den1, den2, m2 = level[:8]
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
        # _gain_and_slope(p, *level[:8]) inline: a call per step is 5-20% slower
        d1 = s + b1 * p
        d2 = s + b2 * p
        t1 = a1 / (d1 * d1)
        t2 = a2 / (d2 * d2)
        g = t1 + t2
        dg = m2 * (den1 * t1 / d1 + den2 * t2 / d2)
        if g > lam:
            lo = p
        else:
            hi = p
        if abs(g - lam) <= ROOT_TOL * lam:
            break
    return p


# ---------------------------------------------------------------------------
# internal per-sensor context


@dataclass(frozen=True)
class _SensorCtx:
    coeffs: RocCoefficients
    chain: ChainSpec
    noise_var: float
    mu: np.ndarray            # lower cell edges, shape (L+1,)
    phi: np.ndarray           # outage cap per state, shape (K+1,)
    causality: np.ndarray     # stored power per state, state * unit_power
    cap: np.ndarray           # most a state may spend: min(causality, phi), in watts
    unit_cap: np.ndarray      # the whole units of cap, int64
    j_units: np.ndarray       # read-only divergence at a whole units, shape (L+1, K+1)
    lambda_ceiling: float     # largest live-level gain, at least 5e-324: prices all out
    live: np.ndarray          # mu > 0
    levels: tuple[_Level, ...]  # root constants of the live levels, in order


def _sensor_context(network: NetworkParams, sensor: SensorParams) -> _SensorCtx:
    coeffs = roc_coefficients(sensor.p_f, sensor.p_d)
    chain = ChainSpec(gain_level_probs(sensor.mean_gain, sensor.thresholds),
                      arrival_unit_pmf(network.mean_harvest, network.unit_energy,
                                       network.capacity),
                      transmit_probability(network, sensor))
    states = np.arange(network.capacity + 1)
    phi = outage_cap(states, sensor, network)
    causality = states * network.unit_power
    cap = np.minimum(causality, phi)
    mu = np.asarray(sensor.thresholds[:-1], dtype=float)
    live = mu > 0.0
    levels = tuple(_level_constants(m, coeffs, sensor.noise_var) for m in mu[live].tolist())
    # the one place whole-unit powers are scored: causality[a] is a * unit_power
    j_units = sensor_j_divergence(mu[:, None], causality[None, :], coeffs, sensor.noise_var)
    # finite where phi is +inf; the slack absorbs dust on a unit boundary
    unit_cap = np.floor(cap / network.unit_power + 1e-9).astype(np.int64)
    # a sweep's solves share one context (_ContextStore), so none may write to it
    for arr in (mu, phi, causality, cap, unit_cap, j_units, live):
        arr.flags.writeable = False
    return _SensorCtx(
        coeffs=coeffs,
        chain=chain,
        noise_var=sensor.noise_var,
        mu=mu,
        phi=phi,
        causality=causality,
        cap=cap,
        unit_cap=unit_cap,
        j_units=j_units,
        lambda_ceiling=max((max(lv.g0, lv.g_peak, 5e-324) for lv in levels), default=0.0),
        live=live,
        levels=levels,
    )


class _ContextStore:
    """The sensor contexts of the last scenario served.

    No context field reads network.power_budget, so a scenario equal to the
    held one in every other field gets the held contexts, and any other gets
    fresh ones that replace them. The store lives as long as its caller
    keeps it: cli.cmd_sweep makes one per sweep.
    """

    def __init__(self) -> None:
        self._scenario: Scenario | None = None
        self._ctxs: tuple[_SensorCtx, ...] = ()

    def contexts(self, scenario: Scenario) -> tuple[_SensorCtx, ...]:
        held = self._scenario
        if held is None or scenario.sensors != held.sensors or replace(
                scenario.network, power_budget=held.network.power_budget) != held.network:
            self._ctxs = tuple(_sensor_context(scenario.network, s) for s in scenario.sensors)
        self._scenario = scenario
        return self._ctxs


def _map_for_lambda(lam: float, ctxs):
    """Clamped power tables for every sensor at one price.

    Each entry is stationarity_root's root, projected onto [0, ctx.cap],
    computed on the level constants each context holds. The dead level's
    root is 0, which clamps to 0. Only the clamped powers are returned:
    _kkt_report reads each entry's active clamp off them, in the clamp's
    order (causality, outage, zero).
    """
    out = []
    for ctx in ctxs:
        roots = _roots(lam, ctx.live, ctx.levels)
        np.maximum(roots, 0.0, out=roots)
        out.append(np.minimum(ctx.cap, roots[:, None]))
    return out


def _unit_step(lam: float, ctx: _SensorCtx, h) -> np.ndarray:
    """Howard's improvement step on one sensor's whole-unit Lagrangian.

    Entry (l, k) of the int64 (L+1, K+1) result is the first a <=
    ctx.unit_cap[k] that maximizes
    (j_units[l, a] - lam * a * unit_power) + tp * (A @ h)[k - a],
    with A the chain's bank-step table and h the relative values of the
    battery states; a dead level takes 0. The idle branch's continuation
    does not depend on a, so it is left out. With h = 0 this is the myopic
    whole-unit map.
    """
    states = np.arange(ctx.causality.size)
    ahead = ctx.chain.transmit_prob * (ctx.chain.arrivals.drain_table @ h)
    # continuation by (state k, units a); a unit count past the cap never wins
    post = np.maximum(states[:, None] - states[None, :], 0)
    cont = np.where(states[None, :] <= ctx.unit_cap[:, None], ahead.take(post), -math.inf)
    reward = ctx.j_units - lam * ctx.causality
    units = np.argmax(reward[:, None, :] + cont[None, :, :], axis=2)
    units[~ctx.live] = 0
    return units


def _expected_power(tables, psi_arrays, ctxs) -> float:
    """Sum over sensors of the pi-weighted, psi-weighted average of a table."""
    total = 0.0
    for T, psi, ctx in zip(tables, psi_arrays, ctxs):
        total += float(np.einsum("l,lk,k->", ctx.chain.pi, T, psi))
    return total


def _unit_scores(units, psi, ctx: _SensorCtx):
    """Divergence pi_0 * 2 + sum_l pi_l * (psi . j_units[l, units[l]]) and
    spend sum_l pi_l * (psi . units[l] * unit_power) of whole-unit maps
    units (..., L+1, K+1) under their laws psi (..., K+1), summed over the
    live levels in order; a map scores the same bits in a batch as alone."""
    pi = ctx.chain.pi
    j = np.full(psi.shape[:-1], pi[0] * 2.0)
    spend = np.zeros(psi.shape[:-1])
    for l in range(1, pi.size):
        a = units[..., l, :]
        j += pi[l] * np.einsum("...k,...k->...", psi, ctx.j_units[l, a])
        spend += pi[l] * np.einsum("...k,...k->...", psi, ctx.causality[a])
    return j, spend


def _objective(powers, psi_arrays, ctxs) -> float:
    divergences = [sensor_j_divergence(ctx.mu[:, None], P, ctx.coeffs, ctx.noise_var)
                   for P, ctx in zip(powers, ctxs)]
    return _expected_power(divergences, psi_arrays, ctxs)


def _lambda_search(psi_arrays, ctxs, network: NetworkParams):
    """Price, power tables, expected power, flags, and price evaluations."""
    B = network.power_budget
    flags: list[str] = []
    lam_max = max(ctx.lambda_ceiling for ctx in ctxs)
    evaluations = 0

    def ep_at(lam: float):
        nonlocal evaluations
        evaluations += 1
        powers = _map_for_lambda(lam, ctxs)
        return powers, _expected_power(powers, psi_arrays, ctxs)

    tol_abs = BUDGET_TOL * B
    powers0, ep0 = ep_at(0.0)
    if ep0 <= B + tol_abs:
        return 0.0, powers0, ep0, flags, evaluations

    # regula falsi with the Illinois modification on ep(lam) - B, bisecting
    # when the secant point is not strictly inside the bracket; every power is 0
    # at lam_max (_SensorCtx.lambda_ceiling), so hi is the feasible end
    lo, hi = 0.0, lam_max
    at_hi = ep_at(hi)
    f_lo, f_hi = ep0 - B, at_hi[1] - B
    moved = None  # the end the previous step replaced
    for _ in range(MAX_PRICE_ITERS):
        lam = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
            if not lo < lam < hi:
                break
        powers, ep = at = ep_at(lam)
        if abs(ep - B) <= tol_abs / max(1.0, lam):
            return lam, powers, ep, flags, evaluations
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


def _kkt_report(lam, powers, ctxs, network, ep) -> KktReport:
    residuals, actives = [], []
    worst = 0.0
    for P, ctx in zip(powers, ctxs):
        # the caps exactly as _map_for_lambda takes them, tested in its order:
        # written last to first, so the first test an entry meets names it
        act = np.full(P.shape, INTERIOR)
        act[P == 0.0] = CLAMP_ZERO
        act[P == ctx.phi] = CLAMP_OUTAGE
        act[P == ctx.causality] = CLAMP_CAUSALITY
        act[ctx.mu == 0.0] = LEVEL_ZERO
        interior = act == INTERIOR
        gain = marginal_divergence_gain(P, ctx.mu[:, None], ctx.coeffs, ctx.noise_var)
        res = np.where(interior, np.abs(gain - lam), np.nan)
        worst = max(worst, float(np.max(res, initial=0.0, where=interior)))
        residuals.append(res)
        actives.append(act)
    return KktReport(
        residuals=tuple(residuals),
        active=tuple(actives),
        max_interior_residual=worst,
        slackness=lam * (ep - network.power_budget),
    )


def optimize_power_map(scenario: Scenario, *,
                       _contexts: _ContextStore | None = None) -> OptimizationOutcome:
    """Joint price search and battery fixed point for a whole scenario.

    Policy iteration: given the current battery distributions, price the
    budget and derive the clamped map; given the map's unit counts, solve
    each battery chain for its exact stationary law. It stops when the unit
    map repeats, so psi_star is the stationary law of the returned units. The
    certificate (price, expected power, stationarity residuals, activity
    codes) is the last price search's, made at psi_star.

    The outcome is the only channel for trouble: the solve neither raises
    nor emits Python warnings over it. converged is False when the unit map
    cycles, hits battery.MAX_ROUNDS, or gives a chain with no numerically
    unique stationary law, and the last iterate is returned for inspection.
    warnings holds one note per condition: each sensor outside the concavity
    band, a fixed point that did not settle, and a price bracket that
    collapsed before meeting the budget tolerance (which leaves converged
    True).

    Each sensor's context (its chain, arrival table, caps, whole-unit
    divergences and root constants) is built once per solve. The private
    _contexts, a _ContextStore, lets a run of solves share them: a solve
    whose scenario differs from the store's last one only in the budget
    reuses its contexts, and the outcome is the one a fresh solve gives, bit
    for bit.
    """
    net = scenario.network
    ctxs = (_contexts or _ContextStore()).contexts(scenario)
    notes = [f"sensor {i}: operating point outside the concavity band; "
             "the stationarity condition may have multiple roots"
             for i, ctx in enumerate(ctxs) if _gain_peak(ctx.coeffs) is not None]

    last = None  # the price search of the final round, at the returned laws
    price_evaluations = 0

    def update(psis):
        nonlocal last, price_evaluations
        last = _lambda_search([p.psi for p in psis], ctxs, net)
        price_evaluations += last[-1]
        return [units_from_power(P, np.arange(P.shape[1]), net) for P in last[1]]

    psis, iters, problem = steady_state_psi([ctx.chain for ctx in ctxs], update)
    if problem is not None:
        notes.append(f"battery fixed point did not settle: {problem}")

    psi_arrays = [p.psi for p in psis]
    lam, powers, ep, flags, _evals = last
    notes.extend(flags)
    pmap = PowerMap(powers=tuple(powers), unit_energy=net.unit_energy,
                    slot_seconds=net.slot_seconds)
    kkt = _kkt_report(lam, powers, ctxs, net, ep)
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


class ExhaustiveRefused(ValueError):
    """The exhaustive oracle's guard rails refuse the scenario: it has more
    than one sensor, or its capacity, live levels or candidate count is past
    an EXHAUSTIVE_MAX_* limit."""


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

    Each sensor's chain is solved for its exact stationary distribution, in
    the battery fixed point's stacked solve, so a fixed point's psi_star
    comes back bit for bit; _unit_scores scores each sensor from the
    context's whole-unit table (_SensorCtx.j_units), the score of the powers
    alpha * unit_energy / slot. The map must be one PowerMap
    would derive from those powers, so ValueError names the sensor of a
    draining level 0, a count outside [0, k] or a count that is not a whole
    number. Raises ValueError too on a map for another sensor count, on a
    sensor's table that is not (its levels x K+1), naming the sensor, and as
    stationary_solve does.
    """
    net = scenario.network
    _one_per_sensor(scenario, units, "unit table", "units")
    _fits_each_sensor(scenario, units, "unit map")
    pmap = PowerMap(powers=tuple(np.asarray(u, dtype=float) * net.unit_power for u in units),
                    unit_energy=net.unit_energy, slot_seconds=net.slot_seconds)
    for n, (alpha, derived) in enumerate(zip(units, pmap.units)):
        if not np.array_equal(alpha, derived):
            raise ValueError(f"unit map sensor {n}: counts must be whole numbers")
    return _score_unit_maps(pmap.units, [_sensor_context(net, s) for s in scenario.sensors])


def _score_unit_maps(units, ctxs):
    """evaluate_unit_map's result for checked int64 unit maps, one per
    prebuilt sensor context."""
    psis = tuple(_stationary_laws(units, [ctx.chain for ctx in ctxs]))
    objective = expected = 0.0
    for u, psi, ctx in zip(units, psis, ctxs):
        j, spend = _unit_scores(u, psi.psi, ctx)
        objective, expected = objective + float(j), expected + float(spend)
    return objective, expected, psis


def _regenerative_laws(rows, last_rows, low_scores, top_scores):
    """Stationary laws and scores of chains that share their rows 0..K-1.

    rows[g] (G, K, K+1) holds the first K rows of group g and last_rows
    (R, K+1) the row-K choices; chain (g, r) stacks them. Every row puts
    probability at least leak on K, so Q = rows[g][:, :K] is strictly
    substochastic and, by the regenerative form of the law (Norris 1997,
    Markov Chains, Thm 1.7.7), the chain's law is psi = [v, 1] / (1 + sum v)
    with v (I - Q) = last_rows[r][:K]: v counts the expected visits to each
    state between two visits to K. One small inverse serves the group.

    Returns v (G, R, K); per group max_r |psi M - psi|_1 / leak, which bounds
    the l1 distance of each psi to its chain's exact law (Dobrushin's
    coefficient of M is at most 1 - leak) and is +inf where leak < _MIN_LEAK;
    and the scores psi[:K] @ low_scores[g] + psi[K] * top_scores[r], shape
    (G, R, S), of the per-state score columns low_scores (G, K, S) and
    top_scores (R, S).
    """
    K = rows.shape[1]
    leak = np.minimum(rows[:, :, K].min(axis=1), last_rows[:, K].min())
    weak = leak < _MIN_LEAK
    A = np.eye(K) - rows[:, :, :K]
    A[weak] = np.eye(K)
    # small inverses and one product: 1.3 ms against 4.3 ms for a solve with
    # R right-hand sides per group (606 groups of 36 at K = 5, 2-vCPU Xeon)
    v = last_rows[:, :K] @ np.linalg.inv(A)
    total = 1.0 + v @ np.ones(K)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # (psi M - psi) * total, with psi = [v, 1] / total
        residual = v @ rows
        residual += last_rows
        residual[:, :, :K] -= v
        residual[:, :, K] -= 1.0
        err = ((np.abs(residual, out=residual) @ np.ones(K + 1)) / total).max(axis=1) / leak
        scores = (v @ low_scores + top_scores) / total[:, :, None]
    err[weak] = math.inf
    return v, err, scores


def exhaustive_best_map(scenario: Scenario) -> ExhaustiveResult:
    """Enumerate every admissible integer unit map of a tiny single-sensor scenario.

    Admissible means the per-entry causality and outage caps hold; feasible
    additionally means the exact stationary expected power fits the budget.
    Every candidate is scored with its own exact stationary distribution, so
    this is a global oracle up to rounding (and why the guard rails are
    tight). A candidate is one mixed-radix number, decoded batch by batch,
    so nothing is held per choice or per candidate and the memory does not
    grow with the candidate count.

    The candidates of one group share the unit rows of states 0..K-1 at every
    live level and differ only in row K, so one regenerative solve
    (_regenerative_laws) gives the laws, spends and objectives of the whole
    group; a batch of groups holds about EXHAUSTIVE_BATCH_ELEMENTS visit
    counts and residuals. A group whose error bound is above
    _RESCORE_MARGIN / 100 falls back to the stacked solve for all of its
    candidates, which raises as stationary_solve does. The stacked solve
    also re-scores every candidate whose fast spend lies within the margin
    of the budget, and every feasible one whose fast objective lies within
    the margin of the best fast objective so far, with evaluate_unit_map's
    bits: transition_matrix, stationary_solve and _unit_scores, in batches
    of about EXHAUSTIVE_BATCH_ELEMENTS matrix entries. Those scores decide
    feasibility near the budget and the winner, the first feasible
    candidate of the largest objective, so the result is the one an
    enumeration of evaluate_unit_map calls would give, at any batching, and
    the winner is reported as evaluate_unit_map scores it. Raises
    ExhaustiveRefused past the guard rails, and ValueError with no feasible
    map or as stationary_solve.
    """
    net = scenario.network
    if scenario.num_sensors != 1:
        raise ExhaustiveRefused("exhaustive search supports single-sensor scenarios only")
    sensor = scenario.sensors[0]
    K = net.capacity
    L1 = sensor.level_count
    if K > EXHAUSTIVE_MAX_CAPACITY or (L1 - 1) > EXHAUSTIVE_MAX_LEVELS:
        raise ExhaustiveRefused(
            f"scenario too large for exhaustive search (capacity {K} > "
            f"{EXHAUSTIVE_MAX_CAPACITY} or levels {L1 - 1} > {EXHAUSTIVE_MAX_LEVELS})"
        )
    ctx = _sensor_context(net, sensor)
    # every live level picks its row from the same per-state unit choices,
    # 0..ctx.unit_cap; a candidate map is one mixed-radix number with a digit
    # per live level; a digit is itself a number over unit_cap + 1 whose
    # digits are the level's units per state, the last state's varying fastest
    radix = tuple((ctx.unit_cap + 1).tolist())
    counts = (math.prod(radix),) * (L1 - 1)
    total = math.prod(counts)
    if total > EXHAUSTIVE_MAX_CANDIDATES:
        raise ExhaustiveRefused(
            f"{total} candidate maps exceed the {EXHAUSTIVE_MAX_CANDIDATES} cap")

    def units_of(choice, digits=radix):
        return np.stack(np.unravel_index(choice, digits), axis=-1)

    def maps_of(idx):
        """The (n, L+1, K+1) unit maps of the candidate numbers idx."""
        maps = np.zeros((idx.size, L1, K + 1), dtype=np.int64)
        # a lone dead level leaves no digit to decode
        for l, d in enumerate(np.unravel_index(idx, counts) if counts else ()):
            maps[:, 1 + l] = units_of(d)
        return maps

    budget = net.power_budget * (1.0 + 1e-12) + 1e-15
    batch = max(1, EXHAUSTIVE_BATCH_ELEMENTS // (K + 1) ** 2)

    def stacked_scores(idx):
        """Expected power and objective of the candidates idx, each
        evaluate_unit_map's bits at any batch size."""
        ep, jval = np.empty(idx.size), np.empty(idx.size)
        for start in range(0, idx.size, batch):
            part = slice(start, start + batch)
            maps = maps_of(idx[part])
            psi = stationary_solve(transition_matrix(maps, ctx.chain))
            jval[part], ep[part] = _unit_scores(maps, psi, ctx)
        return ep, jval

    pi, tp, bank = ctx.chain.pi, ctx.chain.transmit_prob, ctx.chain.arrivals.drain_table
    # the fast path assembles its group rows itself, as transition_matrix
    # sums them: the dead level never drains, and each live level's rows are
    # gathered from its bank steps, weighted by its cell probability once
    base = (1.0 - tp) * bank + tp * pi[0] * bank
    spend = [tp * pi[1 + l] * bank for l in range(L1 - 1)]

    def state_scores(l, a):
        """Level l's share of the spend and of the divergence at units a."""
        return pi[1 + l] * np.stack([ctx.causality[a], ctx.j_units[1 + l, a]], axis=-1)

    # a group is the lower digits (states 0..K-1) of every live level, a
    # member the units at state K of every live level; a member's last row,
    # its scores there and its offset in the candidate number are the same
    # in every group
    live = L1 - 1
    low, top = math.prod(radix[:K]), radix[K]  # choices below K, and at K
    groups, members = low ** live, top ** live
    last_rows = np.broadcast_to(base[K], (members, K + 1)).copy()
    top_scores = np.zeros((members, 2))
    member_idx = np.zeros(members, dtype=np.int64)
    for l, a in enumerate(np.unravel_index(np.arange(members), (top,) * live) if live else ()):
        last_rows += spend[l][K - a]
        top_scores += state_scores(l, a)
        member_idx += a * (total // counts[0] ** (l + 1))
    margin_ep = _RESCORE_MARGIN * float(ctx.causality[K])
    margin_j = _RESCORE_MARGIN * float(ctx.j_units.max())

    best_j, best_idx = -math.inf, -1
    feasible = 0
    best_fast = -math.inf  # best fast objective of a clearly feasible candidate
    # the visits and residuals of a batch, (groups, members, K) and (..., K+1),
    # together hold about EXHAUSTIVE_BATCH_ELEMENTS values
    per = max(1, EXHAUSTIVE_BATCH_ELEMENTS // (max(members, K) * (2 * K + 1)))
    for start in range(0, groups, per):
        group = np.arange(start, min(start + per, groups))
        rows = np.broadcast_to(base[:K], (group.size, K, K + 1)).copy()
        low_scores = np.zeros((group.size, K, 2))
        group_idx = np.zeros(group.size, dtype=np.int64)
        for l, d in enumerate(np.unravel_index(group, (low,) * live) if live else ()):
            a = units_of(d, radix[:K])
            rows += spend[l].take(np.arange(K) - a, axis=0)
            low_scores += state_scores(l, a)
            group_idx += d * (top * total // counts[0] ** (l + 1))
        _, err, scores = _regenerative_laws(rows, last_rows, low_scores, top_scores)
        fast = err <= _RESCORE_MARGIN / 100.0
        ep = scores[:, :, 0]
        jval = pi[0] * 2.0 + scores[:, :, 1]
        near = ~fast[:, None] | (np.abs(ep - budget) <= margin_ep)
        clear = fast[:, None] & (ep < budget - margin_ep)
        feasible += int(np.count_nonzero(clear))
        if clear.any():
            best_fast = max(best_fast, float(jval[clear].max()))
        pick = near | (clear & (jval >= best_fast - margin_j))
        idx = (group_idx[:, None] + member_idx)[pick]
        if idx.size == 0:
            continue
        ep_s, j_s = stacked_scores(idx)
        ok = ep_s <= budget
        feasible += int(np.count_nonzero(ok & near[pick]))
        if ok.any():
            j = float(j_s[ok].max())
            i = int(idx[ok & (j_s == j)].min())
            if j > best_j or (j == best_j and i < best_idx):
                best_j, best_idx = j, i

    if best_idx < 0:
        raise ValueError("no feasible unit map under the budget")
    units = maps_of(np.array([best_idx]))[0]
    objective_j, expected_power, (psi,) = _score_unit_maps([units], [ctx])
    return ExhaustiveResult(
        objective_j=objective_j,
        units=units,
        expected_power=expected_power,
        psi=psi,
        candidates=total,
        feasible=feasible,
    )
