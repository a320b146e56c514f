import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehdetect import (
    BatteryDistribution,
    clamp_power,
    convex_region_bounds,
    evaluate_unit_map,
    exhaustive_best_map,
    lambda_search,
    marginal_divergence_gain,
    optimize_power_map,
    outage_cap,
    roc_coefficients,
    stationarity_root,
    units_from_power,
)
import ehdetect.battery
import ehdetect.optimizer
from ehdetect.optimizer import (
    CLAMP_CAUSALITY,
    CLAMP_OUTAGE,
    CLAMP_ZERO,
    INTERIOR,
    LEVEL_ZERO,
    ROOT_TOL,
)


@pytest.fixture(scope="module")
def toy_outcome(toy_scenario):
    return optimize_power_map(toy_scenario)


@pytest.fixture(scope="module")
def two_sensor_outcome(two_sensor_scenario):
    return optimize_power_map(two_sensor_scenario)


# ---------------------------------------------------------------------------
# outage cap


def test_outage_cap_reference_value(two_sensor_scenario):
    net = two_sensor_scenario.network
    sensor = two_sensor_scenario.sensors[0]
    assert outage_cap(10, sensor, net) == pytest.approx(14.694306539426291,
                                                        rel=1e-13)
    # hand recomputation from the tail inequality
    slack = net.prior_h1 - 1.0 + sensor.outage_confidence
    joules = (-net.mean_harvest * math.log(slack / net.prior_h1)
              - 10 * net.unit_energy * (net.drop_fraction - 1.0))
    assert outage_cap(10, sensor, net) == pytest.approx(joules / net.slot_seconds)


def test_outage_cap_affine_in_state(two_sensor_scenario):
    net = two_sensor_scenario.network
    sensor = two_sensor_scenario.sensors[0]
    slope = net.unit_energy * (1.0 - net.drop_fraction) / net.slot_seconds
    caps = [outage_cap(k, sensor, net) for k in range(0, 20)]
    for k in range(19):
        assert caps[k + 1] - caps[k] == pytest.approx(slope, rel=1e-12)
    assert all(c > 0.0 for c in caps)


def test_outage_cap_vacuous_when_prior_absorbs_failures(two_sensor_scenario):
    net = two_sensor_scenario.network  # prior_h1 = 0.5
    for conf in (0.5, 0.4, 0.1):
        sensor = replace(two_sensor_scenario.sensors[0], outage_confidence=conf)
        assert outage_cap(0, sensor, net) == math.inf
        assert outage_cap(50, sensor, net) == math.inf


def test_outage_cap_over_a_state_array_equals_the_scalar_calls(two_sensor_scenario):
    net = two_sensor_scenario.network
    states = np.arange(net.capacity + 1)
    for sensor in two_sensor_scenario.sensors:
        caps = outage_cap(states, sensor, net)
        scalar = np.array([outage_cap(int(k), sensor, net) for k in states])
        assert caps.shape == states.shape
        assert caps.tobytes() == scalar.tobytes()
    # the vacuous cap takes the shape of the states it is asked for
    vacuous = replace(two_sensor_scenario.sensors[0], outage_confidence=0.4)
    for shape in ((net.capacity + 1,), (2, 3)):
        caps = outage_cap(np.zeros(shape, dtype=np.int64), vacuous, net)
        assert caps.shape == shape and np.all(caps == math.inf)


# ---------------------------------------------------------------------------
# stationarity roots


def test_marginal_gain_decreases_in_power():
    coeffs = roc_coefficients(0.2, 0.9)
    grid = np.linspace(0.0, 40.0, 400)
    gains = marginal_divergence_gain(grid, 0.7, coeffs, 1.0)
    assert np.all(np.diff(gains) < 0.0)
    assert gains[0] == pytest.approx(
        (coeffs.num1 - coeffs.den1 + coeffs.num2 - coeffs.den2) * 0.7)


# powers 0 and 1e-8..1e8 on a log grid
_BAND_POWERS = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 2001)))


@settings(max_examples=300, deadline=None)
@given(
    p_f=st.floats(0.01, 0.98),
    p_d=st.floats(0.02, 0.99),
    mu=st.floats(0.05, 3.0),
    noise_var=st.floats(0.5, 2.0),
)
# in the band with a negative ROC slope, and the former stall point outside it
@example(p_f=0.6, p_d=0.71, mu=1.0, noise_var=1.0)
@example(p_f=0.073, p_d=0.26, mu=1.0, noise_var=1.0)
# just inside and just over 1e-3 outside each end of the band
@example(p_f=0.2, p_d=convex_region_bounds(0.2)[0] + 1e-9, mu=1.0, noise_var=1.0)
@example(p_f=0.2, p_d=convex_region_bounds(0.2)[0] - 1.001e-3, mu=1.0, noise_var=1.0)
@example(p_f=0.6, p_d=convex_region_bounds(0.6)[1] - 1e-9, mu=1.0, noise_var=1.0)
@example(p_f=0.6, p_d=convex_region_bounds(0.6)[1] + 1.001e-3, mu=1.0, noise_var=1.0)
def test_marginal_gain_never_rises_exactly_inside_the_concavity_band(p_f, p_d, mu,
                                                                     noise_var):
    # The band is what a solve's per-sensor note reports, so it must be the
    # set where the gain is monotone, not the set where both slopes are >= 0.
    # The slopes are differences of products of probabilities; p_d within
    # 1e-2 of p_f would leave them mostly rounding error.
    assume(p_d >= p_f + 0.01)
    lo, hi = convex_region_bounds(p_f)
    coeffs = roc_coefficients(p_f, p_d)
    gain = marginal_divergence_gain(_BAND_POWERS, mu, coeffs, noise_var)
    # rounding noise scales with the largest value a term of the gain takes
    slope1, slope2 = coeffs.slopes
    rises = np.diff(gain) > 1e-12 * (abs(slope1) + abs(slope2)) * mu / noise_var
    if lo <= p_d <= hi:
        assert not rises.any()
    elif p_d < lo - 1e-3 or p_d > hi + 1e-3:
        assert rises.any()


def test_root_dead_level_and_free_price():
    coeffs = roc_coefficients(0.2, 0.9)
    assert stationarity_root(0.3, 0.0, coeffs, 1.0) == 0.0
    assert stationarity_root(0.0, 0.6, coeffs, 1.0) == math.inf
    assert stationarity_root(-1.0, 0.6, coeffs, 1.0) == math.inf
    # a positive price so small that lam / 2 underflows leaves the bracket
    # end unbounded, also where a zero ROC slope (p_d = 1/2) makes it 0 / 0,
    # and outside the concavity band, where the scan would start at inf * 0
    assert stationarity_root(5e-324, 1.0, roc_coefficients(0.2, 0.5), 1.0) == math.inf
    for p_f, p_d in ((0.2, 0.9), (0.6, 0.71)):
        roots = stationarity_root(5e-324, [1.0, 0.6], roc_coefficients(p_f, p_d), 1.0)
        assert roots.tolist() == [math.inf, math.inf]


def test_out_of_band_gain_below_the_price_everywhere_is_priced_out(toy_scenario):
    # outside the band, a gain so small that the scan's bracket end overflows
    # used to scan from inf * 0 and return NaN, which failed the solve
    coeffs = roc_coefficients(0.6, 0.71)
    roots = stationarity_root(0.5, [5e-324, 0.6], coeffs, 1.0)
    assert roots.tolist() == [-1.0, -1.0]
    sensor = replace(toy_scenario.sensors[0], p_f=0.6, p_d=0.71,
                     thresholds=(0.0, 5e-324, 0.6, math.inf))
    sc = replace(toy_scenario, sensors=(sensor,),
                 network=replace(toy_scenario.network, power_budget=0.1))
    out = optimize_power_map(sc)
    assert out.converged
    # (0.6, 0.71) has a negative ROC slope but lies in the concavity band
    assert out.warnings == ()
    assert out.power_map.units[0][1].tolist() == [0] * (sc.network.capacity + 1)
    assert out.expected_power == pytest.approx(0.1, rel=1e-6)


def test_root_critical_price():
    # the zero-power gain at mu=0.6 prices the level out at 0.588
    coeffs = roc_coefficients(0.2, 0.9)
    crit = marginal_divergence_gain(0.0, 0.6, coeffs, 1.0)
    assert crit == pytest.approx(0.588, rel=1e-12)
    assert stationarity_root(crit * 1.001, 0.6, coeffs, 1.0) == -1.0
    root = stationarity_root(crit * 0.999, 0.6, coeffs, 1.0)
    assert 0.0 < root < 0.05


def test_root_residual_meets_tolerance():
    coeffs = roc_coefficients(0.2, 0.9)
    for mu in (0.3, 1.0, 2.5):
        for lam in (0.01, 0.05, 0.1, 0.3):
            root = stationarity_root(lam, mu, coeffs, 1.0)
            if root in (-1.0, math.inf):
                continue
            gain = marginal_divergence_gain(root, mu, coeffs, 1.0)
            assert abs(gain - lam) <= ROOT_TOL * lam


def test_crawling_newton_steps_still_meet_the_tolerance(monkeypatch):
    # a 50x too steep derivative makes every Newton step 1/50 of the right
    # one; 220 such steps still leave about 1% of the gap, so only the
    # bisections forced by the slow-progress test can reach ROOT_TOL
    real = ehdetect.optimizer._gain_and_derivative

    def steep(p, mu, coeffs, noise_var, derivative=True):
        g, dg = real(p, mu, coeffs, noise_var, derivative)
        return g, None if dg is None else 50.0 * dg

    monkeypatch.setattr(ehdetect.optimizer, "_gain_and_derivative", steep)
    coeffs = roc_coefficients(0.2, 0.9)
    for mu in (0.3, 1.0, 2.5):
        for lam in (0.01, 0.05, 0.1):
            root = stationarity_root(lam, mu, coeffs, 1.0)
            assert root > 0.0 and math.isfinite(root)
            gain = marginal_divergence_gain(root, mu, coeffs, 1.0)
            assert abs(gain - lam) <= ROOT_TOL * lam


def test_root_decreases_in_price():
    coeffs = roc_coefficients(0.2, 0.9)
    lams = [0.01, 0.03, 0.1, 0.2, 0.4]
    roots = [stationarity_root(l, 1.0, coeffs, 1.0) for l in lams]
    finite = [r for r in roots if r > 0.0]
    assert all(a >= b for a, b in zip(finite, finite[1:]))


def test_root_outside_band_still_solves():
    # p_f > 1/2 makes one slope negative, so the gain is not monotone; the
    # root call does not warn (pytest turns warnings into errors)
    coeffs = roc_coefficients(0.6, 0.7)
    assert coeffs.num2 - coeffs.den2 < 0.0
    root = stationarity_root(0.01, 1.0, coeffs, 1.0)
    assert root > 0.0 and math.isfinite(root)
    gain = marginal_divergence_gain(root, 1.0, coeffs, 1.0)
    assert abs(gain - 0.01) <= 1e-9 * 0.01


@settings(max_examples=80, deadline=None)
@given(
    p_f=st.floats(0.02, 0.9),
    spread=st.floats(0.05, 1.0),
    lam=st.one_of(st.floats(-1.0, 0.0), st.floats(1e-4, 2.0)),
    mus=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)), min_size=1, max_size=5),
    noise_var=st.floats(0.5, 2.0),
)
def test_array_roots_match_scalar_roots(p_f, spread, lam, mus, noise_var):
    # positive and negative ROC slopes (p_d < 1/2 or p_f > 1/2), dead levels
    # and free prices all go through the same vectorized kernel
    coeffs = roc_coefficients(p_f, p_f + spread * (0.98 - p_f))
    batch = stationarity_root(lam, np.array(mus), coeffs, noise_var)
    scalar = [stationarity_root(lam, m, coeffs, noise_var) for m in mus]
    single = [stationarity_root(lam, np.array([m]), coeffs, noise_var)[0]
              for m in mus]
    assert batch.shape == (len(mus),)
    for mu, b, s, one in zip(mus, batch, scalar, single):
        assert isinstance(s, float)
        assert one == s  # a one-level array is the scalar call
        # each level stops on its own, so the other levels cannot move its root
        assert b == s
        if mu == 0.0:
            assert s == 0.0
        elif lam <= 0.0:
            assert s == math.inf


@settings(max_examples=150, deadline=None)
@given(
    p_f=st.floats(0.02, 0.9),
    spread=st.floats(0.05, 1.0),
    lam=st.floats(1e-4, 2.0),
    mus=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5),
    noise_var=st.floats(0.5, 2.0),
)
@example(p_f=0.2, spread=0.9, lam=0.05, mus=[0.3, 1.0, 2.5], noise_var=1.0)
@example(p_f=0.05, spread=1.0, lam=0.01, mus=[0.3, 1.0, 2.5], noise_var=1.0)
@example(p_f=0.6, spread=0.3, lam=0.01, mus=[0.5, 1.0, 2.0], noise_var=1.0)
@example(p_f=0.1, spread=0.3, lam=0.01, mus=[0.5, 1.0, 2.0], noise_var=1.0)
def test_roots_meet_the_tolerance_at_the_smallest_crossing(p_f, spread, lam, mus,
                                                          noise_var):
    # inside the band (p_f <= 1/2 <= p_d) and outside it on either slope
    coeffs = roc_coefficients(p_f, p_f + spread * (0.98 - p_f))
    roots = stationarity_root(lam, np.array(mus), coeffs, noise_var)
    for mu, root in zip(mus, roots):
        if not (root > 0.0 and math.isfinite(root)):
            continue
        gain = marginal_divergence_gain(root, mu, coeffs, noise_var)
        assert abs(gain - lam) <= ROOT_TOL * lam
        # f = gain - lam keeps the sign of f(0) on [0, root): no earlier crossing
        grid = np.linspace(0.0, root, 4097)[:-1]
        f = marginal_divergence_gain(grid, mu, coeffs, noise_var) - lam
        assert np.all(np.sign(f[0]) * f > -ROOT_TOL * lam)


def test_root_rejects_bad_inputs():
    coeffs = roc_coefficients(0.2, 0.9)
    with pytest.raises(ValueError, match="mu"):
        stationarity_root(0.1, -0.5, coeffs, 1.0)
    with pytest.raises(ValueError, match="noise_var"):
        stationarity_root(0.1, 0.5, coeffs, 0.0)


def test_root_rejects_non_finite_inputs():
    coeffs = roc_coefficients(0.2, 0.9)
    nan, inf = math.nan, math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no invalid-value warning gets through
        for lam, mu, noise_var, name in (
                (0.1, nan, 1.0, "mu"),
                (0.1, np.array([0.5, nan]), 1.0, "mu"),
                (0.1, inf, 1.0, "mu"),
                (nan, 0.5, 1.0, "lam"),
                (0.1, 0.5, nan, "noise_var"),
                (0.1, 0.5, inf, "noise_var")):
            with pytest.raises(ValueError, match=name):
                stationarity_root(lam, mu, coeffs, noise_var)
        # an infinite price prices every live level out
        roots = stationarity_root(inf, np.array([0.0, 0.5, 2.0]), coeffs, 1.0)
    assert roots.tolist() == [0.0, -1.0, -1.0]


def _masked_newton_roots(lam, mu, coeffs, noise_var):
    """The masked array Newton iteration that solved all levels of a call at
    once, kept verbatim as the reference for the per-level kernel."""
    opt = ehdetect.optimizer
    m = np.asarray(mu, dtype=float)
    out = np.zeros(m.shape)
    live = m > 0.0
    if lam <= 0.0:
        out[live] = math.inf
        return out
    if not np.any(live):
        return out
    mu = m[live]
    slope1, slope2 = coeffs.slopes
    res = np.full(mu.size, -1.0)
    # beyond p_big both terms are within lam/2 of zero, so f < 0 for sure
    p_big = np.ones(mu.size)
    for slope, den in ((slope1, coeffs.den1), (slope2, coeffs.den2)):
        need = np.sqrt(np.maximum(abs(slope) * noise_var * mu / (0.5 * lam), 1e-30))
        p_big = np.maximum(p_big, (need + noise_var) / (den * mu))
    if slope1 >= 0.0 and slope2 >= 0.0:
        # the gain decreases, so [0, p_big] holds the only crossing
        lo, hi = np.zeros(mu.size), p_big
        g, dg = opt._gain_and_derivative(lo, mu, coeffs, noise_var)
        solve = g > lam
    else:
        grid = p_big[:, None] * opt._SCAN
        vals = marginal_divergence_gain(grid.T, mu, coeffs, noise_var).T - lam
        change = np.diff(np.sign(vals), axis=1) != 0
        solve = change.any(axis=1)
        res[~solve & (vals[:, 0] > 0.0)] = math.inf
        rows = np.arange(mu.size)
        i = np.argmax(change, axis=1)
        lo, hi = grid[rows, i], grid[rows, i + 1]
        flip = vals[rows, i] < 0.0  # orient so f(lo) > 0 > f(hi)
        lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
        g, dg = opt._gain_and_derivative(lo, mu, coeffs, noise_var)
    if np.any(solve):
        # start at the f > 0 end; a level freezes at its first iterate within ROOT_TOL
        p, lo, hi, mu_s = lo[solve], lo[solve], hi[solve], mu[solve]
        g, dg = g[solve], dg[solve]
        done = np.zeros(p.size, dtype=bool)
        # the last step and the one before it; rtsafe starts mid-bracket with
        # both at the bracket width, this loop starts at an end, so twice that
        dx = dx_old = 2.0 * np.abs(hi - lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(220):
                # Newton on g**-0.5 = lam**-0.5, exact when one term of the gain is live
                newton = 2.0 * g * (1.0 - np.sqrt(g / lam)) / dg
                step, size, mid = p + newton, np.abs(newton), 0.5 * (lo + hi)
                # bisect when the step leaves the bracket or is over half the step
                # before last, so a crawling Newton sequence still halves the bracket
                ok = ((step - lo) * (step - hi) < 0.0) & (size + size <= dx_old)
                dx_old, dx = dx, np.where(ok, size, np.abs(hi - mid))
                p = np.where(done, p, np.where(ok, step, mid))
                g, dg = opt._gain_and_derivative(p, mu_s, coeffs, noise_var)
                above = g > lam
                lo = np.where(above, p, lo)
                hi = np.where(above, hi, p)
                done |= np.abs(g - lam) <= ROOT_TOL * lam
                if done.all():
                    break
        res[solve] = p
    out[live] = res
    return out


@settings(max_examples=200, deadline=None)
@given(
    p_f=st.floats(0.02, 0.9),
    spread=st.floats(0.05, 1.0),
    lam=st.one_of(st.floats(-1.0, 0.0), st.floats(1e-4, 2.0), st.just(math.inf)),
    mus=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)), min_size=1, max_size=5),
    noise_var=st.floats(0.5, 2.0),
)
@example(p_f=0.2, spread=0.9, lam=0.05, mus=[0.0, 0.3, 1.0, 2.5], noise_var=1.0)
@example(p_f=0.6, spread=0.3, lam=0.01, mus=[0.5, 0.0, 1.0, 2.0], noise_var=1.0)
@example(p_f=0.1, spread=0.3, lam=0.01, mus=[0.5, 1.0, 2.0], noise_var=1.0)
@example(p_f=0.3, spread=0.5, lam=-0.5, mus=[0.0, 1.0], noise_var=1.0)
# divisors of the bracket end that underflow to zero: den2 * mu, lam / 2
@example(p_f=1e-300, spread=0.9, lam=1e-31, mus=[1e-30, 1.0], noise_var=1.0)
@example(p_f=0.6, spread=0.3, lam=0.1, mus=[5e-324, 1.0], noise_var=1.0)
@example(p_f=0.6, spread=0.11 / 0.38, lam=0.5, mus=[5e-324, 0.6], noise_var=1.0)
@example(p_f=0.2, spread=0.9, lam=5e-324, mus=[1.0, 0.5], noise_var=1.0)
@example(p_f=0.6, spread=0.11 / 0.38, lam=5e-324, mus=[1.0, 0.6], noise_var=1.0)
def test_per_level_roots_equal_the_masked_array_iteration(p_f, spread, lam, mus,
                                                          noise_var):
    # inside the band and outside it on either slope (p_d < 1/2 or p_f > 1/2),
    # dead levels, free and infinite prices: the same bits, not just close
    coeffs = roc_coefficients(p_f, p_f + spread * (0.98 - p_f))
    roots = stationarity_root(lam, np.array(mus), coeffs, noise_var)
    # the reference's float64 arrays divide by zero and overflow on the
    # underflow examples; the per-level kernel must not warn there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reference = _masked_newton_roots(lam, mus, coeffs, noise_var)
    # The intended departures are outside the band, where the array
    # iteration scanned from its bracket end even when that end overflowed
    # (scan start inf * 0) and returned NaN. A level whose gain can never
    # exceed the price is now priced out before the scan (-1.0); a price so
    # small that lam / 2 underflows leaves the power unbounded (+inf), as
    # inside the band.
    expected = np.where(np.isnan(reference), math.inf if 0.5 * lam == 0.0 else -1.0,
                        reference)
    # byte equality is == on every root that also tells -0.0 from 0.0
    assert roots.tobytes() == expected.tobytes(), (roots.tolist(), reference.tolist())


@pytest.mark.parametrize("patch", [
    # a zero slope: the float64 Newton step is infinite or NaN
    lambda g, dg: (g, None if dg is None else 0.0 * dg),
    # a gain that turns negative past the crossing: sqrt(g / lam) is NaN there
    lambda g, dg: (g - 0.02, dg),
], ids=["zero_slope", "negative_gain"])
def test_invalid_newton_steps_bisect_like_the_masked_array_iteration(monkeypatch,
                                                                    patch):
    # where the array iteration's Newton step is NaN or infinite it bisects;
    # the per-level kernel must bisect at the same iterates, without raising
    real = ehdetect.optimizer._gain_and_derivative

    def patched(p, mu, coeffs, noise_var, derivative=True):
        return patch(*real(p, mu, coeffs, noise_var, derivative))

    monkeypatch.setattr(ehdetect.optimizer, "_gain_and_derivative", patched)
    for p_f, p_d in ((0.2, 0.9), (0.6, 0.7), (0.1, 0.3)):
        coeffs = roc_coefficients(p_f, p_d)
        mus = [0.3, 1.0, 2.5]
        roots = stationarity_root(0.001, np.array(mus), coeffs, 1.0)
        reference = _masked_newton_roots(0.001, mus, coeffs, 1.0)
        assert roots.tolist() == reference.tolist()
        assert np.any(roots > 0.0)


# ---------------------------------------------------------------------------
# clamps and unit rounding


@given(
    p_prime=st.floats(-10.0, 100.0),
    state=st.integers(0, 100),
    phi=st.one_of(st.just(math.inf), st.floats(0.0, 50.0)),
)
def test_clamp_power_projection(two_sensor_scenario, p_prime, state, phi):
    net = two_sensor_scenario.network
    out = clamp_power(p_prime, state, phi, net)
    causality = state * net.unit_power
    assert 0.0 <= out <= causality
    assert out <= phi
    if 0.0 <= p_prime <= min(causality, phi):
        assert out == p_prime


def test_units_exact_on_boundaries(toy_scenario):
    net = toy_scenario.network
    for j in range(0, net.capacity + 1):
        assert units_from_power(j * net.unit_power, net.capacity, net) == j
    # the vectorized form, as the optimizer rounds a whole table
    states = np.arange(net.capacity + 1)
    table = units_from_power(states * net.unit_power, states, net)
    assert table.tolist() == states.tolist()


def test_units_absorb_dust_but_charge_real_excess(two_sensor_scenario):
    net = two_sensor_scenario.network  # unit_power = 1.0
    assert units_from_power(3.0 + 5e-10, 10, net) == 3
    assert units_from_power(3.0 - 5e-10, 10, net) == 3
    assert units_from_power(3.0 + 2e-9, 10, net) == 4
    assert units_from_power(2.5, 10, net) == 3


def test_units_never_exceed_state(two_sensor_scenario):
    net = two_sensor_scenario.network
    assert units_from_power(1e9, 7, net) == 7
    assert units_from_power(0.0, 7, net) == 0
    assert units_from_power(-1.0, 7, net) == 0


@given(power=st.floats(0.0, 200.0), state=st.integers(0, 100))
def test_units_fund_the_power(two_sensor_scenario, power, state):
    net = two_sensor_scenario.network
    alpha = units_from_power(power, state, net)
    assert 0 <= alpha <= state
    funded = alpha * net.unit_power
    if alpha < state:
        # rounding up always covers the request (minus boundary dust)
        assert funded >= power - 1e-9 * net.unit_power


# ---------------------------------------------------------------------------
# price search


def test_price_is_zero_under_a_loose_budget(toy_scenario, toy_outcome):
    loose = replace(toy_scenario,
                    network=replace(toy_scenario.network, power_budget=1e6))
    lam, pmap, ep = lambda_search(toy_outcome.psi_star, loose)
    assert lam == 0.0
    assert ep <= 1e6


def test_price_search_reproduces_the_certificate(two_sensor_scenario,
                                                 two_sensor_outcome):
    out = two_sensor_outcome
    lam, pmap, ep = lambda_search(out.psi_star, two_sensor_scenario)
    # same distributions, same cold-started regula falsi: bitwise identical
    assert lam == out.lambda_star
    assert ep == out.expected_power
    for mine, theirs in zip(pmap.powers, out.power_map.powers):
        np.testing.assert_array_equal(mine, theirs)


def test_price_evaluations_are_counted(two_sensor_outcome):
    # every expected-power evaluation of every round: 32 over two rounds here
    assert 0 < two_sensor_outcome.price_evaluations <= 40


def test_binding_budget_price_meets_the_budget(toy_scenario, toy_outcome):
    budget = 0.1  # binding: the unconstrained spend is ~0.53
    binding = replace(toy_scenario,
                      network=replace(toy_scenario.network, power_budget=budget))
    lam_bis, _, ep_bis = lambda_search(toy_outcome.psi_star, binding)
    assert lam_bis > 0.0
    assert abs(ep_bis - budget) <= 1e-6 * budget / max(1.0, lam_bis) + 1e-12


def test_price_bisection_stops_when_spend_jumps_across_the_budget(toy_scenario,
                                                                 monkeypatch):
    # negative ROC slope: the spend jumps over the budget at one price, so
    # the tolerance is never met and the bracket closes onto adjacent floats;
    # the regula falsi search then stops on its bisection fallback
    net = replace(toy_scenario.network, power_budget=0.291, mean_harvest=3.78)
    sensor = replace(toy_scenario.sensors[0], p_f=0.073, p_d=0.26)
    scenario = replace(toy_scenario, network=net, sensors=(sensor,))
    calls = []
    root = ehdetect.optimizer.stationarity_root

    def counted(*args, **kwargs):
        calls.append(None)
        return root(*args, **kwargs)

    monkeypatch.setattr(ehdetect.optimizer, "stationarity_root", counted)
    out = optimize_power_map(scenario)
    # one root call per price evaluation; the search makes 132 here
    assert len(calls) <= 300
    assert len(calls) == out.price_evaluations
    assert out.expected_power <= net.power_budget
    assert "price bracket collapsed before meeting the budget tolerance" in out.warnings


# ---------------------------------------------------------------------------
# full optimization


def test_toy_spends_everything(toy_scenario, toy_outcome):
    out = toy_outcome
    assert out.converged
    assert out.warnings == ()
    assert out.lambda_star == 0.0
    K = toy_scenario.network.capacity
    expected_units = np.vstack([np.zeros(K + 1, dtype=np.int64),
                                np.arange(K + 1, dtype=np.int64),
                                np.arange(K + 1, dtype=np.int64)])
    np.testing.assert_array_equal(out.power_map.units[0], expected_units)
    assert out.objective_j == pytest.approx(2.4414452817766454, rel=1e-6)
    assert out.expected_power == pytest.approx(0.5297274500498541, rel=1e-6)
    assert out.kkt.slackness == 0.0
    assert out.kkt.max_interior_residual == 0.0  # every live cell is clamped
    act = out.kkt.active[0]
    assert np.all(act[0] == LEVEL_ZERO)
    assert np.all(act[1:] == CLAMP_CAUSALITY)


def test_two_sensor_certificate(two_sensor_scenario, two_sensor_outcome):
    out = two_sensor_outcome
    net = two_sensor_scenario.network
    assert out.converged
    assert out.warnings == ()
    assert out.lambda_star == pytest.approx(0.6324719524383546, rel=1e-6)
    assert out.objective_j == pytest.approx(4.83455782148145, rel=1e-6)
    assert out.kkt.max_interior_residual <= 1e-6 * out.lambda_star
    assert abs(out.kkt.slackness) <= 1e-6 * net.power_budget
    assert abs(out.expected_power - net.power_budget) <= 2e-6
    # the outage cap binds nothing silently: stored powers respect it
    for n, sensor in enumerate(two_sensor_scenario.sensors):
        phi = np.array([outage_cap(k, sensor, net)
                        for k in range(net.capacity + 1)])
        assert np.all(out.power_map.powers[n] <= phi[None, :] + 1e-12)


def test_activity_codes_match_the_stored_powers(two_sensor_scenario,
                                                two_sensor_outcome):
    out = two_sensor_outcome
    net = two_sensor_scenario.network
    states = np.arange(net.capacity + 1)
    causality = states * net.unit_power
    for n, sensor in enumerate(two_sensor_scenario.sensors):
        act = out.kkt.active[n]
        res = out.kkt.residuals[n]
        P = out.power_map.powers[n]
        phi = np.array([outage_cap(k, sensor, net)
                        for k in range(net.capacity + 1)])
        assert np.all(act[0] == LEVEL_ZERO)
        live = act[1:]
        assert np.all((live >= INTERIOR) & (live <= CLAMP_ZERO))
        for l in range(1, P.shape[0]):
            on_causality = act[l] == CLAMP_CAUSALITY
            np.testing.assert_allclose(P[l][on_causality],
                                       causality[on_causality], atol=1e-12)
            on_outage = act[l] == CLAMP_OUTAGE
            np.testing.assert_allclose(P[l][on_outage], phi[on_outage],
                                       atol=1e-12)
            assert np.all(P[l][act[l] == CLAMP_ZERO] == 0.0)
            interior = act[l] == INTERIOR
            assert np.all(np.isfinite(res[l][interior]))
            assert np.all(np.isnan(res[l][~interior]))


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_exhaustive_rejects_large_instances(two_sensor_scenario, toy_scenario):
    with pytest.raises(ValueError, match="single-sensor"):
        exhaustive_best_map(two_sensor_scenario)
    big = replace(toy_scenario,
                  network=replace(toy_scenario.network, capacity=9))
    with pytest.raises(ValueError, match="too large"):
        exhaustive_best_map(big)


def test_exhaustive_toy_is_self_consistent(toy_scenario):
    res = exhaustive_best_map(toy_scenario)
    assert res.candidates == 518_400
    assert 0 < res.feasible <= res.candidates
    budget = toy_scenario.network.power_budget
    assert res.expected_power <= budget * (1.0 + 1e-12) + 1e-15
    # rescoring the winner through the scalar path reproduces the table score
    j, ep, _psis = evaluate_unit_map(toy_scenario, [res.units])
    assert j == pytest.approx(res.objective_j, rel=1e-10)
    assert ep == pytest.approx(res.expected_power, rel=1e-10)


def test_exhaustive_with_only_the_dead_level(toy_scenario):
    # no live level, so the one candidate map never drains
    sensor = replace(toy_scenario.sensors[0], thresholds=(0.0, math.inf))
    res = exhaustive_best_map(replace(toy_scenario, sensors=(sensor,)))
    K = toy_scenario.network.capacity
    assert (res.candidates, res.feasible) == (1, 1)
    np.testing.assert_array_equal(res.units, np.zeros((1, K + 1), dtype=np.int64))
    assert res.expected_power == 0.0
    assert res.psi.psi[K] == 1.0


def test_optimizer_matches_exact_rescoring_on_toy(toy_scenario, toy_outcome):
    j, ep, psis = evaluate_unit_map(toy_scenario, toy_outcome.power_map.units)
    assert j == pytest.approx(toy_outcome.objective_j, rel=1e-5)
    assert ep == pytest.approx(toy_outcome.expected_power, rel=1e-5)
    # the fixed point returns the exact stationary law of its unit map
    assert all(np.array_equal(a.psi, b.psi) for a, b in zip(psis, toy_outcome.psi_star))


def test_outer_cap_keeps_the_last_rounds_certificate(toy_scenario, monkeypatch):
    monkeypatch.setattr(ehdetect.battery, "MAX_ROUNDS", 1)
    out = optimize_power_map(toy_scenario)
    assert not out.converged and out.outer_iterations == 1
    assert any("did not settle" in w for w in out.warnings)
    # the one round priced the full-battery start, and that is what comes back
    K = toy_scenario.network.capacity
    assert out.psi_star[0].psi[K] == 1.0
    lam, pmap, ep = lambda_search(out.psi_star, toy_scenario)
    assert lam == out.lambda_star and ep == out.expected_power
    for mine, theirs in zip(out.power_map.units, pmap.units):
        np.testing.assert_array_equal(mine, theirs)
