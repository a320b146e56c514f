import itertools
import math
import sys
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehdetect import (
    BatteryDistribution,
    ExhaustiveRefused,
    NetworkParams,
    RocCoefficients,
    SensorParams,
    evaluate_unit_map,
    exhaustive_best_map,
    marginal_divergence_gain,
    optimize_power_map,
    outage_cap,
    roc_coefficients,
    stationarity_root,
    units_from_power,
)
import ehdetect.battery
import ehdetect.optimizer
from ehdetect.battery import stationary_solve, transition_matrix
from ehdetect.detection import sensor_j_divergence
from ehdetect.optimizer import (
    CLAMP_CAUSALITY,
    CLAMP_OUTAGE,
    CLAMP_ZERO,
    INTERIOR,
    LEVEL_ZERO,
    ROOT_TOL,
    KktReport,
    _kkt_report,
    _map_for_lambda,
    _sensor_context,
    _unit_step,
)
from references import clamp_power, convex_region_bounds, lambda_search


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
    slope1, slope2 = coeffs.slope1, coeffs.slope2
    rises = np.diff(gain) > 1e-12 * (abs(slope1) + abs(slope2)) * mu / noise_var
    if lo <= p_d <= hi:
        assert not rises.any()
    elif p_d < lo - 1e-3 or p_d > hi + 1e-3:
        assert rises.any()


@settings(max_examples=500, deadline=None)
@given(p_f=st.floats(0.001, 0.98), p_d=st.floats(0.01, 0.999))
# 1e-7 inside and 1e-7 outside each end of the band
@example(p_f=0.2, p_d=convex_region_bounds(0.2)[0] + 1e-7)
@example(p_f=0.2, p_d=convex_region_bounds(0.2)[0] - 1e-7)
@example(p_f=0.6, p_d=convex_region_bounds(0.6)[1] - 1e-7)
@example(p_f=0.6, p_d=convex_region_bounds(0.6)[1] + 1e-7)
def test_band_membership_is_the_solvers_rise_test(p_f, p_d):
    # the band note and the root bracket read _gain_peak; the paper's closed
    # form must agree with it. As above, p_d within 1e-2 of p_f leaves the
    # slopes mostly rounding error
    assume(p_d >= p_f + 0.01)
    lo, hi = convex_region_bounds(p_f)
    assert (ehdetect.optimizer._gain_peak(roc_coefficients(p_f, p_d)) is None) == \
        (lo <= p_d <= hi)


def _exact_rise(p_f, p_d):
    """The rise test of _gain_peak in exact rational arithmetic on the floats
    p_f and p_d; also returns the exact factored slopes."""
    pf, pd = Fraction(p_f), Fraction(p_d)
    slope1, slope2 = (pd - pf) * (2 * pd - 1), (pd - pf) * (1 - 2 * pf)
    rises = False
    if slope1 * slope2 < 0:
        (sp, dp), (sn, dn) = sorted(((slope1, pd * (1 - pd)), (slope2, pf * (1 - pf))),
                                    reverse=True)
        r3 = -sn * dn / (sp * dp)
        rises = r3 > 1 and dn ** 3 > r3 * dp ** 3
    return rises, slope1, slope2


@settings(max_examples=500, deadline=None)
@given(p_f=st.floats(0.001, 0.999, exclude_min=True, exclude_max=True),
       log_gap=st.floats(-13.0, -2.0))
# a verdict the slopes formed as num_i - den_i got wrong
@example(p_f=0.4, log_gap=-9.0)
def test_rise_test_is_exact_near_ties(p_f, log_gap):
    # p_d within 1e-13..1e-2 of p_f: the slopes are tiny, but stored in
    # factored form they keep their relative precision, so the float rise
    # test gives the exact verdict
    p_d = p_f + 10.0 ** log_gap
    assume(p_d < 1.0)
    coeffs = roc_coefficients(p_f, p_d)
    rises, slope1, slope2 = _exact_rise(p_f, p_d)
    assert (ehdetect.optimizer._gain_peak(coeffs) is not None) == rises
    eps = sys.float_info.epsilon
    for stored, exact in ((coeffs.slope1, slope1), (coeffs.slope2, slope2)):
        assert abs(Fraction(stored) - exact) <= 2 * eps * abs(exact)


@pytest.mark.parametrize("p_f, gap", [
    (0.7886753174151774, 1e-11),       # rises; the stored slopes said it did not
    (0.21133942251316412, 1e-13),      # falls; the stored slopes said it rose
    (0.2113, 1e-13),                   # rises, with r**3 rounding to 1
    (0.5 - 1.0 / math.sqrt(12.0), 1e-13),
    (0.5 + 1.0 / math.sqrt(12.0), 1e-13),
])
def test_rise_verdict_is_exact_at_the_band_edges(p_f, gap):
    # near p_f = (3 -+ sqrt(3))/6 the derivative of (2x - 1)x(1 - x) vanishes,
    # so r**3 - 1 lies below the rounding of the stored den_i and slope_i;
    # roc_coefficients settles its sign from p_f and p_d
    p_d = p_f + gap
    rising = ehdetect.optimizer._gain_peak(roc_coefficients(p_f, p_d))
    assert (rising is not None) == _exact_rise(p_f, p_d)[0]
    if rising is not None:
        assert rising[0] >= 1.0


@pytest.mark.parametrize("p_f, p_d", [(0.06137312646507679, 0.06137312646507681),
                                      (0.12698100000559942, 0.12698100000559945)])
def test_a_peak_past_rounding_of_the_band_edge_is_taken_at_the_far_end(p_f, p_d):
    # p_d a few ulps above p_f: the test on r**3 says the gain rises, while
    # den_j - r * den_i rounds to zero or below, so the peak's closed form
    # has no positive divisor
    coeffs = roc_coefficients(p_f, p_d)
    r, dp, dn = ehdetect.optimizer._gain_peak(coeffs)
    assert dn - r * dp <= 0.0
    level = ehdetect.optimizer._level_constants(1.0, coeffs, 1.0)
    assert level.peak == 0.5 * sys.float_info.max
    for lam in (1e-300, 1e-3):
        root = stationarity_root(lam, 1.0, coeffs, 1.0)
        assert root == -1.0 or root >= 0.0


def test_band_note_needs_no_live_level(toy_scenario):
    # the note is a property of the operating point, so a sensor whose one
    # level is the dead zone still carries it
    sensor = replace(toy_scenario.sensors[0], p_f=0.073, p_d=0.26,
                     thresholds=(0.0, math.inf))
    out = optimize_power_map(replace(toy_scenario, sensors=(sensor,)))
    assert out.warnings == ("sensor 0: operating point outside the concavity band; "
                            "the stationarity condition may have multiple roots",)


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


def test_roots_at_prices_down_to_the_smallest_float_meet_the_tolerance():
    # positive and negative ROC slopes, in the band and outside it; below
    # about 1e-307 the falling crossing lies where d * d overflows, and the
    # root there must be +inf, not a point whose computed gain is 0
    mus = [0.05, 0.3, 1.0, 2.5, 40.0]
    prices = np.geomspace(1e-300, 5e-324, 120).tolist() + [1e-308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p_f, p_d in ((0.2, 0.9), (0.6, 0.71), (0.073, 0.26), (0.1, 0.3)):
            coeffs = roc_coefficients(p_f, p_d)
            for lam in prices:
                roots = stationarity_root(lam, mus, coeffs, 1.0)
                for mu, root in zip(mus, roots.tolist()):
                    if 0.0 <= root < math.inf:
                        gain = marginal_divergence_gain(root, mu, coeffs, 1.0)
                        assert abs(gain - lam) <= ROOT_TOL * lam, (p_f, p_d, lam, mu, root)
    assert stationarity_root(1e-308, 1.0, roc_coefficients(0.2, 0.9), 1.0) == math.inf
    assert math.isfinite(stationarity_root(1e-308, 1.0, roc_coefficients(0.6, 0.71), 1.0))


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
    # bisections forced by the slow-progress test can reach ROOT_TOL. The
    # iteration's slopes all come from a level's constants: dg0 at the start
    # and m2 times a positive sum at every step
    real = ehdetect.optimizer._level_constants

    def steep(mu, coeffs, noise_var):
        level = real(mu, coeffs, noise_var)
        return level._replace(m2=50.0 * level.m2, dg0=50.0 * level.dg0)

    coeffs = roc_coefficients(0.2, 0.9)
    cases = [(mu, lam) for mu in (0.3, 1.0, 2.5) for lam in (0.01, 0.05, 0.1)]
    plain = [stationarity_root(lam, mu, coeffs, 1.0) for mu, lam in cases]
    monkeypatch.setattr(ehdetect.optimizer, "_level_constants", steep)
    crawled = [stationarity_root(lam, mu, coeffs, 1.0) for mu, lam in cases]
    assert crawled != plain  # the patch reaches the iteration
    for (mu, lam), root in zip(cases, crawled):
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


@settings(max_examples=300, deadline=None)
@given(
    p_f=st.floats(0.01, 0.98),
    p_d=st.floats(0.02, 0.99),
    mu=st.one_of(st.floats(0.05, 3.0), st.floats(-323.0, 0.5).map(lambda e: 10.0 ** e),
                 st.just(5e-324)),
    noise_var=st.floats(0.5, 2.0),
    fraction=st.floats(0.0, 1.5),
)
# the former stall level, and peaks past the largest float
@example(p_f=0.073, p_d=0.26, mu=1.6, noise_var=1.0, fraction=0.95)
@example(p_f=0.073, p_d=0.26, mu=1e-309, noise_var=1.0, fraction=0.95)
@example(p_f=0.073, p_d=0.26, mu=5e-324, noise_var=1.0, fraction=0.95)
@example(p_f=0.01171875, p_d=0.03125, mu=1e-312, noise_var=1.0, fraction=0.0)
# the other slope sign, and a slope sign with no peak (r < 1)
@example(p_f=0.6, p_d=0.99, mu=1.0, noise_var=1.0, fraction=0.5)
@example(p_f=0.6, p_d=0.7, mu=1.0, noise_var=1.0, fraction=0.5)
def test_the_gain_rises_only_to_its_closed_form_peak(p_f, p_d, mu, noise_var, fraction):
    # both ROC-slope signs; gains from 5e-324, where den * mu underflows
    assume(p_d >= p_f + 0.01)
    coeffs = roc_coefficients(p_f, p_d)
    level = ehdetect.optimizer._level_constants(mu, coeffs, noise_var)
    top = max(level.g0, level.g_peak)
    # 24 decades of power up to where den * mu * p reaches 1e12, or 1e300,
    # so no denominator squared overflows; plus zero power and the peak
    p_hi = 1e12 / max(max(coeffs.den1, coeffs.den2) * mu, 1e-288)
    powers = np.unique(np.concatenate(
        ([0.0, level.peak], np.geomspace(1e-24 * p_hi, p_hi, 4001))))
    gain = marginal_divergence_gain(powers, mu, coeffs, noise_var)
    slope1, slope2 = coeffs.slope1, coeffs.slope2
    # rounding scales with the largest value a term of the gain takes; an
    # absolute 1e-322 covers the few subnormal roundings of a tiny gain
    tol = 1e-12 * (abs(slope1) + abs(slope2)) * mu / noise_var + 1e-322
    assert gain.max() <= top + tol
    assert np.all(np.diff(gain[powers <= level.peak]) >= -tol)
    assert np.all(np.diff(gain[powers >= level.peak]) <= tol)
    lams = [fraction * top, level.g0, level.g_peak, 0.5 * (level.g0 + level.g_peak),
            gain.max()]
    for lam in (lam for lam in lams if lam > 0.0):
        root = stationarity_root(lam, mu, coeffs, noise_var)
        assert (root == -1.0) == (top <= lam)
        # priced out exactly where the grid's gains stay at or below lam
        if root == -1.0:
            assert gain.max() <= lam + tol
        else:
            assert gain.max() > lam
        if level.g0 <= lam < level.g_peak:
            # the rising crossing, on [0, peak]
            assert 0.0 < root <= level.peak
            g = marginal_divergence_gain(root, mu, coeffs, noise_var)
            assert abs(g - lam) <= ROOT_TOL * lam + tol


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
    once, kept as the reference for the per-level kernel. Its in-band branch
    and its iteration are verbatim; outside the band it takes the kernel's
    bracket rule, from the closed-form peak, in place of its former scan."""
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
    slope1, slope2 = coeffs.slope1, coeffs.slope2
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
        # a gain above lam at zero power falls to it on [0, p_big]; below it,
        # only a peak above lam crosses it, rising, on [0, peak]. r is a
        # Python float, as in the kernel, so the peaks are the kernel's too
        g0, dg0 = opt._gain_and_derivative(np.zeros(mu.size), mu, coeffs, noise_var)
        peak, g_peak, dg_peak = np.zeros(mu.size), g0, dg0
        if slope1 * slope2 < 0.0:
            (sp, dp), (sn, dn) = sorted(((slope1, coeffs.den1), (slope2, coeffs.den2)),
                                        reverse=True)
            r = (-sn * dn / (sp * dp)) ** (1.0 / 3.0)
            if r > 1.0 and dn > r * dp:
                peak = np.minimum(noise_var * (r - 1.0) / (dn - r * dp) / mu,
                                  0.5 * sys.float_info.max)
                g_peak, dg_peak = opt._gain_and_derivative(peak, mu, coeffs, noise_var)
        falling = g0 > lam
        solve = falling | (g_peak > lam)
        lo, hi = np.where(falling, 0.0, peak), np.where(falling, p_big, 0.0)
        g, dg = np.where(falling, g0, g_peak), np.where(falling, dg0, dg_peak)
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
# rising crossings on [0, peak] at the former stall point, one with its peak
# capped at half the largest float
@example(p_f=0.073, spread=0.187 / 0.907, lam=0.12, mus=[0.6, 1.6], noise_var=1.0)
@example(p_f=0.073, spread=0.187 / 0.907, lam=7.1e-311, mus=[1e-309, 1.6], noise_var=1.0)
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
    # byte equality is == on every root that also tells -0.0 from 0.0
    assert roots.tobytes() == reference.tobytes(), (roots.tolist(), reference.tolist())


def _zero_slopes(monkeypatch):
    """Every slope the kernel and the reference compute is 0: the float64
    Newton step is infinite or NaN."""
    opt = ehdetect.optimizer
    real_gain, real_level = opt._gain_and_derivative, opt._level_constants

    def gain(p, mu, coeffs, noise_var, derivative=True):
        g, dg = real_gain(p, mu, coeffs, noise_var, derivative)
        return g, None if dg is None else 0.0 * dg

    def level(mu, coeffs, noise_var):
        # dg0 comes from the patched gain; m2 scales every step's slope
        return real_level(mu, coeffs, noise_var)._replace(m2=0.0)

    monkeypatch.setattr(opt, "_gain_and_derivative", gain)
    monkeypatch.setattr(opt, "_level_constants", level)
    return [(roc_coefficients(p_f, p_d), 0.001)
            for p_f, p_d in ((0.2, 0.9), (0.6, 0.7), (0.1, 0.3))]


def _negative_gains(monkeypatch):
    """Slopes of no ROC point, with slope1 / den1**2 + slope2 / den2**2 < 0:
    the gain turns negative past the crossing, where sqrt(g / lam) is NaN.
    At these prices the crossing sits so close to the gain's own zero that
    iterates in the bracket [0, p_big] land past it."""
    coeffs = RocCoefficients(slope1=0.25, den1=0.25, slope2=-0.05, den2=0.05,
                             tilt=0.25 * 0.25 + -0.05 * 0.05)
    return [(coeffs, 1e-6), (coeffs, 1e-9)]


@pytest.mark.parametrize("setup", [_zero_slopes, _negative_gains],
                         ids=["zero_slope", "negative_gain"])
def test_invalid_newton_steps_bisect_like_the_masked_array_iteration(monkeypatch,
                                                                    setup):
    # where the array iteration's Newton step is NaN or infinite it bisects;
    # the per-level kernel must bisect at the same iterates, without raising
    for coeffs, lam in setup(monkeypatch):
        mus = [0.3, 1.0, 2.5]
        roots = stationarity_root(lam, np.array(mus), coeffs, 1.0)
        reference = _masked_newton_roots(lam, mus, coeffs, 1.0)
        assert roots.tolist() == reference.tolist()
        assert np.any(roots > 0.0)


def _reference_map(lam, ctx, net):
    """The clamped table of one sensor as the solver built it from the public
    root call, kept as the reference for _map_for_lambda."""
    K = net.capacity
    return clamp_power(stationarity_root(lam, ctx.mu, ctx.coeffs, ctx.noise_var)[:, None],
                       np.arange(K + 1), ctx.phi, net)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 12),
    unit_energy=st.floats(0.05, 2.0),
    outage_confidence=st.floats(0.01, 0.999999),
    p_f=st.floats(0.02, 0.9),
    spread=st.floats(0.05, 1.0),
    mus=st.lists(st.one_of(st.just(5e-324), st.floats(1e-300, 1e-6), st.floats(0.05, 3.0)),
                 min_size=1, max_size=4, unique=True),
    noise_var=st.floats(0.5, 2.0),
    fraction=st.floats(0.0, 1.0),
)
@example(capacity=5, unit_energy=0.2, outage_confidence=0.9, p_f=0.2, spread=0.9,
         mus=[0.6, 1.6], noise_var=1.0, fraction=0.5)
@example(capacity=5, unit_energy=0.2, outage_confidence=0.9, p_f=0.6, spread=0.3,
         mus=[5e-324, 0.6, 1.6], noise_var=1.0, fraction=0.01)
@example(capacity=5, unit_energy=0.2, outage_confidence=0.9, p_f=0.073, spread=0.2,
         mus=[5e-324, 1.6], noise_var=1.0, fraction=0.3)
# a price so small that a scan of the gain up to p_big overflowed d * d
@example(capacity=1, unit_energy=1.0, outage_confidence=0.5, p_f=0.03125, spread=0.25,
         mus=[2.3062017228175762e-07, 1.0], noise_var=2.0, fraction=2.2250738585e-313)
def test_a_price_evaluation_equals_the_clamped_public_roots(capacity, unit_energy,
                                                             outage_confidence, p_f,
                                                             spread, mus, noise_var,
                                                             fraction):
    # both ROC-slope signs, the dead level, gains down to 5e-324; free, tiny,
    # random and infinite prices, the ceiling, and every level's zero-power
    # gain and its neighbouring floats, where a level is priced in or out
    net = NetworkParams(prior_h0=0.5, capacity=capacity, unit_energy=unit_energy,
                        slot_seconds=1.0, mean_harvest=1.0, drop_fraction=0.2,
                        power_budget=1.0)
    sensor = SensorParams(mean_gain=1.0, noise_var=noise_var, p_f=p_f,
                          p_d=p_f + spread * (0.98 - p_f),
                          outage_confidence=outage_confidence,
                          thresholds=(0.0, *sorted(mus), math.inf))
    ctx = _sensor_context(net, sensor)
    prices = [0.0, 5e-324, fraction * ctx.lambda_ceiling, ctx.lambda_ceiling, math.inf]
    for mu in mus:
        g0 = marginal_divergence_gain(0.0, mu, ctx.coeffs, noise_var)
        prices += [np.nextafter(g0, -math.inf), g0, np.nextafter(g0, math.inf)]
    for lam in prices:
        mine = _map_for_lambda(float(lam), [ctx])[0]
        assert mine.tobytes() == _reference_map(float(lam), ctx, net).tobytes(), lam


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
    price_map = ehdetect.optimizer._map_for_lambda

    def counted(*args, **kwargs):
        calls.append(None)
        return price_map(*args, **kwargs)

    monkeypatch.setattr(ehdetect.optimizer, "_map_for_lambda", counted)
    out = optimize_power_map(scenario)
    # one map per price evaluation; the search makes 132 here
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


def _candidate_stack_report(lam, powers, ctxs, network, ep):
    """The activity rule that read the raw roots, kept as the reference.

    Each live level stacks the causality cap, the outage cap and the root's
    positive part; the first smallest candidate names the clamp, and a
    positive finite root strictly below both caps is interior.
    """
    residuals, actives = [], []
    worst = 0.0
    for P, ctx in zip(powers, ctxs):
        r = stationarity_root(lam, ctx.mu, ctx.coeffs, ctx.noise_var)
        causality = np.arange(P.shape[1], dtype=float) * network.unit_power
        L1, K1 = P.shape
        res = np.full((L1, K1), np.nan)
        act = np.full((L1, K1), LEVEL_ZERO, dtype=np.int64)
        for l in range(1, L1):
            cand = np.vstack([
                causality,
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
    return KktReport(residuals=tuple(residuals), active=tuple(actives),
                     max_interior_residual=worst,
                     slackness=lam * (ep - network.power_budget))


_TOY_SHAPE = dict(capacity=5, unit_energy=0.2, mean_harvest=3.0, prior_h0=0.5,
                  drop_fraction=0.2, outage_confidence=0.9, p_f=0.2, spread=0.9,
                  mus=[0.6, 1.6], noise_var=1.0)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 8),
    unit_energy=st.floats(0.05, 2.0),
    mean_harvest=st.floats(0.01, 3.0),
    prior_h0=st.floats(0.1, 0.9),
    drop_fraction=st.floats(0.05, 0.9),
    # at or below prior_h0 the outage cap is vacuous; near 1 it binds
    outage_confidence=st.floats(0.01, 0.999999),
    p_f=st.floats(0.02, 0.9),
    spread=st.floats(0.05, 1.0),
    mus=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3, unique=True),
    noise_var=st.floats(0.5, 2.0),
    price=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    tie=st.sampled_from(["none", "root_on_phi", "phi_on_causality"]),
    at=st.integers(0, 8),
)
# the root equal to phi at one state, phi equal to the causality cap at one
# state, and every level priced out to the -1 sentinel at state 0
@example(**_TOY_SHAPE, price=0.3, tie="root_on_phi", at=3)
@example(**_TOY_SHAPE, price=0.3, tie="phi_on_causality", at=2)
@example(**{**_TOY_SHAPE, "outage_confidence": 0.3}, price=0.3,
         tie="phi_on_causality", at=4)
@example(**_TOY_SHAPE, price=1.0, tie="none", at=0)
@example(**{**_TOY_SHAPE, "p_f": 0.073, "spread": 0.26}, price=0.5, tie="root_on_phi",
         at=5)
# prices so small that a scan of the gain up to p_big overflowed d * d
@example(capacity=1, unit_energy=1.0, mean_harvest=1.0, prior_h0=0.5, drop_fraction=0.5,
         outage_confidence=0.5, p_f=0.25, spread=0.25, mus=[1.0, 2.0], noise_var=0.5,
         price=2.225073858507203e-309, tie="none", at=0)
@example(capacity=1, unit_energy=1.0, mean_harvest=1.0, prior_h0=0.5, drop_fraction=0.5,
         outage_confidence=0.5, p_f=0.75, spread=1.0, mus=[1.0, 2.0], noise_var=0.5,
         price=2.225073858507203e-309, tie="none", at=0)
def test_activity_codes_read_off_the_powers_equal_the_candidate_stack(
        capacity, unit_energy, mean_harvest, prior_h0, drop_fraction,
        outage_confidence, p_f, spread, mus, noise_var, price, tie, at):
    # positive and negative ROC slopes, binding and vacuous outage caps,
    # prices from free to the ceiling that prices every level out
    net = NetworkParams(prior_h0=prior_h0, capacity=capacity, unit_energy=unit_energy,
                        slot_seconds=1.0, mean_harvest=mean_harvest,
                        drop_fraction=drop_fraction, power_budget=1.0)
    sensor = SensorParams(mean_gain=1.0, noise_var=noise_var, p_f=p_f,
                          p_d=p_f + spread * (0.98 - p_f),
                          outage_confidence=outage_confidence,
                          thresholds=(0.0, *sorted(mus), math.inf))
    ctx = _sensor_context(net, sensor)
    lam = price * ctx.lambda_ceiling
    k = at % (capacity + 1)
    roots = stationarity_root(lam, ctx.mu, ctx.coeffs, ctx.noise_var)
    phi = ctx.phi.copy()
    tied = None
    if tie == "root_on_phi":
        live = [l for l in range(1, roots.size) if 0.0 < roots[l] < math.inf]
        if live:
            tied = live[-1]
            phi[k] = roots[tied]
    elif tie == "phi_on_causality":
        phi[k] = k * net.unit_power
    ctx = replace(ctx, phi=phi, cap=np.minimum(ctx.causality, phi))
    powers = _map_for_lambda(lam, [ctx])
    ep = float(np.einsum("l,lk,k->", ctx.chain.pi, powers[0],
                         np.full(capacity + 1, 1.0 / (capacity + 1))))
    mine = _kkt_report(lam, powers, [ctx], net, ep)
    ref = _candidate_stack_report(lam, powers, [ctx], net, ep)
    assert mine.active[0].dtype == ref.active[0].dtype
    assert mine.active[0].tobytes() == ref.active[0].tobytes()
    assert mine.residuals[0].tobytes() == ref.residuals[0].tobytes()
    assert mine.max_interior_residual == ref.max_interior_residual
    assert mine.slackness == ref.slackness
    act = mine.active[0]
    # an empty battery funds nothing: causality wins every tie at state 0
    assert np.all(act[1:, 0] == CLAMP_CAUSALITY)
    if tied is not None and roots[tied] < k * net.unit_power:
        assert act[tied, k] == CLAMP_OUTAGE
    if tie == "phi_on_causality":
        assert np.all(act[1:, k] != CLAMP_OUTAGE)


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_exhaustive_rejects_large_instances(two_sensor_scenario, toy_scenario):
    with pytest.raises(ExhaustiveRefused, match="single-sensor"):
        exhaustive_best_map(two_sensor_scenario)
    big = replace(toy_scenario,
                  network=replace(toy_scenario.network, capacity=9))
    with pytest.raises(ExhaustiveRefused, match="too large"):
        exhaustive_best_map(big)
    many = replace(toy_scenario,
                   network=replace(toy_scenario.network, capacity=6))
    with pytest.raises(ExhaustiveRefused, match="exceed the 2000000 cap"):
        exhaustive_best_map(many)


def _assert_reported_as_evaluated(scenario, res):
    j, ep, (psi,) = evaluate_unit_map(scenario, [res.units])
    assert res.objective_j == j
    assert res.expected_power == ep
    assert res.psi.psi.tobytes() == psi.psi.tobytes()


_REFERENCE_BATCH = 20_000  # candidate maps per stacked solve of the reference


def _enumerated_reference(scenario):
    """(units, candidates, feasible) of the enumeration that held every choice's rows.

    Kept as the reference for the batched gather: it builds the drain rows
    of every per-state unit choice up front and weights a copy per live
    level, in fixed batches of its own; the arithmetic of each candidate
    chain and score is the same.
    """
    net = scenario.network
    ctx = _sensor_context(net, scenario.sensors[0])
    K, L1 = net.capacity, ctx.chain.pi.size
    unit_power = net.unit_power
    states = np.arange(K + 1)
    amax = np.minimum(states, np.floor(ctx.phi / unit_power + 1e-9)).astype(np.int64)
    counts = (int(np.prod(amax + 1)),) * (L1 - 1)
    total = math.prod(counts)
    choices = np.array(list(itertools.product(*[range(a + 1) for a in amax])),
                       dtype=np.int64)
    rows = ctx.chain.arrivals.drain_table.take(
        states - np.vstack([np.zeros(K + 1, dtype=np.int64), choices]), axis=0)
    pi, tp = ctx.chain.pi, ctx.chain.transmit_prob
    base = (1.0 - tp) * rows[0]
    spend = [tp * pi[1 + l] * rows[1:] for l in range(L1 - 1)]
    idle_weighted = tp * pi[0] * rows[0]
    j_table = sensor_j_divergence(ctx.mu[:, None], (states * unit_power)[None, :],
                                  ctx.coeffs, ctx.noise_var)
    budget = net.power_budget * (1.0 + 1e-12) + 1e-15
    best_j, best_idx, feasible = -math.inf, -1, 0
    for start in range(0, total, _REFERENCE_BATCH):
        idx = np.arange(start, min(start + _REFERENCE_BATCH, total))
        level_idx = np.unravel_index(idx, counts) if counts else ()
        M = np.broadcast_to(base + idle_weighted, (idx.size, K + 1, K + 1)).copy()
        for l in range(L1 - 1):
            M += spend[l][level_idx[l]]
        psi = stationary_solve(M)
        ep = np.zeros(idx.size)
        jval = np.full(idx.size, pi[0] * 2.0)
        for l in range(L1 - 1):
            a = choices[level_idx[l]]
            ep += pi[1 + l] * np.einsum("bk,bk->b", psi, a * unit_power)
            jval += pi[1 + l] * np.einsum("bk,bk->b", psi, j_table[1 + l, a])
        ok = ep <= budget
        feasible += int(np.count_nonzero(ok))
        if np.any(ok):
            cand = np.where(ok, jval, -math.inf)
            arg = int(np.argmax(cand))
            if cand[arg] > best_j:
                best_j, best_idx = float(cand[arg]), int(idx[arg])
    chosen = np.unravel_index(best_idx, counts)
    units = np.vstack([np.zeros(K + 1, dtype=np.int64)] + [choices[c] for c in chosen])
    return units, total, feasible


def _assert_enumerates_as_the_reference(scenario, res):
    units, candidates, feasible = _enumerated_reference(scenario)
    np.testing.assert_array_equal(res.units, units)
    assert res.units.dtype == units.dtype
    assert (res.candidates, res.feasible) == (candidates, feasible)


def test_exhaustive_toy_is_self_consistent(toy_scenario):
    res = exhaustive_best_map(toy_scenario)
    assert res.candidates == 518_400
    assert 0 < res.feasible <= res.candidates
    budget = toy_scenario.network.power_budget
    assert res.expected_power <= budget * (1.0 + 1e-12) + 1e-15
    # the winner is reported exactly as evaluate_unit_map scores its map,
    # and it is the winner of the reference enumeration
    _assert_reported_as_evaluated(toy_scenario, res)
    _assert_enumerates_as_the_reference(toy_scenario, res)


@st.composite
def _tiny_scenarios(draw, template):
    live = draw(st.sampled_from([1, 2, 3]))
    # three live levels stop at K = 3, which keeps a case under 14k candidates
    K = draw(st.sampled_from([1, 2, 3, 4] if live < 3 else [1, 2, 3]))
    upper = sorted(draw(st.lists(st.floats(1.05, 4.0), min_size=live - 1,
                                 max_size=live - 1, unique=True)))
    negative = draw(st.booleans())
    if negative:  # a ROC slope is negative where p_d < 1/2 or p_f > 1/2
        p_f = draw(st.floats(0.2, 0.3))
        p_d = draw(st.floats(p_f + 0.05, 0.45))
    else:
        p_f = draw(st.floats(0.05, 0.3))
        p_d = draw(st.floats(0.6, 0.95))
    binding = draw(st.booleans())
    # a binding budget is at most half a unit per slot, a slack one pays for any map
    budget = draw(st.floats(0.005, 0.5)) * template.network.unit_power if binding else 50.0
    net = replace(template.network, capacity=K, power_budget=budget,
                  mean_harvest=draw(st.floats(0.5, 4.0)),
                  transmit_prob_model=draw(st.sampled_from(["prior", "decision"])))
    sensor = replace(template.sensors[0], p_f=p_f, p_d=p_d,
                     thresholds=(0.0, draw(st.floats(0.05, 1.0)), *upper, math.inf))
    coeffs = roc_coefficients(p_f, p_d)
    assert (min(coeffs.slope1, coeffs.slope2) < 0.0) == negative
    return replace(template, network=net, sensors=(sensor,))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exhaustive_reports_the_evaluated_winner_of_the_reference_enumeration(
        toy_scenario, data):
    scenario = data.draw(_tiny_scenarios(toy_scenario))
    res = exhaustive_best_map(scenario)
    _assert_reported_as_evaluated(scenario, res)
    _assert_enumerates_as_the_reference(scenario, res)


@pytest.mark.parametrize("live, capacity, negative, budget", [
    (1, 3, False, 0.02), (1, 4, True, 0.3), (2, 3, False, 0.1), (2, 3, True, 0.1),
    (2, 3, False, 50.0), (2, 3, True, 50.0), (3, 2, False, 0.05), (3, 2, True, 50.0),
])
def test_the_oracle_wins_with_the_first_best_evaluate_unit_map_score(
        toy_scenario, live, capacity, negative, budget):
    # binding and slack budgets, both slope signs, at most 576 candidates:
    # evaluate_unit_map scores every candidate map, in the oracle's order. At
    # budget 0.02 only maps that never drain at K fit, and under each of them
    # the battery never leaves K, so all six tie exactly and the first wins
    sensor = replace(toy_scenario.sensors[0],
                     thresholds=(0.0, *(0.6, 1.2, 2.0)[:live], math.inf),
                     **(dict(p_f=0.25, p_d=0.4) if negative else {}))
    scenario = replace(toy_scenario, sensors=(sensor,), network=replace(
        toy_scenario.network, capacity=capacity, power_budget=budget))
    coeffs = roc_coefficients(sensor.p_f, sensor.p_d)
    assert (min(coeffs.slope1, coeffs.slope2) < 0.0) == negative
    ctx = _sensor_context(scenario.network, sensor)
    rows = list(itertools.product(*[range(c + 1) for c in ctx.unit_cap]))
    limit = budget * (1.0 + 1e-12) + 1e-15
    best_j, best, feasible = -math.inf, None, 0
    for maps in itertools.product(rows, repeat=live):
        units = np.array([(0,) * (capacity + 1), *maps], dtype=np.int64)
        j, ep, _ = evaluate_unit_map(scenario, [units])
        if ep <= limit:
            feasible += 1
            if j > best_j:
                best_j, best = j, units
    res = exhaustive_best_map(scenario)
    assert (res.candidates, res.feasible) == (len(rows) ** live, feasible)
    np.testing.assert_array_equal(res.units, best)
    assert res.objective_j == best_j


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unit_step_is_the_first_brute_force_argmax(toy_scenario, data):
    scenario = data.draw(_tiny_scenarios(toy_scenario))
    K = data.draw(st.integers(1, 8))
    net = replace(scenario.network, capacity=K)
    sensor = scenario.sensors[0]
    if data.draw(st.booleans()):
        # a live level whose divergence underflows to the floor at every
        # unit count, so at lam = 0 and h = 0 all its units tie
        sensor = replace(sensor, thresholds=(0.0, 5e-324, *sensor.thresholds[2:]))
    ctx = _sensor_context(net, sensor)
    lam = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0).map(
        lambda f: f * ctx.lambda_ceiling).filter(lambda x: x > 0.0)))
    h = data.draw(st.one_of(st.just(np.zeros(K + 1)), st.lists(
        st.floats(-5.0, 5.0), min_size=K + 1, max_size=K + 1).map(np.array)))
    step = _unit_step(lam, ctx, h)
    assert step.dtype == np.int64 and step.shape == (ctx.mu.size, K + 1)
    ahead = ctx.chain.arrivals.drain_table @ h
    tp = ctx.chain.transmit_prob
    for l in range(ctx.mu.size):
        for k in range(K + 1):
            values = [(float(ctx.j_units[l, a]) - lam * (a * net.unit_power))
                      + tp * float(ahead[k - a]) for a in range(int(ctx.unit_cap[k]) + 1)]
            if ctx.mu[l] == 0.0 or ctx.unit_cap[k] == 0:
                assert step[l, k] == 0
            else:
                # the same floats in the same order: the first index of the maximum
                assert values[step[l, k]] == max(values), (l, k, values)
                assert step[l, k] == values.index(max(values)), (l, k, values)


def _assert_same_context(a, b, where="ctx"):
    """Equal field by field, arrays by dtype and array_equal, floats by ==."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    elif is_dataclass(a):
        for f in fields(a):
            _assert_same_context(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, tuple):  # the root constants: a tuple of _Level tuples
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_context(x, y, f"{where}[{i}]")
    else:
        assert type(a) is type(b) and a == b, (where, a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_sensor_context_does_not_read_the_budget(toy_scenario, data):
    # what lets a sweep's _ContextStore reuse one context at every budget
    scenario = data.draw(_tiny_scenarios(toy_scenario))
    net = replace(scenario.network, capacity=data.draw(st.integers(1, 120)),
                  prior_h0=data.draw(st.floats(0.05, 0.95)))
    budgets = data.draw(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2))
    first, second = (_sensor_context(replace(net, power_budget=b), scenario.sensors[0])
                     for b in budgets)
    _assert_same_context(first, second)


def test_a_sensor_context_is_read_only(two_sensor_scenario):
    # a sweep hands one context to every budget's solve, so a write in one
    # solve must fail rather than reach the next
    ctx = _sensor_context(two_sensor_scenario.network, two_sensor_scenario.sensors[0])
    arrays = {f.name: getattr(ctx, f.name) for f in fields(ctx)
              if isinstance(getattr(ctx, f.name), np.ndarray)}
    arrays.update(pi=ctx.chain.pi, pmf=ctx.chain.arrivals.pmf,
                  drain_table=ctx.chain.arrivals.drain_table)
    assert set(arrays) == {"mu", "phi", "causality", "cap", "unit_cap", "j_units",
                           "live", "pi", "pmf", "drain_table"}
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_exhaustive_holds_no_table_per_choice(toy_scenario):
    # one live level at capacity 8: 9! = 362 880 candidates. Traced peak on a
    # 2-vCPU Xeon (NumPy 2.4.6): 474 MiB when every choice's drain rows were
    # held at once, 57 MiB with the rows gathered per batch but a table of
    # every choice's units held (25 MiB), 2.6 MiB with each batch decoding
    # its own units, 3.1 MiB with the grouped regenerative solve
    sensor = replace(toy_scenario.sensors[0], thresholds=(0.0, 0.6, math.inf))
    scenario = replace(toy_scenario, sensors=(sensor,),
                       network=replace(toy_scenario.network, capacity=8))
    tracemalloc.start()
    try:
        res = exhaustive_best_map(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.candidates == 362_880
    assert peak < 16 * 2**20


def test_exhaustive_counts_every_map_under_a_vacuous_outage_cap(toy_scenario):
    # prior_h1 + outage_confidence <= 1 makes the outage cap +inf, so only
    # causality caps a state's units; run with warnings as errors, so the
    # cast of an infinite cap would fail here
    scenario = replace(toy_scenario, network=replace(toy_scenario.network, prior_h0=0.9))
    assert np.all(np.isinf(_sensor_context(scenario.network, scenario.sensors[0]).phi))
    res = exhaustive_best_map(scenario)
    assert res.candidates == 518_400  # (6!)^2, as on toy with its finite cap
    _assert_reported_as_evaluated(scenario, res)
    _assert_enumerates_as_the_reference(scenario, res)


def _result_bytes(res):
    return (repr(res.objective_j), res.units.dtype.str, res.units.tobytes(),
            repr(res.expected_power), res.psi.psi.tobytes(),
            repr(res.candidates), repr(res.feasible))


@pytest.mark.parametrize("live, capacity, candidates",
                         [(0, 3, 1), (1, 3, 24), (2, 3, 576), (3, 2, 216)])
def test_batch_boundaries_do_not_change_the_result(toy_scenario, monkeypatch, live,
                                                   capacity, candidates):
    # a binding budget, so the winner is not the largest map
    sensor = replace(toy_scenario.sensors[0],
                     thresholds=(0.0, *(0.6, 1.2, 2.0)[:live], math.inf))
    scenario = replace(toy_scenario, sensors=(sensor,), network=replace(
        toy_scenario.network, capacity=capacity, power_budget=0.1))
    default = exhaustive_best_map(scenario)
    assert (default.candidates, sensor.level_count) == (candidates, live + 1)
    assert default.feasible < candidates or live == 0
    # one chain per batch, then 7 chains, which divides none of the counts
    for chains in (1, 7):
        monkeypatch.setattr(ehdetect.optimizer, "EXHAUSTIVE_BATCH_ELEMENTS",
                            chains * (capacity + 1) ** 2)
        assert _result_bytes(exhaustive_best_map(scenario)) == _result_bytes(default)


def _recorded_regenerative_calls(scenario):
    """The oracle's result and every (inputs, outputs) of its regenerative solves."""
    calls = []
    solve = ehdetect.optimizer._regenerative_laws

    def recording(*args):
        out = solve(*args)
        calls.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ehdetect.optimizer, "_regenerative_laws", recording)
        res = exhaustive_best_map(scenario)
    return res, calls


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_regenerative_laws_and_scores_match_the_stacked_solve(toy_scenario, data):
    scenario = data.draw(_tiny_scenarios(toy_scenario))
    res, calls = _recorded_regenerative_calls(scenario)
    tol = ehdetect.optimizer._RESCORE_MARGIN / 100.0
    ctx = _sensor_context(scenario.network, scenario.sensors[0])
    radix, live = ctx.unit_cap + 1, ctx.mu.size - 1
    chains = 0
    for (rows, last_rows, low, top), (v, err, scores) in calls:
        G, K = rows.shape[:2]
        R = last_rows.shape[0]
        # the unit maps of the chains: groups are numbered in call order, the
        # units below K of each live level are its digit of the group number,
        # and those at K its digit of the member number
        maps = np.zeros((G, R, live + 1, K + 1), dtype=np.int64)
        group = np.unravel_index(np.arange(chains // R, chains // R + G),
                                 (math.prod(radix[:K]),) * live)
        member = np.unravel_index(np.arange(R), (radix[K],) * live)
        for l in range(live):
            maps[:, :, 1 + l, :K] = np.stack(np.unravel_index(group[l], radix[:K]),
                                             axis=-1)[:, None]
            maps[:, :, 1 + l, K] = member[l]
        chains += G * R
        # the fast path's rows are transition_matrix's, bit for bit
        exact = transition_matrix(maps, ctx.chain)
        assert exact[:, :, :K].tobytes() == np.broadcast_to(
            rows[:, None], (G, R, K, K + 1)).tobytes()
        assert exact[:, :, K].tobytes() == np.broadcast_to(
            last_rows, (G, R, K + 1)).tobytes()
        # every group keeps its fast laws on these scenarios, so none falls back
        assert np.all(err <= tol)
        M = np.concatenate([np.broadcast_to(rows[:, None], (G, R, K, K + 1)),
                            np.broadcast_to(last_rows[None, :, None], (G, R, 1, K + 1))],
                           axis=2)
        psi = stationary_solve(M.reshape(G * R, K + 1, K + 1)).reshape(G, R, K + 1)
        fast = np.concatenate([v, np.ones((G, R, 1))], axis=2)
        fast /= fast.sum(axis=2, keepdims=True)
        assert np.abs(fast - psi).sum(axis=2).max() <= tol
        # spend and divergence: each column against its largest per-state value
        stacked = np.einsum("grk,gks->grs", psi[:, :, :K], low) + psi[:, :, K:] * top
        scale = np.maximum(np.abs(low).max(axis=(0, 1)), np.abs(top).max(axis=0))
        assert np.all(np.abs(scores - stacked) <= tol * scale)
    assert chains == res.candidates


@pytest.mark.parametrize("failing", [slice(None), slice(None, None, 2)])
def test_groups_that_fail_their_check_fall_back_to_the_stacked_solve(
        toy_scenario, monkeypatch, failing):
    # a binding budget at capacity 4: 14 400 candidates in 576 groups; every
    # group, then every other group of each batch, fails its error bound
    scenario = replace(toy_scenario, network=replace(
        toy_scenario.network, capacity=4, power_budget=0.1))
    default = exhaustive_best_map(scenario)
    assert 0 < default.feasible < default.candidates == 14_400
    solve = ehdetect.optimizer._regenerative_laws

    def failing_check(*args):
        v, err, scores = solve(*args)
        err = err.copy()
        err[failing] = math.inf
        return v, err, scores

    solved = []
    stacked = ehdetect.optimizer.stationary_solve
    monkeypatch.setattr(ehdetect.optimizer, "_regenerative_laws", failing_check)
    monkeypatch.setattr(ehdetect.optimizer, "stationary_solve",
                        lambda M: solved.append(len(M)) or stacked(M))
    assert _result_bytes(exhaustive_best_map(scenario)) == _result_bytes(default)
    # each failed group's 25 candidates went through the stacked solve
    assert sum(solved) >= (14_400 if failing == slice(None) else 7_200)


@pytest.mark.parametrize("budget", [0.05, 0.2])
def test_fast_score_errors_inside_the_margin_do_not_change_the_result(
        toy_scenario, monkeypatch, budget):
    # at 0.05 the winner drains one unit at state 4 only, so the states below
    # 3 are never visited and 576 maps tie exactly: the stacked solve's first
    # best must win however the fast scores order them; at 0.2 the budget binds
    scenario = replace(toy_scenario, network=replace(
        toy_scenario.network, capacity=4, power_budget=budget))
    default = exhaustive_best_map(scenario)
    solve = ehdetect.optimizer._regenerative_laws
    rng = np.random.default_rng(28)
    half_margin = 0.5 * ehdetect.optimizer._RESCORE_MARGIN

    def noisy(*args):
        v, err, scores = solve(*args)
        return v, err, scores * (1.0 + rng.uniform(-half_margin, half_margin, scores.shape))

    monkeypatch.setattr(ehdetect.optimizer, "_regenerative_laws", noisy)
    for _ in range(3):
        assert _result_bytes(exhaustive_best_map(scenario)) == _result_bytes(default)


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


def test_evaluate_unit_map_rejects_a_map_for_another_sensor_count(two_sensor_scenario,
                                                                 two_sensor_outcome):
    # one table for two sensors used to score the first sensor alone
    units = two_sensor_outcome.power_map.units
    with pytest.raises(ValueError, match="need one unit table per sensor: got 1 for 2 sensors; "
                                         "sensor 1 has none"):
        evaluate_unit_map(two_sensor_scenario, units[:1])
    with pytest.raises(ValueError, match=r"got 3 for 2 sensors; units\[2\] matches no sensor"):
        evaluate_unit_map(two_sensor_scenario, (units * 2)[:3])


def test_evaluate_unit_map_names_the_sensor_whose_table_does_not_fit(two_sensor_scenario,
                                                                     two_sensor_outcome):
    # both used to fail deep in the chain, the first naming no sensor
    units = two_sensor_outcome.power_map.units
    K = two_sensor_scenario.network.capacity
    tall = (units[0], np.vstack([units[1], np.zeros(K + 1, dtype=np.int64)]))
    with pytest.raises(ValueError, match=r"^sensor 1: the unit map needs a 5 x 101 "
                                         r"\(levels x battery states\) table$"):
        evaluate_unit_map(two_sensor_scenario, tall)
    # every table for a battery of 50 units, which PowerMap itself accepts
    with pytest.raises(ValueError, match=r"^sensor 0: the unit map needs a 5 x 101 "):
        evaluate_unit_map(two_sensor_scenario, tuple(u[:, :51] for u in units))


def test_evaluate_unit_map_refuses_maps_power_map_refuses(toy_scenario, toy_outcome):
    units = toy_outcome.power_map.units[0]
    K = toy_scenario.network.capacity
    # a silent level 0 that drains a unit used to score a larger spend
    drains_at_zero = units.copy()
    drains_at_zero[0] = np.minimum(np.arange(K + 1), 1)
    with pytest.raises(ValueError, match="sensor 0: level 0 must carry zero power"):
        evaluate_unit_map(toy_scenario, [drains_at_zero])
    # fractional counts used to be truncated and scored as the map itself
    with pytest.raises(ValueError, match="sensor 0"):
        evaluate_unit_map(toy_scenario, [units + 0.7])
    fractional = (units // 2).astype(float)
    fractional[1:, 1:] += 0.5
    with pytest.raises(ValueError, match="sensor 0: counts must be whole numbers"):
        evaluate_unit_map(toy_scenario, [fractional])
    for bad in (units - 1, units + 1):
        with pytest.raises(ValueError, match="sensor 0"):
            evaluate_unit_map(toy_scenario, [bad])
    # whole counts in a float array are the same map
    j, ep, _ = evaluate_unit_map(toy_scenario, [units.astype(float)])
    assert (j, ep) == evaluate_unit_map(toy_scenario, [units])[:2]


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
