import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ehdetect import (
    RocCoefficients,
    local_lrt_probabilities,
    q_function,
    roc_coefficients,
    sensor_j_divergence,
)
from references import GaussianPair, gaussian_j_divergence, moment_match

rates = st.tuples(st.floats(0.01, 0.6), st.floats(0.0, 1.0)).map(
    lambda t: (t[0], t[0] + (0.99 - t[0]) * max(t[1], 0.05))
)


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-15)
    assert q_function(-1.0) + q_function(1.0) == pytest.approx(1.0, abs=1e-15)


def test_roc_coefficients_reference_points():
    c = roc_coefficients(0.2, 0.9)
    assert c.num1 == pytest.approx(0.65, rel=1e-15)
    assert c.den1 == pytest.approx(0.09, rel=1e-15)
    assert c.num2 == pytest.approx(0.58, rel=1e-15)
    assert c.den2 == pytest.approx(0.16, rel=1e-15)
    c = roc_coefficients(0.1, 0.75)
    assert c.num1 == pytest.approx(0.5125, rel=1e-15)
    assert c.den1 == pytest.approx(0.1875, rel=1e-15)
    assert c.num2 == pytest.approx(0.61, rel=1e-15)
    assert c.den2 == pytest.approx(0.09, rel=1e-15)


@given(rates)
@settings(max_examples=200, deadline=None)
def test_roc_coefficient_identities(r):
    p_f, p_d = r
    c = roc_coefficients(p_f, p_d)
    gap = (p_d - p_f) ** 2
    # both numerators sit exactly one squared-gap above the opposite denominator
    assert c.num1 - c.den2 == pytest.approx(gap, abs=1e-15)
    assert c.num2 - c.den1 == pytest.approx(gap, abs=1e-15)
    assert c.num1 - c.den1 == pytest.approx((p_d - p_f) * (2 * p_d - 1), abs=1e-15)
    assert c.num2 - c.den2 == pytest.approx((p_d - p_f) * (1 - 2 * p_f), abs=1e-15)


def test_roc_coefficients_validate_inputs():
    with pytest.raises(ValueError):
        roc_coefficients(0.9, 0.2)
    with pytest.raises(ValueError):
        roc_coefficients(0.0, 0.5)
    with pytest.raises(ValueError):
        RocCoefficients(slope1=0.2, den1=0.3, slope2=0.4, den2=0.1,  # den1 > 1/4
                        tilt=0.2 * 0.3 + 0.4 * 0.1)
    with pytest.raises(ValueError, match=r"num1 = slope1 \+ den1 must be finite and >= 0"):
        RocCoefficients(slope1=-0.3, den1=0.1, slope2=0.4, den2=0.1,  # num1 < 0
                        tilt=-0.3 * 0.1 + 0.4 * 0.1)


@settings(max_examples=300, deadline=None)
@given(p_f=st.floats(0.001, 0.999, exclude_max=True), log_gap=st.floats(-13.0, -0.5))
def test_tilt_has_the_exact_sign_of_the_slope_den_sum(p_f, log_gap):
    # near the band's edge the float sum of the rounded products has the
    # wrong sign; the stored tilt must carry the sign at the exact (p_f, p_d)
    p_d = p_f + 10.0 ** log_gap
    if p_d >= 1.0:
        return
    pf, pd = Fraction(p_f), Fraction(p_d)
    exact = ((pd - pf) * (2 * pd - 1) * pd * (1 - pd)
             + (pd - pf) * (1 - 2 * pf) * pf * (1 - pf))
    tilt = roc_coefficients(p_f, p_d).tilt
    assert (tilt > 0) == (exact > 0) and (tilt < 0) == (exact < 0)


def test_coefficients_built_without_a_tilt_are_refused():
    # the float sum would take the wrong sign near the band's edge, so no
    # default stands in for roc_coefficients' exact tilt
    with pytest.raises(TypeError, match="tilt"):
        RocCoefficients(slope1=0.2, den1=0.25, slope2=-0.1, den2=0.1)


def test_divergence_reference_point():
    c = roc_coefficients(0.2, 0.9)
    assert sensor_j_divergence(1.0, 1.0, c, 1.0) == pytest.approx(
        2.8758304334071494, rel=1e-14)
    with pytest.raises(ValueError, match="noise_var must be > 0"):
        sensor_j_divergence(1.0, 1.0, c, 0.0)


def test_divergence_floor_at_zero_power():
    for p_f, p_d in ((0.2, 0.9), (0.1, 0.75), (0.45, 0.5)):
        c = roc_coefficients(p_f, p_d)
        assert sensor_j_divergence(3.7, 0.0, c, 2.0) == 2.0
        assert sensor_j_divergence(0.0, 5.0, c, 2.0) == 2.0


def test_divergence_high_power_limit():
    c = roc_coefficients(0.2, 0.9)
    limit = c.num1 / c.den1 + c.num2 / c.den2
    assert limit == pytest.approx(10.847222222222223, rel=1e-15)
    assert sensor_j_divergence(1.0, 1e14, c, 1.0) == pytest.approx(limit, rel=1e-9)


@given(rates, st.floats(0.0, 10.0), st.floats(0.0, 50.0), st.floats(0.1, 5.0))
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_gaussian_construction(r, gain, power, noise_var):
    p_f, p_d = r
    c = roc_coefficients(p_f, p_d)
    direct = sensor_j_divergence(gain, power, c, noise_var)
    pair = moment_match(p_f, p_d, power, gain, noise_var)
    built = gaussian_j_divergence(pair)
    assert abs(direct - built) <= 1e-12 * max(1.0, abs(direct))


def test_moment_match_fields():
    pair = moment_match(0.2, 0.9, power=4.0, gain=0.25, noise_var=1.5)
    amp = math.sqrt(4.0 * 0.25)
    assert pair.mean0 == pytest.approx(amp * 0.2, rel=1e-15)
    assert pair.mean1 == pytest.approx(amp * 0.9, rel=1e-15)
    assert pair.var0 == pytest.approx(1.0 * 0.2 * 0.8 + 1.5, rel=1e-15)
    assert pair.var1 == pytest.approx(1.0 * 0.9 * 0.1 + 1.5, rel=1e-15)


def test_gaussian_pair_requires_positive_variances():
    with pytest.raises(ValueError):
        GaussianPair(mean0=0.0, mean1=1.0, var0=0.0, var1=1.0)


@given(rates, st.floats(0.01, 10.0), st.floats(0.01, 30.0), st.floats(0.1, 4.0))
@settings(max_examples=200, deadline=None)
def test_divergence_always_at_least_the_floor(r, gain, power, noise_var):
    p_f, p_d = r
    c = roc_coefficients(p_f, p_d)
    assert sensor_j_divergence(gain, power, c, noise_var) >= 2.0 - 1e-12


def test_divergence_monotone_in_power_inside_band():
    c = roc_coefficients(0.2, 0.9)  # (0.2, 0.9) is inside the concavity band
    powers = np.linspace(0.0, 40.0, 300)
    vals = [sensor_j_divergence(1.3, p, c, 1.0) for p in powers]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_local_lrt_probabilities():
    p_f, p_d = local_lrt_probabilities(amplitude=2.0, noise_sigma=1.0, threshold=1.0)
    assert p_f == pytest.approx(q_function(1.0), abs=1e-15)
    assert p_d == pytest.approx(q_function(-1.0), abs=1e-15)
    assert 0.0 < p_f < p_d < 1.0
    # symmetric threshold: midpoint gives p_d = 1 - p_f
    p_f, p_d = local_lrt_probabilities(amplitude=3.0, noise_sigma=0.7, threshold=1.5)
    assert p_d == pytest.approx(1.0 - p_f, abs=1e-12)
    with pytest.raises(ValueError, match="noise_sigma must be > 0"):
        local_lrt_probabilities(amplitude=2.0, noise_sigma=0.0, threshold=1.0)


# absolute and relative tolerance of the adaptive quadrature yardstick
_QUAD_TOL = 1e-10


def mixture_j_quadrature(p_f: float, p_d: float, power: float, gain: float,
                         noise_var: float) -> float:
    """Numeric symmetric KL divergence between the exact received mixtures.

    Slow and only meant as an independent yardstick: the closed-form score
    approximates 2 * (this + 1). Integrates (f1 - f0) * log(f1 / f0) over the
    real line by adaptive quadrature.
    """
    amp = math.sqrt(power * gain)
    sigma = math.sqrt(noise_var)
    norm = 1.0 / math.sqrt(2.0 * math.pi * noise_var)

    def pdf(y: float, w: float) -> float:
        bump = math.exp(-((y - amp) ** 2) / (2.0 * noise_var))
        base = math.exp(-(y * y) / (2.0 * noise_var))
        return norm * (w * bump + (1.0 - w) * base)

    def integrand(y: float) -> float:
        f1 = pdf(y, p_d)
        f0 = pdf(y, p_f)
        if f1 <= 0.0 or f0 <= 0.0:  # both tails underflow together
            return 0.0
        return (f1 - f0) * math.log(f1 / f0)

    lo = -40.0 * sigma
    hi = amp + 40.0 * sigma
    value, _ = integrate.quad(integrand, lo, hi, points=[0.0, amp],
                              limit=400, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
    return value


def test_mixture_quadrature_zero_power_is_blind():
    assert mixture_j_quadrature(0.2, 0.9, power=0.0, gain=1.0, noise_var=1.0) == \
        pytest.approx(0.0, abs=1e-9)


def test_mixture_quadrature_grows_with_power():
    lo = mixture_j_quadrature(0.2, 0.9, power=0.5, gain=1.0, noise_var=1.0)
    hi = mixture_j_quadrature(0.2, 0.9, power=5.0, gain=1.0, noise_var=1.0)
    assert 0.0 < lo < hi
