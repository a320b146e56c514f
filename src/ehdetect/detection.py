"""Per-sensor detection statistics at the fusion center.

Each sensor reports a one-bit decision over a fading Gaussian channel, so the
received sample is a two-component Gaussian mixture under either hypothesis.
The paper moment-matches each mixture with one Gaussian and scores the
matched pair with a symmetric divergence. ``sensor_j_divergence`` is that
score in rational form, with the slopes of ``roc_coefficients``, and it is
the one form the power optimizer evaluates and differentiates; the tests
keep the moment-matched construction as its reference.
``local_lrt_probabilities`` gives the operating point of a sensor's local
threshold test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "q_function",
    "RocCoefficients",
    "roc_coefficients",
    "sensor_j_divergence",
    "local_lrt_probabilities",
]

_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Standard normal tail probability Pr(Z > x)."""
    return 0.5 * math.erfc(x / _SQRT2)


@dataclass(frozen=True)
class RocCoefficients:
    """Slopes of the rational closed form of the per-sensor divergence.

    With s the receiver noise variance and x = gain * power,

        j(x) = 2 + slope1*x / (s + den1*x) + slope2*x / (s + den2*x).

    den1 and den2 are the Bernoulli variance slopes of the reported bit under
    the alternative and the null. The slopes are stored in the factored form
    slope1 = (p_d - p_f)(2p_d - 1) and slope2 = (p_d - p_f)(1 - 2p_f), so no
    reader forms them as a difference of nearly equal products near a tie
    p_d ~ p_f. The paper's numerators num_i = slope_i + den_i (each is the
    opposite branch's variance slope plus the squared mean separation
    (p_d - p_f)^2) are derived from them.

    tilt is a positive multiple of slope1*den1 + slope2*den2, and only its
    sign is read: where the slopes differ in sign, the marginal gain rises to
    an interior peak only if tilt < 0. Near the band's edge the two products
    cancel below the rounding of den1 and den2, so the tilt is required and
    roc_coefficients gives its sign exactly from (p_f, p_d).
    """

    slope1: float
    den1: float
    slope2: float
    den2: float
    tilt: float

    def __post_init__(self) -> None:
        # a Bernoulli variance tops out at 1/4
        for name in ("den1", "den2"):
            v = getattr(self, name)
            if not 0.0 < v <= 0.25:
                raise ValueError(f"{name} must lie in (0, 1/4], got {v}")
        for i, v in ((1, self.num1), (2, self.num2)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"num{i} = slope{i} + den{i} must be finite and >= 0, "
                                 f"got {v}")

    @property
    def num1(self) -> float:
        """The paper's first numerator, slope1 + den1."""
        return self.slope1 + self.den1

    @property
    def num2(self) -> float:
        """The paper's second numerator, slope2 + den2."""
        return self.slope2 + self.den2


def roc_coefficients(p_f: float, p_d: float) -> RocCoefficients:
    """Divergence slopes for a sensor operating at (p_f, p_d)."""
    for name, v in (("p_f", p_f), ("p_d", p_d)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie strictly inside (0, 1), got {v}")
    if p_d <= p_f:
        raise ValueError(f"need p_f < p_d, got p_f={p_f}, p_d={p_d}")
    # exact wherever p_d <= 2 p_f (Sterbenz)
    gap = p_d - p_f
    # slope1*den1 + slope2*den2 = -gap**2 * bend. bend's rounding error is
    # below 1e-14, so a smaller bend is redone in exact arithmetic
    u, v = p_f - 0.5, p_d - 0.5
    bend = 2.0 * (u * u + u * v + v * v) - 0.5
    if abs(bend) < 1e-12:
        u, v = Fraction(p_f) - Fraction(1, 2), Fraction(p_d) - Fraction(1, 2)
        bend = float(2 * (u * u + u * v + v * v) - Fraction(1, 2))
    return RocCoefficients(
        slope1=gap * (2.0 * p_d - 1.0),
        den1=p_d * (1.0 - p_d),
        slope2=gap * (1.0 - 2.0 * p_f),
        den2=p_f * (1.0 - p_f),
        tilt=-bend,
    )


def sensor_j_divergence(gain, power, coeffs: RocCoefficients, noise_var: float):
    """Closed-form divergence of one sensor at a given quantized gain and power.

    Plain arithmetic, so gain and power may be NumPy arrays that broadcast.
    """
    if noise_var <= 0.0:
        raise ValueError("noise_var must be > 0")
    x = gain * power
    return (2.0 + coeffs.slope1 * x / (noise_var + coeffs.den1 * x)
            + coeffs.slope2 * x / (noise_var + coeffs.den2 * x))


def local_lrt_probabilities(amplitude: float, noise_sigma: float,
                            threshold: float) -> tuple[float, float]:
    """Operating point of a threshold test on one Gaussian observation.

    p_f = Q(threshold / noise_sigma), p_d = Q((threshold - amplitude) / noise_sigma).
    """
    if noise_sigma <= 0.0:
        raise ValueError("noise_sigma must be > 0")
    return (q_function(threshold / noise_sigma),
            q_function((threshold - amplitude) / noise_sigma))
