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

        j(x) = (s + num1*x) / (s + den1*x) + (s + num2*x) / (s + den2*x).

    den1 and den2 are the Bernoulli variance slopes of the reported bit under
    the alternative and the null; each numerator is the opposite branch's
    variance slope plus the squared mean separation (p_d - p_f)^2.
    """

    num1: float
    den1: float
    num2: float
    den2: float

    def __post_init__(self) -> None:
        # a Bernoulli variance tops out at 1/4
        for name in ("den1", "den2"):
            v = getattr(self, name)
            if not 0.0 < v <= 0.25:
                raise ValueError(f"{name} must lie in (0, 1/4], got {v}")
        for name in ("num1", "num2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    @property
    def slopes(self) -> tuple[float, float]:
        """(num1 - den1, num2 - den2); both >= 0 inside the concavity band."""
        return self.num1 - self.den1, self.num2 - self.den2


def roc_coefficients(p_f: float, p_d: float) -> RocCoefficients:
    """Divergence slopes for a sensor operating at (p_f, p_d)."""
    for name, v in (("p_f", p_f), ("p_d", p_d)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie strictly inside (0, 1), got {v}")
    if p_d <= p_f:
        raise ValueError(f"need p_f < p_d, got p_f={p_f}, p_d={p_d}")
    return RocCoefficients(
        num1=p_f * (1.0 - p_d) + p_d * (p_d - p_f),
        den1=p_d * (1.0 - p_d),
        num2=p_d * (1.0 - p_f) - p_f * (p_d - p_f),
        den2=p_f * (1.0 - p_f),
    )


def sensor_j_divergence(gain, power, coeffs: RocCoefficients, noise_var: float):
    """Closed-form divergence of one sensor at a given quantized gain and power.

    Plain arithmetic, so gain and power may be NumPy arrays that broadcast.
    """
    if noise_var <= 0.0:
        raise ValueError("noise_var must be > 0")
    x = gain * power
    return ((noise_var + coeffs.num1 * x) / (noise_var + coeffs.den1 * x)
            + (noise_var + coeffs.num2 * x) / (noise_var + coeffs.den2 * x))


def local_lrt_probabilities(amplitude: float, noise_sigma: float,
                            threshold: float) -> tuple[float, float]:
    """Operating point of a threshold test on one Gaussian observation.

    p_f = Q(threshold / noise_sigma), p_d = Q((threshold - amplitude) / noise_sigma).
    """
    if noise_sigma <= 0.0:
        raise ValueError("noise_sigma must be > 0")
    return (q_function(threshold / noise_sigma),
            q_function((threshold - amplitude) / noise_sigma))
