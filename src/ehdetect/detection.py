"""Per-sensor detection statistics at the fusion center.

Each sensor reports a one-bit decision over a fading Gaussian channel, so the
received sample is a two-component Gaussian mixture under either hypothesis.
The closed forms here moment-match those mixtures and score the matched pair
with a symmetric divergence; the rational form in ``sensor_j_divergence`` is
algebraically identical to scoring the matched pair and is what the power
optimizer differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "q_function",
    "RocCoefficients",
    "GaussianPair",
    "roc_coefficients",
    "moment_match",
    "gaussian_j_divergence",
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


@dataclass(frozen=True)
class GaussianPair:
    """Means and variances of the two moment-matched received densities."""

    mean0: float
    mean1: float
    var0: float
    var1: float

    def __post_init__(self) -> None:
        if not (self.var0 > 0.0 and self.var1 > 0.0):
            raise ValueError("variances must be > 0")


def moment_match(p_f: float, p_d: float, power: float, gain: float,
                 noise_var: float) -> GaussianPair:
    """Match the first two moments of the received mixture under each hypothesis.

    A transmitting sensor contributes amplitude sqrt(power * gain) with
    probability p_f (null) or p_d (alternative); the rest is receiver noise.
    Hence mean_i = sqrt(power*gain) * p_i and
    var_i = power*gain * p_i (1 - p_i) + noise_var.
    """
    if power < 0.0 or gain < 0.0:
        raise ValueError("power and gain must be >= 0")
    if noise_var <= 0.0:
        raise ValueError("noise_var must be > 0")
    x = power * gain
    amp = math.sqrt(x)
    return GaussianPair(
        mean0=amp * p_f,
        mean1=amp * p_d,
        var0=x * p_f * (1.0 - p_f) + noise_var,
        var1=x * p_d * (1.0 - p_d) + noise_var,
    )


def gaussian_j_divergence(pair: GaussianPair) -> float:
    """Symmetric divergence score of two Gaussians; floor 2 at identical pairs.

    This is the variance-normalized form
        (var1 + dm^2)/var0 + (var0 + dm^2)/var1,  dm = mean1 - mean0,
    an affine transform of the symmetrized KL divergence: it equals
    2 * (J_kl + 1), so it is monotone-equivalent for optimization.
    """
    dm2 = (pair.mean1 - pair.mean0) ** 2
    return (pair.var1 + dm2) / pair.var0 + (pair.var0 + dm2) / pair.var1


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
