"""Derivation references and test-only helpers.

The library runs each formula in one form. What lives here is the other
form that the tests compare it against, or a helper that only the tests
call:

- GaussianPair, moment_match and gaussian_j_divergence build the paper's
  moment-matched received densities and score them. sensor_j_divergence is
  the rational form of that construction, and the tests check they agree.
- convex_region_bounds is the paper's closed-form concavity band in
  (p_f, p_d). The solver tests the band with its own rise test
  (optimizer._gain_peak), and the tests check the two agree.
- clamp_power projects a stationarity root onto the feasible slot-power
  interval. The solver clamps to the per-state cap its sensor context
  holds (_SensorCtx.cap), and the tests check the two agree.
- lambda_search re-runs the solver's price search at fixed battery laws.
- stationary_solve_with_eye is battery.stationary_solve as it formed
  M - I with np.eye; the library subtracts 1 on M's diagonal alone.
- p_big and falling_root are the falling bracket as the optimizer built it
  at every price; the library builds its price-free constants once per
  level (optimizer._Level).
- read_table reads back a CSV that cli.write_table wrote.
- package_env is the environment of a fresh interpreter that imports this
  ehdetect.

Import with ``from references import ...``; pyproject.toml puts this
directory on the test path.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ehdetect
from ehdetect.config import NetworkParams, PowerMap, Scenario, _probability
from ehdetect.optimizer import _lambda_search, _rtsafe, _sensor_context


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


def convex_region_bounds(p_f: float) -> tuple[float, float]:
    """Band of detection probabilities where the divergence stays concave in power.

    For a false-alarm rate in (0, 1) the band is
        3/4 - p_f/2 -+ sqrt(1 + 12 p_f - 12 p_f^2) / 4.
    Outside it the optimizer's stationarity condition may have multiple roots.
    The optimizer tests the same band on the ROC coefficients (_gain_peak).
    """
    _probability(p_f, "p_f")
    radical = math.sqrt(1.0 + 12.0 * p_f - 12.0 * p_f * p_f)
    center = 0.75 - 0.5 * p_f
    return center - 0.25 * radical, center + 0.25 * radical


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


def lambda_search(psis, scenario: Scenario):
    """Find the budget price for fixed battery distributions.

    Returns (lambda_star, power_map, expected_power). The expected power is
    evaluated with the clamped continuous powers under the given
    distributions; the map also carries the rounded unit counts.
    """
    net = scenario.network
    ctxs = [_sensor_context(net, s) for s in scenario.sensors]
    psi_arrays = [p.psi for p in psis]
    lam, powers, ep, _flags, _evals = _lambda_search(psi_arrays, ctxs, net)
    pmap = PowerMap(powers=tuple(powers), unit_energy=net.unit_energy,
                    slot_seconds=net.slot_seconds)
    return lam, pmap, ep


def stationary_solve_with_eye(M) -> np.ndarray:
    """battery.stationary_solve as it was when it formed M - np.eye(K+1)."""
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


def falling_root(lam, level):
    """The crossing on [0, p_big], with the bracket cut where d * d could
    overflow; +inf when the gain is still above lam at the cut."""
    hi = p_big(lam, level)
    b = max(level.b1, level.b2)
    if b > 0.0:
        top = (0.5 * math.sqrt(sys.float_info.max) - level.s) / b
        if top < hi:
            hi = top
            d1 = level.s + level.b1 * hi
            d2 = level.s + level.b2 * hi
            if level.a1 / (d1 * d1) + level.a2 / (d2 * d2) > lam:
                return math.inf
    return _rtsafe(lam, level, 0.0, hi, level.g0, level.dg0)


def p_big(lam, level):
    """A power beyond which both terms of the gain are within lam/2 of zero."""
    p_big = 1.0
    try:
        for a, b in ((level.a1, level.b1), (level.a2, level.b2)):
            need = math.sqrt(max(abs(a) / (0.5 * lam), 1e-30))
            p_big = max(p_big, (need + level.s) / b)
    except ZeroDivisionError:  # a price or gain so small that a divisor underflows
        return math.inf
    return p_big


def read_table(path) -> tuple[dict, list[dict]]:
    """Read a CSV written by write_table: (header comments, row dicts)."""
    meta: dict[str, str] = {}
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            lines.append(line)
    rows = list(csv.DictReader(lines))
    return meta, rows


def package_env(**override):
    """os.environ for a fresh interpreter that imports this ehdetect, with
    override applied (None unsets a variable)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(ehdetect.__file__).parent.parent), env.get("PYTHONPATH")) if p)
    for key, value in override.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env
