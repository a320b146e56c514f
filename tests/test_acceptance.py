"""End-to-end acceptance checks for the power-map pipeline.

Each test prints one ACCEPTANCE nn PASS/FAIL line (visible with -s or -rA)
and then asserts, so a failing criterion is both grep-able and red.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ehdetect import (
    ChainSpec,
    PowerMap,
    arrival_unit_pmf,
    calibrate_threshold,
    evaluate_unit_map,
    exhaustive_best_map,
    gain_level_probs,
    optimize_power_map,
    roc_coefficients,
    run_monte_carlo,
    sensor_j_divergence,
    stationary_oracle,
    steady_state_psi,
)
from ehdetect.cli import CALIBRATION_SEED_OFFSET
from references import gaussian_j_divergence, moment_match

GRID_CONFIGS = ((2.0, 100), (3.0, 100), (3.0, 70))   # (mean_harvest, capacity)
GRID_BUDGETS = (1.0, 2.0, 4.0, 7.0, 11.0, 20.0, 40.0, 70.0, 95.0, 105.0)
GRID_SAMPLES = 100_000


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def _sample_rates(rng):
    p_f = float(rng.uniform(0.01, 0.6))
    p_d = p_f + (0.99 - p_f) * float(rng.uniform(0.05, 1.0))
    return p_f, p_d


@pytest.fixture(scope="module")
def toy_outcome(toy_scenario):
    out = optimize_power_map(toy_scenario)
    assert out.converged
    return out


@pytest.fixture(scope="module")
def two_sensor_outcome(two_sensor_scenario):
    out = optimize_power_map(two_sensor_scenario)
    assert out.converged
    return out


@pytest.fixture(scope="module")
def budget_grid(two_sensor_scenario):
    """Optimize + calibrate + measure over three harvest/capacity configs
    and ten budgets; shared by the monotonicity and saturation criteria."""
    grid = {}
    for ci, (harvest, cap) in enumerate(GRID_CONFIGS):
        points = []
        for rank, budget in enumerate(GRID_BUDGETS):
            sc = replace(two_sensor_scenario,
                         network=replace(two_sensor_scenario.network,
                                         mean_harvest=harvest, capacity=cap,
                                         power_budget=budget))
            out = optimize_power_map(sc)
            assert out.converged, f"config {harvest}/{cap} budget {budget}"
            seed = 9_000 + 100 * ci + rank
            tau, _ = calibrate_threshold(sc, out.power_map, 0.1, GRID_SAMPLES,
                                         seed + CALIBRATION_SEED_OFFSET,
                                         psis=out.psi_star)
            rep = run_monte_carlo(sc, out.power_map, tau, GRID_SAMPLES, seed,
                                  psis=out.psi_star)
            points.append((budget, out, rep))
        grid[(harvest, cap)] = points
    return grid


def _zero_map(scenario) -> PowerMap:
    net = scenario.network
    K = net.capacity
    return PowerMap(
        powers=tuple(np.zeros((s.level_count, K + 1)) for s in scenario.sensors),
        unit_energy=net.unit_energy,
        slot_seconds=net.slot_seconds,
    )


def test_01_divergence_floor_without_power():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(300):
        p_f, p_d = _sample_rates(rng)
        coeffs = roc_coefficients(p_f, p_d)
        gain = float(rng.uniform(0.0, 10.0))
        noise = float(rng.uniform(0.25, 4.0))
        worst = max(worst, abs(sensor_j_divergence(gain, 0.0, coeffs, noise) - 2.0))
    line = _verdict(1, worst <= 1e-12,
                    f"silent-sensor divergence pins at 2: max |J - 2| = {worst:.2e} "
                    "(tol 1e-12)")
    assert worst <= 1e-12, line


def test_02_surrogate_matches_gaussian_construction():
    rng = np.random.default_rng(2)
    worst = 0.0
    ok = True
    for _ in range(10_000):
        p_f, p_d = _sample_rates(rng)
        coeffs = roc_coefficients(p_f, p_d)
        gain = float(rng.uniform(0.0, 10.0))
        power = float(rng.uniform(0.0, 50.0))
        noise = float(rng.uniform(0.3, 3.0))
        direct = sensor_j_divergence(gain, power, coeffs, noise)
        built = gaussian_j_divergence(moment_match(p_f, p_d, power, gain, noise))
        ok &= bool(np.isclose(direct, built, rtol=1e-12, atol=0.0))
        worst = max(worst, abs(direct - built) / abs(built))
    line = _verdict(2, ok,
                    f"rational form == matched-Gaussian divergence on 10000 draws: "
                    f"max rel gap {worst:.2e} (rtol 1e-12)")
    assert ok, line


def test_03_fixed_point_matches_linear_solve():
    rng = np.random.default_rng(3)
    K = 5
    gp = gain_level_probs(1.0, (0.0, 0.5, 1.5, math.inf))
    arr = arrival_unit_pmf(1.0, 0.2, K)
    chain = ChainSpec(gain_probs=gp, arrivals=arr, transmit_prob=0.5)
    worst = 0.0
    for _ in range(20):
        alpha = np.zeros((3, K + 1), dtype=np.int64)
        for k in range(K + 1):
            alpha[1:, k] = rng.integers(0, k + 1, size=2)
        psis, _, problem = steady_state_psi([chain], lambda _ps: [alpha])
        assert problem is None
        exact = stationary_oracle(alpha, gp, arr, 0.5)
        tv = 0.5 * float(np.abs(psis[0].psi - exact.psi).sum())
        worst = max(worst, tv)
    line = _verdict(3, worst <= 1e-8,
                    f"fixed-point battery distribution vs direct solve on 20 random "
                    f"unit maps: max TV {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8, line


def test_04_optimizer_reaches_enumerated_best(toy_scenario, toy_outcome):
    best = exhaustive_best_map(toy_scenario)
    mine = evaluate_unit_map(toy_scenario, toy_outcome.power_map.units)[0]
    gap = (best.objective_j - mine) / max(1.0, abs(best.objective_j))
    ok = gap <= 1e-3 and mine <= best.objective_j + 1e-9
    line = _verdict(4, ok,
                    f"optimizer map vs exhaustive best on the toy scenario: "
                    f"relative gap {gap:.2e} over {best.candidates} candidates "
                    "(tol 1e-3)")
    assert ok, line


def test_05_certificate_on_the_two_sensor_scenario(two_sensor_scenario,
                                                   two_sensor_outcome):
    out = two_sensor_outcome
    budget = two_sensor_scenario.network.power_budget
    res_ok = out.kkt.max_interior_residual <= 1e-6 * out.lambda_star
    slack_ok = abs(out.kkt.slackness) <= 1e-6 * budget
    ok = res_ok and slack_ok and out.lambda_star > 0.0
    line = _verdict(5, ok,
                    f"price certificate: interior residual "
                    f"{out.kkt.max_interior_residual:.2e} <= 1e-6*lambda "
                    f"({out.lambda_star:.6f}), slackness {out.kkt.slackness:.2e} "
                    f"<= 1e-6*budget")
    assert ok, line


def test_06_richer_harvest_dominates_battery_occupancy(two_sensor_scenario):
    base = replace(two_sensor_scenario,
                   network=replace(two_sensor_scenario.network,
                                   capacity=50, power_budget=50.0))
    worst = -math.inf
    for harvest_poor, harvest_rich in ((0.5, 1.5),):
        poor = optimize_power_map(replace(
            base, network=replace(base.network, mean_harvest=harvest_poor)))
        rich = optimize_power_map(replace(
            base, network=replace(base.network, mean_harvest=harvest_rich)))
        for p, r in zip(poor.psi_star, rich.psi_star):
            worst = max(worst, float(np.max(r.cdf() - p.cdf())))
    ok = worst <= 1e-12
    line = _verdict(6, ok,
                    f"faster harvesting first-order dominates the battery: "
                    f"max CDF(rich) - CDF(poor) = {worst:.2e} (tol 1e-12)")
    assert ok, line


def test_07_detection_rises_with_the_budget(budget_grid):
    worst_drop = -math.inf
    worst_ci = 0.0
    for (harvest, cap), points in budget_grid.items():
        pds = [rep.pd_fc for _, _, rep in points]
        cis = [rep.ci_pd for _, _, rep in points]
        worst_ci = max(worst_ci, max(cis))
        for i in range(len(pds) - 1):
            worst_drop = max(worst_drop, pds[i] - pds[i + 1] - (cis[i] + cis[i + 1]))
    ok = worst_drop <= 0.0 and worst_ci <= 0.005
    line = _verdict(7, ok,
                    f"fusion detection rate non-decreasing in budget over "
                    f"{len(budget_grid)}x{len(GRID_BUDGETS)} grid points: worst "
                    f"CI-adjusted drop {worst_drop:.2e}, max half-width "
                    f"{worst_ci:.4f} (<= 0.005)")
    assert ok, line


def test_08_budget_saturates_where_harvest_runs_out(budget_grid):
    sat = {}
    checks = []
    for cfg, points in budget_grid.items():
        budgets = [b for b, _, _ in points]
        outs = [o for _, o, _ in points]
        i95, i105 = budgets.index(95.0), budgets.index(105.0)
        checks.append(outs[0].lambda_star > 0.0)            # tight at 1 W
        checks.append(outs[i95].lambda_star == 0.0)         # free past saturation
        checks.append(outs[i105].lambda_star == 0.0)
        for a, b in zip(outs[i95].power_map.powers, outs[i105].power_map.powers):
            checks.append(bool(np.array_equal(a, b)))       # map frozen
        for a, b in zip(outs[i95].power_map.units, outs[i105].power_map.units):
            checks.append(bool(np.array_equal(a, b)))
        # both settle on the exact stationary law of the same map
        checks.append(outs[i95].objective_j == outs[i105].objective_j)
        checks.append(outs[i95].expected_power == outs[i105].expected_power)
        # while the budget binds, more budget means more divergence; past
        # saturation the unpriced greedy map may self-drain slightly, so the
        # monotone claim stops at the last binding point
        js = [o.objective_j for o in outs]
        lams = [o.lambda_star for o in outs]
        checks.append(all(
            js[i + 1] >= js[i] - 1e-9
            for i in range(len(js) - 1) if lams[i + 1] > 0.0))
        sat[cfg] = outs[i105].expected_power
    checks.append(sat[(3.0, 100)] > sat[(2.0, 100)])   # more harvest, more spend
    checks.append(sat[(3.0, 100)] > sat[(3.0, 70)])    # bigger battery, less loss
    checks.append(abs(sat[(2.0, 100)] - 71.7825) <= 0.05)
    checks.append(abs(sat[(3.0, 100)] - 92.3244) <= 0.05)
    checks.append(abs(sat[(3.0, 70)] - 77.0298) <= 0.05)
    ok = all(checks)
    detail = ", ".join(f"{h}/{c}: {sat[(h, c)]:.3f} W" for h, c in GRID_CONFIGS)
    line = _verdict(8, ok,
                    f"price hits zero and the map freezes past saturation "
                    f"(saturated spend {detail})")
    assert ok, line


def test_09_calibration_holds_on_held_out_seeds(two_sensor_scenario,
                                                two_sensor_outcome):
    out = two_sensor_outcome
    tau, _ = calibrate_threshold(two_sensor_scenario, out.power_map, 0.1,
                                 100_000, 31_415, psis=out.psi_star)
    rep = run_monte_carlo(two_sensor_scenario, out.power_map, tau, 100_000,
                          27_182, psis=out.psi_star)
    ok = 0.09 <= rep.pf_fc <= 0.11
    line = _verdict(9, ok,
                    f"held-out false-alarm rate {rep.pf_fc:.4f} within "
                    f"[0.09, 0.11] at target 0.1 (threshold {tau:.4f})")
    assert ok, line


def test_10_chain_model_matches_simulated_occupancy(toy_scenario, toy_outcome):
    rep = run_monte_carlo(toy_scenario, toy_outcome.power_map, 0.0,
                          1_000_000, 55, psis=toy_outcome.psi_star)
    tv = 0.5 * float(np.abs(rep.empirical_psi[0] -
                            toy_outcome.psi_star[0].psi).sum())
    ok = tv <= 0.02
    line = _verdict(10, ok,
                    f"stationary battery model vs 1e6 simulated slots: "
                    f"TV {tv:.5f} (tol 0.02)")
    assert ok, line


def test_11_silent_network_cannot_detect(toy_scenario):
    silent = _zero_map(toy_scenario)
    tau, _ = calibrate_threshold(toy_scenario, silent, 0.1, 50_000, 202)
    rep = run_monte_carlo(toy_scenario, silent, tau, 100_000, 303)
    gap = abs(rep.pd_fc - rep.pf_fc)
    band = 3.0 * (rep.ci_pd + rep.ci_pf)
    ok = gap <= band
    line = _verdict(11, ok,
                    f"zero-power map carries no evidence: |pd - pf| = {gap:.4f} "
                    f"<= 3*(ci_pd + ci_pf) = {band:.4f}")
    assert ok, line
