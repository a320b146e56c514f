#!/usr/bin/env python3
"""Battery occupancy versus the harvest rate.

Optimizes the power map at several harvest rates and prints each sensor's
stationary battery CDF, demonstrating that richer harvesting shifts the whole
distribution upward (first-order stochastic dominance) even though the
optimizer spends more aggressively.

    python3 scripts/harvest_occupancy.py --scenario scenarios/two_sensor.scn \
        --rates 0.5,1.0,1.5,3.0
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from ehdetect import load_scenario, optimize_power_map


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="scenarios/two_sensor.scn")
    parser.add_argument("--rates", default="0.5,1.0,1.5,3.0",
                        help="comma-separated mean_harvest values (Joules/slot)")
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario)
    rates = [float(v) for v in args.rates.split(",")]
    rows = []
    prev_cdfs = None
    for rate in rates:
        point = replace(scenario, network=replace(scenario.network, mean_harvest=rate))
        outcome = optimize_power_map(point)
        cdfs = [psi.cdf() for psi in outcome.psi_star]
        print(f"mean_harvest={rate:g}: lambda_star={outcome.lambda_star:.4g}, "
              f"expected_power={outcome.expected_power:.4g} W")
        for n, cdf in enumerate(cdfs):
            deciles = np.searchsorted(cdf, [0.1, 0.5, 0.9])
            print(f"  sensor {n}: battery deciles (10/50/90%) = "
                  f"{deciles[0]}/{deciles[1]}/{deciles[2]} units")
            if prev_cdfs is not None:
                worst = float(np.max(cdf - prev_cdfs[n]))
                mark = "dominates" if worst <= 1e-9 else f"violates by {worst:.2e}"
                print(f"             vs previous rate: {mark}")
            for k, value in enumerate(cdf):
                rows.append((rate, n, k, float(value)))
        prev_cdfs = cdfs

    if args.out:
        from ehdetect.cli import write_table
        write_table(args.out, {"format": "harvest_occupancy"},
                    ("mean_harvest", "sensor", "state", "cdf"), rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
