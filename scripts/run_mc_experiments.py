#!/usr/bin/env python3
"""Run the Monte Carlo verification experiments and print a results table.

Covers, for every shipped scenario: the bracket check (arm-estimator means
against the true effect) and min-max interval coverage; plus the
synthetic-control bias comparison on its exponential example.

Run from the repository root:  python scripts/run_mc_experiments.py
"""

import argparse

from didbracket.simulation import (
    coverage_experiment,
    shipped_scenarios,
    synthetic_control_comparison,
    verify_bracketing,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=10_000)
    parser.add_argument("--coverage-reps", type=int, default=2_000)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=20070828)
    args = parser.parse_args()

    print(f"{'scenario':<24} {'mean lc':>9} {'mean uc':>9} {'holds':>6} {'coverage':>9}")
    for name, scenario in sorted(shipped_scenarios().items()):
        report = verify_bracketing(scenario, args.reps, args.seed)
        cov = coverage_experiment(scenario, args.coverage_reps, args.alpha, args.seed)
        flag = " " + ",".join(report.flags) if report.flags else ""
        print(
            f"{name:<24} {report.mean_effect_lc:>9.4f} {report.mean_effect_uc:>9.4f} "
            f"{str(report.bracket_holds):>6} {cov.coverage:>9.4f}{flag}"
        )

    print("\nsynthetic-control comparison (exponential example):")
    for tau in (0.25, 0.35, 0.45):
        analytic = synthetic_control_comparison(tau, analytic=True)
        mc = synthetic_control_comparison(tau, analytic=False, reps=1_000_000, seed=args.seed)
        print(
            f"  tau={tau:.2f}: analytic bias {analytic.bias:+.6f}, "
            f"mc bias {mc.bias:+.6f}"
        )


if __name__ == "__main__":
    main()
