#!/usr/bin/env python3
"""Confidence-rectangle coverage experiment for the one-jump step model.

Writes coverage_summary.txt and coverage_rows.csv under --out.
"""

import argparse
from pathlib import Path

from stepargmin.experiments import VerificationConfig, coverage_experiment
from stepargmin.stepfit import NoiseLaw, XLaw, pure_step_model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/coverage")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--replications", type=int, default=1000)
    parser.add_argument("--rho", type=float, default=0.1)
    parser.add_argument("--noise-sd", type=float, default=0.25)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be at least 1")

    model = pure_step_model(
        (0.5,),
        (0.0, 1.0),
        XLaw("uniform", (0.0, 1.0)),
        NoiseLaw("gaussian", (0.0, args.noise_sd)),
    )
    config = VerificationConfig(
        model=model,
        k=1,
        n_grid=(args.n,),
        replications_data=1000,
        replications_limit=50_000,
        rho=args.rho,
        closed_sets=(),
        open_sets=(),
        master_seed=args.seed,
        coverage_n=args.n,
        coverage_replications=args.replications,
    )
    report = coverage_experiment(config, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "coverage_summary.txt").write_text(report.summary_text())
    (out / "coverage_rows.csv").write_text(report.rows_csv())
    print(report.summary_text(), end="")
    print(f"reports in {out}")


if __name__ == "__main__":
    main()
