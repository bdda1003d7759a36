#!/usr/bin/env python3
"""Hitting/containment bound verification for the one-jump step model.

Writes inequalities.csv, tails.csv, and summary.txt under --out.  --scale
multiplies the replication counts (1.0 reproduces the acceptance setup).
"""

import argparse
from pathlib import Path

from stepargmin.argmin import INF, Box, BoxUnion, OpenBox, OpenBoxUnion
from stepargmin.experiments import (
    ClosedSetTuple,
    OpenSetTuple,
    VerificationConfig,
    fit_table,
    tail_probability_table,
    verify_limit_bounds,
)
from stepargmin.stepfit import NoiseLaw, XLaw, pure_step_model


def closed_1d(lo, hi):
    return BoxUnion(1, (Box((lo,), (hi,)),))


def open_1d(lo, hi):
    return OpenBoxUnion(1, (OpenBox((lo,), (hi,)),))


def build_config(seed, scale):
    model = pure_step_model(
        (0.5,), (0.0, 1.0), XLaw("uniform", (0.0, 1.0)), NoiseLaw("gaussian", (0.0, 0.25))
    )
    aux = ((-0.7, 0.7), (-0.7, 0.7))
    return VerificationConfig(
        model=model,
        k=1,
        n_grid=(100, 300, 1000),
        replications_data=max(1000, int(2000 * scale)),
        replications_limit=max(1000, int(100_000 * scale)),
        rho=0.1,
        closed_sets=(
            ClosedSetTuple("lower0", (closed_1d(-INF, 0.0),), None),
            ClosedSetTuple("band11", (closed_1d(-1.0, 1.0),), None),
            ClosedSetTuple("lower1-aux", (closed_1d(-INF, 1.0),), aux),
        ),
        open_sets=(
            OpenSetTuple("win4", (open_1d(-4.0, 4.0),), None),
            OpenSetTuple("win8", (open_1d(-8.0, 8.0),), None),
        ),
        master_seed=seed,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/verify")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be at least 1")

    config = build_config(args.seed, args.scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    fits = fit_table(config, workers=args.workers)
    report = verify_limit_bounds(config, workers=args.workers, fits=fits)
    (out / "inequalities.csv").write_text(report.to_csv())
    tails = tail_probability_table(config, fits=fits)
    (out / "tails.csv").write_text(tails.to_csv())
    summary = (
        f"inequalities = {'pass' if report.passed else 'fail'}\n"
        f"slack_violations = {report.slack_violations}\n"
        f"tails = {'pass' if tails.passed else 'fail'}\n"
    )
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    print(f"reports in {out}")


if __name__ == "__main__":
    main()
