"""Command-line front end.

Subcommands: fit, simulate-limit, capacity, coverage, verify.  Every run
writes a manifest into the output directory before computing and a DONE
marker after the last report, so interrupted runs are recognizable.  Exit
codes: 0 success, 1 verdict failure or a limit walk still uncertified at
the jump cap, 2 input or configuration error, 3 data-shape error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from stepargmin import __version__
from stepargmin.cpoisson import (
    UncertifiedWalkError,
    estimate_capacity,
    sample_extreme_minimizers,
    samples_to_csv,
    spec_from_text,
)
from stepargmin.experiments import (
    coverage_experiment,
    parse_set_1d,
    parse_verification_config,
    product_form_check,
    tail_probability_table,
    verify_limit_bounds,
    verify_tables,
)
from stepargmin.stepfit import (
    StepModel,
    TooFewDistinctXError,
    dataset_from_csv,
    fit_step,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_DATA_SHAPE = 3


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))


def _start_run(out_dir, command, config_path, master_seed, workers):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = [
        f"command = {command}",
        f"config_path = {config_path}",
        f"output_dir = {out}",
        f"master_seed = {master_seed}",
        f"tool_version = {__version__}",
        f"workers = {workers}",
    ]
    _write(out / "manifest.txt", "\n".join(manifest) + "\n")
    return out


def _finish_run(out):
    _write(out / "DONE", "DONE\n")


def _cmd_fit(args):
    data = dataset_from_csv(Path(args.data).read_text())
    out = _start_run(args.out, "fit", args.data, _seed_of(args), args.workers)
    fit = fit_step(data, args.k)
    _write(out / "fit.txt", fit.to_text())
    model = StepModel(fit.tau, fit.alpha)
    fitted = model.values_at(data.x)
    lines = ["x,y,fitted,residual"]
    for xv, yv, fv in zip(data.x, data.y, fitted):
        lines.append(
            f"{float(xv)!r},{float(yv)!r},{float(fv)!r},{float(yv) - float(fv)!r}"
        )
    _write(out / "residuals.csv", "\n".join(lines) + "\n")
    _finish_run(out)
    return EXIT_OK


def _seed_of(args):
    return args.seed if args.seed is not None else 0


def _cmd_simulate_limit(args):
    spec = spec_from_text(Path(args.spec).read_text())
    seed = _seed_of(args)
    out = _start_run(args.out, "simulate-limit", args.spec, seed, args.workers)
    samples = sample_extreme_minimizers(spec, args.reps, seed, workers=args.workers)
    _write(out / "samples.csv", samples_to_csv(samples))
    _finish_run(out)
    return EXIT_OK


def _cmd_capacity(args):
    spec = spec_from_text(Path(args.spec).read_text())
    target = parse_set_1d(args.set, "closed")
    seed = _seed_of(args)
    out = None
    if args.out:
        out = _start_run(args.out, "capacity", args.spec, seed, args.workers)
    estimate = estimate_capacity(spec, target, args.reps, seed, workers=args.workers)
    line = (
        f"value = {estimate.value!r}\n"
        f"std_error = {estimate.std_error!r}\n"
        f"replications = {estimate.replications}\n"
    )
    sys.stdout.write(line)
    if out is not None:
        _write(out / "capacity.txt", line)
        _finish_run(out)
    return EXIT_OK


def _load_config(args):
    config = parse_verification_config(Path(args.config).read_text())
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _cmd_coverage(args):
    config = _load_config(args)
    out = _start_run(args.out, "coverage", args.config, config.master_seed, args.workers)
    report = coverage_experiment(config, workers=args.workers)
    _write(out / "coverage_summary.txt", report.summary_text())
    _write(out / "coverage_rows.csv", report.rows_csv())
    _finish_run(out)
    return EXIT_OK if report.passed(config.coverage_tolerance) else EXIT_VERDICT


def _cmd_verify(args):
    config = _load_config(args)
    out = _start_run(args.out, "verify", args.config, config.master_seed, args.workers)
    tables = verify_tables(config, workers=args.workers)
    inequalities = verify_limit_bounds(config, tables=tables)
    _write(out / "inequalities.csv", inequalities.to_csv())
    tails = tail_probability_table(config, tables=tables)
    _write(out / "tails.csv", tails.to_csv())
    product_note = "product_form = skipped (k < 2)"
    if config.k >= 2:
        product = product_form_check(config, tables=tables)
        _write(out / "product_form.csv", product.to_csv())
        product_note = f"product_max_discrepancy = {product.max_discrepancy!r}"
    passed = inequalities.passed and tails.passed
    summary = [
        f"inequalities = {'pass' if inequalities.passed else 'fail'}",
        f"slack_violations = {inequalities.slack_violations}",
        f"tails = {'pass' if tails.passed else 'fail'}",
        product_note,
        f"verdict = {'pass' if passed else 'fail'}",
    ]
    _write(out / "summary.txt", "\n".join(summary) + "\n")
    _finish_run(out)
    return EXIT_OK if passed else EXIT_VERDICT


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepargmin",
        description="Step-function regression, argmin sets, and limit experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_out=True):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", required=need_out)

    p_fit = sub.add_parser("fit", help="least-squares k-jump step fit of a CSV dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--k", type=int, required=True)
    common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate-limit", help="sample extreme minimizers of a limit process")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate_limit)

    p_cap = sub.add_parser("capacity", help="Monte Carlo capacity functional of a closed set")
    p_cap.add_argument("--spec", required=True)
    p_cap.add_argument("--set", required=True)
    p_cap.add_argument("--reps", type=int, required=True)
    common(p_cap, need_out=False)
    p_cap.set_defaults(func=_cmd_capacity)

    p_cov = sub.add_parser("coverage", help="confidence-rectangle coverage experiment")
    p_cov.add_argument("--config", required=True)
    common(p_cov)
    p_cov.set_defaults(func=_cmd_coverage)

    p_ver = sub.add_parser("verify", help="hitting/containment bound verification")
    p_ver.add_argument("--config", required=True)
    common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except TooFewDistinctXError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_SHAPE
    except UncertifiedWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
