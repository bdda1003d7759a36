"""The benchmark's tracer (perfbench/tracing.py) wraps every function named
in its TRACED table by looking it up in the package, and its hooks read
what some of them return, so renaming or removing one of them, or changing
what a hooked one returns, breaks traced benchmark runs.  This catches
that in the test suite."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
from corpus import pure_step_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = [
        f"stepargmin.{layer}.{name}"
        for layer, names in _tracing().TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"stepargmin.{layer}"), name, None))
    ]
    assert missing == []


def test_hooks_read_what_they_expect(tmp_path):
    from stepargmin import argmin, cli, cpoisson, stepfit

    tracing = _tracing()
    original = cpoisson._simulate
    (tmp_path / "data.csv").write_text("x,y\n1.0,0.0\n2.0,0.0\n3.0,1.0\n4.0,1.0\n")
    model = pure_step_model(
        (1.0 / 3.0, 2.0 / 3.0),
        (0.0, 1.0, 0.0),
        stepfit.XLaw("uniform", (0.0, 1.0)),
        stepfit.NoiseLaw("gaussian", (0.0, 0.25)),
    )
    spec = cpoisson.CompoundPoissonSpec(
        1.0, 1.0, cpoisson.JumpLaw("point", (1.0,)), cpoisson.JumpLaw("point", (1.0,))
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cpoisson._simulate is not original
        cpoisson.simulate_trajectory(spec, 3)
        stepfit.fit_step(stepfit.synthesize(model, 30, 5), 2)
        argmin.closed_complement(argmin.OpenBoxUnion(2, (argmin.OpenBox((0.0, 0.0), (1.0, 1.0)),)))
        out = tmp_path / "fit"
        data = str(tmp_path / "data.csv")
        assert cli.run(["fit", "--data", data, "--k", "1", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert cpoisson._simulate is original
    counters = tracer.counters
    assert counters["cpoisson.draws_accepted"] == 1
    assert counters["cpoisson.trajectory_cells"] > 0
    assert counters["stepfun.cells"] > 0
    assert counters["stepfit.dp_bytes_computed"] > 0
    assert counters["argmin.complement_boxes"] == 4
    assert counters["cli.report_bytes"] == sum(len(p.read_bytes()) for p in out.iterdir())
    assert tracer.datasets == {(30, 5)}
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert metrics["cpoisson.draws_attempted"] == 1
    assert metrics["cpoisson.accept_ratio"] == 1.0
    assert metrics["stepfit.fit_step.k1.calls"] == 1
    assert metrics["stepfit.fit_step.k2.calls"] == 1
    assert metrics["experiments.fit_reuse"] == 0.5


def test_each_construction_is_one_span():
    # StepFunction1D inherits GridFunction.__post_init__, which the tracer
    # wraps on both classes; a 1-D function must still count once
    from stepargmin import stepfun

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        stepfun.StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        stepfun.GridFunction(([0.0], [0.0, 2.0]), np.zeros((2, 3)))
    finally:
        tracer.uninstall()
    assert tracer.totals()["stepfun.construct"][0] == 2
    assert tracer.counters["stepfun.cells"] == 3 + 6


def test_argmin_set_calls_count_every_call():
    # argmin_set hands a repeated call on one function its last set, and
    # a union keeps its extremes, but every call still passes through the
    # traced public names, so argmin.argmin_set.calls counts calls, not
    # builds, on an argmin_grid-style pass
    from corpus import random_shelled_function
    from stepargmin import argmin

    rng = np.random.default_rng(11)
    functions = [random_shelled_function(rng, dim) for dim in (1, 2, 3) * 4]
    functions = [f for f in functions if f is not None]
    points = [tuple(rng.uniform(-7.0, 7.0, size=3)) for _ in range(3)]
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            for f in functions:
                s = argmin.argmin_set(f)
                argmin.sargmin(s)
                argmin.largmin(s)
                for x in points:
                    argmin.orthant_checks(f, x[: f.dim])
    finally:
        tracer.uninstall()
    n = 2 * len(functions)
    totals = tracer.totals()
    assert totals["argmin.argmin_set"][0] == 4 * n
    assert totals["argmin.sargmin"][0] == totals["argmin.largmin"][0] == 4 * n
    assert totals["argmin.orthant_checks"][0] == 3 * n
    assert tracing.layer_metrics(tracer, 1, 1.0)["argmin.argmin_set.calls"] == 4 * n
