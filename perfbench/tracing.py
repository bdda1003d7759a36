"""Span tracing of the calls between stepargmin's modules, installed from
the benchmark's side without changing the package.

``Tracer.install`` wraps each function listed in ``TRACED`` in every
stepargmin module namespace that refers to it, so a call is recorded where
its caller looks it up: ``stepargmin.cpoisson.argmin_set`` is wrapped as
well as ``stepargmin.argmin.argmin_set``.  A span holds a name, start, end
and the index of the span open when it started.  Spans stay in memory and
are written once, by ``save``.  Calls made in pool worker processes are not
recorded: a forked worker inherits the wrappers but they only call through.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

LAYERS = ("rng", "stepfun", "argmin", "cpoisson", "stepfit", "experiments", "cli")

# Calls into these functions are spans, named "<module>.<function>".  The
# private entries are the callbacks that rng.run_chunks hands work back
# through, and the points where the counters below are taken.
TRACED = {
    "rng": ("substream", "child_seed", "run_chunks"),
    "stepfun": ("add_scale", "normalize"),
    "argmin": (
        "argmin_set",
        "sargmin",
        "largmin",
        "hits",
        "closed_complement",
        "contained_in_open",
        "orthant_checks",
    ),
    "cpoisson": (
        "sample_extreme_minimizers",
        "estimate_capacity",
        "estimate_containment",
        "choose_interval_bounds",
        "_draw_accepted",
        "_simulate",
        "_build_trajectory",
        "_extremes_worker",
        "_predicate_worker",
    ),
    "stepfit": ("fit_step", "synthesize", "derive_limit_spec"),
    "experiments": (
        "verify_limit_bounds",
        "tail_probability_table",
        "product_form_check",
        "coverage_experiment",
        "parse_verification_config",
        "_fit_worker",
        "_limit_worker",
        "_coverage_worker",
    ),
    "cli": ("run", "build_parser", "_load_config", "_write"),
}


def _fit_k(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["k"])


def _fit_step_label(args, kwargs):
    return f"stepfit.fit_step.k{_fit_k(args, kwargs)}"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.counters = {}
        self.datasets = set()
        self._current = -1
        self._pid = os.getpid()
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._current)
        self.end.append(0.0)
        self._current = idx
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._current = self.parent[idx]

    def wrap(self, fn, name, after=None, label=None):
        """fn recorded as a span; ``after(result, args, kwargs)`` runs once
        the span has closed, ``label(args, kwargs)`` names it per call."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            idx = self._open(self._id(label(args, kwargs)) if label else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wraps the traced functions in every stepargmin module."""
        import stepargmin.argmin
        import stepargmin.cli
        import stepargmin.cpoisson
        import stepargmin.experiments
        import stepargmin.rng
        import stepargmin.stepfit
        import stepargmin.stepfun

        modules = {layer: getattr(stepargmin, layer) for layer in LAYERS}
        hooks = {
            "argmin.closed_complement": dict(
                after=lambda r, a, k: self.count("argmin.complement_boxes", len(r.boxes))
            ),
            "cpoisson._simulate": dict(
                after=lambda r, a, k: self.count("cpoisson.draws_accepted", int(not r[2]))
            ),
            "cpoisson._build_trajectory": dict(
                after=lambda r, a, k: self.count("cpoisson.trajectory_cells", r[1].size)
            ),
            "stepfit.fit_step": dict(after=self._after_fit, label=_fit_step_label),
            "stepfit.synthesize": dict(
                after=lambda r, a, k: self.datasets.add((int(a[1]), int(a[2])))
            ),
            "cli._write": dict(
                after=lambda r, a, k: self.count("cli.report_bytes", len(a[1].encode("utf-8")))
            ),
        }
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                qualified = f"{layer}.{fname}"
                wrapped = self.wrap(original, qualified, **hooks.get(qualified, {}))
                for module in modules.values():
                    if module.__dict__.get(fname) is original:
                        self._set(module, fname, wrapped)
        for cls in (stepargmin.stepfun.StepFunction1D, stepargmin.stepfun.GridFunction):
            self._set(
                cls,
                "__post_init__",
                self.wrap(cls.__post_init__, "stepfun.construct", after=self._after_construct),
            )
        tracer = self

        class CountingPool(modules["rng"].ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                if os.getpid() == tracer._pid:
                    tracer.count("rng.pool_starts")
                super().__init__(*args, **kwargs)

        self._set(modules["rng"], "ProcessPoolExecutor", CountingPool)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _after_construct(self, result, args, kwargs):
        obj = args[0]
        cells = obj.values if hasattr(obj, "values") else obj.cells
        self.count("stepfun.cells", cells.size)

    def _after_fit(self, result, args, kwargs):
        if _fit_k(args, kwargs) >= 2:
            m = np.unique(args[0].x).size
            self.count("stepfit.dp_bytes_computed", 32 * m * m)

    def arrays(self):
        return (
            np.asarray(self.start, dtype=np.float64),
            np.asarray(self.end, dtype=np.float64),
            np.asarray(self.name, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
        )

    def save(self, path):
        start, end, name, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names, dtype=str), start=start, end=end,
                     name=name, parent=parent)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        start, end, name, parent = self.arrays()
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=own, minlength=k)
        return {nm: (int(calls[i]), float(incl[i]), float(excl[i])) for i, nm in enumerate(self.names)}


def layer_metrics(tracer, n_ops, wall_total):
    """Per-operation layer metrics from one tracer's spans and counters.

    Layer self times plus ``trace.unattributed_s`` equal ``trace.wall_s``,
    the mean wall time of a traced operation.
    """
    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(nm, (0, 0.0, 0.0))[0] for nm in names) / n_ops

    def incl(*names):
        return sum(totals.get(nm, (0, 0.0, 0.0))[1] for nm in names) / n_ops

    def counter(key):
        return tracer.counters.get(key, 0) / n_ops

    out = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for nm, (_, _, own) in totals.items():
        layer_self[nm.split(".", 1)[0]] += own / n_ops
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    wall = wall_total / n_ops
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(layer_self.values())
    out["trace.spans"] = len(tracer.start) / n_ops

    out["rng.streams"] = calls("rng.substream", "rng.child_seed")
    out["rng.streams_s"] = incl("rng.substream", "rng.child_seed")
    out["rng.pool_starts"] = counter("rng.pool_starts")
    out["rng.run_chunks_wait_s"] = totals.get("rng.run_chunks", (0, 0.0, 0.0))[2] / n_ops

    out["stepfun.step_functions"] = calls("stepfun.construct")
    out["stepfun.cells"] = counter("stepfun.cells")
    out["stepfun.construct_s"] = incl("stepfun.construct")
    out["stepfun.grid_ops_s"] = incl("stepfun.add_scale", "stepfun.normalize")

    for fname in ("argmin_set", "hits", "contained_in_open", "closed_complement"):
        out[f"argmin.{fname}.calls"] = calls(f"argmin.{fname}")
        out[f"argmin.{fname}.s"] = incl(f"argmin.{fname}")
    out["argmin.extremes_s"] = incl("argmin.sargmin", "argmin.largmin")
    out["argmin.complement_boxes"] = counter("argmin.complement_boxes")
    out["argmin.orthant_checks_s"] = incl("argmin.orthant_checks")

    attempted = calls("cpoisson._simulate")
    accepted = counter("cpoisson.draws_accepted")
    out["cpoisson.trajectory_cells"] = counter("cpoisson.trajectory_cells")
    out["cpoisson.draws_attempted"] = attempted
    out["cpoisson.draws_accepted"] = accepted
    out["cpoisson.accept_ratio"] = accepted / attempted if attempted else 0.0

    for k in (1, 2):
        out[f"stepfit.fit_step.k{k}.calls"] = calls(f"stepfit.fit_step.k{k}")
        out[f"stepfit.fit_step.k{k}.s"] = incl(f"stepfit.fit_step.k{k}")
    fits = calls(*(nm for nm in totals if nm.startswith("stepfit.fit_step.k")))
    out["stepfit.dp_bytes_computed"] = counter("stepfit.dp_bytes_computed")
    out["stepfit.synthesize.calls"] = calls("stepfit.synthesize")
    out["stepfit.synthesize.s"] = incl("stepfit.synthesize")
    out["stepfit.derive_limit_spec_s"] = incl("stepfit.derive_limit_spec")

    out["experiments.fit_reuse"] = len(tracer.datasets) / n_ops / fits if fits else 0.0

    out["cli.parse_s"] = incl("cli.build_parser", "cli._load_config")
    out["cli.report_bytes"] = counter("cli.report_bytes")
    out["cli.write_s"] = incl("cli._write")
    return out
