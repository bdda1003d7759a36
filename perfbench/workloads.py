"""The benchmark's four workloads.

Each workload class sets itself up from (work directory, seed, size): it
generates its input files from the seed, parses them with the package's own
readers, and keeps what its operations need.  ``op(i)`` is one closed-loop
call into the package and is what the client times; ``check(i, out)``
returns the problems found in its output, and runs outside the timed
region.  Operation i draws its own seeds from (seed, i), so every input is
a function of the workload seed.
"""

from __future__ import annotations

import math
import shutil

import numpy as np

from stepargmin import argmin, cli, cpoisson, experiments, stepfit, stepfun

SIZES = {
    "full": dict(
        limit_reps=2000,
        verify_n_grid=(100, 300),
        coverage_limit_reps=2000,
        coverage_reps=1500,
        coverage_n=500,
        corpus=450,
    ),
    "smoke": dict(
        limit_reps=1000,
        verify_n_grid=(20, 40),
        coverage_limit_reps=1000,
        coverage_reps=40,
        coverage_n=60,
        corpus=12,
    ),
}

# Replication counts below this are rejected by the experiment configs.
CONFIG_FLOOR = 1000


class SetupError(RuntimeError):
    """The generated inputs do not describe the workload they should."""


class Workload:
    """Interface the client drives; subclasses set ``name``, ``throughput``
    (the printed name of ``work_per_s``) and ``items_per_op``."""

    workers = 1

    def op(self, i, workers):
        """Operation i, run with ``workers`` processes; returns its output."""
        raise NotImplementedError

    def check(self, i, out):
        """Problems found in the output of operation i."""
        raise NotImplementedError

    def finish(self):
        """Problems found by a check made once after the timed loop, which
        counts as one more operation; None when there is no such check."""
        return None

    def findings(self):
        """Outputs to print that are not failures."""
        return []


def op_seed(seed, i):
    """64-bit seed of operation i, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def _read_floats(path, columns):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = [header.index(c) for c in columns]
    rows = [line.split(",") for line in lines[1:] if line]
    return [[float(row[j]) for j in idx] for row in rows]


def _read_keys(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _probabilities_ok(values):
    return all(0.0 <= v <= 1.0 for v in values)


# --- limit_mc ---------------------------------------------------------------

POINT_SPEC = """\
rate_right = 1.0
rate_left = 1.0
jump_right = point(1.0)
jump_left = point(1.0)
window_initial = 8.0
window_growth = 2.0
max_window = 64.0
"""

# One-jump model whose two-point noise induces two_point(-3, 5, 0.5) jumps.
TWO_POINT_MODEL = """\
master_seed = {seed}
k = 1
n_grid = 100
replications_data = 1000
replications_limit = 1000
rho = 0.1
model.tau = 0.5
model.alpha = 0, 1
model.x_law = uniform(0, 1)
model.noise = two_point(-2, 2, 0.5)
"""

LOG2 = math.log(2.0)


class LimitMC(Workload):
    """Extreme minimizers, capacity and containment of the limit argmin set
    on one seed, over the point-jump spec and a two-point derived spec."""

    name = "limit_mc"
    throughput = "reps_per_s"

    def __init__(self, workdir, seed, size):
        self.seed = seed
        self.reps = size["limit_reps"]
        spec_path = workdir / "point.spec"
        spec_path.write_text(POINT_SPEC)
        model_path = workdir / "two_point.cfg"
        model_path.write_text(TWO_POINT_MODEL.format(seed=seed))
        point = cpoisson.spec_from_text(spec_path.read_text())
        model = experiments.parse_verification_config(model_path.read_text()).model
        two_point = stepfit.derive_limit_spec(model, 1)
        if two_point.jump_right != cpoisson.JumpLaw("two_point", (-3.0, 5.0, 0.5)):
            raise SetupError(f"unexpected derived jump law {two_point.jump_right}")
        self.specs = (("point", point), ("two_point", two_point))
        self.items_per_op = 3 * self.reps * len(self.specs)

    def _inputs(self, i):
        rng = np.random.default_rng([self.seed, i])
        return op_seed(self.seed, i), [float(rng.uniform(-2.0, 2.0)) for _ in self.specs]

    def op(self, i, workers):
        mc_seed, xs = self._inputs(i)
        out = []
        for (_, spec), x in zip(self.specs, xs):
            samples = cpoisson.sample_extreme_minimizers(spec, self.reps, mc_seed, workers)
            cap = cpoisson.estimate_capacity(
                spec, argmin.lower_orthant_closed(x), self.reps, mc_seed, workers
            )
            cont = cpoisson.estimate_containment(
                spec, argmin.lower_orthant_open(x), self.reps, mc_seed, workers
            )
            out.append((samples, cap, cont))
        return out

    def check(self, i, out):
        _, xs = self._inputs(i)
        problems = []
        r = self.reps
        for ((label, _), x, (samples, cap, cont)) in zip(self.specs, xs, out):
            lo = np.array([s.xi_min for s in samples])
            hi = np.array([s.xi_max for s in samples])
            if lo.size != r or not (np.all(np.isfinite(lo)) and np.all(lo <= hi)):
                problems.append(f"{label}: extreme minimizers malformed")
                continue
            # the four-way orthant identity, exact on a shared seed
            if cap.value != int(np.count_nonzero(lo <= x)) / r:
                problems.append(f"{label}: capacity {cap.value} != P(xi_min <= {x})")
            if cont.value != int(np.count_nonzero(hi < x)) / r:
                problems.append(f"{label}: containment {cont.value} != P(xi_max < {x})")
            if label == "point":
                p_half = int(np.count_nonzero(hi <= LOG2)) / r
                p_quarter = int(np.count_nonzero((lo > -LOG2) & (hi < LOG2))) / r
                if abs(p_half - 0.5) > 5.0 * math.sqrt(0.25 / r):
                    problems.append(f"point: P(xi_max <= log 2) = {p_half}, expected 0.5")
                if abs(p_quarter - 0.25) > 5.0 * math.sqrt(0.1875 / r):
                    problems.append(f"point: containment of (-log 2, log 2) = {p_quarter}")
        return problems


# --- CLI workloads ----------------------------------------------------------

C10_CONFIG = """\
master_seed = {seed}
k = 2
n_grid = {n_grid}
replications_data = {floor}
replications_limit = {floor}
rho = 0.1
model.tau = {tau1!r}, {tau2!r}
model.alpha = 0, 1, 0
model.x_law = uniform(0, 1)
model.noise = gaussian(0, 0.25)
set closed lower-both = [-inf,0] | [-inf,0]
set closed lower-aux = [-inf,0] | [-inf,0] @ [-0.75,0.75] | [-0.75,0.75] | [-0.75,0.75]
set closed bands = [-3,3] | [-3,3]
set open win-both = (-4,4) | (-4,4)
"""

C09_CONFIG = """\
master_seed = {seed}
k = 1
n_grid = {n}
replications_data = {floor}
replications_limit = {limit_reps}
rho = 0.1
coverage_n = {n}
coverage_replications = {reps}
coverage_tolerance = 0.03
model.tau = 0.5
model.alpha = 0, 1
model.x_law = uniform(0, 1)
model.noise = gaussian(0, 0.25)
"""


class _CliWorkload(Workload):
    """One in-process ``stepargmin <command>`` run per operation."""

    command = None
    reports = ()

    def __init__(self, workdir, seed, config_text):
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / f"{self.command}.cfg"
        self.config_path.write_text(config_text)
        self.config = experiments.parse_verification_config(self.config_path.read_text())

    def out_dir(self, i, workers):
        return self.workdir / f"{self.command}-{i}-w{workers}"

    def op(self, i, workers):
        out = self.out_dir(i, workers)
        argv = [
            self.command,
            "--config", str(self.config_path),
            "--out", str(out),
            "--seed", str(op_seed(self.seed, i)),
            "--workers", str(workers),
        ]
        return cli.run(argv), out

    def check(self, i, out):
        code, out_dir = out
        try:
            missing = [n for n in ("manifest.txt", "DONE") + self.reports if not (out_dir / n).is_file()]
            if missing:
                return [f"exit {code}, missing {', '.join(missing)}"]
            return self.check_reports(code, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class VerifyK2(_CliWorkload):
    """``stepargmin verify`` on the two-jump c10 model and set menu."""

    name = "verify_k2"
    throughput = "datasets_per_s"
    command = "verify"
    reports = ("inequalities.csv", "tails.csv", "product_form.csv", "summary.txt")

    def __init__(self, workdir, seed, size):
        n_grid = size["verify_n_grid"]
        text = C10_CONFIG.format(
            seed=seed,
            n_grid=", ".join(str(n) for n in n_grid),
            floor=CONFIG_FLOOR,
            tau1=1.0 / 3.0,
            tau2=2.0 / 3.0,
        )
        super().__init__(workdir, seed, text)
        self.items_per_op = CONFIG_FLOOR * len(n_grid)
        self.verdicts = []
        self.failing_rows = {}

    def check_reports(self, code, out_dir):
        problems = []
        summary = _read_keys(out_dir / "summary.txt")
        verdict = summary.get("verdict")
        if code != (0 if verdict == "pass" else 1):
            problems.append(f"exit {code} does not match verdict {verdict}")
        rows = (out_dir / "inequalities.csv").read_text().splitlines()[1:]
        values = []
        for row in rows:
            n, kind, name, lhs, lhs_se, rhs, rhs_se, row_verdict = row.split(",")
            values += [float(lhs), float(rhs)]
            if row_verdict == "fail":
                self.failing_rows[name] = self.failing_rows.get(name, []) + [(float(lhs), float(rhs))]
        values += [v[0] for v in _read_floats(out_dir / "tails.csv", ["tail_prob"])]
        values += [v for row in _read_floats(out_dir / "product_form.csv", ["joint", "product"]) for v in row]
        if not _probabilities_ok(values):
            problems.append("a reported probability lies outside [0, 1]")
        self.verdicts.append((verdict, int(summary.get("slack_violations", -1))))
        return problems

    def findings(self):
        lines = [
            "verify verdicts: "
            + ", ".join(f"{v} (slack_violations {s})" for v, s in self.verdicts)
        ]
        for name, pairs in sorted(self.failing_rows.items()):
            lhs = np.median([p[0] for p in pairs])
            rhs = np.median([p[1] for p in pairs])
            lines.append(
                f"row {name} failed in {len(pairs)} of {len(self.verdicts)} runs, "
                f"median lhs {lhs:.3f} vs rhs {rhs:.3f}"
            )
        return lines


class CoverageW2(_CliWorkload):
    """``stepargmin coverage`` on the one-jump c09 model with two workers."""

    name = "coverage_w2"
    throughput = "coverage_reps_per_s"
    command = "coverage"
    reports = ("coverage_summary.txt", "coverage_rows.csv")
    workers = 2

    def __init__(self, workdir, seed, size):
        text = C09_CONFIG.format(
            seed=seed,
            n=size["coverage_n"],
            floor=CONFIG_FLOOR,
            limit_reps=size["coverage_limit_reps"],
            reps=size["coverage_reps"],
        )
        super().__init__(workdir, seed, text)
        self.items_per_op = size["coverage_reps"]
        self.first_reports = None
        self.coverages = []

    def report_bytes(self, out_dir):
        return [(out_dir / n).read_bytes() for n in self.reports]

    def check_reports(self, code, out_dir):
        problems = []
        summary = _read_keys(out_dir / "coverage_summary.txt")
        coverage = float(summary["coverage"])
        target = float(summary["target"])
        passed = coverage >= target - self.config.coverage_tolerance
        if code != (0 if passed else 1):
            problems.append(f"exit {code} does not match coverage {coverage}")
        covered = [int(v[0]) for v in _read_floats(out_dir / "coverage_rows.csv", ["covered"])]
        if len(covered) != self.items_per_op or any(c not in (0, 1) for c in covered):
            problems.append("coverage rows malformed")
        elif coverage != sum(covered) / len(covered):
            problems.append("coverage does not match its rows")
        if not _probabilities_ok([coverage, target]):
            problems.append("coverage outside [0, 1]")
        if self.first_reports is None and out_dir == self.out_dir(0, 2):
            self.first_reports = self.report_bytes(out_dir)
        self.coverages.append(coverage)
        return problems

    def finish(self):
        """Worker invariance: operation 0 rendered again with one worker
        must give the same report bytes as with two."""
        code, out_dir = self.op(0, workers=1)
        try:
            if self.first_reports is None or self.report_bytes(out_dir) != self.first_reports:
                return ["coverage reports differ between workers=2 and workers=1"]
            return []
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def findings(self):
        return ["coverage: " + ", ".join(f"{c:.4f}" for c in self.coverages)]


# --- argmin_grid ------------------------------------------------------------

LATTICE = np.arange(-8.0, 8.25, 0.25)
MAX_BREAKS = {1: 40, 2: 10, 3: 5}
COEFFICIENTS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def random_function(rng, breaks, compact):
    """Step or grid function with ``breaks[i]`` breakpoints on axis i and
    small integer values, so minima tie.  With ``compact`` the outer shell
    of cells sits above every inner cell."""
    dim = len(breaks)
    axes = [np.sort(rng.choice(LATTICE, size=m, replace=False)) for m in breaks]
    shape = tuple(a.size + 1 for a in axes)
    cells = rng.integers(0, 4, size=shape).astype(float)
    if compact:
        shell = np.ones(shape, dtype=bool)
        shell[tuple(slice(1, -1) for _ in shape)] = False
        cells[shell] += 4.0
    if dim == 1 and rng.random() < 0.5:
        return stepfun.StepFunction1D(axes[0], cells)
    return stepfun.GridFunction(tuple(axes), cells)


def _random_box(rng, dim, cls):
    lo, hi = [], []
    for _ in range(dim):
        a, b = np.sort(rng.choice(LATTICE, size=2, replace=False))
        lo.append(-math.inf if rng.random() < 0.15 else float(a))
        hi.append(math.inf if rng.random() < 0.15 else float(b))
    return cls(tuple(lo), tuple(hi))


def _boxes_meet(p, q):
    return all(max(a, c) <= min(b, d) for a, b, c, d in zip(p.lo, p.hi, q.lo, q.hi))


def _random_point(rng, dim):
    if rng.random() < 0.5:
        return tuple(float(v) for v in rng.choice(LATTICE, size=dim))
    return tuple(float(v) for v in rng.uniform(-8.0, 8.0, size=dim))


class ArgminGrid(Workload):
    """Argmin sets and set predicates over a seeded corpus of 1-, 2- and
    3-D functions; one operation is one pass over the corpus."""

    name = "argmin_grid"
    throughput = "functions_per_s"

    def __init__(self, workdir, seed, size):
        rng = np.random.default_rng([seed, 0])
        count = size["corpus"]
        records = []
        # sizes and box counts cycle, so every seed gets the same mix of them
        for j in range(count):
            dim = j % 3 + 1
            breaks = [2 + (j // 3 + axis) % (MAX_BREAKS[dim] - 1) for axis in range(dim)]
            records.append(random_function(rng, breaks, compact=j % 5 != 0).to_text())
            records.append(random_function(rng, breaks, compact=False).to_text())
        corpus_path = workdir / "corpus.txt"
        corpus_path.write_text("%\n".join(records))
        parsed = [stepfun.from_text(t) for t in corpus_path.read_text().split("%\n")]
        self.cases = []
        for j in range(count):
            f, g = parsed[2 * j], parsed[2 * j + 1]
            dim = f.dim
            closed = argmin.BoxUnion(
                dim, tuple(_random_box(rng, dim, argmin.Box) for _ in range(1 + j // 3 % 3))
            )
            opens = tuple(
                argmin.OpenBoxUnion(
                    dim, tuple(_random_box(rng, dim, argmin.OpenBox) for _ in range(boxes))
                )
                for boxes in (1 + j // 3 % 4, 4 - j // 3 % 4)
            )
            points = tuple(_random_point(rng, dim) for _ in range(3))
            a, b = (float(c) for c in rng.choice(COEFFICIENTS, size=2))
            probes = tuple(_random_point(rng, dim) for _ in range(4))
            self.cases.append((f, g, closed, opens, points, a, b, probes))
        self.items_per_op = count
        self.orthant_disagreements = 0
        self.orthant_checked = 0

    def op(self, i, workers):
        out = []
        for f, g, closed, opens, points, a, b, _ in self.cases:
            s = argmin.argmin_set(f)
            extremes = orthants = None
            if s.bounded:
                extremes = (argmin.sargmin(s), argmin.largmin(s))
                orthants = tuple(argmin.orthant_checks(f, x) for x in points)
            hit = argmin.hits(s, closed)
            inside = tuple(argmin.contained_in_open(s, g_open) for g_open in opens)
            combined = stepfun.add_scale(f, g, a, b)
            out.append((s, extremes, orthants, hit, inside, combined, stepfun.normalize(combined)))
        return out

    def check(self, i, out):
        problems = []
        for j, (case, result) in enumerate(zip(self.cases, out)):
            problems += [f"function {j}: {p}" for p in self._check_case(case, result)]
        return problems

    def _check_case(self, case, result):
        f, g, closed, opens, points, a, b, probes = case
        s, extremes, orthants, hit, inside, combined, normalized = result
        if s.is_empty:
            return ["empty argmin set"]
        problems = []
        meet = any(_boxes_meet(p, q) for p in s.boxes for q in closed.boxes)
        if hit != meet:
            problems.append(f"hits returned {hit}, the boxes {'do' if meet else 'do not'} meet")
        low = stepfun.infimum(f)
        if extremes is not None:
            envelope = stepfun.lower_envelope(f)
            for point in extremes:
                if not s.contains_point(point) or envelope.value_at(point) != low:
                    problems.append(f"extreme minimizer {point} is not a minimizer")
            for x, (hit_lower, small_le, inside_open, large_lt) in zip(points, orthants):
                # sargmin <= x puts a point of A in (-inf, x]; A inside
                # (-inf, x) puts largmin there.  In one dimension the
                # converses hold as well.
                if (small_le and not hit_lower) or (inside_open and not large_lt):
                    problems.append(f"orthant checks at {x} contradict: {orthants}")
                agree = hit_lower == small_le and inside_open == large_lt
                if f.dim == 1 and not agree:
                    problems.append(f"1-D orthant checks disagree at {x}")
                self.orthant_checked += 1
                self.orthant_disagreements += int(not agree)
        if f.dim == 1:
            for g_open, flag in zip(opens, inside):
                if flag != (not argmin.hits(s, argmin.closed_complement(g_open))):
                    problems.append("contained_in_open disagrees with the closed complement")
        for p in probes:
            p = p[0] if f.dim == 1 else p
            expected = a * f.value_at(p) + b * g.value_at(p)
            if combined.value_at(p) != expected or normalized.value_at(p) != expected:
                problems.append(f"add_scale/normalize wrong at {p}")
        return problems

    def findings(self):
        return [
            f"orthant pairs disagreeing in 2-D/3-D: {self.orthant_disagreements} "
            f"of {self.orthant_checked} checks (lexicographic extremes)"
        ]


WORKLOADS = {cls.name: cls for cls in (LimitMC, VerifyK2, CoverageW2, ArgminGrid)}
