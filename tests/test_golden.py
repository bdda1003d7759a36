"""Golden sha256 digests of limit samples, block fits and argmin sets.
They pin the random-stream layout of both Monte Carlo sides, the bits of
the fit and the exact argmin sets with their lexicographic extremes, so a
change of any fails here and has to be declared (ROADMAP: a deliberate
stream-layout change is allowed when CHANGES.md says so)."""

import hashlib

import numpy as np
import pytest

from corpus import random_shelled_function
from stepargmin import cpoisson
from stepargmin.argmin import (
    Box,
    BoxUnion,
    IntervalRows,
    OpenBox,
    OpenBoxUnion,
    argmin_set,
    largmin,
    sargmin,
)
from stepargmin.cpoisson import (
    _BLOCK,
    CompoundPoissonSpec,
    JumpLaw,
    _draw_block,
    _limit_job,
    sample_extreme_minimizers,
    samples_to_csv,
)
from stepargmin.rng import run_chunks, substream
from stepargmin.stepfit import Dataset, fit_rows, fit_step

SEED = 20261019

# name: (right jumps, left jumps, rate of both sides, replications, digest)
SAMPLES = {
    "point": (
        JumpLaw("point", (1.0,)),
        JumpLaw("point", (1.0,)),
        1.0,
        300,
        "3718f449bb5bf4e5bcd041e540055e5759b034fe80556a5e919f91be592fc7e6",
    ),
    # five of the 1000 rows are boundary redraws
    "two_point": (
        JumpLaw("two_point", (-3.0, 5.0, 0.5)),
        JumpLaw("two_point", (-3.0, 5.0, 0.5)),
        1.0,
        1000,
        "5e15e5e0206eeeb2079be55aeec19a48d29dbb433c6a3b89a71f1240b14e23f4",
    ),
    "gaussian": (
        JumpLaw("gaussian", (1.0, 0.5)),
        JumpLaw("gaussian", (0.5, 1.0)),
        2.0,
        300,
        "695cc58a54de274981ff4fd656bb7599733b47cf980b3a58f1faa5f6c528be89",
    ),
    "shifted_exp": (
        JumpLaw("shifted_exp", (0.5, 1.0)),
        JumpLaw("shifted_exp", (-0.25, 0.5)),
        0.5,
        300,
        "da7a06cd93fd66a0018253b099a18dafc08029d30593c36375669c6ffba8bfcc",
    ),
    "empirical": (
        JumpLaw("empirical", (0.5, 1.0, 2.0)),
        JumpLaw("empirical", (-1.0, 3.0)),
        1.0,
        300,
        "db51816800be4f57a0e4ba7d4d4907d39d81c3a2bfebb79348d3a3fb44fbea37",
    ),
}

# the limit columns of 1000 replications and the raw cells of four blocks,
# certified and whole, per law on both sides at rate 5 and max_window 4
# (two_point makes 61 redraws in 59 rows at seed 7); then with two gaps per
# row and side, so every block and redraw is topped up; then with only the
# rate-5 right side topped up, beside a certified gaussian left side
TOP_UP_LAWS = (
    JumpLaw("empirical", (-1.0, 2.0, 2.0, 3.0)),
    JumpLaw("gaussian", (1.0, 0.5)),
    JumpLaw("two_point", (-3.0, 5.0, 0.5)),
)
TOP_UP_MENU = (
    ("closed", BoxUnion(1, [Box((-1.0,), (0.5,)), Box((1.5,), (2.0,))])),
    ("open", OpenBoxUnion(1, [OpenBox((-2.0,), (1.0,))])),
)
TOP_UP = "6df64be4c156bd205f92cac94a51e57ab370e0d8be0f6b007c0ba12ef59faaa5"

# k: (rows, n, digest of tau, alpha and sigma_hat)
FITS = {
    1: (16, 500, "eaf4e0eebcca9ceb8bb1255f5f802a2add42a317bec0edb4eb9e35816fb590cc"),
    2: (40, 100, "f296b2f1e61f65d3153d825f4b7d9aca66b3ea02db21805e45f9e5431352b321"),
    3: (12, 300, "a466836b9b896d5b30c53adb8784f64423a98621b64aaa5c9c0c72cf86d0b6b9"),
}

# (x tied, k): digest of fit_step's to_text(), which holds tau, alpha, sse,
# segment_counts and sigma_hat
STEP_FITS = {
    (False, 0): "d21128e2b71975ded55bcbe5174a706f510a245889cae50264c029b49bd0ce88",
    (False, 1): "66f4bde463723542b738fa52646713b7c0faf70e8bad4f20a4544c2724fe24d3",
    (False, 2): "4b4bbc9faa97a49c97fe0323532373b5db2c3214bde73dcf6afb92f3500225c3",
    (False, 3): "bd77017fa5633f5e400186655dec652b57f33294a069963d2afdbe36a0bb1c8d",
    (True, 0): "c947bf0765a9775191697539feb099489cfe71c6bec4a5b4519e375ef0aa3719",
    (True, 1): "bcb496236eca7667262147671c4f21ca061658d3d9db920b635ddcd7d05ce9a3",
    (True, 2): "6f09a2a61a7f2ce9b5a6101f7e4f92a495c6c1ceebbb4bf086b81f2ba03894a4",
    (True, 3): "bc4510bb7af8e0c4044c8ccc1fe75a847453669799686d813221274fe3e3f663",
}

# argmin_set(f).to_text() and (sargmin, largmin) of the compact functions
# among 600 `random_shelled_function`s of dimension 1, 2, 3, 1, ...; 393 of
# them, 146 with a set of several boxes
ARGMIN_SETS = "b4e880e8a996cd1809d0c5e304a273aebdc228038ba6a51629c52f5d35d5fd17"


@pytest.mark.parametrize("name", SAMPLES)
def test_limit_samples(name):
    right, left, rate, reps, digest = SAMPLES[name]
    samples = sample_extreme_minimizers(CompoundPoissonSpec(rate, rate, right, left), reps, SEED)
    assert hashlib.sha256(samples_to_csv(samples).encode()).hexdigest() == digest


def _menu_columns(spec):
    # per replication of the limit job: smallest and largest point, redraw
    # count, then one flag per TOP_UP_MENU set; two_point breaks the 1%
    # redraw rule here, so the job's array is read without it
    cells = run_chunks([_limit_job(spec, 7, 1000)], 1)[0]
    rows = IntervalRows.from_cells(cells[:, 0], cells[:, 1], cells[:, 2])
    flags = [rows.meets(kind, union) for kind, union in TOP_UP_MENU]
    return np.column_stack([rows.smallest(), rows.largest(), cells[rows.starts, 3], *flags])


def test_top_up_and_redraws(monkeypatch):
    gap_count = cpoisson._gap_count
    certified = JumpLaw("gaussian", (1.0, 0.5))
    h = hashlib.sha256()
    for case in ("drawn", "both", "right"):
        if case == "both":
            monkeypatch.setattr(cpoisson, "_gap_count", lambda rate, w: 2)
        elif case == "right":
            monkeypatch.setattr(
                cpoisson, "_gap_count", lambda rate, w: 2 if rate == 5.0 else gap_count(rate, w)
            )
        for law in TOP_UP_LAWS:
            if case == "right":
                spec = CompoundPoissonSpec(5.0, 4.0, law, certified, max_window=4.0)
            else:
                spec = CompoundPoissonSpec(5.0, 5.0, law, law, max_window=4.0)
            h.update(np.ascontiguousarray(_menu_columns(spec), dtype="<f8").tobytes())
            for whole in (False, True):
                for b in range(4):
                    for a in _draw_block(spec, substream(7, b), _BLOCK, whole=whole):
                        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == TOP_UP


def _block(k, rows, n, seed):
    # every fifth row has x rounded to two decimals, so each of those rows
    # is fitted as a block of its own over its runs of tied x
    rng = np.random.default_rng(seed)
    x = rng.random((rows, n))
    x[::5] = np.round(x[::5], 2)
    steps = np.searchsorted(np.linspace(0, 1, k + 2)[1:-1], x) % 2
    return x, steps + 0.25 * rng.standard_normal((rows, n))


@pytest.mark.parametrize("k", FITS)
def test_fit_rows(k):
    rows, n, digest = FITS[k]
    h = hashlib.sha256()
    for a in fit_rows(*_block(k, rows, n, 100 + k), k):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def _dataset(tied):
    # 300 observations of a two-jump step; tied x are rounded to two
    # decimals, so most values repeat
    rng = np.random.default_rng(SEED)
    x = rng.random(300)
    if tied:
        x = np.round(x, 2)
    steps = np.searchsorted([1.0 / 3.0, 2.0 / 3.0], x) % 2
    return Dataset(x, steps + 0.25 * rng.standard_normal(300))


@pytest.mark.parametrize("tied, k", STEP_FITS)
def test_fit_step(tied, k):
    text = fit_step(_dataset(tied), k).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == STEP_FITS[tied, k]


def test_argmin_sets():
    rng = np.random.default_rng(SEED)
    h = hashlib.sha256()
    for j in range(600):
        f = random_shelled_function(rng, j % 3 + 1)
        if f is not None:
            a = argmin_set(f)
            h.update(a.to_text().encode())
            h.update(repr((sargmin(a), largmin(a))).encode())
    assert h.hexdigest() == ARGMIN_SETS
