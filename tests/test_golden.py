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
    OpenBox,
    OpenBoxUnion,
    argmin_set,
    largmin,
    sargmin,
)
from stepargmin.cpoisson import (
    CompoundPoissonSpec,
    JumpLaw,
    _block_rows,
    _draw_block,
    _job_sets,
    _limit_job,
    sample_extreme_minimizers,
    samples_to_csv,
)
from stepargmin.rng import run_chunks, substream
from stepargmin.stepfit import Dataset, fit_rows, fit_step

SEED = 20261019

# name: (right jumps, left jumps, rate of both sides, replications, digest);
# the specs' blocks hold 1024, 64, 128, 512 and 256 rows
SAMPLES = {
    "point": (
        JumpLaw("point", (1.0,)),
        JumpLaw("point", (1.0,)),
        1.0,
        300,
        "fe76745b753b51646f1ef8dd3cfc0c7a560e10d956d997d234a2516893f57a0a",
    ),
    "two_point": (
        JumpLaw("two_point", (-3.0, 5.0, 0.5)),
        JumpLaw("two_point", (-3.0, 5.0, 0.5)),
        1.0,
        1000,
        "65b5b0973da6a196a28eb56700e001fad66f59da503228e7835a531c7df1ebf4",
    ),
    "gaussian": (
        JumpLaw("gaussian", (1.0, 0.5)),
        JumpLaw("gaussian", (0.5, 1.0)),
        2.0,
        300,
        "97cdcc6bf0505481481af13ec7867d786b25537e50d67b1a378e95e5c92a9572",
    ),
    "shifted_exp": (
        JumpLaw("shifted_exp", (0.5, 1.0)),
        JumpLaw("shifted_exp", (-0.25, 0.5)),
        0.5,
        300,
        "4e9db79284cb5256f16ea29c6deac5e7a44e7a5d396f09193e643bb0cad7eb1a",
    ),
    "empirical": (
        JumpLaw("empirical", (0.5, 1.0, 2.0)),
        JumpLaw("empirical", (-1.0, 3.0)),
        1.0,
        300,
        "0b727b5b2931e905bef241b4c6c83e3a00f234bbaa4cb1e46d8c414d1a8afe30",
    ),
}

# the limit columns of 1000 replications and the raw cells of four of the
# spec's blocks, certified and whole, per law on both sides at rate 5; then
# with chunks of a tenth of the drift's climb, so every walk is topped up
# over many chunks (and the blocks are taller); then with the law on the
# rate-5 right side only, beside left walks that one jump certifies
TOP_UP_LAWS = (
    JumpLaw("empirical", (-1.0, 2.0, 2.0, 3.0)),
    JumpLaw("gaussian", (1.0, 0.5)),
    JumpLaw("two_point", (-3.0, 5.0, 0.5)),
)
TOP_UP_MENU = (
    ("closed", BoxUnion(1, [Box((-1.0,), (0.5,)), Box((1.5,), (2.0,))])),
    ("open", OpenBoxUnion(1, [OpenBox((-2.0,), (1.0,))])),
)
TOP_UP = "187545aaf7c40ef03abe22b99e16d1c7327d2d5c6b39dff9fb93f01534888057"

# k: (rows, n, digest of tau, alpha and sigma_hat)
FITS = {
    1: (16, 500, "e217898059db2e5f06611d7c449e3cd0fa0fb3a98037936838837b9b273df025"),
    2: (40, 100, "0044f05ffec4c7c44bf8a766cb7620969d30227a4b1336cb9c846c4897c42c5e"),
    3: (12, 300, "430c05cd7e595a8fb93b1ae92e596f1fb4995d3f4a6b6bb4cacb2ebe6411f740"),
}

# (x tied, k): digest of fit_step's to_text(), which holds tau, alpha, sse,
# segment_counts and sigma_hat
STEP_FITS = {
    (False, 0): "712e5b49fb80058125edbd56535bce60edacca59804938f9ba94ee32256c3297",
    (False, 1): "02440fc5552bb371a8972c24da4cf8074bce74b445bb833c77fd0148daa1f8c8",
    (False, 2): "f6fc9f4893d3704a49dfc9318eb06533c9b825ae55fd7ce4465e42c83e0f27f9",
    (False, 3): "2d88bad370d1045c1657da398d248a24723507a0dd4baae1aaf67715595f9e6c",
    (True, 0): "f61584a9c01e54bc24c17dee8edcc5a0429804d1874d919c7601bb78be5f4645",
    (True, 1): "ffd7756838cbcd646ab136693d65b017ba46150f74498d32d9155963879238fe",
    (True, 2): "10c30a0789b70af0744a224fec79470487da0b9036aef5b6d4fec50ebe803554",
    (True, 3): "f19bed8526faf6844c16e5ffbd3bc00a06c227fd569ae7bcdec1eb2c60f69a14",
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
    # per replication of the limit job: smallest and largest point, then
    # one flag per TOP_UP_MENU set
    rows = _job_sets(run_chunks([_limit_job(spec, 7, 1000)], 1)[0])
    flags = [rows.meets(kind, union) for kind, union in TOP_UP_MENU]
    return np.column_stack([rows.smallest(), rows.largest(), *flags])


def test_top_up(monkeypatch):
    certified = JumpLaw("shifted_exp", (0.5, 1.0))
    h = hashlib.sha256()
    for case in ("drawn", "both", "right"):
        if case == "both":
            monkeypatch.setattr(cpoisson, "_FIRST", 0.1)
            monkeypatch.setattr(cpoisson, "_STEP", 0.1)
        elif case == "right":
            monkeypatch.undo()
        for law in TOP_UP_LAWS:
            if case == "right":
                spec = CompoundPoissonSpec(5.0, 4.0, law, certified)
            else:
                spec = CompoundPoissonSpec(5.0, 5.0, law, law)
            h.update(np.ascontiguousarray(_menu_columns(spec), dtype="<f8").tobytes())
            for whole in (False, True):
                for b in range(4):
                    for a in _draw_block(spec, substream(7, b), _block_rows(spec), whole=whole):
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
