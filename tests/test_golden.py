"""Golden sha256 digests of limit samples and block fits.  They pin the
random-stream layout of both Monte Carlo sides and the bits of the fit, so
a change of either fails here and has to be declared (ROADMAP: a
deliberate stream-layout change is allowed when CHANGES.md says so)."""

import hashlib

import numpy as np
import pytest

from stepargmin.cpoisson import (
    CompoundPoissonSpec,
    JumpLaw,
    sample_extreme_minimizers,
    samples_to_csv,
)
from stepargmin.stepfit import fit_rows

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

# k: (rows, n, digest of tau, alpha and sigma_hat)
FITS = {
    1: (16, 500, "eaf4e0eebcca9ceb8bb1255f5f802a2add42a317bec0edb4eb9e35816fb590cc"),
    2: (40, 100, "f296b2f1e61f65d3153d825f4b7d9aca66b3ea02db21805e45f9e5431352b321"),
    3: (12, 300, "a466836b9b896d5b30c53adb8784f64423a98621b64aaa5c9c0c72cf86d0b6b9"),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_limit_samples(name):
    right, left, rate, reps, digest = SAMPLES[name]
    samples = sample_extreme_minimizers(CompoundPoissonSpec(rate, rate, right, left), reps, SEED)
    assert hashlib.sha256(samples_to_csv(samples).encode()).hexdigest() == digest


def _block(k, rows, n, seed):
    # every fifth row has x rounded to two decimals, so tied x send those
    # rows through fit_step
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
