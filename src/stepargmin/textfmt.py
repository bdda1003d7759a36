"""Text formats shared by the spec files and the experiment configs: files
of `key = value` lines, comma lists of numbers, and tokens
'family(p1, p2, ...)' for jump, covariate and noise laws and polynomial
segments.  Each parser raises the error class its caller passes in.
`Law.sample` draws every family of the jump, covariate and noise laws, so
laws of one family and parameters draw alike from equal generators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidSpecError(ValueError):
    """Raised for rates, windows or laws outside the supported family."""


def floats(text):
    """The comma-separated numbers of `text` as a tuple of floats."""
    return tuple(float(t) for t in text.split(",") if t.strip())


def convert(kind, text, what, error):
    """kind(text), for kind int, float, str or `floats`; a value that does
    not convert raises `error` naming `what`."""
    try:
        return kind(text)
    except ValueError:
        raise error(f"bad number in {what}: {text.strip()!r}") from None


def parse_law_token(token, error):
    """(family, params) of a token 'family(p1, p2, ...)'; a malformed token
    raises `error` naming it."""
    token = token.strip()
    family, paren, params = token.partition("(")
    if not (paren and token.endswith(")")):
        raise error(f"bad law token {token!r}")
    return family.strip(), convert(floats, params[:-1], f"law token {token!r}", error)


@dataclass(frozen=True)
class Law:
    """A distribution given by its family name and float parameters, written
    as the token 'family(p1, p2, ...)'.  Every parameter must be finite;
    subclasses check the family and parameters in ``__post_init__`` after
    calling this one."""

    family: str
    params: tuple

    def __post_init__(self):
        params = tuple(float(p) for p in self.params)
        if not all(math.isfinite(p) for p in params):
            raise InvalidSpecError(f"{self.family} law parameters must be finite")
        object.__setattr__(self, "params", params)

    def sample(self, rng, n):
        """n draws, n a size or a shape.  two_point(v1, v2, p) is v1 where a
        uniform falls below p, and for p = 1/2 where a fair random bit is
        1: each row of the last axis takes its bits from whole 64-bit
        generator words, several times cheaper than a uniform per draw.
        gaussian, shifted_exp and uniform scale a standard draw, then shift
        it."""
        p = self.params
        if self.family == "point":
            return np.full(n, p[0])
        if self.family == "empirical":
            return rng.choice(np.asarray(p), size=n, replace=True)
        if self.family == "two_point":
            # a lookup, not a masked copy, which the random mask makes
            # mispredict.  The index is an intp array and the mode "clip",
            # since take would copy any other index type, and fill a
            # temporary of out's size in its default mode
            if p[2] == 0.5:
                shape = (n,) if np.isscalar(n) else tuple(n)
                cols = shape[-1] if shape else 1
                rows, per = math.prod(shape[:-1]), -(-cols // 64)
                words = rng.bit_generator.random_raw(rows * per).astype("<u8", copy=False)
                bits = np.unpackbits(words.view(np.uint8).reshape(rows, 8 * per), axis=1, count=cols)
                first = bits.astype(np.intp).reshape(shape)
                out = np.empty(shape)
            else:
                out = rng.random(n)
                first = np.less(out, p[2], out=np.empty(out.shape, np.intp))
            return np.take(np.array([p[1], p[0]]), first, out=out, mode="clip")
        draw, scale, shift = {
            "gaussian": (rng.standard_normal, p[1], p[0]),
            "shifted_exp": (rng.standard_exponential, p[1], p[0]),
            "uniform": (rng.random, p[1] - p[0], p[0]),
        }[self.family]
        out = draw(n)
        out *= scale
        out += shift
        return out

    def to_token(self):
        return f"{self.family}({', '.join(repr(v) for v in self.params)})"


def read_key_values(text, known, required, error):
    """{key: value} of a text of `key = value` lines, in file order.

    '#' starts a comment and blank lines are skipped; runs of whitespace
    inside a key read as one space.  A line without '=', a key for which
    `known(key)` is false and a repeated key raise `error` naming the line;
    a key of `required` that no line sets raises `error` naming the key."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = " ".join(key.split())
        if not eq:
            raise error(f"line {lineno}: expected 'key = value'")
        if not known(key):
            raise error(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise error(f"line {lineno}: repeated key {key!r}")
        entries[key] = value.strip()
    for key in required:
        if key not in entries:
            raise error(f"missing required key {key!r}")
    return entries
