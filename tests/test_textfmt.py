import numpy as np
import pytest

from stepargmin.cpoisson import JumpLaw
from stepargmin.stepfit import NoiseLaw, XLaw
from stepargmin.textfmt import parse_law_token, read_key_values


class FormatError(Exception):
    pass


EVERY_FAMILY = [
    JumpLaw("point", (1.5,)),
    JumpLaw("two_point", (1.5, -0.5, 0.25)),
    JumpLaw("gaussian", (0.1, 0.3)),
    JumpLaw("shifted_exp", (-0.5, 2.0)),
    JumpLaw("empirical", (0.1, 1.0 / 3.0, 7.0)),
    XLaw("uniform", (-1.0, 2.5)),
    XLaw("gaussian", (0.5, 0.1)),
    NoiseLaw("gaussian", (0.0, 0.25)),
    NoiseLaw("two_point", (-2.0, 2.0, 0.5)),
]


@pytest.mark.parametrize("law", EVERY_FAMILY, ids=lambda law: f"{type(law).__name__}-{law.family}")
def test_token_roundtrip(law):
    assert type(law)(*parse_law_token(law.to_token(), ValueError)) == law


@pytest.mark.parametrize(
    "family, params, classes",
    [
        ("gaussian", (0.0, 0.7), (JumpLaw, XLaw, NoiseLaw)),
        ("two_point", (-1.5, 3.0, 2.0 / 3.0), (JumpLaw, NoiseLaw)),
        ("two_point", (-2.0, 2.0, 0.5), (JumpLaw, NoiseLaw)),
    ],
)
@pytest.mark.parametrize("shape", [5, (3, 4)])
def test_one_draw_per_family(family, params, classes, shape):
    # jump, covariate and noise laws share Law.sample: equal generators give
    # equal bits
    draws = []
    for cls in classes:
        law = cls(family, params)
        draws.append(law.sample(np.random.default_rng(11), shape).tobytes())
    assert len(set(draws)) == 1


def test_fair_two_point_rows_take_whole_words():
    # p = 1/2 draws fair bits, each row of the last axis from whole 64-bit
    # words: a block of rows is its rows drawn in turn
    law = NoiseLaw("two_point", (-2.0, 2.0, 0.5))
    block = law.sample(np.random.default_rng(3), (3, 70))
    rng = np.random.default_rng(3)
    assert np.array_equal(block, [law.sample(rng, 70) for _ in range(3)])
    assert abs(float(np.mean(law.sample(rng, 100_000)))) < 0.05
    for shape in (0, (0, 5), (3, 0), (2, 0, 4)):
        assert law.sample(rng, shape).shape == np.empty(shape).shape


class TestLawToken:
    def test_families_and_params(self):
        assert parse_law_token(" poly(1, -2.5,3) ", ValueError) == ("poly", (1.0, -2.5, 3.0))
        assert parse_law_token("point()", ValueError) == ("point", ())

    @pytest.mark.parametrize("token", ["point", "point(1", "point 1)", "(1)x"])
    def test_malformed_named(self, token):
        with pytest.raises(FormatError, match="bad law token"):
            parse_law_token(token, FormatError)

    @pytest.mark.parametrize("token", ["point(1, x)", "gaussian(0, abc)", "point(1 2)"])
    def test_bad_number_named(self, token):
        with pytest.raises(FormatError) as info:
            parse_law_token(token, FormatError)
        assert repr(token) in str(info.value)


KEYS = ("alpha", "beta", "gamma")


def read(text, required=("alpha",)):
    return read_key_values(text, KEYS.__contains__, required, FormatError)


class TestReadKeyValues:
    def test_comments_blanks_and_order(self):
        text = "# header\n\nbeta = 2 # note\n  alpha=x = y\n\n"
        assert read(text) == {"beta": "2", "alpha": "x = y"}
        assert list(read(text)) == ["beta", "alpha"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alpha = 1\nbeta 2\n", "line 2: expected 'key = value'"),
            ("alpha = 1\n# c\ndelta = 2\n", "line 3: unknown key 'delta'"),
            ("alpha = 1\nalpha = 2\n", "line 2: repeated key 'alpha'"),
            ("beta = 1\n", "missing required key 'alpha'"),
        ],
    )
    def test_errors_named(self, text, message):
        with pytest.raises(FormatError, match=message):
            read(text)

    def test_inner_whitespace_of_a_key(self):
        entries = read_key_values("set  closed\tlo = [0,1]\n", lambda key: True, (), FormatError)
        assert entries == {"set closed lo": "[0,1]"}
