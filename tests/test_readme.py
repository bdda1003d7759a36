"""README's fenced examples of a process spec and of an experiment config
parse with the readers that the command line uses, so the documented keys
and formats cannot drift from them."""

import re
from pathlib import Path

from stepargmin.cpoisson import spec_from_text
from stepargmin.experiments import parse_verification_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _example(first_key):
    """The one fenced block of README whose first line sets `first_key`."""
    # fences alternate open and close, so every other piece is a block
    blocks = re.split(r"^```.*$", README.read_text(), flags=re.M)[1::2]
    (text,) = [b for b in blocks if b.startswith(f"\n{first_key} = ")]
    return text


def test_spec_example():
    spec = spec_from_text(_example("rate_right"))
    assert spec_from_text(spec.to_text()) == spec


def test_config_example():
    config = parse_verification_config(_example("master_seed"))
    assert config.closed_sets and config.open_sets
