"""The JSON examples in README.md pass the tables they illustrate: the
``--pipeline`` descriptor through ``normalize_descriptor`` and the
``simulate --config`` block through ``SimConfig.from_dict``."""

import json
import re
from pathlib import Path

import pytest

from readoutkit import SimConfig
from readoutkit.pipeline import normalize_descriptor

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]


def _kind(example) -> str:
    return "descriptor" if "stages" in example else "config"


def test_readme_has_a_descriptor_and_a_config_example():
    assert sorted(map(_kind, EXAMPLES)) == ["config", "descriptor"]


@pytest.mark.parametrize("example", EXAMPLES, ids=_kind)
def test_readme_json_example_is_accepted(example):
    if _kind(example) == "descriptor":
        assert normalize_descriptor(example)["stages"] == example["stages"]
    else:
        assert SimConfig.from_dict(example).to_dict().items() >= example.items()
