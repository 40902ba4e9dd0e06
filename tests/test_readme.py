"""The README's examples run as written: the JSON examples pass the tables
they illustrate (the ``--pipeline`` descriptor through
``normalize_descriptor`` and the ``simulate --config`` block through
``SimConfig.from_dict``), and the library quick start runs at toy size."""

import contextlib
import io
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


# the quick start's full-scale sizes, and the toy sizes the test runs it at
QUICK_START_SIZES = {"shots_per_state=4000": "shots_per_state=60", '"epochs": 100': '"epochs": 1'}


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    for full, toy in QUICK_START_SIZES.items():
        assert block.count(full) == 1, full
        block = block.replace(full, toy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue()
    assert printed.startswith("classifier")
    assert re.search(r"^gap [+-][0-9.]+ \+/- [0-9.]+ \(paired stderr\)$", printed, re.M)
    assert "'primary_only_transition_fraction':" in printed
