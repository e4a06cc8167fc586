"""Property tests of scenario validation: every bad input is refused with its
JSON path and CLI exit code 2, before any pipeline runs."""

import copy
import json
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdv5half.cli import main
from kdv5half.scenarios import _CHECKS, Scenario, ScenarioError, run_scenario

BASE = {
    "name": "prop",
    "pipeline": "linear-only",
    "seed": 3,
    "grids": {
        "x": {"origin": -10.0, "step": 20.0 / 64, "count": 64},
        "t": {"origin": -1.0, "step": 2.0 / 64, "count": 64},
    },
    "indices": {"s": 1.0, "b": 0.42, "bstar": 0.46, "alpha": 0.52},
    "data": {
        "g": {"profile": "gaussian", "amplitude": 0.05, "width": 2.0},
        "h1": {"profile": "bump", "t0": 0.1, "t1": 0.2, "t2": 0.4, "t3": 0.5},
    },
    "probe": {"ensemble": 2, "mode": "gain"},
    "emit": {"field_csv": False},
    "checks": {"group_isometry": 1e-12},
}

# Every key the schema accepts somewhere; a drawn key outside this set is
# unknown wherever it is inserted.
SCHEMA_KEYS = {
    "name", "pipeline", "grids", "indices", "checks", "seed", "T", "depth", "data",
    "probe", "emit", "x", "t", "origin", "step", "count", "s", "b", "bstar", "alpha",
    "a", "g", "h1", "h2", "h3", "manufactured", "profile", "amplitude", "center",
    "width", "extension", "band_fraction", "t0", "t1", "t2", "t3", "ensemble", "mode",
    "band_x", "band_t", "field_csv", "horizon", "taper_start",
}


def object_paths(node, path=()):
    """Key paths of every JSON object in the payload except `checks`, whose
    keys are check names rather than schema keys."""
    out = [path]
    for key, value in node.items():
        if isinstance(value, dict) and key != "checks":
            out.extend(object_paths(value, path + (key,)))
    return out


OBJECT_PATHS = object_paths(BASE)
names = st.text(string.ascii_letters + "_", min_size=1, max_size=12)
non_numbers = st.one_of(
    st.text(max_size=6),
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
LINEAR_CHECKS = {n for n, row in _CHECKS.items() if "linear-only" in row.pipelines}
OTHER_CHECKS = sorted(set(_CHECKS) - LINEAR_CHECKS)


def refused(payload, message_part: str) -> None:
    """run_scenario raises ScenarioError naming `message_part`; the CLI exits 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError) as info:
            run_scenario(path)
        assert message_part in str(info.value)
        assert main(["solve", str(path)]) == 2


def test_base_payload_is_valid():
    assert Scenario.from_payload(copy.deepcopy(BASE)).pipeline == "linear-only"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(OBJECT_PATHS), names.filter(lambda k: k not in SCHEMA_KEYS))
def test_unknown_key_at_any_depth(path, key):
    payload = copy.deepcopy(BASE)
    node = payload
    for part in path:
        node = node[part]
    node[key] = 1.0
    json_path = ".".join(("scenario",) + path)
    refused(payload, f"{json_path}: unknown keys ['{key}']")


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(OTHER_CHECKS), names.filter(lambda k: k not in LINEAR_CHECKS)))
def test_unknown_check_name(name):
    payload = copy.deepcopy(BASE)
    payload["checks"][name] = 1e-30
    refused(payload, f"scenario.checks.{name}:")


@settings(max_examples=60, deadline=None)
@given(st.one_of(non_numbers.filter(lambda v: not isinstance(v, bool)), st.integers(), st.floats()))
@example("no")
@example("false")
@example(1)
def test_non_boolean_field_csv(value):
    # Each example used to write solution.csv and exit 0.
    payload = copy.deepcopy(BASE)
    payload["emit"] = {"field_csv": value}
    refused(payload, "scenario.emit.field_csv: expected true or false")
