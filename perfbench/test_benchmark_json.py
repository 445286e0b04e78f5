"""``BENCHMARK.json`` stays within the limits its readers enforce."""

import json
import re
from pathlib import Path

import pytest

from workloads import WORKLOADS

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads(SPEC.read_text())


def test_top_level_keys_and_command(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][0] == "python3"
    assert all(not arg.startswith("/") and ".." not in arg for arg in spec["command"])
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert SPEC.stat().st_size <= 64 * 1024


def test_workloads_are_ones_the_runner_knows(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert len(names) >= 2 and set(names) <= set(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_are_well_formed_and_unique(spec):
    seen = set()
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            keys = {"name", "unit", "better"} | ({"bound"} if kind == "end_to_end" else set())
            assert set(metric) == keys
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
            assert metric["better"] in ("lower", "higher")
            assert metric["name"] not in seen
            seen.add(metric["name"])


def test_setup_time_has_the_largest_bound(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
