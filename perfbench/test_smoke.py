"""Smoke test: every workload, at a tiny size, reports every metric and fails nothing."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _execute(workload, trace, min_requests):
    result, _ = run.execute(workload, seed=7, seconds=0.1, trace=trace, root=ROOT,
                            min_requests=min_requests, setup_repeats=1)
    return result


@pytest.mark.parametrize("workload", NAMES)
def test_one_cycle_end_to_end(workload):
    # one full cycle of slots, so every request shape and oracle runs once
    slots = len(workloads.WORKLOADS[workload].slots)
    result = _execute(workload, False, slots)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= slots
    assert result["fail_rate"] == 0, result["failures"]


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer(workload):
    result = _execute(workload, True, 3)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert result["fail_rate"] == 0, result["failures"]
