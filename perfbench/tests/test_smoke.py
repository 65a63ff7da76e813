"""Smoke tests of the benchmark: every workload at tiny shapes (N <= 8).

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They are not part of the package's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gweave.cli  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _run(name, tmp_path, trace=0, seed=7):
    return harness.run(name, seed, 0, trace, True, tmp_path, nproc=1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(name, tmp_path):
    result, details = _run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.workload(name, True).calls)
    assert set(result["metrics"]) == set(harness.metric_units(0))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["failed_frac"] == 0
    assert (tmp_path / f"result-smoke-{name}-seed7-trace0.json").exists()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    original = gweave.cli.main
    result, details = _run(name, tmp_path, trace=1)
    assert gweave.cli.main is original
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(harness.metric_units(1))
    assert metrics["cli.main.self_s"] > 0 and metrics["fileio.load.calls"] == 5
    if name.startswith("weave"):
        assert metrics["np_linalg.eigvalsh.calls"] > 0
        assert metrics["weaving.certify_woven.items"] > 0
    if name == "weave-exhaustive":
        assert metrics["weaving.items_per_spectrum"] == 1.0
    if name == "certify-k":
        assert metrics["perturb.minimal_k.self_s"] > 0 and metrics["np_linalg.eigh.calls"] > 0
    if name == "riesz-pair":
        assert metrics["np_linalg.svd.calls"] > 0 and metrics["gframe.frame_bounds.calls"] > 0
    spans = json.loads((tmp_path / f"spans-smoke-{name}-seed7-trace1.json").read_text())
    assert {span[0] for span in spans} >= {"cli.main"}


def test_tampered_bound_counts_as_failure(tmp_path, monkeypatch):
    honest = gweave.cli.certify_woven

    def tampered(*args, **kwargs):
        report = honest(*args, **kwargs)
        return dataclasses.replace(report, universal_upper=report.universal_upper * (1 + 1e-9))

    monkeypatch.setattr(gweave.cli, "certify_woven", tampered)
    result, details = _run("weave-exhaustive", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert details["failed_frac"] > 0


def test_differences_are_relative_for_floats_and_exact_otherwise():
    assert harness.differences(2.0, 2.0 * (1 + 1e-13)) == []
    assert harness.differences(2.0, 2.0 * (1 + 1e-9))
    assert harness.differences({"w": [1, 2]}, {"w": [1, 3]})
    assert harness.differences(True, 1)
    assert harness.differences(0.0, 1e-300)


def test_rounding_residue_next_to_a_large_bound_counts_as_zero():
    stored = {"universal_lower": 1.08e-69, "universal_upper": 4.5}
    assert harness.differences(stored, {"universal_lower": 3e-17, "universal_upper": 4.5}) == []
    assert harness.differences(stored, {"universal_lower": 0.0, "universal_upper": 4.5}) == []
    assert harness.differences(stored, {"universal_lower": 1e-11, "universal_upper": 4.5})
    counted = {"universal_lower": 1e-9, "partitions_checked": 65536}
    assert harness.differences(counted, {"universal_lower": 0.0, "partitions_checked": 65536})


def test_not_woven_witness_is_checked_as_a_counterexample():
    name = "riesz-reversed-n6"
    workload = workloads.workload("weave-exhaustive", True)
    call = next(c for c in workload.calls if c.name == name)
    family = call.build(0)
    members = call.members(family, 0)
    stored = harness.load_fingerprints("smoke/weave-exhaustive", 0)[name]["report"]
    assert stored["report"]["status"] == "not-woven"
    assert harness.differences(stored, stored, members=members) == []
    # Block i of the reversed copy is block 7 - i of the basis: index 2
    # taken from the copy repeats basis block 5, another singular weaving.
    other = json.loads(json.dumps(stored))
    other["report"]["witness_lower"] = [1, 2, 1, 1, 1, 1]
    assert other["report"]["witness_lower"] != stored["report"]["witness_lower"]
    assert harness.differences(stored, other, members=members) == []
    woven = json.loads(json.dumps(stored))
    woven["report"]["witness_lower"] = [1] * 6
    assert harness.differences(stored, woven, members=members)
    malformed = json.loads(json.dumps(stored))
    malformed["report"]["witness_lower"] = [1, 2, 3, 1, 1, 1]
    assert harness.differences(stored, malformed, members=members)


def test_benchmark_json_names_every_workload():
    spec = json.loads(harness.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_scaled_seconds_follow_the_host_speed_probe(tmp_path):
    for kind, (_, reference) in hostspeed.PROBES.items():
        assert hostspeed.scale(kind, reference, reference) == 1.0
        assert hostspeed.scale(kind, 2 * reference, 2 * reference) == 0.5
        assert hostspeed.probe(kind) > 0
    assert {workloads.workload(name).probe for name in workloads.NAMES} == set(hostspeed.PROBES)
    result, details = _run("certify-k", tmp_path)
    assert set(details["wall_metrics"]) == set(result["metrics"])
    low, high = details["host_speed_scale"]["min"], details["host_speed_scale"]["max"]
    for _, scaled, wall in details["call_s"]:
        assert low * (1 - 1e-12) <= scaled / wall <= high * (1 + 1e-12)
