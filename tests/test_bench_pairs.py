"""``tools/bench_pairs.py`` on two stub checkouts whose benchmark prints a
result line, or exits non-zero for one seed.  The parent stub is a git
repository with one commit."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_RUN = '''import json, sys
open("runs.log", "a").write(" ".join(sys.argv[1:]) + "\\n")
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
if seed == {fail_seed}:
    print("stub failure at seed", seed, file=sys.stderr)
    sys.exit(3)
print(json.dumps({{"details": {{"call_median_s": {{"call": 0.01 * seed}},
                               "environment": {{"python": "stub"}}}}}}))
print(json.dumps({{"metrics": {{"items_per_s": {{"value": {rate} + seed}}}},
                  "correct": True, "failed": 0}}))
'''


def _checkout(root: Path, rate: float, fail_seed: int | None, git: bool = False) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_RUN.format(fail_seed=fail_seed, rate=rate))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
    }))
    if git:
        for command in (["init", "-q"],
                        ["-c", "user.name=stub", "-c", "user.email=stub@example.com",
                         "-c", "commit.gpgsign=false", "commit", "-q", "--allow-empty",
                         "-m", "stub"]):
            subprocess.run(["git", "-C", str(root), *command], check=True, capture_output=True)
    return root


def _run(tmp_path, fail_seed):
    parent = _checkout(tmp_path / "parent", 100.0, None, git=True)
    change = _checkout(tmp_path / "change", 110.0, fail_seed)
    out = tmp_path / "bench.json"
    code = bench_pairs.main([str(parent), str(change), "--out", str(out),
                             "--pairs", "w1:5-8", "--pairs", "w2:1-2"])
    return code, json.loads(out.read_text())


def test_all_runs_pass(tmp_path):
    code, out = _run(tmp_path, fail_seed=None)
    assert code == 0
    head = subprocess.run(["git", "-C", str(tmp_path / "parent"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert out["parent"] == head
    w1 = out["workloads"]["w1"]
    assert w1["pairs"] == 4 and w1["seeds"] == [5, 6, 7, 8]
    assert w1["first_side"] == ["parent", "change"] * 2
    assert "failed_run" not in w1
    assert w1["metrics"]["items_per_s"]["change"]["runs"] == [115.0, 116.0, 117.0, 118.0]
    assert w1["metrics"]["items_per_s"]["change_wins"] == 4
    # Each pair shares a seed: change 110 + seed over parent 100 + seed.
    ratio = w1["metrics"]["items_per_s"]["pair_ratio"]
    assert ratio["runs"] == [115 / 105, 116 / 106, 117 / 107, 118 / 108]
    assert ratio["median"] == pytest.approx((116 / 106 + 117 / 107) / 2)
    assert ratio["q1"] < ratio["median"] < ratio["q3"]
    assert out["host"]["python"] == "stub"


@pytest.mark.parametrize(
    "fail_seed, pairs, unpaired", [(7, 2, ["parent"]), (6, 1, []), (5, 0, ["parent"])]
)
def test_failed_run_is_recorded(tmp_path, fail_seed, pairs, unpaired):
    # The parent goes first in pairs 0 and 2, the change in pair 1.
    code, out = _run(tmp_path, fail_seed)
    assert code == 1
    w1 = out["workloads"]["w1"]
    assert w1["pairs"] == pairs and w1["seeds"] == [5, 6, 7, 8][:pairs]
    failure = w1["failed_run"]
    assert (failure["side"], failure["workload"], failure["seed"]) == ("change", "w1", fail_seed)
    assert failure["exit_code"] == 3
    assert failure["stderr_tail"] == [f"stub failure at seed {fail_seed}"]
    assert [run["side"] for run in w1["unpaired_run"]] == unpaired
    assert all(run["seed"] == fail_seed for run in w1["unpaired_run"])
    assert ("metrics" in w1) == (pairs > 0)
    if pairs:
        assert len(w1["metrics"]["items_per_s"]["parent"]["runs"]) == pairs
    # The next workload still runs its pairs.
    assert out["workloads"]["w2"]["pairs"] == 2


# A parent that is not a git checkout used to be recorded by its path in
# the commit field; now nothing runs and nothing is written.
def test_parent_without_commit_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no repository above it
    parent = _checkout(tmp_path / "parent", 100.0, None)
    change = _checkout(tmp_path / "change", 110.0, None)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([str(parent), str(change), "--out", str(out), "--pairs", "w1:5-6"])
    assert stop.value.code == 2
    message = f"parent checkout {parent.resolve()}: git rev-parse HEAD failed"
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (parent / "runs.log").exists() and not (change / "runs.log").exists()
