"""Run the benchmark on a parent and a change checkout in alternating pairs,
and write a ``BENCH_<pr>.json`` of the results.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH.json \\
        --pairs riesz-pair:2900-2909 --pairs certify-k:2910-2914 \\
        [--trace riesz-pair:2920] [--what TEXT] [--note TEXT]

``PARENT`` and ``CHANGE`` are two checkouts of the repository, each with
its own ``perfbench/`` and ``src/``.  For each ``--pairs WORKLOAD:FIRST-LAST``
and each seed in that range, this runs ``perfbench/run.py --workload
WORKLOAD --seed SEED --seconds S --trace 0`` once in each checkout, one
after the other, with ``S`` the ``run_seconds`` of the change's
``BENCHMARK.json``.  The side that goes first alternates from pair to
pair, the parent first in the first pair of each workload.  ``--trace
WORKLOAD:SEED`` adds one ``--trace 1`` run per side, whose per-layer
metrics are stored beside the pairs.

``PARENT`` must be a git checkout: if ``git rev-parse HEAD`` fails there,
the tool exits 2 before any run, naming the directory.

The output holds what was compared, the parent's commit, the command and
the protocol; per workload the seeds, which side went first, every run's
correctness and failed calls, and per end-to-end metric of
``BENCHMARK.json`` (read from the change checkout) every run's value, the
medians, quartiles and IQR of each side, the ratio of the medians, the
quartiles of the per-pair ratios change/parent, the pairs the change won
and lost, and whether the change stays within the metric's bound; per
benchmark call the median over runs of each run's median seconds; and
the host, Python, numpy and BLAS of the first run.  Quartiles are numpy's
linear percentiles.  Runs are sequential, one process at a time, so a
host with two processors is enough.

A run that exits non-zero ends its workload's pairs.  It is listed with
its side, seed, exit code and the last lines of its stderr, beside any run
already made in its pair; the summaries cover the completed pairs, the
other workloads still run, the file is still written, and the exit code
is 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

COMMAND = "python3 perfbench/run.py --workload <name> --seed <seed> --seconds {seconds:g} --trace 0"
PROTOCOL = (
    "Pairs of runs with the same seed, parent and change each from its own copy of "
    "the tree; the first side alternates from pair to pair, the parent first in the "
    "first pair of each workload. Values are the last stdout line of each run. Times "
    "are perfbench's scaled seconds. Quartiles are numpy's linear percentiles. "
    "pair_ratio: the quartiles of change/parent within each pair, which share a "
    "seed, so instance-to-instance spread cancels out of them. "
    "change_worse_by is change/parent - 1 for a lower-is-better metric and 1 - "
    "change/parent otherwise; within_bound: change_worse_by <= bound. "
    "change_iqr_within_bound: the change's interquartile range is at most the "
    "metric's bound times the parent's median. gain_exceeds_parent_iqr: the medians "
    "differ in the change's favour by more than the parent's interquartile range. "
    "Every run made is listed."
)
SIDES = ("parent", "change")
STDERR_LINES = 20


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """``(result, details)``: the last two stdout lines of one benchmark run;
    ``(None, failure)`` if the run exits non-zero, ``failure`` its exit code
    and the last lines of its stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None, {"exit_code": proc.returncode,
                      "stderr_tail": proc.stderr.splitlines()[-STDERR_LINES:]}
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(details)["details"]


def parse_range(spec: str) -> tuple[str, list[int]]:
    """``'riesz-pair:10-19'`` -> ``('riesz-pair', [10, ..., 19])``; a single
    seed may stand alone."""
    workload, _, seeds = spec.rpartition(":")
    first, _, last = seeds.partition("-")
    if not workload:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST-LAST, got {spec!r}")
    return workload, list(range(int(first), int(last or first) + 1))


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "runs": list(values)}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric's summary over the pairs."""
    p, c = quartiles(parent), quartiles(change)
    lower = metric["better"] == "lower"
    ratio = c["median"] / p["median"]
    worse_by = ratio - 1 if lower else 1 - ratio
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    losses = sum((b > a) if lower else (b < a) for a, b in zip(parent, change))
    gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": p, "change": c,
        "change_over_parent": ratio, "change_worse_by": worse_by,
        "pair_ratio": quartiles([b / a for a, b in zip(parent, change)]),
        "change_wins": wins, "change_losses": losses,
        "within_bound": worse_by <= metric["bound"],
        "change_iqr_within_bound": c["iqr"] <= metric["bound"] * p["median"],
        "gain_exceeds_parent_iqr": gain > p["iqr"],
    }


def per_call(details: dict) -> dict:
    """Per benchmark call, the median over runs of each run's median
    seconds, and the least and largest of the change's run medians."""
    out = {}
    for call in details["change"][0]["call_median_s"]:
        medians = {side: [d["call_median_s"][call] for d in details[side]] for side in SIDES}
        parent, change = (float(np.median(medians[side])) for side in SIDES)
        out[call] = {"parent": parent, "change": change, "change_over_parent": change / parent,
                     "change_range": [min(medians["change"]), max(medians["change"])]}
    return out


def bench_workload(checkouts: dict, workload: str, seeds: list[int], seconds: float,
                   metrics: list[dict]) -> dict:
    """The workload's pairs.  A run that exits non-zero ends the workload:
    it is listed under ``failed_run``, a run already made in its pair under
    ``unpaired_run``, and the summaries cover the completed pairs."""
    results = {side: [] for side in SIDES}
    details = {side: [] for side in SIDES}
    first, failure = [], None
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            result, detail = run_once(checkouts[side], workload, seed, seconds, 0)
            if result is None:
                failure = {"side": side, "workload": workload, "seed": seed, **detail}
                print(f"{workload} seed {seed} {side}: exit code {detail['exit_code']}",
                      file=sys.stderr, flush=True)
                break
            results[side].append(result)
            details[side].append(detail)
            print(f"{workload} seed {seed} {side}: "
                  + json.dumps({m: v["value"] for m, v in result["metrics"].items()}),
                  file=sys.stderr, flush=True)
        if failure:
            break
        first.append(order[0])
    pairs = len(first)
    out = {"pairs": pairs, "seeds": seeds[:pairs], "first_side": first}
    if failure:
        out["failed_run"] = failure
        out["unpaired_run"] = [
            {"side": side, "seed": failure["seed"], "result": results[side][pairs]}
            for side in SIDES if len(results[side]) > pairs
        ]
    results = {side: results[side][:pairs] for side in SIDES}
    details = {side: details[side][:pairs] for side in SIDES}
    out["correct"] = {side: [r["correct"] for r in results[side]] for side in SIDES}
    out["failed"] = {side: [r["failed"] for r in results[side]] for side in SIDES}
    if pairs:
        out["metrics"] = {
            m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in results[side]]
                                    for side in SIDES))
            for m in metrics
        }
        out["per_call_median_s"] = per_call(details)
        out["environment"] = details["parent"][0]["environment"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=parse_range, action="append", required=True)
    parser.add_argument("--trace", type=parse_range, action="append", default=[])
    parser.add_argument("--what", default="")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commit = subprocess.run(["git", "-C", str(checkouts["parent"]), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    if commit.returncode != 0:
        parser.error(f"parent checkout {checkouts['parent']}: git rev-parse HEAD failed: "
                     + commit.stderr.strip())
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    out = {
        "what": args.what,
        "parent": commit.stdout.strip(),
        "command": COMMAND.format(seconds=seconds),
        "protocol": PROTOCOL,
        "notes": args.note,
        "host": {},
        "workloads": {},
    }
    failed = False
    for workload, seeds in args.pairs:
        if workload in out["workloads"]:
            parser.error(f"workload {workload} given twice")
        out["workloads"][workload] = bench_workload(checkouts, workload, seeds, seconds, metrics)
        failed |= "failed_run" in out["workloads"][workload]
        if "environment" in out["workloads"][workload]:
            out["host"] = {**out["workloads"][workload].pop("environment"),
                           "os": platform.platform()}
    for workload, seeds in args.trace:
        for seed in seeds:
            traced = {}
            for side in SIDES:
                result, detail = run_once(checkouts[side], workload, seed, seconds, 1)
                failed |= result is None
                traced[side] = (detail if result is None else
                                {m: v["value"] for m, v in result["metrics"].items()})
            out[f"traced_seed_{seed}_{workload.replace('-', '_')}"] = traced
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
