"""Set-up, closed-loop call replay and correctness checks for one workload.

Every CLI call goes through ``gweave.cli.main([...])`` in this process and
writes its report with ``--json``.  The report and exit code are compared
with the fingerprint stored for the call: floats to a relative 1e-12, every
other value exactly, with two exceptions for values that only rounding
decides:

- a float at most 1e-12 times the largest float of its report section
  counts as 0, as the lower bound of an exactly singular weaving does;
- the lower witness of a not-woven result is any weaving that is a
  counterexample: many weavings are exactly singular, and which of them
  rounds lowest depends on the order of enumeration.  The witness is
  checked by recomputing its lower frame bound from the input's blocks.

The ``tool`` block (version, tolerances, echoed inputs) is not part of the
fingerprint.

Every time of the end-to-end metrics is in scaled seconds: wall seconds
scaled by the host speed that the workload's probe in ``hostspeed.py``
measures just before and just after the timed work.  The details line keeps
the wall-clock figures as well.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import gweave.cli
from gweave.fileio import save_family, save_frame
from gweave.gframe import GFrame

import hostspeed
import tracing
import workloads

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.jsonl"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RTOL = 1e-12
# gweave's default --frame-rtol, which every benchmark call uses: a weaving
# is a counterexample when its lower bound is at most this share of the
# upper bound.
FRAME_RTOL = 1e-10
# Bound before the traced run patches numpy.linalg, so that witness checks
# are not recorded as spans.
_eigvalsh = np.linalg.eigvalsh


@dataclass(frozen=True)
class Input:
    """A written input file and the g-frames its call weaves."""

    path: Path
    members: tuple[GFrame, ...]


@dataclass
class Record:
    call: str
    seconds: float  # scaled, see hostspeed.py
    wall_s: float
    items: int
    problems: list[str] = field(default_factory=list)


def fingerprint_key(workload: str, smoke: bool) -> str:
    return f"smoke/{workload}" if smoke else workload


def load_fingerprints(key: str, instance_seed: int) -> dict[str, dict]:
    """Stored fingerprints of one workload and instance seed, by call name."""
    found = {}
    with FINGERPRINTS.open() as lines:
        for line in lines:
            entry = json.loads(line)
            if entry["workload"] == key and entry["seed"] == instance_seed:
                found[entry["call"]] = {"exit": entry["exit"], "report": entry["report"]}
    return found


def fingerprint(code: int, report: dict | None) -> dict:
    body = None if report is None else {k: v for k, v in report.items() if k != "tool"}
    return {"exit": code, "report": body}


def witness_lower_bound(members, labels) -> float | None:
    """Lower frame bound of the weaving with 1-based ``labels``; None if malformed."""
    if not isinstance(labels, list) or len(labels) != members[0].n_blocks or not all(
        type(x) is int and 1 <= x <= len(members) for x in labels
    ):
        return None
    blocks = (members[x - 1].blocks[i] for i, x in enumerate(labels))
    return float(_eigvalsh(sum(b.conj().T @ b for b in blocks))[0])


def _floats(section: dict):
    """Magnitudes of the floats of one report section; counts and labels are ints."""
    for value in section.values():
        for x in value if isinstance(value, list) else (value,):
            if isinstance(x, float):
                yield abs(x)


def _not_woven_witness(section: dict) -> tuple[str, str] | None:
    """(witness key, upper bound key) of a not-woven result section."""
    if section.get("status") == "not-woven" or section.get("woven") is False:
        witness = "witness" if "witness" in section else "witness_lower"
        upper = "universal_upper" if "universal_upper" in section else "common_upper"
        if witness in section and upper in section:
            return witness, upper
    return None


def differences(expected, actual, path: str = "", members=None, floor: float = 0.0) -> list[str]:
    """Where ``actual`` departs from ``expected`` (see the module docstring).

    ``members`` are the g-frames the call weaves; without them the lower
    witness of a not-woven result is compared exactly.  ``floor`` is the
    magnitude at or below which a float counts as 0.
    """
    if isinstance(expected, float) or isinstance(actual, float):
        numbers = all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in (expected, actual)
        )
        if numbers:
            e, a = (0.0 if abs(x) <= floor else x for x in (expected, actual))
            if e == a or abs(e - a) <= RTOL * max(abs(e), abs(a)):
                return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        floor = RTOL * max(_floats(expected), default=0.0)
        keys = list(expected)
        found = []
        counterexample = _not_woven_witness(expected)
        if members is not None and counterexample is not None:
            witness, upper = counterexample
            keys.remove(witness)
            lower = witness_lower_bound(members, actual[witness])
            if lower is None or lower > FRAME_RTOL * expected[upper]:
                found.append(f"{path}.{witness}: {actual[witness]!r} is not a counterexample "
                             f"(lower bound {lower!r})")
        return found + [
            d for k in keys for d in differences(expected[k], actual[k], f"{path}.{k}", members, floor)
        ]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [
            d for i, (e, a) in enumerate(zip(expected, actual))
            for d in differences(e, a, f"{path}[{i}]", members, floor)
        ]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: expected {expected!r}, got {actual!r}"]


def invoke(call: workloads.Call, path: Path, instance_seed: int, report_path: Path):
    """Run one CLI call; returns (exit code, report, error)."""
    argv = [call.command, str(path), *call.args(instance_seed), "--json", str(report_path)]
    report_path.unlink(missing_ok=True)
    sink = io.StringIO()
    error = None
    code = None
    # The human-readable output is part of the CLI's work; it goes to a buffer.
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            code = gweave.cli.main(argv)
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text())
    if error is None and code != 0 and report is None:
        error = f"exit {code} without a report: {sink.getvalue().strip()[-300:]}"
    return code, report, error


def check(call, given: Input, instance_seed, report_path, expected, probe: str) -> Record:
    (code, report, error), wall, scaled = hostspeed.timed(
        probe, invoke, call, given.path, instance_seed, report_path)
    problems = []
    if error is not None:
        problems.append(error)
    if expected is None:
        problems.append("no stored fingerprint")
    else:
        got = fingerprint(code, report)
        if got["exit"] != expected["exit"]:
            problems.append(f"exit code {got['exit']}, expected {expected['exit']}")
        problems += differences(expected["report"], got["report"], "report", given.members)
    items = 0
    if report is not None:
        try:
            items = call.items(report)
        except (KeyError, TypeError) as exc:
            problems.append(f"no item count in report: {exc!r}")
    return Record(call.name, scaled, wall, items, problems)


def write_inputs(workload: workloads.Workload, instance_seed: int, directory: Path) -> list[Input]:
    directory.mkdir()
    inputs = []
    for call in workload.calls:
        made = call.build(instance_seed)
        path = directory / f"{call.name}.json"
        if isinstance(made, GFrame):
            save_frame(made, path)
        else:
            save_family(made, path)
        inputs.append(Input(path, call.members(made, instance_seed)))
    return inputs


def warm_up(workload, inputs, instance_seed, report_path) -> tuple[float, float]:
    """One untimed call per shape, so lazy set-up is done before timing.

    Returns the (wall, scaled) seconds of the calls.
    """
    wall = scaled = 0.0
    warmed = set()
    for call, given in zip(workload.calls, inputs):
        if call.shape not in warmed:
            warmed.add(call.shape)
            _, call_wall, call_scaled = hostspeed.timed(
                workload.probe, invoke, call, given.path, instance_seed, report_path)
            wall += call_wall
            scaled += call_scaled
    return wall, scaled


def run_cycle(workload, inputs, instance_seed, report_path, expected, tracer=None):
    records = []
    for call, given in zip(workload.calls, inputs):
        if tracer is not None:
            tracer.call_id += 1
        records.append(check(call, given, instance_seed, report_path,
                             expected.get(call.name), workload.probe))
    return records


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def environment(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "nproc": nproc,
    }


def run(name, seed, seconds, trace, smoke, out_dir: Path, nproc: int) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run details)."""
    workload = workloads.workload(name, smoke)
    instance_seed = seed % workloads.INSTANCE_SEEDS
    key = fingerprint_key(name, smoke)
    expected = load_fingerprints(key, instance_seed)
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as work:
        work = Path(work)
        report_path = work / "report.json"
        if trace:
            metrics, records, details = _traced(
                workload, instance_seed, seconds, work, report_path, expected)
        else:
            metrics, records, details = _timed(
                workload, instance_seed, seconds, work, report_path, expected)
    units = metric_units(trace)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from {SPEC.name}: {sorted(units)}")

    failed = sum(1 for r in records if r.problems)
    for r in records:
        for problem in r.problems:
            print(f"FAIL {key} seed {instance_seed} {r.call}: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details.update({
        "workload": name,
        "smoke": smoke,
        "seed": seed,
        "instance_seed": instance_seed,
        "trace": trace,
        "failed_frac": failed / len(records),
        "call_s": [[r.call, r.seconds, r.wall_s] for r in records],
        "call_median_s": {
            call.name: statistics.median(r.seconds for r in records if r.call == call.name)
            for call in workload.calls
        },
        "environment": environment(nproc),
    })
    stem = f"{'smoke-' if smoke else ''}{name}-seed{seed}-trace{trace}"
    if trace:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(details.pop("spans")) + "\n")
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n")
    return result, details


def metric_units(trace: int) -> dict[str, str]:
    """Units of the per-layer (traced) or end-to-end metrics, by name, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _end_to_end(records, write_s, warm_s) -> dict[str, float]:
    """End-to-end metrics from call times and set-up times, all in one kind of seconds."""
    times = [r.seconds for r in records]
    return {
        "setup_s": statistics.median(write_s) + warm_s,
        "items_per_s": sum(r.items for r in records) / sum(times),
        "call_p50_s": statistics.median(times),
        "call_tail_s": percentile(times, workloads.TAIL_PERCENTILE),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _timed(workload, instance_seed, seconds, work, report_path, expected):
    # Writing the inputs is repeated and its median taken; the warm-up calls
    # cost as much as a cycle of the workload, so they are made once.
    hostspeed.probe(workload.probe)  # the first probe pays numpy's lazy set-up
    writes = [
        hostspeed.timed(
            workload.probe, write_inputs, workload, instance_seed, work / f"setup-{rep}")
        for rep in range(workloads.SETUP_REPEATS)
    ]
    inputs = writes[-1][0]
    warm_wall, warm_s = warm_up(workload, inputs, instance_seed, report_path)
    records = []
    cycles = 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds or len(records) < workload.min_calls:
        records += run_cycle(workload, inputs, instance_seed, report_path, expected)
        cycles += 1
    metrics = _end_to_end(records, [w[2] for w in writes], warm_s)
    wall = [replace(r, seconds=r.wall_s) for r in records]
    scales = [r.seconds / r.wall_s for r in records]
    details = {
        "cycles": cycles,
        "calls": len(records),
        "tail_percentile": workloads.TAIL_PERCENTILE,
        "write_inputs_s": [w[2] for w in writes],
        "warm_up_s": warm_s,
        "wall_metrics": _end_to_end(wall, [w[1] for w in writes], warm_wall),
        "host_speed_scale": {"min": min(scales), "median": statistics.median(scales),
                             "max": max(scales)},
    }
    return metrics, records, details


def _traced(workload, instance_seed, seconds, work, report_path, expected):
    """An untraced pass, then a traced pass over the same number of cycles."""
    inputs = write_inputs(workload, instance_seed, work / "setup")
    warm_up(workload, inputs, instance_seed, report_path)
    records = []
    cycles = 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds / 2:
        records += run_cycle(workload, inputs, instance_seed, report_path, expected)
        cycles += 1
    untraced = perf_counter() - start
    tracer = tracing.Tracer()
    with tracer.installed():
        start = perf_counter()
        for _ in range(cycles):
            records += run_cycle(workload, inputs, instance_seed, report_path, expected, tracer)
        traced = perf_counter() - start
    metrics = tracing.layer_metrics(tracer.spans, cycles, traced - untraced)
    details = {"cycles": cycles, "untraced_s": untraced, "traced_s": traced,
               "spans": tracer.spans}
    return metrics, records, details
