"""Check every benchmark call once against its stored fingerprint.

    python3 tools/check_fingerprints.py SEED...

For every workload of ``perfbench/workloads.py``, at full and smoke
shapes, and for each seed given (taken modulo the instance seeds, as
``perfbench/run.py`` takes it), this writes the calls' inputs and runs
one cycle of them with ``harness.run_cycle``, which checks each call
against ``perfbench/fingerprints.jsonl`` as the benchmark does.  It prints
one ``FAIL`` line per problem and a summary line, and exits 1 if any call
is incorrect.

No call is repeated and no warm-up or timing loop runs, so all 32 instance
seeds run in a few minutes.  The package and the workloads are imported
from the checkout that holds this file, ``GWEAVE_BUDGET`` is ignored as
the benchmark ignores it, and nothing is written outside a temporary
directory.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ.pop("GWEAVE_BUDGET", None)

import harness  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/check_fingerprints.py SEED...", file=sys.stderr)
        return 2
    seeds = [int(s) % workloads.INSTANCE_SEEDS for s in argv]
    calls = incorrect = 0
    with tempfile.TemporaryDirectory(prefix="check-fingerprints-") as work:
        work = Path(work)
        report_path = work / "report.json"
        for name in workloads.NAMES:
            for smoke in (False, True):
                key = harness.fingerprint_key(name, smoke)
                workload = workloads.workload(name, smoke)
                for seed in seeds:
                    expected = harness.load_fingerprints(key, seed)
                    inputs = harness.write_inputs(workload, seed, work / f"inputs-{calls}")
                    for record in harness.run_cycle(workload, inputs, seed, report_path, expected):
                        for problem in record.problems:
                            print(f"FAIL {key} seed {seed} {record.call}: {problem}", flush=True)
                        calls += 1
                        incorrect += bool(record.problems)
    print(f"{calls} calls, {incorrect} incorrect")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
