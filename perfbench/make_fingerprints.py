"""Record the fingerprint of every benchmark call at the current commit.

Run from the repository root, only at a commit whose results are trusted:

    python3 perfbench/make_fingerprints.py

For every workload, at full and smoke shapes, and for every instance seed,
this writes the inputs, makes each call once and stores its exit code and
JSON report.  ``fingerprints.jsonl`` is rewritten as a whole.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.prepare()
    import harness
    import workloads

    entries = []
    out_dir = run.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        for smoke in (False, True):
            workload = workloads.workload(name, smoke)
            key = harness.fingerprint_key(name, smoke)
            for s in range(workloads.INSTANCE_SEEDS):
                with tempfile.TemporaryDirectory(prefix="fingerprints-", dir=out_dir) as work:
                    directory = Path(work)
                    inputs = harness.write_inputs(workload, s, directory / "inputs")
                    for call, given in zip(workload.calls, inputs):
                        code, report, error = harness.invoke(
                            call, given.path, s, directory / "report.json")
                        if error is not None:
                            raise RuntimeError(f"{key} seed {s} {call.name}: {error}")
                        entry = {"workload": key, "seed": s, "call": call.name}
                        entry.update(harness.fingerprint(code, report))
                        entries.append(json.dumps(entry, sort_keys=True) + "\n")
            print(f"{key}: {workloads.INSTANCE_SEEDS} instance seeds", file=sys.stderr)
    harness.FINGERPRINTS.write_text("".join(sorted(entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
