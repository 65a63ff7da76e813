"""Print one sha256 per benchmark CLI call, to compare two checkouts.

    python3 tools/report_hashes.py SEED... > hashes.txt

For every workload of ``perfbench/workloads.py``, at full and smoke
shapes, and for each instance seed given, this writes the call's input
file, runs ``gweave.cli.main`` on it in this process and prints

    <workload> <full|smoke> <seed> <call> <sha256>

The hash covers the input file, the exit code (or the exception that
escaped ``main``), stdout, stderr and the bytes of the ``--json`` report.
The package and the workloads are imported from the checkout that holds
this file, so running the same command in two checkouts and comparing the
outputs with ``diff`` shows every call whose output changed.  Nothing is
written outside a temporary directory.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gweave.cli  # noqa: E402
from gweave.fileio import save_family, save_frame  # noqa: E402
from gweave.gframe import GFrame  # noqa: E402

import workloads  # noqa: E402


def call_hash(call, seed: int) -> str:
    """The sha256 of one call's input, exit code, stdout, stderr and report,
    with the files in the working directory, so that messages naming them
    read alike in every checkout."""
    made = call.build(seed)
    path, report = Path("input.json"), Path("report.json")
    (save_frame if isinstance(made, GFrame) else save_family)(made, path)
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = repr(gweave.cli.main(
                [call.command, str(path), *call.args(seed), "--json", str(report)]))
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256()
    for part in (path.read_bytes(), code.encode(), out.getvalue().encode(),
                 err.getvalue().encode(), report.read_bytes() if report.exists() else b""):
        # Length-prefixed, so no two different outputs hash alike by shifting bytes.
        digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/report_hashes.py SEED...", file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv]
    with tempfile.TemporaryDirectory(prefix="report-hashes-") as work:
        os.chdir(work)
        for name in workloads.NAMES:
            for smoke in (False, True):
                workload = workloads.workload(name, smoke)
                for seed in seeds:
                    for call in workload.calls:
                        digest = call_hash(call, seed)
                        size = "smoke" if smoke else "full"
                        print(f"{name} {size} {seed} {call.name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
