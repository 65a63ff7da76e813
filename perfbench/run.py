"""gweave benchmark: run one workload and print one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload weave-exhaustive --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracing.py``).  The last
line of standard output is the result; the line before it holds the run's
details and environment, which are also written with the spans of a traced
run under ``.perfbench_out/`` in the repository root.  The package is
imported from ``src/`` of the same checkout; without it the benchmark
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> int:
    """Pin the environment and put the checkout's sources first on the path.

    BLAS threads are capped at the number of usable processors; this takes
    effect only before numpy is first imported.  ``GWEAVE_BUDGET`` is
    removed so that the ambient environment cannot change a run.  Returns
    the processor count.
    """
    if not (SRC / "gweave" / "__init__.py").is_file():
        raise FileNotFoundError(f"gweave sources not found under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(nproc)
    os.environ.pop("GWEAVE_BUDGET", None)
    sys.path.insert(0, str(SRC))
    import gweave

    if Path(gweave.__file__).resolve().parent != SRC / "gweave":
        raise ImportError(f"gweave imported from {gweave.__file__}, not from {SRC}")
    return nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        nproc = prepare()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import harness
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    result, details = harness.run(
        args.workload, args.seed, args.seconds, args.trace, False,
        ROOT / ".perfbench_out", nproc,
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
