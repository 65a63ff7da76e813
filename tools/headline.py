"""Print the headline figure: the largest ``2**N`` that certifies in 10 s.

    python3 tools/headline.py

For ``N = 16, 18, ...`` and instance seeds 0-2 this times exhaustive
``certify_woven`` on ``generate(GenSpec(6, (1,) * N, "perturbed", seed))``
(``m = 2``, ``n = 6``, ``d_i = 1``) with the budget ``2**N``, three times
each, and prints the minimum wall time and the status.  It stops after the
first ``N`` where a seed's minimum reaches 10 s, and prints the largest
``N`` whose seeds all certified under 10 s.  The package is imported from
the checkout that holds this file.  Timings depend on the host; compare
two checkouts on one host, one after the other.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gweave.generate import GenSpec, generate  # noqa: E402
from gweave.weaving import certify_woven  # noqa: E402

LIMIT_S, SEEDS, REPEATS, FIRST_N = 10.0, (0, 1, 2), 3, 16


def best_time(big_n: int, seed: int) -> tuple[float, str]:
    """The minimum wall time of ``REPEATS`` calls, and the status."""
    fam = generate(GenSpec(6, (1,) * big_n, "perturbed", seed))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        status = certify_woven(fam, budget=2**big_n).status
        times.append(time.perf_counter() - start)
    return min(times), status


def main() -> int:
    largest, big_n = None, FIRST_N
    while True:
        within = True
        for seed in SEEDS:
            seconds, status = best_time(big_n, seed)
            print(f"2**{big_n}  seed {seed}  {seconds:8.3f} s  {status}", flush=True)
            within = within and seconds < LIMIT_S
        if not within:
            break
        largest, big_n = big_n, big_n + 2
    print(f"largest 2**N under {LIMIT_S:g} s at n = 6: "
          + ("none" if largest is None else f"2**{largest}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
