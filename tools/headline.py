"""Print the headline figure: the largest ``2**N`` that certifies in 10 s.

    python3 tools/headline.py

For ``N = 16, 18, ...`` and instance seeds 0-2 this times exhaustive
``certify_woven`` on ``generate(GenSpec(6, (1,) * N, "perturbed", seed))``
(``m = 2``, ``n = 6``, ``d_i = 1``) with the budget ``2**N``, three times
each, and prints the minimum wall time and the status.  One more,
untimed call per seed counts the matrices that each side's search tests
by Cholesky (:func:`search_counts`), printed after the time.  It stops
after the first ``N`` where a seed's minimum reaches 10 s, and prints the
largest ``N`` whose seeds all certified under 10 s.  The package is
imported from the checkout that holds this file.  Timings depend on the
host; compare two checkouts on one host, one after the other.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gweave import weaving  # noqa: E402
from gweave.generate import GenSpec, generate  # noqa: E402
from gweave.weaving import certify_woven  # noqa: E402

LIMIT_S, SEEDS, REPEATS, FIRST_N = 10.0, (0, 1, 2), 3, 16


def search_counts(fam) -> tuple[int, int]:
    """The matrices that the lower and the upper search test by Cholesky in
    one exhaustive ``certify_woven(fam)`` call.  ``weaving._factors`` is
    wrapped to count them and ``weaving._search_side`` to tell the side;
    both names are restored afterwards."""
    factors, search_side = weaving._factors, weaving._search_side
    counts, side = {True: 0, False: 0}, [None]

    def counting_factors(a):
        counts[side[0]] += len(a)
        return factors(a)

    def sided_search(grams, envelopes, lower):
        side[0] = lower
        return search_side(grams, envelopes, lower)

    weaving._factors, weaving._search_side = counting_factors, sided_search
    try:
        certify_woven(fam, budget=fam.m**fam.n_indices)
    finally:
        weaving._factors, weaving._search_side = factors, search_side
    return counts[True], counts[False]


def best_time(big_n: int, seed: int) -> tuple[float, str, tuple[int, int]]:
    """The minimum wall time of ``REPEATS`` calls, the status, and the
    :func:`search_counts` of one more call."""
    fam = generate(GenSpec(6, (1,) * big_n, "perturbed", seed))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        status = certify_woven(fam, budget=2**big_n).status
        times.append(time.perf_counter() - start)
    return min(times), status, search_counts(fam)


def main() -> int:
    largest, big_n = None, FIRST_N
    while True:
        within = True
        for seed in SEEDS:
            seconds, status, (lower, upper) = best_time(big_n, seed)
            print(f"2**{big_n}  seed {seed}  {seconds:8.3f} s  {status}  "
                  f"tested: lower {lower}, upper {upper}", flush=True)
            within = within and seconds < LIMIT_S
        if not within:
            break
        largest, big_n = big_n, big_n + 2
    print(f"largest 2**N under {LIMIT_S:g} s at n = 6: "
          + ("none" if largest is None else f"2**{largest}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
