"""Print the headline figures: the largest ``2**N`` and ``3**N`` that
certify in 10 s.

    python3 tools/headline.py

For ``N = 16, 18, ...`` and instance seeds 0-2 this times exhaustive
``certify_woven`` on ``generate(GenSpec(6, (1,) * N, "perturbed", seed))``
(``m = 2``, ``n = 6``, ``d_i = 1``) with the budget ``2**N``, three times
each, and prints the minimum wall time and the status.  One more,
untimed call per seed counts the matrices that each side's search tests
by Cholesky (:func:`search_counts`), printed after the time.  It stops
after the first ``N`` where a seed's minimum reaches 10 s, and prints the
largest ``N`` whose seeds all certified under 10 s.  Then it does the
same for ``3**N``, ``N = 10, 11, ...``, on that pair and a third member
(:func:`family`).  The package is imported from the checkout that holds
this file.  Timings depend on the host; compare two checkouts on one
host, one after the other.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gweave import weaving  # noqa: E402
from gweave.generate import GenSpec, generate  # noqa: E402
from gweave.gframe import GFrame  # noqa: E402
from gweave.weaving import GFrameFamily, certify_woven  # noqa: E402

LIMIT_S, SEEDS, REPEATS = 10.0, (0, 1, 2), 3
# (m, first N, step of N) of each headline line
SWEEPS = ((2, 16, 2), (3, 10, 1))


def family(m: int, big_n: int, seed: int) -> GFrameFamily:
    """The headline family of ``m = 2`` or ``3`` members at ``n = 6``,
    ``d_i = 1``: the perturbed pair of ``seed``, and for ``m = 3`` a third
    member, the pair's base plus complex Gaussian noise of the pair's
    scale drawn from ``default_rng(seed)``."""
    spec = GenSpec(6, (1,) * big_n, "perturbed", seed)
    pair = generate(spec)
    if m == 2:
        return pair
    rng = np.random.default_rng(seed)
    third = GFrame(6, tuple(
        b + spec.noise_scale * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
        / np.sqrt(2.0)
        for b in pair.frames[0].blocks
    ))
    return GFrameFamily((*pair.frames, third), allow_degenerate=True)


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


def best_time(m: int, big_n: int, seed: int) -> tuple[float, str, tuple[int, int]]:
    """The minimum wall time of ``REPEATS`` calls on ``family(m, big_n,
    seed)``, the status, and the :func:`search_counts` of one more call."""
    fam = family(m, big_n, seed)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        status = certify_woven(fam, budget=m**big_n).status
        times.append(time.perf_counter() - start)
    return min(times), status, search_counts(fam)


def main() -> int:
    for m, big_n, step in SWEEPS:
        largest = None
        while True:
            within = True
            for seed in SEEDS:
                seconds, status, (lower, upper) = best_time(m, big_n, seed)
                print(f"{m}**{big_n}  seed {seed}  {seconds:8.3f} s  {status}  "
                      f"tested: lower {lower}, upper {upper}", flush=True)
                within = within and seconds < LIMIT_S
            if not within:
                break
            largest, big_n = big_n, big_n + step
        print(f"largest {m}**N under {LIMIT_S:g} s at n = 6: "
              + ("none" if largest is None else f"{m}**{largest}"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
