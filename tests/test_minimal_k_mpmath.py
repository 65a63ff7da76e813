"""``minimal_k`` against 50-digit arithmetic over every index subset.

The float oracles elsewhere round the way the library does.  Here every
``K(S)`` of every nonempty subset, pair and member is recomputed with
``mpmath`` at 50 significant digits from the exact float block entries, so
the checks below do not share the library's rounding:

* the largest subset constraint equals the largest singleton constraint;
* ``minimal_k`` reports it to 1e-12 relative, with the first-occurrence
  witness of the (subset code, pair, member) order;
* the first infeasible subset of an infeasible family is a singleton.
"""

from itertools import combinations

import mpmath
import numpy as np
import pytest

from gweave import GFrame, GFrameFamily, minimal_k

from _support import noisy_at, noisy_family, random_frame

# 50 digits, against float inputs whose kernels are exact: kernel energy of
# a feasible constraint sits near 1e-50 relative, far below this threshold,
# and every other eigenvalue here is far above it.
_DPS = 50
_EXACT_RTOL = mpmath.mpf("1e-30")


def _mp_gram(blocks) -> mpmath.matrix:
    """Sum of ``b* b`` over float blocks, from their exact entries."""
    n = blocks[0].shape[1]
    g = mpmath.zeros(n, n)
    for b in blocks:
        bm = mpmath.matrix(b.tolist())
        g += bm.H * bm
    return g


def _columns(v: mpmath.matrix, cols, scales=None) -> mpmath.matrix:
    out = mpmath.zeros(v.rows, len(cols))
    for c, k in enumerate(cols):
        s = 1 if scales is None else scales[c]
        for r in range(v.rows):
            out[r, c] = v[r, k] * s
    return out


def _top(a: mpmath.matrix):
    return max(mpmath.re(x) for x in mpmath.eighe(a, eigvals_only=True))


def _mp_ratio(d: mpmath.matrix, m: mpmath.matrix):
    """``sup x*Dx / x*Mx`` off ``ker M``, or None when D has energy on ``ker M``."""
    w, v = mpmath.eighe(m)
    w = [mpmath.re(x) for x in w]
    w_max = max(w)
    keep = [k for k in range(len(w)) if w[k] > _EXACT_RTOL * w_max]
    ker = [k for k in range(len(w)) if k not in keep]
    if ker:
        v_ker = _columns(v, ker)
        if _top(v_ker.H * d * v_ker) > _EXACT_RTOL * max(_top(d), 0):
            return None
    if not keep:
        return mpmath.mpf(0)
    basis = _columns(v, keep, [1 / mpmath.sqrt(w[k]) for k in keep])
    return max(_top(basis.H * d * basis), mpmath.mpf(0))


def _subset_constraints(fam):
    """``(subset, pair, member, K or None)`` in (subset code, pair, member) order.

    Call at ``_DPS`` digits of working precision.
    """
    big_n, m = fam.n_indices, fam.m
    pairs = [(j, l) for j in range(m) for l in range(j + 1, m)]
    subsets = sorted(
        (s for size in range(1, big_n + 1) for s in combinations(range(big_n), size)),
        key=lambda s: sum(2**i for i in s),
    )
    for subset in subsets:
        for j, l in pairs:
            d = _mp_gram([
                fam.frames[j].blocks[i] - fam.frames[l].blocks[i] for i in subset
            ])
            for member in (j, l):
                m_sum = _mp_gram([fam.frames[member].blocks[i] for i in subset])
                yield subset, (j, l), member, _mp_ratio(d, m_sum)


def _thin(seed, n, big_n, m=2, spread=0, c_log=0.1) -> GFrameFamily:
    """Rank-one blocks, member ``j`` scaling block ``i`` by ``c_ji``.

    Rows have small integer entries times ``2**k`` (``|k| <= spread``) and
    scales are multiples of 1/16, so every scaled block is exact and
    ``D_i = |c_ji - c_li|^2 / c_ji^2 M_ji`` holds exactly: the family is
    feasible in exact arithmetic, and every subset smaller than ``n`` has a
    kernel.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(-8, 9, (big_n, 1, n)) + 1j * rng.integers(-8, 9, (big_n, 1, n))
    rows = rows * 2.0 ** rng.integers(-spread, spread + 1, (big_n, 1, 1))
    scales = [np.ones(big_n)] + [
        np.round(16 * np.exp(rng.uniform(-c_log, c_log, big_n))) / 16 for _ in range(m - 1)
    ]
    return GFrameFamily(tuple(
        GFrame(n, tuple(c * r for c, r in zip(member, rows))) for member in scales
    ))


FEASIBLE = {
    "full-rank": lambda: noisy_family(3, (3,) * 6, 2, seed=6, noise=1e-2),
    "full-rank-m3": lambda: noisy_family(2, (2,) * 5, 3, seed=2, noise=1e-2),
    "thin": lambda: _thin(7, 3, 6),
    # Rows spread over 2**-2 .. 2**2 and scales over e^-3 .. e^3: subset sums
    # cancel badly, and the 2**N float sweep overshot K by 8e-8 relative.
    "thin-ill-conditioned": lambda: _thin(73, 4, 6, spread=2, c_log=3.0),
    # Wider still: the 2**N float sweep called this feasible family infeasible.
    "thin-wide-spread": lambda: _thin(90, 4, 6, spread=3, c_log=3.0),
    "thin-m3": lambda: _thin(11, 2, 5, m=3, c_log=0.2),
}


@pytest.mark.parametrize("name", sorted(FEASIBLE))
@mpmath.workdps(_DPS)
def test_k_is_the_largest_singleton_constraint(name):
    fam = FEASIBLE[name]()
    constraints = list(_subset_constraints(fam))
    assert all(k is not None for *_, k in constraints)
    k_all = max(k for *_, k in constraints)
    k_single = max(k for subset, _, _, k in constraints if len(subset) == 1)
    assert k_single > 0
    assert k_all - k_single <= _EXACT_RTOL * k_single
    # First occurrence of the maximum, up to the 50-digit rounding.
    subset, pair, _, _ = next(
        c for c in constraints if c[3] >= k_single * (1 - _EXACT_RTOL)
    )
    assert len(subset) == 1

    cert = minimal_k(fam)
    assert cert.feasible
    assert abs(cert.k - float(k_single)) <= 1e-12 * float(k_single)
    assert cert.worst_subset == tuple(i + 1 for i in subset)
    assert cert.worst_pair == (pair[0] + 1, pair[1] + 1)


INFEASIBLE = {
    # Only block 4 differs: subsets {1}..{1,2,3} carry no difference.
    "one-block-differs": lambda: noisy_at(random_frame(3, (1,) * 6, seed=4), 3, seed=4, noise=0.05),
    "thin-noise-m3": lambda: noisy_family(2, (1,) * 5, 3, seed=5, noise=0.02),
}


@pytest.mark.parametrize("name", sorted(INFEASIBLE))
@mpmath.workdps(_DPS)
def test_first_infeasible_subset_is_a_singleton(name):
    fam = INFEASIBLE[name]()
    subset, pair, _, _ = next(c for c in _subset_constraints(fam) if c[3] is None)
    assert len(subset) == 1

    cert = minimal_k(fam)
    assert not cert.feasible and cert.k is None
    assert cert.worst_subset == (subset[0] + 1,)
    assert cert.worst_pair == (pair[0] + 1, pair[1] + 1)
