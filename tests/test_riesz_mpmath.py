"""Riesz bounds of weavings against 50-digit arithmetic over every partition.

The reference loops in ``test_riesz.py`` take float SVDs, which round the
way the library does.  Here every partition's weaving synthesis matrix is
built from the exact float block entries and its singular values are
recomputed with ``mpmath.svd_c`` at 50 significant digits, for ``N <= 6``.

Accuracy stated and checked:

* ``common_upper``: 1e-12 relative;
* ``common_lower``: 1e-12 times ``common_upper``, absolute.  The smallest
  squared singular value is only accurate relative to ``||T||^2``;
* each witness attains its 50-digit extreme within the same tolerance;
* ``permutation_weave``: ``universal_upper`` 1e-12 relative, and
  ``span_lower_min``, the smallest live squared singular value over all
  partitions, 1e-12 times ``universal_upper``.  ``universal_lower`` is
  exactly 0 for ``pi != id``, where some weaving is singular at 50 digits.
"""

from itertools import product

import mpmath
import numpy as np
import pytest

from gweave import GFrame, GFrameFamily, generate, GenSpec, permutation_weave, weaving_riesz_check

from _support import onb_frame, riesz_pair, rotation

_DPS = 50
_RTOL = 1e-12


def _basis(dims, seed):
    return generate(GenSpec(sum(dims), dims, "riesz-basis", seed))


def _pair(dims, seed):
    return GFrameFamily((_basis(dims, seed), _basis(dims, seed + 100)))


FAMILIES = {
    "identical-onb": lambda: GFrameFamily((onb_frame(3), onb_frame(3))),
    "rotated-onb": lambda: GFrameFamily(
        (onb_frame(2), GFrame(2, (rotation(0.1)[0:1], rotation(0.1)[1:2])))
    ),
    **{f"riesz-pair-n{n}-{seed}": (lambda n=n, seed=seed: riesz_pair(n, seed))
       for n, seed in [(3, 0), (3, 1), (4, 2), (5, 0), (5, 3), (6, 1), (6, 2)]},
    "mixed-dims-213": lambda: _pair((2, 1, 3), 12),
    "mixed-dims-1212": lambda: _pair((1, 2, 1, 2), 5),
    "mixed-dims-3111": lambda: _pair((3, 1, 1, 1), 7),
    "two-dim-blocks": lambda: _pair((2, 2, 2), 3),
    # Two independent riesz-basis members at n = 6, as in the riesz-pair
    # benchmark's smoke shape; here common_lower / common_upper is 4.8e-6.
    "independent-n6": lambda: _pair((1,) * 6, 4),
}


def _mp_squared_singular_values(fam):
    """``{labels: ascending sigma^2}`` over all partitions, 1-based labels.

    Call at ``_DPS`` digits of working precision.
    """
    out = {}
    for labels in product((1, 2), repeat=fam.n_indices):
        t = np.hstack([fam.frames[l - 1].blocks[i].conj().T for i, l in enumerate(labels)])
        s = mpmath.svd_c(mpmath.matrix(t.tolist()), compute_uv=False)
        out[labels] = sorted(mpmath.re(x) ** 2 for x in s)
    return out


def _mp_squared_extremes(fam):
    """``{labels: (sigma_min^2, sigma_max^2)}`` over all partitions."""
    return {k: (v[0], v[-1]) for k, v in _mp_squared_singular_values(fam).items()}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@mpmath.workdps(_DPS)
def test_riesz_bounds_and_witnesses(name):
    fam = FAMILIES[name]()
    assert fam.n_indices <= 6
    extremes = _mp_squared_extremes(fam)
    low = min(lo for lo, _ in extremes.values())
    up = max(hi for _, hi in extremes.values())

    rep = weaving_riesz_check(fam)
    assert abs(rep.common_upper - float(up)) <= _RTOL * float(up)
    assert abs(rep.common_lower - float(low)) <= _RTOL * float(up)
    assert abs(float(extremes[rep.witness_upper.labels][1] - up)) <= _RTOL * float(up)
    assert abs(float(extremes[rep.witness_lower.labels][0] - low)) <= _RTOL * float(up)


PERMUTATIONS = {
    "onb-3-cycle": lambda: (onb_frame(3), (2, 3, 1)),
    "basis-n4-swap": lambda: (_basis((1,) * 4, 9), (2, 1, 3, 4)),
    "basis-n5-reversal": lambda: (_basis((1,) * 5, 1), (5, 4, 3, 2, 1)),
    "basis-n6-two-cycles": lambda: (_basis((1,) * 6, 2), (2, 3, 1, 5, 4, 6)),
    "basis-n6-six-cycle": lambda: (_basis((1,) * 6, 4), (2, 3, 4, 5, 6, 1)),
    "mixed-dims-12121": lambda: (_basis((1, 2, 1, 2, 1), 0), (3, 4, 5, 2, 1)),
    "mixed-dims-1212": lambda: (_basis((1, 2, 1, 2), 52), (3, 2, 1, 4)),
    "identity-n5": lambda: (_basis((1,) * 5, 3), (1, 2, 3, 4, 5)),
}


@pytest.mark.parametrize("name", sorted(PERMUTATIONS))
@mpmath.workdps(_DPS)
def test_permutation_weave_bounds(name):
    f, pi = PERMUTATIONS[name]()
    assert f.n_blocks <= 6
    recoded = GFrame(f.ambient_dim, tuple(f.blocks[t - 1] for t in pi))
    squares = _mp_squared_singular_values(GFrameFamily((f, recoded), allow_degenerate=True))
    up = max(v[-1] for v in squares.values())
    low = min(v[0] for v in squares.values())
    # A repeated block leaves squares near 1e-100 at 50 digits; the live
    # ones here are above 0.3.
    live_low = min(x for v in squares.values() for x in v if x > mpmath.mpf("1e-40") * up)

    rep = permutation_weave(f, pi)
    assert abs(rep.universal_upper - float(up)) <= _RTOL * float(up)
    assert abs(rep.span_lower_min - float(live_low)) <= _RTOL * float(up)
    if rep.identity:
        assert abs(rep.universal_lower - float(low)) <= _RTOL * float(up)
    else:
        assert low < mpmath.mpf("1e-40") * up
        assert rep.universal_lower == 0.0
        assert squares[rep.witness.labels][0] < mpmath.mpf("1e-40") * up
