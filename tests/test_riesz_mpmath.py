"""Riesz bounds of weavings against 50-digit arithmetic over every partition.

The reference loops in ``test_riesz.py`` take float SVDs, which round the
way the library does.  Here every partition's weaving synthesis matrix is
built from the exact float block entries and its singular values are
recomputed with ``mpmath.svd_c`` at 50 significant digits, for ``N <= 6``.

Accuracy stated and checked:

* ``common_upper``: 1e-12 relative;
* ``common_lower``: 1e-12 times ``common_upper``, absolute.  The smallest
  squared singular value is only accurate relative to ``||T||^2``;
* each witness attains its 50-digit extreme within the same tolerance.
"""

from itertools import product

import mpmath
import numpy as np
import pytest

from gweave import GFrame, GFrameFamily, generate, GenSpec, weaving_riesz_check

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


def _mp_squared_extremes(fam):
    """``{labels: (sigma_min^2, sigma_max^2)}`` over all partitions, 1-based labels.

    Call at ``_DPS`` digits of working precision.
    """
    out = {}
    for labels in product((1, 2), repeat=fam.n_indices):
        t = np.hstack([fam.frames[l - 1].blocks[i].conj().T for i, l in enumerate(labels)])
        s = mpmath.svd_c(mpmath.matrix(t.tolist()), compute_uv=False)
        values = [mpmath.re(x) for x in s]
        out[labels] = (min(values) ** 2, max(values) ** 2)
    return out


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
