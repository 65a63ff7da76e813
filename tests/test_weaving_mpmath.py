"""Universal bounds of ``certify_woven`` against 50-digit arithmetic.

The reference loops in ``test_weaving.py`` take float ``eigvalsh`` calls,
which round the way the library does.  Here every weaving frame operator
``S_sigma = sum_i L_i* L_i`` is built from the exact float block entries
and its eigenvalues are recomputed with ``mpmath.eigh`` at 50 significant
digits, over all ``m**N <= 64`` weavings with ``n <= 4``.

Accuracy stated and checked:

* ``universal_upper``: 1e-12 relative;
* ``universal_lower``: 1e-12 times ``universal_upper``, absolute.  The
  smallest eigenvalue is only accurate relative to ``||S_sigma||``;
* each witness attains its 50-digit extreme within the same tolerance.
"""

from itertools import product

import mpmath
import pytest

from gweave import GFrame, GFrameFamily, certify_woven

from _support import independent_family, noisy_family, onb_frame, swapped_onb_family

_DPS = 50
_RTOL = 1e-12

FAMILIES = {
    # name: (family, status)
    "noisy-n3-m2": (lambda: noisy_family(3, (1, 1, 1), 2, seed=0), "woven"),
    "noisy-n4-m2-N6": (lambda: noisy_family(4, (1,) * 6, 2, seed=3), "woven"),
    "noisy-n3-m3": (lambda: noisy_family(3, (1, 2, 1), 3, seed=1), "woven"),
    "noisy-n2-m4": (lambda: noisy_family(2, (1, 1, 1), 4, seed=2, noise=0.2), "woven"),
    "mixed-dims-213": (lambda: independent_family(4, (2, 1, 3), 2, seed=7), "woven"),
    "mixed-dims-1212": (lambda: noisy_family(3, (1, 2, 1, 2), 2, seed=5, noise=0.3), "woven"),
    "swapped-onb-n2": (lambda: swapped_onb_family(2), "not-woven"),
    "swapped-onb-n3": (lambda: swapped_onb_family(3), "not-woven"),
    "onb-and-scaled-copy": (
        lambda: GFrameFamily((onb_frame(3), GFrame(3, tuple(2.0 * b for b in onb_frame(3).blocks)))),
        "woven",
    ),
}


def _mp_extremes(fam):
    """``{labels: (lambda_min, lambda_max)}`` over all weavings, 1-based labels.

    Call at ``_DPS`` digits of working precision.
    """
    grams = [
        [mpmath.matrix(b.tolist()).H * mpmath.matrix(b.tolist()) for b in fr.blocks]
        for fr in fam.frames
    ]
    out = {}
    for labels in product(range(1, fam.m + 1), repeat=fam.n_indices):
        s = mpmath.zeros(fam.ambient_dim, fam.ambient_dim)
        for i, l in enumerate(labels):
            s += grams[l - 1][i]
        values = [mpmath.re(x) for x in mpmath.eigh(s, eigvals_only=True)]
        out[labels] = (min(values), max(values))
    return out


@pytest.mark.parametrize("name", sorted(FAMILIES))
@mpmath.workdps(_DPS)
def test_universal_bounds_and_witnesses(name):
    make, status = FAMILIES[name]
    fam = make()
    assert fam.m**fam.n_indices <= 64 and fam.ambient_dim <= 4
    extremes = _mp_extremes(fam)
    low = min(lo for lo, _ in extremes.values())
    up = max(hi for _, hi in extremes.values())

    rep = certify_woven(fam)
    assert rep.status == status
    assert abs(rep.universal_upper - float(up)) <= _RTOL * float(up)
    assert abs(rep.universal_lower - float(low)) <= _RTOL * float(up)
    assert abs(float(extremes[rep.witness_upper.labels][1] - up)) <= _RTOL * float(up)
    assert abs(float(extremes[rep.witness_lower.labels][0] - low)) <= _RTOL * float(up)
