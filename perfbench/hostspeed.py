"""Host-speed probes: fixed numpy computations timed next to every measured call.

Shared hosts change the speed of a core by up to about 2x for seconds to
minutes at a time (while another tenant runs on the sibling hyper-thread,
for instance), and no run length averages that out.  So every time the
benchmark reports is scaled by how fast the host ran a probe next to it:

    scaled seconds = wall seconds * reference seconds / probe seconds

where the probe seconds are the mean of the probe's time just before and
just after the measured work.  A probe does the kind of work gweave does,
but uses no gweave code, so a change to gweave moves the scaled time and a
change of host speed moves it much less.  Kinds of work slow down by
different amounts, so there are two probes, and each workload names the
one that resembles its calls:

- ``loop``: small ``eigh`` and ``svd`` calls from a Python loop, as in the
  subset and partition loops of ``perturb`` and ``riesz``;
- ``stack``: a gather over a stack of Gram matrices and a batched
  ``eigvalsh``, as in the weaving engine.

On a 2-vCPU Intel Xeon host, 110 to 150 seconds of each workload cut into
11- to 15-second windows gave window medians of the call times that spread
(interquartile range over median) by 0.07 to 0.22 in wall seconds and by
0.02 to 0.06 once scaled by a fitting probe.  A probe that does not fit
adds noise: scaled by ``loop``, the long sampled weaving calls varied up to
twice as much from call to call as in wall seconds.

Each reference is about the probe's time between calls on that host while
it ran at its fastest, so that scaled seconds come close to the wall
seconds of the same calls on the fast host.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_symmetric = _rng.standard_normal((80, 3, 3))
_SMALL = _symmetric + _symmetric.transpose(0, 2, 1)
_SQUARE = _rng.standard_normal((16, 12, 12))
_blocks = _rng.standard_normal((16, 2, 8, 8))
_GRAMS = _blocks @ _blocks.transpose(0, 1, 3, 2)
_INDICES = np.arange(16)
_LABELS = _rng.integers(0, 2, (1024, 16))
# Bound at import, before a traced run patches numpy.linalg, so that the
# probes are never recorded as spans.
_eigh, _eigvalsh, _svd = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd


def _loop() -> None:
    for a in _SMALL:
        _eigh(a)
    for b in _SQUARE:
        _svd(b, compute_uv=False)


def _stack() -> None:
    # The gather fills fresh memory as the engine's does; eigvalsh on part of
    # it keeps the probe short.
    _eigvalsh(_GRAMS[_INDICES, _LABELS].sum(axis=1)[:192])


# kind: (probe, reference seconds)
PROBES = {
    "loop": (_loop, 0.9e-3),
    "stack": (_stack, 4.1e-3),
}


def probe(kind: str) -> float:
    """Seconds the ``kind`` probe takes now: the lower of two repeats."""
    work = PROBES[kind][0]
    times = []
    for _ in range(2):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return min(times)


def scale(kind: str, before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two ``kind`` probes into scaled seconds."""
    return 2 * PROBES[kind][1] / (before + after)


def timed(kind: str, fn, *args):
    """Run ``fn(*args)`` between two ``kind`` probes.

    Returns its result, its wall seconds and its scaled seconds.
    """
    before = probe(kind)
    start = perf_counter()
    result = fn(*args)
    wall = perf_counter() - start
    return result, wall, wall * scale(kind, before, probe(kind))
