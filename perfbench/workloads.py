"""Workload definitions for the gweave benchmark.

A workload is a fixed cycle of five CLI calls on seeded instances.  The
benchmark replays the cycle closed-loop from one client: the next call is
sent only after the previous one returns.  Each workload records why it
exists and which per-layer metric is expected to move which end-to-end
metric on it, so that a later performance change can cite the prediction
by name.

Inputs depend only on ``seed % INSTANCE_SEEDS``.  The stored fingerprints
(``fingerprints.jsonl``) cover every instance seed, so any ``--seed`` is
checked against results recorded before the code under test changed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from gweave.generate import GenSpec, generate
from gweave.gframe import GFrame
from gweave.weaving import DEFAULT_BUDGET, GFrameFamily

# Every cycle has five calls and a run replays whole cycles, so the median
# and the 70th percentile fall at the same place among each workload's
# sorted call times however many cycles run.  35 calls leave 10.5 calls
# beyond the 70th percentile.
TAIL_PERCENTILE = 70
MIN_CALLS = 35
# Set-up writes the inputs this many times and reports the median.
SETUP_REPEATS = 3
INSTANCE_SEEDS = 32

# An exhaustive budget at or above every m**N used below; passed explicitly
# so that GWEAVE_BUDGET in the environment cannot change a run.
EXHAUSTIVE_BUDGET = DEFAULT_BUDGET


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload cycle.

    ``build`` makes the input from the instance seed, ``args`` the CLI
    arguments that follow the input path, and ``items`` counts the items
    the call enumerated from its JSON report.  Calls of one ``shape`` share
    one warm-up call during set-up.  ``members`` gives, from the built
    input and the instance seed, the g-frames the call weaves; a witness
    of a not-woven result is checked against them.
    """

    name: str
    shape: str
    command: str
    build: Callable[[int], GFrame | GFrameFamily]
    args: Callable[[int], tuple[str, ...]]
    items: Callable[[dict], int]
    members: Callable[[GFrame | GFrameFamily, int], tuple[GFrame, ...]] = (
        lambda made, s: made.frames
    )


@dataclass(frozen=True)
class Prediction:
    """Per-layer metrics expected to move end-to-end metrics on a workload.

    An empty ``moves`` records a prediction of no change.
    """

    layer_metrics: tuple[str, ...]
    moves: tuple[str, ...]
    note: str


@dataclass(frozen=True)
class Workload:
    """``probe`` names the host-speed probe (see ``hostspeed.py``) whose work
    resembles the workload's calls."""

    name: str
    why: str
    calls: tuple[Call, ...]
    probe: str
    predictions: tuple[Prediction, ...]
    min_calls: int = MIN_CALLS


def _seed(s: int, index: int, member: int = 0) -> int:
    return 1000 * s + 10 * index + member


def _perturbed(index, n, big_n, d):
    """Two-member family: a frame and a noisy copy of it."""
    return lambda s: generate(GenSpec(n, (d,) * big_n, "perturbed", _seed(s, index)))


def _parseval_members(index, m, n, big_n, d):
    """Family of ``m`` independent Parseval g-frames."""
    return lambda s: GFrameFamily(tuple(
        generate(GenSpec(n, (d,) * big_n, "parseval", _seed(s, index, j))) for j in range(m)
    ))


def _riesz_basis(s, index, n, member=0) -> GFrame:
    return generate(GenSpec(n, (1,) * n, "riesz-basis", _seed(s, index, member)))


def _permutation(s, index, n) -> np.ndarray:
    """Seeded permutation of 1..n."""
    return np.random.default_rng(_seed(s, index)).permutation(n) + 1


def _relabelled(base: GFrame, order) -> GFrame:
    """The copy of ``base`` whose block i is block ``order[i-1]`` of ``base``."""
    return GFrame(base.ambient_dim, tuple(base.blocks[i - 1] for i in order))


def _against_relabelled(index, n, reverse):
    """A g-Riesz basis against its reversed or permuted copy (not woven)."""
    def build(s):
        base = _riesz_basis(s, index, n)
        order = np.arange(n, 0, -1) if reverse else _permutation(s, index, n)
        return GFrameFamily((base, _relabelled(base, order)))
    return build


def _riesz_pair(index, n):
    return lambda s: GFrameFamily((_riesz_basis(s, index, n, 0), _riesz_basis(s, index, n, 1)))


def _exhaustive(name, build):
    return Call(
        name, name, "weave", build,
        lambda s: ("--mode", "exhaustive", "--budget", str(EXHAUSTIVE_BUDGET)),
        lambda rep: rep["report"]["partitions_checked"],
    )


def _sampled(name, index, build, budget):
    return Call(
        name, name, "weave", build,
        lambda s: ("--mode", "sampled", "--seed", str(_seed(s, index)), "--budget", str(budget)),
        lambda rep: rep["report"]["partitions_checked"],
    )


def _theorem_k(name, shape, build, m, big_n):
    subsets_times_pairs = (2**big_n - 1) * (m * (m - 1) // 2)
    return Call(
        name, shape, "certify", build,
        lambda s: ("--theorem", "k", "--budget", str(EXHAUSTIVE_BUDGET)),
        lambda rep: subsets_times_pairs,
    )


def _riesz_family(name, shape, index, n):
    return Call(
        name, shape, "riesz", _riesz_pair(index, n),
        lambda s: ("--budget", str(EXHAUSTIVE_BUDGET)),
        # weaving_riesz_check and equivalence_constants each sweep 2**N partitions
        lambda rep: 2 * rep["weaving_riesz"]["partitions_checked"],
    )


def _riesz_permutation(name, shape, index, n):
    return Call(
        name, shape, "riesz", lambda s: _riesz_basis(s, index, n),
        lambda s: (
            "--permutation", ",".join(str(int(x)) for x in _permutation(s, index, n)),
            "--budget", str(EXHAUSTIVE_BUDGET),
        ),
        lambda rep: 2**n,
        lambda base, s: (base, _relabelled(base, _permutation(s, index, n))),
    )


_WEAVING_ENGINE = (
    "weaving.certify_woven.self_s", "weaving.certify_woven.items", "weaving.us_per_item",
    "np_linalg.eigvalsh.s", "np_linalg.eigvalsh.calls", "np_linalg.eigvalsh.matrices",
)
_SHORT_CALL = (
    "cli.main.self_s", "fileio.load.s", "fileio.load.calls",
    "gframe.frame_bounds.calls", "gframe.frame_bounds.s",
)
_RIESZ = (
    "riesz.weaving_riesz_check.self_s", "riesz.equivalence_constants.self_s",
    "riesz.permutation_weave.self_s", "np_linalg.svd.calls", "np_linalg.svd.s",
)
_MINIMAL_K = ("perturb.minimal_k.self_s", "np_linalg.eigh.calls", "np_linalg.eigh.s")


def _weave_exhaustive(small: bool) -> Workload:
    if small:
        shapes = [(2, 8, 4, 1), (2, 8, 4, 2), (2, 6, 8, 2), (3, 5, 3, 2)]
        rev_n = 6
    else:
        shapes = [(2, 16, 4, 1), (2, 16, 8, 2), (2, 14, 16, 2), (3, 10, 4, 2)]
        rev_n = 14
    calls = []
    for index, (m, big_n, n, d) in enumerate(shapes):
        build = _perturbed(index, n, big_n, d) if m == 2 else _parseval_members(index, m, n, big_n, d)
        calls.append(_exhaustive(f"m{m}-N{big_n}-n{n}-d{d}", build))
    calls.append(_exhaustive(f"riesz-reversed-n{rev_n}", _against_relabelled(len(shapes), rev_n, True)))
    return Workload(
        name="weave-exhaustive",
        why=(
            "Nearly all time is in the exhaustive weaving enumeration: label "
            "decode, then gather+sum of frame operators, then batched eigvalsh. "
            "Gather costs about as much as eigvalsh at n <= 8 and twice as much "
            "at n = 16.  Meet-in-the-middle, Gray-code order, Weyl pruning and "
            "the one-engine refactor must show here."
        ),
        calls=tuple(calls),
        probe="stack",
        predictions=(
            Prediction(_WEAVING_ENGINE, ("items_per_s", "call_p50_s"),
                       "the enumeration engine is the blocking step of every call"),
            Prediction(("weaving.items_per_spectrum",), ("peak_rss_mb",),
                       "with the chunk size, spectra per item set the gather temporaries"),
            Prediction(_SHORT_CALL, (), "negligible next to the enumeration"),
        ),
    )


def _weave_sampled(small: bool) -> Workload:
    if small:
        woven, pairs, budget = (2, 8, 4, 1), (4, 5, 6, 7), 2**10
    else:
        woven, pairs, budget = (2, 48, 8, 1), (8, 10, 12, 14), 2**16
    m, big_n, n, d = woven
    calls = [_sampled(f"m{m}-N{big_n}-n{n}-d{d}", 0, _perturbed(0, n, big_n, d), budget)]
    for index, size in enumerate(pairs, start=1):
        calls.append(_sampled(f"riesz-permuted-n{size}", index,
                              _against_relabelled(index, size, False), budget))
    return Workload(
        name="weave-sampled",
        why=(
            "The weaving layer used differently: random labels, a Python "
            "reduction per row and an early exit.  A woven family too large to "
            "enumerate runs the full budget; not-woven pairs stop at the first "
            "counterexample but still pay for a full chunk of spectra."
        ),
        calls=tuple(calls),
        probe="stack",
        predictions=(
            Prediction(_WEAVING_ENGINE, ("items_per_s", "call_p50_s"),
                       "sampling shares gather and eigvalsh with exhaustive mode, but "
                       "meet-in-the-middle and Gray-code order do not apply to random "
                       "labels: such changes predict no change here, and a loss is a "
                       "regression"),
            Prediction(("weaving.items_per_spectrum",), ("call_p50_s", "peak_rss_mb"),
                       "about 1/8192 on early exits: a whole chunk of spectra per checked item"),
            Prediction(_SHORT_CALL, ("call_p50_s",), "early exits are short calls"),
        ),
    )


def _certify_k(small: bool) -> Workload:
    pair_shape, triple_shape = ((3, 6, 3), (3, 5, 3)) if small else ((3, 12, 3), (3, 9, 3))
    n, big_n, d = pair_shape
    pair = f"m2-N{big_n}-n{n}-d{d}"
    calls = [
        _theorem_k(f"{pair}-{i}", pair, _perturbed(i, n, big_n, d), 2, big_n) for i in range(4)
    ]
    n, big_n, d = triple_shape
    triple = f"m3-N{big_n}-n{n}-d{d}"
    calls.append(
        _theorem_k(f"{triple}-4", triple, _parseval_members(4, 3, n, big_n, d), 3, big_n)
    )
    return Workload(
        name="certify-k",
        why=(
            "Time is in perturb.minimal_k, a Python loop over index subsets "
            "with several small eigh calls per subset and member pair.  It never "
            "touches the weaving engine, so a batched minimal_k shows here."
        ),
        calls=tuple(calls),
        probe="loop",
        predictions=(
            Prediction(_MINIMAL_K, ("items_per_s", "call_p50_s"),
                       "the subset loop is the blocking step"),
            Prediction(_WEAVING_ENGINE, (), "weaving-engine changes: no change predicted"),
        ),
    )


def _riesz_pair_workload(small: bool) -> Workload:
    n = 6 if small else 12
    calls = [_riesz_family(f"pair-n{n}-{i}", f"pair-n{n}", i, n) for i in range(2)]
    calls += [_riesz_permutation(f"permutation-n{n}-{i}", f"permutation-n{n}", i, n)
              for i in range(2, 5)]
    return Workload(
        name="riesz-pair",
        why=(
            "Time is in the per-partition SVD loops of riesz.py: "
            "weaving_riesz_check then equivalence_constants on a pair of "
            "g-Riesz bases, and permutation_weave on single bases."
        ),
        calls=tuple(calls),
        probe="loop",
        predictions=(
            Prediction(_RIESZ, ("items_per_s",),
                       "routing weaving_riesz_check and permutation_weave through the "
                       "shared spectra engine should move this; equivalence_constants "
                       "stays per-partition, so only part of the time moves"),
            Prediction(_SHORT_CALL, ("call_p50_s",), "--permutation calls are short"),
        ),
    )


_DEFINITIONS = {
    "weave-exhaustive": _weave_exhaustive,
    "weave-sampled": _weave_sampled,
    "certify-k": _certify_k,
    "riesz-pair": _riesz_pair_workload,
}

NAMES = tuple(_DEFINITIONS)


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` gives the same calls at tiny shapes (N <= 8)."""
    made = _DEFINITIONS[name](smoke)
    return replace(made, min_calls=len(made.calls)) if smoke else made
