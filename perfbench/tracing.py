"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, at the boundaries
between gweave's modules: every public gweave function is wrapped in the
namespace of each *other* gweave module that imported it (modules import
names directly, as in ``from .weaving import certify_woven``), together
with ``gweave.cli.main`` as the entry span and ``numpy.linalg`` eigvalsh,
eigh and svd as the kernel layer.  Calls inside one module are not split.

A span is ``[name, start, end, parent, call_id, count]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``call_id`` numbers the CLI
call, and ``count`` is the work done at that boundary (matrices for a
kernel call, partitions checked for ``certify_woven``).  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import gweave.cli
import gweave.fileio
import gweave.generate
import gweave.gframe
import gweave.linalg
import gweave.perturb
import gweave.riesz
import gweave.weaving

MODULES = (
    gweave.cli, gweave.fileio, gweave.generate, gweave.gframe,
    gweave.linalg, gweave.weaving, gweave.riesz, gweave.perturb,
)
KERNELS = ("eigvalsh", "eigh", "svd")
_LOADERS = ("fileio.load_any", "fileio.load_family", "fileio.load_frame")


def _matrices(args, result) -> int:
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _partitions(args, result) -> int:
    return result.partitions_checked


_COUNTERS = {"weaving.certify_woven": _partitions}


class Tracer:
    """Collects spans; ``call_id`` is set by the caller before each CLI call."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = -1
        self._open: list[int] = []

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = [name, start, end, parent, self.call_id, 0]
            if counter is not None:
                self.spans[index][5] = counter(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch the layer boundaries for the duration of the block."""
        patched = []
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("gweave.")
                        and obj.__module__ != module.__name__):
                    name = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                    patched.append((module, attr, obj))
                    setattr(module, attr, self.wrap(obj, name, _COUNTERS.get(name)))
        patched.append((gweave.cli, "main", gweave.cli.main))
        gweave.cli.main = self.wrap(gweave.cli.main, "cli.main")
        for kernel in KERNELS:
            fn = getattr(np.linalg, kernel)
            patched.append((np.linalg, kernel, fn))
            setattr(np.linalg, kernel, self.wrap(fn, f"np_linalg.{kernel}", _matrices))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)


def layer_metrics(spans, cycles: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from spans; ``overhead_s`` is traced minus untraced wall time.

    Times and counts are per cycle of the workload's calls, so runs of
    different length compare.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for index, (name, start, end, _, _, count) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[index]
        calls[name] += 1
        counts[name] += count

    def under_certify(index):
        while index >= 0:
            if spans[index][0] == "weaving.certify_woven":
                return True
            index = spans[index][3]
        return False

    spectra = sum(
        span[5] for span in spans
        if span[0] == "np_linalg.eigvalsh" and under_certify(span[3])
    )
    items = counts["weaving.certify_woven"]
    raw = {
        "weaving.certify_woven.self_s": own["weaving.certify_woven"],
        "weaving.certify_woven.items": items,
        "np_linalg.eigvalsh.s": total["np_linalg.eigvalsh"],
        "np_linalg.eigvalsh.calls": calls["np_linalg.eigvalsh"],
        "np_linalg.eigvalsh.matrices": counts["np_linalg.eigvalsh"],
        "perturb.minimal_k.self_s": own["perturb.minimal_k"],
        "np_linalg.eigh.calls": calls["np_linalg.eigh"],
        "np_linalg.eigh.s": total["np_linalg.eigh"],
        "riesz.weaving_riesz_check.self_s": own["riesz.weaving_riesz_check"],
        "riesz.equivalence_constants.self_s": own["riesz.equivalence_constants"],
        "riesz.permutation_weave.self_s": own["riesz.permutation_weave"],
        "np_linalg.svd.calls": calls["np_linalg.svd"],
        "np_linalg.svd.s": total["np_linalg.svd"],
        "cli.main.self_s": own["cli.main"],
        "fileio.load.s": sum(total[name] for name in _LOADERS),
        "fileio.load.calls": sum(calls[name] for name in _LOADERS),
        "gframe.frame_bounds.calls": calls["gframe.frame_bounds"],
        "gframe.frame_bounds.s": total["gframe.frame_bounds"],
        "trace.overhead_s": overhead_s,
    }
    metrics = {name: value / cycles for name, value in raw.items()}
    metrics["weaving.us_per_item"] = (
        1e6 * total["weaving.certify_woven"] / items if items else 0.0
    )
    metrics["weaving.items_per_spectrum"] = items / spectra if spectra else 0.0
    return metrics
