"""Partition engine and weaving certification.

A family of ``m`` g-frames sharing index set and block dimensions can be
*woven*: pick one member per index (a partition of the index set into m
labelled groups) and ask whether every such mixed family is again a
g-frame with common bounds.  This module enumerates the ``m**N``
partitions (exhaustively or by seeded sampling), reports the universal
bounds with witness partitions, and provides the structural operations
used by the certification theorems: scaling, index removal and
restriction, the Bessel-sum upper bound, and the restricted frame-operator
norm inequality.  :func:`report_dict` is the JSON form of every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from itertools import product

import numpy as np

from .gframe import GFrame, frame_bounds, frame_operator, synthesis_matrix
from .linalg import DEFAULT_TOL, Tolerance, hermitian_extremes, rank

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "Partition",
    "report_dict",
    "GFrameFamily",
    "WeavingReport",
    "RemovalReport",
    "assemble_weaving",
    "certify_woven",
    "span_criterion",
    "bessel_sum_bound",
    "scaled_family",
    "removal_bound",
    "frame_op_norm_check",
    "restrict_family",
]

DEFAULT_BUDGET = 1_000_000
# An exhaustive chunk holds at most 2**15 frame-operator entries (512 KiB),
# and its operators are screened in blocks of 64 rows.  The weaving sweeps
# and the square Riesz sweeps share both constants.
_CHUNK_ENTRIES, _SCREEN_ROWS = 2**15, 64
# Sampled mode draws and checks row blocks of 16, 32, ... rows: small first
# blocks make an early counterexample cheap, and 512 rows stay in cache.
_BLOCK_FIRST, _BLOCK_CAP = 16, 512


class BudgetExceededError(RuntimeError):
    """Raised when exhaustive enumeration would exceed the partition budget."""


def _check_budget(
    budget: int, needs: str = "", m: int = 1, big_n: int = 0, unit: str = "weavings"
) -> int:
    """Check a partition budget before any work; return ``m**big_n``.

    A budget below one is a ``ValueError``.  A sweep of ``m**big_n`` items
    over budget is a ``BudgetExceededError`` whose message starts with
    ``needs`` and states ``m^N``; without a sweep size (sampled mode) only
    the lower limit applies.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    total = m**big_n
    if total > budget:
        raise BudgetExceededError(
            f"{needs} {m}^{big_n} = {total} {unit}, budget is {budget}"
        )
    return total


@dataclass(frozen=True)
class Partition:
    """Assignment of each index ``i`` (1..N) to a weave label in 1..m.

    Labels are 1-based; empty groups are permitted.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if not labels:
            raise ValueError("a partition needs at least one index")
        if any(x < 1 for x in labels):
            raise ValueError("labels are 1-based and must be >= 1")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def group(self, label: int) -> tuple[int, ...]:
        """1-based indices assigned to ``label``."""
        return tuple(i + 1 for i, x in enumerate(self.labels) if x == label)


def report_dict(report):
    """A report as JSON data, by one rule applied recursively.

    Each dataclass field becomes a key of the same name, except fields marked
    ``metadata={"json": False}`` (frames a report carries, not results).  A
    :class:`Partition` becomes its label list, a named tuple a dict of its
    fields, any other tuple a list, and a complex array a list of
    ``[re, im]`` pairs.  Other values are returned as they are.
    """
    if isinstance(report, Partition):
        return list(report.labels)
    if is_dataclass(report):
        return {
            f.name: report_dict(getattr(report, f.name))
            for f in fields(report)
            if f.metadata.get("json", True)
        }
    if isinstance(report, tuple):
        if hasattr(report, "_asdict"):
            return {k: report_dict(v) for k, v in report._asdict().items()}
        return [report_dict(v) for v in report]
    if isinstance(report, np.ndarray):
        return [[z.real, z.imag] for z in report.tolist()]
    return report


@dataclass(frozen=True, eq=False)
class GFrameFamily:
    """``m >= 2`` g-frames sharing ambient dimension, index count and block dims.

    Members are checked to classify as g-frames at construction (with the
    default tolerance); pass ``allow_degenerate=True`` for deliberately
    degenerate studies such as restricted families.
    """

    frames: tuple[GFrame, ...]
    allow_degenerate: bool = False

    def __post_init__(self):
        frames = tuple(self.frames)
        if len(frames) < 2:
            raise ValueError("a family needs at least two member g-frames")
        first = frames[0]
        for j, fr in enumerate(frames[1:], start=2):
            if fr.ambient_dim != first.ambient_dim:
                raise ValueError(f"member {j}: ambient_dim differs from member 1")
            if fr.block_dims != first.block_dims:
                raise ValueError(f"member {j}: block dimensions differ from member 1")
        if not self.allow_degenerate:
            for j, fr in enumerate(frames, start=1):
                fb = frame_bounds(fr)
                if not fb.is_frame:
                    raise ValueError(
                        f"member {j} classifies as {fb.classification!r}; "
                        "pass allow_degenerate=True for degenerate studies"
                    )
        object.__setattr__(self, "frames", frames)

    @property
    def m(self) -> int:
        return len(self.frames)

    @property
    def ambient_dim(self) -> int:
        return self.frames[0].ambient_dim

    @property
    def n_indices(self) -> int:
        return self.frames[0].n_blocks

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self.frames[0].block_dims

    @property
    def coeff_dim(self) -> int:
        return self.frames[0].coeff_dim


@dataclass(frozen=True)
class WeavingReport:
    """Outcome of a weaving certification run.

    ``status`` is ``"woven"`` (exhaustive only), ``"not-woven"`` or
    ``"sampled-no-counterexample"``.  The witnesses achieve the reported
    universal bounds; ties are broken by the lexicographically smallest
    label vector.
    """

    status: str
    universal_lower: float
    universal_upper: float
    witness_lower: Partition
    witness_upper: Partition
    partitions_checked: int
    mode: str
    seed: int | None


@dataclass(frozen=True)
class RemovalReport:
    """Outcome of dropping an index subset from a two-member family."""

    restricted: GFrameFamily = field(metadata={"json": False})
    dropped: tuple[int, ...]
    removed_upper: float
    base_lower: float
    base_upper: float
    predicted_lower: float
    hypothesis_ok: bool


def _validate_labels(fam: GFrameFamily, p: Partition) -> np.ndarray:
    if len(p.labels) != fam.n_indices:
        raise ValueError(
            f"partition length {len(p.labels)} does not match index count {fam.n_indices}"
        )
    labels0 = np.asarray(p.labels, dtype=np.int64) - 1
    if labels0.max() >= fam.m:
        raise ValueError(f"label {labels0.max() + 1} out of range for m = {fam.m}")
    return labels0


def assemble_weaving(fam: GFrameFamily, p: Partition) -> GFrame:
    """The g-frame taking block ``i`` from member ``labels[i]``."""
    labels0 = _validate_labels(fam, p)
    blocks = tuple(fam.frames[l].blocks[i] for i, l in enumerate(labels0))
    return GFrame(fam.ambient_dim, blocks)


def _gram_tensor(fam: GFrameFamily) -> np.ndarray:
    """Per-(index, member) Gram terms ``block* block``; shape (N, m, n, n)."""
    n, big_n, m = fam.ambient_dim, fam.n_indices, fam.m
    g = np.empty((big_n, m, n, n), dtype=np.complex128)
    for j, fr in enumerate(fam.frames):
        for i, b in enumerate(fr.blocks):
            g[i, j] = b.conj().T @ b
    return g


def _decode_codes(codes: np.ndarray, m: int, big_n: int) -> np.ndarray:
    """Base-m digits of each code, most significant first (lexicographic order).

    Digits are peeled from the least significant end, so no power of ``m``
    is formed and ``big_n`` may exceed the int64 range of ``m**big_n``.
    """
    out = np.empty((codes.size, big_n), dtype=np.int64)
    for i in reversed(range(big_n)):
        codes, out[:, i] = np.divmod(codes, m)
    return out


def _frame_operators(grams: np.ndarray, labels0: np.ndarray) -> np.ndarray:
    """Frame operators over the leading ``labels0.shape[1]`` indices of each row.

    Terms are added one index at a time in increasing order, the order of
    ``grams[arange(k), labels0].sum(axis=1)``, without materialising that
    ``(rows, k, n, n)`` gather.
    """
    s = grams[0, labels0[:, 0]]
    for i in range(1, labels0.shape[1]):
        s += grams[i, labels0[:, i]]
    return s


def _exhaustive_operators(grams: np.ndarray, m: int):
    """Yield ``(first_code, operators)`` for all ``m**N`` weavings in code order.

    A chunk holds the ``m**low`` consecutive codes that share their leading
    ``high = N - low >= 1`` labels (``low < N`` is the largest with ``m**low
    * n**2 <= _CHUNK_ENTRIES``).  The partial sums of the shared prefix are
    kept from the previous chunk up to its first changed label, so a chunk
    adds fewer than two prefix terms on average (``m / (m - 1)``); each
    later index then extends every partial sum by each of its ``m`` terms.
    Terms are added in increasing index order, so every frame operator
    equals the sequential sum over its labels bit for bit, at about two ``n
    x n`` adds per weaving.  The sums do not depend on where the chunks are
    cut, so ``_CHUNK_ENTRIES`` changes memory and speed, never a bit of a
    result.  Serves exhaustive :func:`certify_woven`,
    :func:`span_criterion` and the screened square Riesz sweep.
    """
    big_n, n = grams.shape[0], grams.shape[-1]
    low = 0
    while low < big_n - 1 and m ** (low + 1) * n * n <= _CHUNK_ENTRIES:
        low += 1
    high = big_n - low
    sums, prev = [], ()
    for h, labels in enumerate(product(range(m), repeat=high)):
        keep = next((i for i, (a, b) in enumerate(zip(prev, labels)) if a != b), 0)
        del sums[keep:]
        for i in range(keep, high):
            term = grams[i, labels[i]]
            sums.append(sums[-1] + term if i else term)
        level, prev = sums[-1][None], labels
        for i in range(high, big_n):
            level = (level[:, None] + grams[i][None]).reshape(-1, n, n)
        yield h * m**low, level


def _inside_bounds(s: np.ndarray, low: float, up: float) -> bool:
    """Whether Cholesky factors both ``S - (low + delta) I`` and ``(up -
    delta) I - S`` for every operator ``S`` of the stack ``s``, with
    ``delta = 1e3 * n**2 * eps * up`` (see :func:`certify_woven`)."""
    eye = np.eye(s.shape[-1])
    delta = 1e3 * s.shape[-1] ** 2 * np.finfo(float).eps * up
    try:
        np.linalg.cholesky(s - (low + delta) * eye)
        np.linalg.cholesky((up - delta) * eye - s)
    except np.linalg.LinAlgError:
        return False
    return True


def _partition_of(labels0) -> Partition:
    return Partition(tuple(int(x) + 1 for x in labels0))


def _fold_extremes(best: tuple, w: np.ndarray, key) -> tuple:
    """Fold one chunk of spectra into ``best = (low, low_at, up, up_at)``.

    ``low_at`` and ``up_at`` are ``(key, row)`` of the first weaving that
    attains each bound: ``argmin``/``argmax`` return the first occurrence
    and a later chunk must be strictly better, so ties keep the earliest
    weaving in enumeration order.
    """
    low, low_at, up, up_at = best
    i = int(np.argmin(w[:, 0]))
    if w[i, 0] < low:
        low, low_at = float(w[i, 0]), (key, i)
    i = int(np.argmax(w[:, -1]))
    if w[i, -1] > up:
        up, up_at = float(w[i, -1]), (key, i)
    return low, low_at, up, up_at


def certify_woven(
    fam: GFrameFamily,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> WeavingReport:
    """Certify whether the family is woven.

    Exhaustive mode enumerates all ``m**N`` partitions (requires
    ``m**N <= budget``) and reports the true universal bounds; the woven
    verdict is ``universal_lower > frame_rtol * universal_upper``.  Frame
    operators come in chunks of at most ``2**15`` entries (512 KiB), cut
    into blocks of 64 rows.  With ``(low, up)`` the bounds so far and ``delta =
    1e3 * n**2 * eps * up``, each block after the first is skipped if
    Cholesky factors both ``S - (low + delta) I`` and ``(up - delta) I - S``
    for all its operators ``S``; otherwise it takes ``eigvalsh``.  A
    Cholesky that completes is exact for a matrix within ``gamma_{n+1}
    |R*| |R|`` of its input (Demmel 1989; Higham, *Accuracy and Stability
    of Numerical Algorithms*, sec. 10.1), that is within about ``n**2 *
    eps * up``: both tests passing keep every ``S`` of norm near ``up``.
    ``eigvalsh`` is backward stable, within a few ``n * eps * up``.
    ``delta`` covers both, so the computed spectra of a skipped block lie in
    ``[low, up]`` (both kernels read the lower triangle).  Only a strictly
    better row moves a bound, so skipping changes no bound, witness or
    count.  On a family whose weavings are nearly all singular, the lower
    test fails on every block, which then pays one Cholesky on top of its
    ``eigvalsh``.  Sampled
    mode draws ``budget`` partitions from a seeded generator and can only
    falsify: it returns ``not-woven`` with a witness, or the explicitly
    weaker ``sampled-no-counterexample``.  It draws and checks row blocks of
    16 rows doubling to 512, and stops at the first failing row: a
    counterexample at row ``r`` costs about ``2r + 16`` spectra, and a block
    holds at most 512 ``n x n`` complex frame operators.  The generator
    yields the same labels however the draws are cut.  A ``budget`` below
    one is rejected with ``ValueError``.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    m, big_n = fam.m, fam.n_indices
    if mode == "exhaustive":
        total = _check_budget(budget, "exhaustive certification needs", m, big_n)
    else:
        _check_budget(budget)
    grams = _gram_tensor(fam)

    best = (np.inf, None, -np.inf, None)

    if mode == "exhaustive":
        for first, ops in _exhaustive_operators(grams, m):
            for start in range(0, len(ops), _SCREEN_ROWS):
                s = ops[start : start + _SCREEN_ROWS]
                if best[1] is None or not _inside_bounds(s, best[0], best[2]):
                    best = _fold_extremes(best, np.linalg.eigvalsh(s), first + start)
        best_low, (first_low, i_low), best_up, (first_up, i_up) = best
        wit_low, wit_up = _decode_codes(
            np.array([first_low + i_low, first_up + i_up]), m, big_n
        )
        checked = total
        status = "woven" if best_low > tol.frame_rtol * best_up else "not-woven"
    else:
        rng = np.random.default_rng(seed)
        checked, size, failed = 0, _BLOCK_FIRST, False
        while checked < budget and not failed:
            rows = rng.integers(0, m, size=(min(size, budget - checked), big_n))
            w = np.linalg.eigvalsh(_frame_operators(grams, rows))
            bad = w[:, 0] <= tol.frame_rtol * w[:, -1]
            failed = bool(bad.any())
            stop = int(np.argmax(bad)) + 1 if failed else len(rows)
            best = _fold_extremes(best, w[:stop], rows)
            checked += stop
            size = min(2 * size, _BLOCK_CAP)
        best_low, (rows_low, i_low), best_up, (rows_up, i_up) = best
        wit_low, wit_up = rows_low[i_low], rows_up[i_up]
        status = "not-woven" if failed else "sampled-no-counterexample"

    return WeavingReport(
        status=status,
        universal_lower=max(best_low, 0.0),
        universal_upper=max(best_up, 0.0),
        witness_lower=_partition_of(wit_low),
        witness_upper=_partition_of(wit_up),
        partitions_checked=checked,
        mode=mode,
        seed=seed,
    )


def span_criterion(
    fam: GFrameFamily,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> tuple[bool, Partition | None]:
    """Check that every weaving spans the ambient space.

    Equivalent to the woven property in finite dimension.  On failure the
    lexicographically first partition whose stacked weaving matrix is rank
    deficient is returned as a witness.

    Rank is decided as :func:`~gweave.linalg.rank` decides it, on the
    singular values of the weaving's synthesis matrix; the eigenvalues of
    its frame operator only screen.  A weaving is a candidate if ``lmin <=
    ((rank_rtol * maxdim)**2 + 1e3 * n * eps) * lmax``: the first term is
    the rank threshold squared, the second covers the rounding of the
    computed eigenvalues.  Each candidate, in code order, takes one SVD;
    the first that is rank deficient is the witness.  A woven family has
    no candidates and pays no SVD.
    """
    m, big_n, n = fam.m, fam.n_indices, fam.ambient_dim
    _check_budget(budget, "span check needs", m, big_n)
    grams = _gram_tensor(fam)
    screen = (tol.rank_rtol * max(n, fam.coeff_dim)) ** 2 + 1e3 * n * np.finfo(float).eps
    for first, ops in _exhaustive_operators(grams, m):
        w = np.linalg.eigvalsh(ops)
        for row in np.flatnonzero(w[:, 0] <= screen * w[:, -1]):
            p = _partition_of(_decode_codes(np.array([first + row]), m, big_n)[0])
            if rank(synthesis_matrix(assemble_weaving(fam, p)), tol) < n:
                return False, p
    return True, None


def bessel_sum_bound(fam: GFrameFamily) -> float:
    """Sum of the members' optimal upper bounds.

    Every weaving's upper bound is dominated by this value.
    """
    return float(sum(frame_bounds(fr).upper for fr in fam.frames))


def _resolve_universal(
    fam: GFrameFamily,
    universal: tuple[float, float] | None,
    budget: int,
    tol: Tolerance,
) -> tuple[float, float]:
    if universal is not None:
        return float(universal[0]), float(universal[1])
    rep = certify_woven(fam, "exhaustive", budget=budget, tol=tol)
    return rep.universal_lower, rep.universal_upper


def scaled_family(
    fam: GFrameFamily,
    scalars,
    tol: Tolerance = DEFAULT_TOL,
    universal: tuple[float, float] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[GFrameFamily, tuple[float, float]]:
    """Scale block (i, j) by ``scalars[j][i]`` and predict the universal bounds.

    With ``C = min |a|^2`` and ``D = max |a|^2`` and base universal bounds
    (A, B), the scaled family is woven with bounds inside ``[A C, B D]``.
    A zero scalar collapses the lower bound and is rejected.  ``universal``
    may pass known base bounds; otherwise they are computed exhaustively.
    """
    a = np.asarray(scalars, dtype=np.complex128)
    if a.shape != (fam.m, fam.n_indices):
        raise ValueError(
            f"scalars must have shape (m, N) = ({fam.m}, {fam.n_indices}), got {a.shape}"
        )
    mags = np.abs(a) ** 2
    c, d = float(mags.min()), float(mags.max())
    if c <= 0.0:
        raise ValueError("every scalar must be nonzero: C = 0 collapses the lower bound")
    base_low, base_up = _resolve_universal(fam, universal, budget, tol)
    members = tuple(
        GFrame(
            fam.ambient_dim,
            tuple(a[j, i] * fr.blocks[i] for i in range(fam.n_indices)),
        )
        for j, fr in enumerate(fam.frames)
    )
    scaled = GFrameFamily(members, allow_degenerate=fam.allow_degenerate)
    return scaled, (base_low * c, base_up * d)


def restrict_family(fam: GFrameFamily, keep) -> GFrameFamily:
    """Family keeping only the (1-based) indices in ``keep``.

    If the restricted family is woven then so is the full family, with at
    least the restricted lower bound (extra indices only add energy).
    """
    keep = sorted({int(i) for i in keep})
    if not keep:
        raise ValueError("keep must be a nonempty set of indices")
    if keep[0] < 1 or keep[-1] > fam.n_indices:
        raise ValueError(f"indices must lie in 1..{fam.n_indices}")
    frames = tuple(
        GFrame(fr.ambient_dim, tuple(fr.blocks[i - 1] for i in keep)) for fr in fam.frames
    )
    return GFrameFamily(frames, allow_degenerate=True)


def removal_bound(
    fam: GFrameFamily,
    drop,
    tol: Tolerance = DEFAULT_TOL,
    universal: tuple[float, float] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> RemovalReport:
    """Drop an index subset from a two-member woven family.

    With base universal bounds (A, B) and ``D_J`` the upper bound of member
    one restricted to the dropped set, the restricted family stays woven with
    universal lower bound at least ``A - D_J`` whenever ``D_J < A``.  A
    violated hypothesis is reported, not raised.
    """
    if fam.m != 2:
        raise ValueError("removal analysis is defined for two-member families")
    drop = sorted({int(i) for i in drop})
    if drop and (drop[0] < 1 or drop[-1] > fam.n_indices):
        raise ValueError(f"indices must lie in 1..{fam.n_indices}")
    if len(drop) >= fam.n_indices:
        raise ValueError("cannot drop every index")
    base_low, base_up = _resolve_universal(fam, universal, budget, tol)
    if drop:
        partial = np.zeros((fam.ambient_dim, fam.ambient_dim), dtype=np.complex128)
        for i in drop:
            b = fam.frames[0].blocks[i - 1]
            partial += b.conj().T @ b
        removed_upper = hermitian_extremes(partial, tol)[1]
    else:
        removed_upper = 0.0
    keep = [i for i in range(1, fam.n_indices + 1) if i not in drop]
    return RemovalReport(
        restricted=restrict_family(fam, keep),
        dropped=tuple(drop),
        removed_upper=removed_upper,
        base_lower=base_low,
        base_upper=base_up,
        predicted_lower=base_low - removed_upper,
        hypothesis_ok=removed_upper < base_low,
    )


def frame_op_norm_check(
    fam: GFrameFamily,
    p: Partition,
    upper: float | None = None,
) -> float:
    """Max violation of the restricted frame-operator norm inequality.

    The maximum over unit vectors f of
    ``sum_j ||R_j f||^2 - B * ||S_weaving||``, where ``R_j`` sums member j's
    Gram terms over its own group, is ``lambda_max(sum_j R_j* R_j) - B *
    ||S_weaving||``.  ``B`` defaults to the Bessel-sum surrogate.  The
    result should never exceed numerical noise.
    """
    labels0 = _validate_labels(fam, p)
    n = fam.ambient_dim
    b_upper = bessel_sum_bound(fam) if upper is None else float(upper)
    s_psi = frame_operator(assemble_weaving(fam, p))
    norm_psi = hermitian_extremes(s_psi)[1]

    lhs = np.zeros((n, n), dtype=np.complex128)
    for j, fr in enumerate(fam.frames):
        r = np.zeros((n, n), dtype=np.complex128)
        for i in np.flatnonzero(labels0 == j):
            b = fr.blocks[i]
            r += b.conj().T @ b
        lhs += r.conj().T @ r
    return hermitian_extremes(lhs)[1] - b_upper * norm_psi
