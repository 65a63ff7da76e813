"""Partition engine and weaving certification.

A family of ``m`` g-frames sharing index set and block dimensions can be
*woven*: pick one member per index (a partition of the index set into m
labelled groups) and ask whether every such mixed family is again a
g-frame with common bounds.  This module covers the ``m**N`` partitions
(by an exact branch-and-bound search, a walk in label blocks, or seeded
sampling), reports the universal bounds with witness partitions, and
provides the structural operations used by the certification theorems:
scaling, index removal and restriction, the Bessel-sum upper bound, and
the restricted frame-operator norm inequality.  :func:`report_dict` is
the JSON form of every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from itertools import product

import numpy as np
from numpy.linalg import _umath_linalg

from .gframe import GFrame, _gram_terms, frame_bounds, frame_operator, synthesis_matrix
from .linalg import DEFAULT_TOL, Tolerance, _complex_array, _integers, _reals
from .linalg import hermitian_extremes, rank

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
# Riesz sweeps screen label blocks of 64 weavings; span_criterion takes up to
# _BATCH_ENTRIES operator entries if more: 64 rows ran 1.1-2.3x slower at n 2-6.
_SCREEN_ROWS = 64
# Sampled mode draws and checks row blocks of 16, 32, ... rows: small first
# blocks make an early counterexample cheap.  With most blocks screened, the
# Cholesky tests and the screen's GEMM dominate; 512 rows ran 1.1x and 1024
# rows 2x slower than 256, and 128 or 192 rows within host noise of it.
_BLOCK_FIRST, _BLOCK_CAP = 16, 256
# A branch-and-bound batch holds at most 2**13 frame-operator entries (128
# KiB), and the search keeps at most one batch per index.  Against 64 rows,
# batches of this size made the woven weave-exhaustive calls about 1.4x
# faster.  2**14 entries were as fast on them (12% faster at 2**20, n = 6)
# but raised weave-exhaustive's peak RSS by 1.3 MB; 2**12 were 22% slower.
_BATCH_ENTRIES = 2**13


class BudgetExceededError(RuntimeError):
    """Raised when exhaustive enumeration would exceed the partition budget."""


def _check_budget(budget: int, needs: str = "", m: int = 1, big_n: int = 0) -> int:
    """Check a partition budget before any work; return ``m**big_n``.

    A budget that is not an integer (``bool`` included) or is below one is
    a ``ValueError``.  A sweep of ``m**big_n`` weavings over budget is a
    ``BudgetExceededError`` whose message starts with ``needs`` and states
    ``m^N``; without a sweep size (sampled mode) only the lower limit applies.
    """
    (budget,) = _integers((budget,), "budget must be an integer")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    total = m**big_n
    if total > budget:
        raise BudgetExceededError(
            f"{needs} {m}^{big_n} = {total} weavings, budget is {budget}"
        )
    return total


@dataclass(frozen=True)
class Partition:
    """Assignment of each index ``i`` (1..N) to a weave label in 1..m.

    Labels are 1-based; empty groups are permitted.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = _integers(self.labels, "labels must be integers")
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
    label vector.  The lower bound is the least ``max(lambda_min, 0)``, so
    every weaving whose computed ``lambda_min <= 0`` ties at 0.
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
    return np.array([[*_gram_terms(at_i)] for at_i in zip(*(fr.blocks for fr in fam.frames))])


def _label_blocks(m: int, big_n: int, rows: int):
    """Yield the 0-based label rows of the ``m**N`` weavings in code order,
    in blocks of ``m**low`` consecutive rows sharing their leading labels,
    ``low >= 1`` the largest at most ``N`` with ``m**low <= rows``.  Tails
    and heads both come from ``product``, which yields labels in code order,
    so no power of ``m`` is formed and ``N`` may pass the int64 range of
    ``m**N``."""
    low = 1
    while low < big_n and m ** (low + 1) <= rows:
        low += 1
    tail = np.array(list(product(range(m), repeat=low)), dtype=np.int64)
    for head in product(range(m), repeat=big_n - low):
        labels0 = np.empty((len(tail), big_n), dtype=np.int64)
        labels0[:, : big_n - low], labels0[:, big_n - low :] = head, tail
        yield labels0


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


def _screen_operators(grams: np.ndarray):
    """``(operators, mu)``: ``operators(rows)`` is the stack ``S' = sum_i
    G_i0 + X @ D`` for the 0-based label rows ``rows``, within ``mu`` of
    their sequential sums (:func:`_frame_operators`) in spectral norm.  A
    returned stack is valid until the next call, which reuses its memory.

    ``X`` holds each row's 0/1 indicators of the labels ``j >= 1``, shape
    ``(rows, N (m - 1))``, and ``D`` the differences ``G_ij - G_i0`` viewed
    as float64, shape ``(N (m - 1), 2 n**2)``: one real GEMM per stack.
    ``mu = 1e3 * n**2 * eps * (N + m) * g``, ``g`` the largest entry of
    ``sum_ij |G_ij|``; the derivation is in :func:`certify_woven`.
    """
    big_n, m, n = grams.shape[0], grams.shape[1], grams.shape[-1]
    base = grams[:, 0].sum(axis=0)
    diffs = (grams[:, 1:] - grams[:, :1]).reshape(big_n * (m - 1), n * n).view(np.float64)
    mu = 1e3 * n**2 * np.finfo(float).eps * (big_n + m) * np.abs(grams).sum(axis=(0, 1)).max()
    # One buffer, grown to the most rows asked for: a fresh stack per call
    # made glibc trim its heap top after each block and fault it in again.
    stack = np.empty((0, 2 * n * n))

    def operators(rows: np.ndarray) -> np.ndarray:
        nonlocal stack
        if len(rows) > len(stack):
            stack = np.empty((len(rows), 2 * n * n))
        x = (rows[:, :, None] == np.arange(1, m)).reshape(len(rows), -1).astype(np.float64)
        s = np.matmul(x, diffs, out=stack[: len(rows)]).view(np.complex128).reshape(-1, n, n)
        s += base
        return s

    return operators, mu


class _NormScreen:
    """A weighted-norm test of label rows against bounds ``c_lo < c_up``,
    without a factorization (see :func:`certify_woven`).

    The centre ``C = sum_i mean_j G_ij`` is diagonalised once, ``C = V
    Lambda V*`` (``lam``, ``v``).  ``w`` holds the differences ``V* (G_ij -
    G_i0) V``, ``j >= 1``, each Hermitian from its lower triangle, as the
    kernels read it, and packed into ``n**2`` real columns: the diagonal's
    real parts, then the strict lower triangle's real and imaginary parts.
    ``variance`` is each column's variance over uniformly drawn rows and
    ``zeta`` the allowance for the rounding of :meth:`rotated`.
    """

    def __init__(self, grams: np.ndarray):
        big_n, m, n = grams.shape[0], grams.shape[1], grams.shape[-1]
        self.m, self.n = m, n
        self.lam, self.v = np.linalg.eigh(grams.mean(axis=1).sum(axis=0))
        self.rho = np.abs(self.lam).max()
        diag, self.tril = np.arange(n), np.tril_indices(n, -1)
        diffs = np.tril(grams[:, 1:] - grams[:, :1])
        diffs += np.tril(diffs, -1).conj().swapaxes(-1, -2)
        diffs[..., diag, diag] = diffs[..., diag, diag].real
        w = self.v.conj().T @ diffs @ self.v
        r, c = self.tril
        w = np.concatenate([w[..., diag, diag].real, w[..., r, c].real, w[..., r, c].imag], axis=-1)
        self.variance = ((w**2).sum(axis=1) / m - w.sum(axis=1) ** 2 / m**2).sum(axis=0)
        self.w = w.reshape(-1, n * n)
        self.zeta = 1e3 * (big_n * m + n * n) * np.finfo(float).eps * np.linalg.norm(self.w, axis=1).sum()
        self._z = np.empty((0, n * n))
        self._key = self._weights = None

    def phi(self, c: float) -> float:
        """The allowance for ``eigh``'s residual and loss of orthogonality
        at bound ``c``, and for the rounding of ``g``."""
        return 1e3 * self.n**2 * np.finfo(float).eps * (self.rho + abs(c))

    def weights(self, c_lo: float, c_up: float) -> tuple[np.ndarray | None, bool]:
        """Per side, each packed column's weight, ``1 / g_k**2`` on the
        diagonal and ``2 / (g_k g_l)`` off it (``None`` if some ``g <=
        0``), and whether the expected weighted norm of a uniformly drawn
        row is below 1 on both sides; kept for the last bounds asked for."""
        if self._key != (c_lo, c_up):
            g = np.array([self.lam - c_lo - self.phi(c_lo), c_up - self.lam - self.phi(c_up)]) - self.zeta
            weights, typical = None, False
            if (g > 0).all():
                with np.errstate(over="ignore", invalid="ignore"):
                    off = 2 / (g[:, self.tril[0]] * g[:, self.tril[1]])
                    weights = np.concatenate([1 / g**2, off, off], axis=1)
                    typical = bool((weights @ self.variance < 1).all())
            self._key, self._weights = (c_lo, c_up), (weights, typical)
        return self._weights

    def rotated(self, rows: np.ndarray) -> np.ndarray:
        """``Z = (x - 1/m) @ w`` for the 0-based label rows ``rows``, ``x``
        their 0/1 indicators of the labels ``j >= 1``: one real GEMM into
        one buffer, grown to the most rows asked for and valid until the
        next call."""
        if len(rows) > len(self._z):
            self._z = np.empty((len(rows), self.n**2))
        offsets = (rows[:, :, None] == np.arange(1, self.m)).reshape(len(rows), -1) - 1 / self.m
        return np.matmul(offsets, self.w, out=self._z[: len(rows)])

    def proven(self, rows: np.ndarray, c_lo: float, c_up: float) -> np.ndarray:
        """Per row, whether ``sum_kl |Z_kl|**2 / (g_k g_l) < 1`` on both sides."""
        weights = self.weights(c_lo, c_up)[0]
        if weights is None:
            return np.zeros(len(rows), dtype=bool)
        with np.errstate(over="ignore"):
            norms = np.square(z := self.rotated(rows), out=z) @ weights.T
        return (norms < 1 - 1e3 * self.n**2 * np.finfo(float).eps).all(axis=1)


def _row_screen(grams: np.ndarray):
    """``inside(rows, low, up)``: per 0-based label row, whether its
    sequential sum's computed spectrum is proven to lie in ``(low, up)``.

    With ``c_lo = low + mu + delta'`` and ``c_up = up - mu - delta'``,
    ``delta'`` the ``delta`` of ``up - mu``, a row is proven by
    :class:`_NormScreen` while the expected weighted norm is below 1 on both
    sides, and otherwise by :func:`_inside_bounds` on its GEMM operator
    (:func:`_screen_operators`) with bounds ``low + mu`` and ``up - mu``;
    see :func:`certify_woven`.
    """
    operators, mu = _screen_operators(grams)
    norm = _NormScreen(grams)
    scale = 1e3 * grams.shape[-1] ** 2 * np.finfo(float).eps

    def inside(rows: np.ndarray, low: float, up: float) -> np.ndarray:
        low, up = low + mu, up - mu
        c_lo, c_up = low + scale * up, up - scale * up
        if not norm.weights(c_lo, c_up)[1]:
            return _inside_bounds(operators(rows), low, up)
        proven = norm.proven(rows, c_lo, c_up)
        rest = np.flatnonzero(~proven)
        if len(rest):
            proven[rest] = _inside_bounds(operators(rows[rest]), low, up)
        return proven

    return inside


def _factors(a: np.ndarray) -> np.ndarray:
    """Per matrix of the stack ``a``, whether Cholesky factors it.

    The LAPACK kernel of ``np.linalg.cholesky``, which raises for the whole
    stack if one matrix fails; called directly, it fills a failing
    matrix's factor with NaN instead.
    """
    with np.errstate(all="ignore"):
        return ~np.isnan(_umath_linalg.cholesky_lo(a)[..., -1, -1])


def _inside_bounds(s: np.ndarray, low: float, up: float) -> np.ndarray:
    """Per operator ``S`` of the stack ``s``, whether Cholesky factors both
    ``S - (low + delta) I`` and ``(up - delta) I - S``, with ``delta = 1e3 *
    n**2 * eps * up`` (see :func:`certify_woven`).  The upper side is tested
    only on the operators that pass the lower side."""
    eye = np.eye(s.shape[-1])
    delta = 1e3 * s.shape[-1] ** 2 * np.finfo(float).eps * up
    inside = _factors(s - (low + delta) * eye)
    # Most stacks pass whole: test them without gathering a copy.
    inside[inside] = _factors((up - delta) * eye - (s if inside.all() else s[inside]))
    return inside


def _envelopes(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix bounds ``H_i <= G_ij <= K_i`` (Loewner order) on each index's
    Gram terms; shape ``(N, n, n)`` each.

    The members are folded pairwise in member order, ``H_i = L(...L(G_i1,
    G_i2)..., G_im)`` and ``K_i`` likewise with ``U``, where, with ``D^+``
    and ``D^-`` the positive and negative parts of ``D = D^+ - D^-`` (both
    semidefinite), ``L(A, B) = A - (A - B)^+ = B - (A - B)^-`` is ``<= A``
    and ``<= B``, and ``U(A, B) = A + (A - B)^- = B + (A - B)^+`` is ``>=
    A`` and ``>= B``.  By induction ``H_i`` lies below and ``K_i`` above
    every member.  Each step takes one batched ``eigh`` of ``(H - G_ij, G_ij
    - K)`` and keeps the positive parts; the first, where ``H = K = G_i1``,
    takes one of ``G_i1 - G_i2`` alone.  For ``m = 2`` the fold is the
    mean ``M_i`` minus and plus ``|G_i1 - G_i2| / 2``, as ``G_i1 - (G_i1 -
    G_i2)^+ = M_i - |G_i1 - G_i2| / 2``; for scalars it is the least and
    greatest member.  The Loewner order has no meet: two Hermitian matrices
    have a greatest lower bound only if they are comparable (Kadison,
    *Proc. AMS* 2, 1951), so there is no unique best envelope, and the
    fold is one sound choice among many, cheap and exact for scalars; a
    different member order can give another.

    Summed over the indices not yet fixed (:func:`_suffix_sums`, in any
    order): a prefix sum ``S`` over the fixed indices and any completion
    ``S_sigma`` of it satisfy ``S + sum H_i <= S_sigma <= S + sum K_i``,
    and ``S <= S_sigma`` since Gram terms are semidefinite.  This is a
    matrix form of the paper's pairwise-difference condition.
    """
    h = k = grams[:, 0]
    for j in range(1, grams.shape[1]):
        g = grams[:, j]
        if j == 1:
            w, v = np.linalg.eigh(h - g)
            w = np.stack((w, -w))  # g - k = -(h - g): one eigh serves both
        else:
            w, v = np.linalg.eigh(np.stack((h - g, g - k)))
        pos = (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        h, k = h - pos[0], k + pos[1]
    return h, k


def _suffix_sums(terms: np.ndarray) -> np.ndarray:
    """``T[k] = sum_{p >= k} terms[p]``, shape ``(N + 1, n, n)``, ``T[N] = 0``."""
    return np.concatenate((np.cumsum(terms[::-1], axis=0)[::-1], np.zeros_like(terms[:1])))


def _partition_of(labels0) -> Partition:
    return Partition(tuple(int(x) + 1 for x in labels0))


def _fold_extremes(best: tuple, w: np.ndarray, keys) -> tuple:
    """Fold one batch of spectra into ``best = (low, low_at, up, up_at)``.

    Row ``r`` of ``w`` belongs to the weaving with the 0-based labels
    ``keys[r]``.  The lower side folds ``max(w[r, 0], 0)``, so every weaving
    whose computed ``lambda_min <= 0`` ties at 0, the reported bound.
    ``low_at`` and ``up_at`` are the keys of the first weaving that attains
    each bound: ``argmin``/``argmax`` return the first occurrence and a later
    batch must be strictly better, so ties keep the earliest weaving in
    enumeration order, which in exhaustive order is the lexicographically
    smallest.
    """
    low, low_at, up, up_at = best
    lows = np.maximum(w[:, 0], 0.0)  # a copy: at n = 1 column 0 is also column -1
    i = int(np.argmin(lows))
    if lows[i] < low:
        low, low_at = float(lows[i]), keys[i]
    i = int(np.argmax(w[:, -1]))
    if w[i, -1] > up:
        up, up_at = float(w[i, -1]), keys[i]
    return low, low_at, up, up_at


def _seed_weavings(grams: np.ndarray, suffix: np.ndarray, lower: bool) -> np.ndarray:
    """Two 0-based label rows likely to attain one bound: the lower if
    ``lower``, else the upper.

    Each is an alternating search: take the extreme eigenvector ``f`` of
    ``S_sigma`` (smallest for the lower side) and set ``sigma_i = argmin_j
    <G_ij f, f>`` (argmax for the upper side), until ``sigma`` repeats, at
    most ``N`` steps.  In exact arithmetic no step worsens the extreme
    eigenvalue.  One search starts from each index's member of smallest
    (largest) trace, the other from each index's member of smallest
    (largest) ``<G_ij g, g>``, ``g`` the extreme eigenvector of the side's
    root envelope sum ``suffix[0]`` (``sum_i H_i`` or ``sum_i K_i``,
    :func:`_suffix_sums` of :func:`_envelopes`), from one ``eigh``: the
    direction in which the envelopes put the side's bound.
    """
    big_n = len(grams)
    at = np.arange(big_n)
    side, pick = (0, np.argmin) if lower else (-1, np.argmax)

    def members(f):  # each index's member of extreme <G_ij f, f>
        return pick(np.einsum("a,imab,b->im", f.conj(), grams, f).real, axis=1)

    rows = []
    for labels in (pick(np.einsum("imaa->im", grams).real, axis=1),
                   members(np.linalg.eigh(suffix[0])[1][:, side])):
        for _ in range(big_n):
            step = members(np.linalg.eigh(grams[at, labels].sum(axis=0))[1][:, side])
            if np.array_equal(step, labels):
                break
            labels = step
        rows.append(labels)
    return np.array(rows)


def _search_side(grams: np.ndarray, envelopes, lower: bool) -> tuple:
    """One exhaustive bound by branch and bound: ``(low, low_at)`` if
    ``lower``, else ``(up, up_at)``, keyed by 0-based label rows.

    ``envelopes`` are ``_envelopes(grams)``.  The seeds
    (:func:`_seed_weavings`) take the side's suffix sums in index order;
    :func:`_walk` then fixes the indices in decreasing ``sum_r f_r* (K_i -
    H_i) f_r`` (a stable sort), ``f_r`` the extreme eigenvector of seed row
    ``r``, both from one batched ``eigh``, but for the lower side's
    index-order cases.  The result is that of folding every weaving's
    spectrum in code order; the proof and the cases are in
    :func:`certify_woven`.
    """
    big_n, m, n = grams.shape[0], grams.shape[1], grams.shape[-1]
    h, k = envelopes
    terms = h if lower else k
    suffix = _suffix_sums(terms)
    s = _frame_operators(grams, _seed_weavings(grams, suffix, lower))
    w = np.linalg.eigvalsh(s)
    seed = max(float(w[:, 0].min()), 0.0) if lower else float(w[:, -1].max())
    if lower and np.linalg.eigvalsh(suffix[0])[0] <= 0.0:  # not positive at the root: test S alone
        terms = np.zeros_like(h)
    top = np.linalg.eigvalsh(_suffix_sums(k)[0])[-1]
    delta = 1e3 * n**2 * np.finfo(float).eps * (big_n + m) * top
    index = order = np.arange(big_n)
    if not (lower and seed == 0.0):
        f = np.linalg.eigh(s)[1][..., 0 if lower else -1]
        order = np.argsort(-np.einsum("ra,iab,rb->i", f.conj(), k - h, f).real, kind="stable")
    best = _walk(grams, terms, lower, order, seed, delta)
    if lower and best[0] == 0.0 and (order != index).any():
        best = _walk(grams, terms, lower, index, 0.0, delta)
    return best


def _walk(grams: np.ndarray, terms: np.ndarray, lower: bool, order: np.ndarray,
          bound: float, delta: float) -> tuple:
    """The depth-first search of :func:`_search_side`, fixing the indices in
    ``order``: ``(best, best_at)``, the side's bound and the
    lexicographically smallest label row attaining it.

    ``terms`` are the side's per-index envelopes, summed in ``order`` for
    the suffix ``T``; ``bound`` is the seeds' value.  A batch takes whole
    parents, prefix sums ``P`` over the first ``k`` indices of ``order``,
    and tests all their children by one broadcast add, ``P + (G_kj + T[k +
    1] - cI)`` with ``c = low + delta`` on the lower side, ``(cI - (G_kj +
    T[k + 1])) - P`` with ``c = up - delta`` on the upper; a child is
    dropped if Cholesky factors its matrix.  The shifted terms of every
    ``k`` are formed once per value of ``c``.  Prefix sums and label rows
    are formed for the children kept; the first term is taken as is, not
    added to 0, so ``-0.0`` entries stay.  A full row kept takes
    ``eigvalsh`` of its sequential sum in index order: its prefix sum when
    ``order`` is the index order, else its sum formed again
    (:func:`_frame_operators`).  The lower side ends once its fold holds 0.
    """
    big_n, m, n = grams.shape[0], grams.shape[1], grams.shape[-1]
    ordered, in_order = grams[order], bool((order == np.arange(big_n)).all())
    fixed = ordered + _suffix_sums(terms[order])[1:, None]  # G_kj + T[k + 1]
    eye = np.eye(n)

    def shifted(c):  # G_kj + T[k + 1] - (c + delta) I, or (c - delta) I - (G_kj + T[k + 1])
        return fixed - (c + delta) * eye if lower else (c - delta) * eye - fixed

    take = max(1, _BATCH_ENTRIES // (m * n**2))
    best, best_at, shift = (np.inf if lower else -np.inf), None, shifted(bound)
    # (k, prefix sums over the first k searched indices, their label rows, next
    # parent); entry p of a row is the label of the p-th searched index, 0 from k.
    stack = [(0, np.zeros((1, n, n), dtype=complex), np.zeros((1, big_n), dtype=np.int64), 0)]
    while stack:
        k, sums, labels, start = stack.pop()
        stop = min(start + take, len(labels))
        if stop < len(labels):
            stack.append((k, sums, labels, stop))
        if lower:
            tested = sums[start:stop, None] + shift[k]
        else:
            tested = shift[k] - sums[start:stop, None]
        r, j = np.nonzero(~_factors(tested.reshape(-1, n, n)).reshape(-1, m))
        if not len(r):
            continue
        r += start
        kept = labels[r]
        kept[:, k] = j
        s = ordered[0, j] if k == 0 else sums[r] + ordered[k, j]  # not 0 + G: keeps -0.0
        if k + 1 < big_n:
            stack.append((k + 1, s, kept, 0))
        else:
            rows = np.empty_like(kept)
            rows[:, order] = kept
            w = np.linalg.eigvalsh(s if in_order else _frame_operators(grams, rows))
            values = np.maximum(w[:, 0], 0.0) if lower else w[:, -1]
            x = float(values.min() if lower else values.max())
            if x == best or (x < best if lower else x > best):
                ties = rows[values == x]
                if x == best:
                    ties = np.vstack((ties, best_at))
                best, best_at = x, ties[np.lexsort(ties.T[::-1])[0]]
                if best < bound if lower else best > bound:
                    shift = shifted(best)
            if lower and best == 0.0:  # only a strictly smaller value moves the fold
                break
    return best, best_at


def certify_woven(
    fam: GFrameFamily,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> WeavingReport:
    """Certify whether the family is woven.

    Exhaustive mode covers all ``m**N`` partitions (requires ``m**N <=
    budget``, checked before any work) and reports the true universal bounds;
    the woven verdict is ``universal_lower > frame_rtol * universal_upper``.
    Its report is that of diagonalising every weaving and folding the spectra
    in code order (:func:`_fold_extremes`), bit for bit.  Each bound takes its
    own search (:func:`_search_side`): after the spectra of two seed weavings
    of its side (:func:`_seed_weavings`), a depth-first search over label
    prefixes drops whole subtrees of weavings proven unable to move the
    bound, by one Cholesky test per prefix.  Each side fixes the indices in
    its own order, decreasing ``sum_r f_r* (K_i - H_i) f_r`` with ``f_r``
    the extreme eigenvector of its seed weaving ``r``, so that it branches
    first where its envelopes are loosest along the directions in which the
    seeds put its bound (variable ordering in branch and bound).  With
    ``S`` a prefix's sum over the first ``k`` indices of that order and
    ``SH``, ``SK`` the suffix sums of :func:`_envelopes` over the rest, in
    that order, the upper search drops the prefix if Cholesky factors ``(up
    - delta) I - (S + SK[k])``, ``up`` the largest ``lambda_max`` so far or
    of a seed; the lower search if it factors ``S + L[k] - (low + delta)
    I``, ``low`` the least ``max(lambda_min, 0)`` so far or of a seed, ``L =
    SH`` if ``lambda_min(SH[0]) > 0`` and else 0, as ``S <= S_sigma``.  At
    ``k = N`` both are zero: one side of sampled mode's skip rule below, per
    weaving, with floor ``low`` and the larger ``delta`` below.  A test that
    passes puts the computed spectrum of every completion strictly above
    ``low`` (below ``up``), whatever order summed ``S``, so every weaving
    attaining a bound reaches the fold.  There it takes ``eigvalsh`` of the
    sequential sum of its terms in index order, bit for bit: its prefix sum
    if the side searched in index order, else its sum formed again
    (:func:`_frame_operators`); of the weavings attaining a bound
    the fold keeps the lexicographically smallest label row, the first in
    code order, whatever order visited them.  A seed's spectrum is computed
    as a weaving's is, so ``low`` and ``up`` never pass the true bounds.
    That holds without sampled mode's ``frame_rtol * up`` in the floor, so
    the two searches are independent.  A batch tests all children of up to
    ``2**13 / (m n**2)`` parents by one broadcast add, and a search keeps
    one batch per index.

    The lower side folds ``max(lambda_min, 0)``, so once the fold holds 0
    no weaving can move it (only a strictly smaller value would), and the
    lower search ends, at the first weaving in its order that rounds to
    ``lambda_min <= 0``.  That is the lexicographically smallest only in
    index order, so a lower side whose seed value is 0 keeps index order,
    and one whose fold reaches 0 in its own order searches again in index
    order from floor 0.  A not-woven family none of whose weavings rounds
    to ``lambda_min <= 0`` keeps it to the end, and every subtree holding a
    weaving at or below ``low`` is searched down to its leaves.

    The search's ``delta`` is ``1e3 * n**2 * eps * (N + m) * U``, with ``U =
    lambda_max(SK[0])`` at least every weaving's ``lambda_max``.  For a
    semidefinite term ``|g_ab| <= sqrt(g_aa g_bb)``, so the entrywise
    absolute values of a weaving's terms sum to a matrix of norm at most
    ``tr S_sigma <= n U``, and those of the ``K_i`` to one of norm at most
    ``tr SK[0] <= n U``.  With ``g_i = max_j ||G_ij|| <= ||K_i||``, the fold
    of :func:`_envelopes` keeps ``lambda_max(H) <= g_i`` and lowers
    ``lambda_min(H)`` by at most ``g_i`` a step, and raises ``lambda_max(K)``
    by at most ``g_i`` a step, so ``||H_i|| <= (m - 1) ||K_i||``, and step
    ``j`` of its ``m - 1`` takes the ``eigh`` of a difference of norm at
    most ``j g_i``.  ``delta`` then covers: the backward error of a
    completed Cholesky, about ``n**2 * eps`` times the tested matrix's norm,
    at most ``2 U``; the rounding of the envelopes, about ``n * eps`` times
    that norm per step (an ``eigh`` and the product of its positive part),
    where each step's result lies below (above) both its inputs up to its
    own error, so the errors add: about ``m (m - 1) / 2 * n * eps *
    ||K_i||`` per index and at most ``m (m - 1) / 2 * n**2 * eps * U`` in
    all, which the ``1e3 m`` of ``1e3 (N + m)`` covers while ``m < 2000``
    (with ``N >= 2``, any ``m > 1000`` exceeds the default budget of
    ``10**6`` weavings); the rounding of the ``N``-term sums of ``S``,
    ``SH`` and ``SK`` and of a weaving's own sum, about ``N * eps`` times
    those norms, at most ``N * m * n * eps * U``, in any order of the terms,
    as the bound ``gamma_{N-1} sum_i |x_i|`` on a recursive sum does not
    depend on the order (Higham, sec. 4.2), so the search's order and the
    index order of the fold both fall within it; the broadcast add of a
    batch, two more rounded terms (``G_kj + L[k + 1] - cI``, then ``P``),
    within the ``m >= 2`` of ``N + m``; and the leaf ``eigvalsh`` error, a
    few ``n * eps * U``.  On 300 seeded families with Gram terms
    spread over twelve decades, the prefix bounds in a random order of the
    indices never crossed a weaving's computed spectrum by more than
    ``delta / 3000``, and by ``delta / 9000`` on 300 more with the folded
    envelopes (``m = 2, 3``); the tests allow ``delta / 10``.

    Sampled mode draws ``budget`` partitions from a seeded generator and can
    only falsify: it returns ``not-woven`` with a witness, or the explicitly
    weaker ``sampled-no-counterexample``.  It draws row blocks of 16 rows
    doubling to 256 (the generator yields the same labels however the draws
    are cut); a block holds at most 256 ``n x n`` complex operators, with
    ``N (m - 1)`` indicator floats and the norm test's ``n**2`` floats a
    row, and the Cholesky tests' two temporaries.  ``budget`` and ``seed``
    must be integers, not ``bool``, and ``budget >= 1`` (else
    ``ValueError``).

    After the first block, a row is skipped, counted and not folded, if
    the norm test below proves it inside, or else if Cholesky factors
    both ``S' - (floor + mu + delta') I`` and ``(up - mu - delta') I -
    S'`` (:func:`_row_screen`), with ``(low, up)`` the bounds so far,
    ``floor = max(low, frame_rtol * up)``, ``delta'`` the ``delta = 1e3 *
    n**2 * eps * up`` of ``up - mu``, and ``S' = sum_i G_i0 + X @ D`` from one GEMM
    (:func:`_screen_operators`) within ``mu`` of the row's sequential sum
    ``S``.  The other rows are summed exactly and take ``eigvalsh``, per
    matrix, so their floats do not depend on which rows are left; the first
    failing one ends the run, counted at its position in its block, and a
    counterexample at row ``r`` costs at most about ``2r + 16`` spectra.  A
    Cholesky that completes is exact for a matrix within ``gamma_{n+1} |R*|
    |R|`` of its input (Demmel 1989; Higham, *Accuracy and Stability of
    Numerical Algorithms*, sec. 10.1), about ``n**2 * eps * up``, and
    ``eigvalsh`` errs by a few ``n * eps * up``.  Both tests passing force
    ``up - mu > floor + mu >= mu``, so ``delta' > delta / 2`` covers both,
    and the computed spectrum of a skipped row's ``S`` lies in ``(floor,
    up)`` (both kernels read the lower triangle): ``w0 > floor >= low`` and
    ``w_last < up``, and only a strictly better row moves a bound, so no
    bound, witness or count changes; and ``w0 > floor >= frame_rtol * up >=
    frame_rtol * w_last`` (a rounded product is monotone), so no skipped
    row fails.  As ``low`` and ``up`` come from different rows, ``low <=
    frame_rtol * up`` can hold while every row so far passes; the floor
    keeps failing rows from being skipped.  If woven, it is ``low``.

    The margin is ``mu = 1e3 * n**2 * eps * (N + m) * g``, with ``g`` the
    largest entry of ``M = sum_ij |G_ij|`` (entrywise).  With ``u = eps /
    2`` and ``gamma_k = k u / (1 - k u)``, entrywise (Higham, sec. 3.1 and
    ch. 4): the products by 0 and 1 in ``X @ D`` are exact and a zero
    product adds exactly, so each entry is a sum of at most ``N`` rounded
    differences in whatever order the GEMM takes, within ``gamma_{N-1}
    sum_i |D_i|``; each difference ``G_ij - G_i0`` is rounded once, within
    ``u |G_ij - G_i0|``; the ``N``-term base sum is within ``gamma_{N-1}
    sum_i |G_i0|`` and the last add within ``u |S'|``; and ``S`` itself is
    within ``gamma_{N-1} sum_i |G_i sigma_i|`` of the exact sum.  A
    difference takes two members of one index, so each term is at most
    ``M``, and ``|S' - S| <= 3 N u M`` to first order, times ``sqrt(2)``
    for complex entries.  ``||M|| <= n g``, so ``||S' - S|| <= 2.2 N n eps
    g``; ``mu`` is ``450 n`` times that and more, and scales with the Gram
    terms, so the screen's decisions do not depend on the input's scale.
    On 300 seeded families with Gram terms spread over twelve decades the
    entries of ``S' - S`` stayed below ``2e-4 mu``; the tests allow ``mu /
    10``.

    The norm test (:class:`_NormScreen`) proves most rows of a woven family
    inside without a factorization, by congruence (Sylvester's law of
    inertia in Ostrowski's quantitative form, *PNAS* 45, 1959).  With the
    centre ``C = sum_i mean_j G_ij`` and one ``eigh``, ``C V = V Lambda``,
    a row's exact sum is ``A = C + Delta``, ``Delta = sum_{i, j >= 1} (x_ij
    - 1/m) D_ij``, so ``V* (A - c I) V = Lambda - c I + Z + P`` with ``Z =
    V* Delta V`` and ``||P|| <= ||O|| (rho + |c|) + ||V|| ||R||``, from
    ``eigh``'s residual ``R = C V - V Lambda`` and loss of orthogonality
    ``O = V* V - I``, ``rho = max |lambda|``.  ``V`` is invertible, so ``A
    - c I`` is positive definite if that is, which holds if ``G + Z' > 0``
    for ``G = diag(g)``, ``g = lambda - c - phi - zeta > 0``, ``phi >=
    ||P||`` and ``Z'`` the computed ``Z`` within ``zeta``; and that holds if
    ``||G^(-1/2) Z' G^(-1/2)||_F**2 = sum_kl |Z'_kl|**2 / (g_k g_l) < 1``,
    as the Frobenius norm bounds the spectral one.  The upper side is the
    same for ``c I - A``, with ``g = c - lambda - phi - zeta``.  The test
    takes ``c_lo = floor + mu + delta'`` and ``c_up = up - mu - delta'``,
    the Cholesky tests' shifts, so a proven row's exact sum lies strictly
    between them, and, by the argument above, its computed spectrum in
    ``(floor, up)``: no bound, witness or count changes.  ``mu``'s argument
    extends to the computed centre and offsets: ``A = sum_i mean_j G_ij +
    sum (x_ij - r) D_ij`` for any ``r``, so with ``r = fl(1/m)`` (which
    rounds for ``m = 3``) and ``fl(1 - r)`` rounded once, the exact ``A``
    of the computed centre, offsets and differences is within the
    centre's rounding (an ``m``-term mean, then an ``N``-term sum, within
    ``gamma_{N+m+1} M``), the differences' (``u |D_ij|`` against offsets
    of at most 1, within ``2 u M``) and the offsets' (``2 u`` against
    ``sum_ij |D_ij| <= m M``) of the exact sum: about ``(N + 3m + 3) u M``
    entrywise, and ``mu`` exceeds the norm of that and of ``S``'s own
    rounding more than ``400 n`` times.  ``phi = 1e3 * n**2 * eps * (rho +
    |c|)`` covers ``||P||``, a few ``n * eps * (rho + |c|)`` for a backward
    stable ``eigh``, and the rounding of ``g``.  ``zeta = 1e3 * (N m +
    n**2) * eps * sum_ij ||w_ij||``, over the packed rows ``w_ij`` of
    ``W_ij = V* D_ij V``: forming ``W_ij`` errs by about ``2 n u`` times
    ``|V*| |D_ij| |V|``, of Frobenius norm at most ``n ||D_ij||_F``, the
    GEMM over ``N (m - 1)`` terms by ``gamma_{N (m - 1)} sum_ij |W_ij|`` in
    any order of its sums, and the Hermitian matrix of packed columns has
    at most ``sqrt(2)`` times their norm.  The weighted sum (weights,
    squares, an ``n**2``-term dot product) errs by about ``(n**2 + 4) u``
    relative, so the test asks for ``< 1 - 1e3 * n**2 * eps``.  On 300
    seeded families with Gram terms spread over twelve decades (``m`` 2 to
    4), the measured ``eigh`` terms stayed below ``phi / 370``, the
    rounding of ``Z`` below ``zeta / 12000`` and the distance from the
    exact ``A`` to ``S`` below ``mu / 7000``; the tests allow a tenth.

    The test runs only while the expected weighted norm of a uniformly
    drawn row, ``sum_c w_c sum_i (sum_j W_ijc**2 / m - (sum_j W_ijc)**2 /
    m**2)`` over the packed columns ``c`` with weights ``w_c``, is below 1
    on both sides; it costs ``O(N m n**2)`` once and ``O(n**2)`` per pair of
    bounds.  Where a typical row cannot pass, the GEMM only adds cost: with
    the test always on, two independent Parseval members (``N = 48``, ``n
    = 8``, ``2**16`` draws) ran 17-24% slower than with the Cholesky tests
    alone, and with the gate within host noise of them (0.97-1.08x).  On
    the woven ``m2-N48-n8-d1`` benchmark shape (instance seeds 0-31) it
    leaves 0.3-17% of the screened rows to the Cholesky tests, and the
    same rows as before take exact sums.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    seed = None if seed is None else _integers((seed,), "seed must be an integer")[0]
    m, big_n = fam.m, fam.n_indices
    if mode == "exhaustive":
        checked = _check_budget(budget, "exhaustive certification needs", m, big_n)
        grams = _gram_tensor(fam)
        envelopes = _envelopes(grams)
        (best_low, wit_low), (best_up, wit_up) = (
            _search_side(grams, envelopes, lower) for lower in (True, False)
        )
        status = "woven" if best_low > tol.frame_rtol * best_up else "not-woven"
    else:
        _check_budget(budget)
        grams = _gram_tensor(fam)
        rng = np.random.default_rng(seed)
        best, screen = (np.inf, None, -np.inf, None), None
        checked, size, failed = 0, _BLOCK_FIRST, False
        while checked < budget and not failed:
            rows = rng.integers(0, m, size=(min(size, budget - checked), big_n))
            size = min(2 * size, _BLOCK_CAP)
            low, low_at, up, _ = best
            at = np.arange(len(rows))  # the rows' positions left to check
            if low_at is not None:
                # Built at the second block: a family that fails in its first
                # block never pays for it.
                screen = screen or _row_screen(grams)
                at = at[~screen(rows, max(low, tol.frame_rtol * up), up)]
            if len(at):
                w = np.linalg.eigvalsh(_frame_operators(grams, rows[at]))
                bad = w[:, 0] <= tol.frame_rtol * w[:, -1]
                failed = bool(bad.any())
                stop = int(np.argmax(bad)) + 1 if failed else len(at)
                best = _fold_extremes(best, w[:stop], rows[at[:stop]])
                if failed:
                    rows = rows[: at[stop - 1] + 1]
            checked += len(rows)
        best_low, wit_low, best_up, wit_up = best
        status = "not-woven" if failed else "sampled-no-counterexample"

    return WeavingReport(
        status=status,
        universal_lower=best_low,
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
    singular values of the weaving's synthesis matrix.  Label blocks
    (:func:`_label_blocks`, at least 64 rows and up to ``2**13`` operator
    entries) take sampled mode's row screen (:func:`_row_screen`: the norm
    test of :func:`certify_woven` while its gate is open, then the Cholesky
    tests on the rows it leaves) with
    floor ``s U`` and upper bound ``2 U``: ``s = (rank_rtol * maxdim)**2 +
    1e3 * n * eps`` (the rank threshold squared, plus singular-value
    rounding) and ``U = lambda_max(sum_ij G_ij)``, at least every
    weaving's ``lambda_max`` since ``S_sigma <= sum_j S_j``.  A
    rank-deficient weaving has ``lambda_min(S) <= s lambda_max(S) <= s
    U``, so it is never proven inside; each row that is not takes one
    SVD, in code order, and the first rank-deficient one is the witness.
    ``2 U`` only sizes the margins.  With the floor relative to
    ``U``, a weaving with ``lambda_min`` below about ``(s + 2e3 n**2 eps)
    U`` takes an SVD however well it spans; a wider margin takes none.
    """
    m, big_n, n = fam.m, fam.n_indices, fam.ambient_dim
    _check_budget(budget, "span check needs", m, big_n)
    grams = _gram_tensor(fam)
    inside = _row_screen(grams)
    up = np.linalg.eigvalsh(grams.sum(axis=(0, 1)))[-1]
    floor = ((tol.rank_rtol * max(n, fam.coeff_dim)) ** 2 + 1e3 * n * np.finfo(float).eps) * up
    for labels0 in _label_blocks(m, big_n, max(_SCREEN_ROWS, _BATCH_ENTRIES // n**2)):
        for row in labels0[~inside(labels0, floor, 2 * up)]:
            p = _partition_of(row)
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
        message = "universal must be two finite real bounds with 0 <= lower <= upper"
        bounds = _reals(universal, message)
        if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1]:
            raise ValueError(message)
        return bounds
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
    may pass known base bounds, finite reals with ``0 <= lower <= upper``;
    otherwise they are computed exhaustively.
    """
    a = _complex_array(scalars, "scalars must be numbers, not bool, str or bytes")
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
    keep = sorted(set(_integers(keep, "indices must be integers")))
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
    violated hypothesis is reported, not raised.  ``universal`` may pass
    (A, B), as in :func:`scaled_family`.
    """
    if fam.m != 2:
        raise ValueError("removal analysis is defined for two-member families")
    drop = sorted(set(_integers(drop, "indices must be integers")))
    if drop and (drop[0] < 1 or drop[-1] > fam.n_indices):
        raise ValueError(f"indices must lie in 1..{fam.n_indices}")
    if len(drop) >= fam.n_indices:
        raise ValueError("cannot drop every index")
    base_low, base_up = _resolve_universal(fam, universal, budget, tol)
    removed_upper = 0.0
    if drop:
        partial = frame_operator(restrict_family(fam, drop).frames[0])
        removed_upper = hermitian_extremes(partial, tol)[1]
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
    ||S_weaving||``.  ``B``, a finite real ``>= 0``, defaults to the
    Bessel-sum surrogate.  The result should never exceed numerical noise.
    """
    labels0 = _validate_labels(fam, p)
    n = fam.ambient_dim
    message = "upper must be a finite real >= 0"
    b_upper = bessel_sum_bound(fam) if upper is None else _reals((upper,), message)[0]
    if b_upper < 0:
        raise ValueError(message)
    s_psi = frame_operator(assemble_weaving(fam, p))
    norm_psi = hermitian_extremes(s_psi)[1]

    lhs = np.zeros((n, n), dtype=np.complex128)
    for j, fr in enumerate(fam.frames):
        # Member j's Gram terms over its own group, summed in index order from zero.
        r = sum(_gram_terms(b for b, l in zip(fr.blocks, labels0) if l == j), np.zeros((n, n)))
        lhs += r.conj().T @ r
    return hermitian_extremes(lhs)[1] - b_upper * norm_psi
