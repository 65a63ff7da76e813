"""g-Riesz analysis: optimal Riesz bounds, weavings of Riesz bases,
permuted-copy weaving, and the equivalence-constant calculus.

Riesz bounds quantify over coefficient vectors rather than ambient
vectors: the optimal constants are the extreme squared singular values of
the synthesis matrix, counted over all coefficient directions (so a
redundant family has lower constant zero).  Finite index sets make the
quantification over subsets redundant: zero-padding coefficients reduces
every subset inequality to the full-set one.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .gframe import GFrame, frame_bounds, synthesis_matrix
from .linalg import DEFAULT_TOL, Tolerance, _integers, _rank_from_singular_values
from .weaving import (
    _BATCH_ENTRIES,
    DEFAULT_BUDGET,
    GFrameFamily,
    Partition,
    _check_budget,
    _envelopes,
    _fold_extremes,
    _gram_tensor,
    _partition_of,
    _search_side,
    _seed_weavings,
    _suffix_sums,
)

__all__ = [
    "RieszBounds",
    "EquivalenceConstants",
    "WeavingRieszReport",
    "PermutationWeaveReport",
    "riesz_bounds",
    "weaving_riesz_check",
    "permutation_weave",
    "equivalence_constants",
]

# The Riesz sweep's candidates of least pivot, and its walk's blocks of rows.
# On the 64 riesz-pair pair families, 2, 4 or 8 candidates and blocks of 16,
# 32 or 64 rows sent a median of 18.5-24.5 weavings per sweep to the SVD.
_CANDIDATES = 2
_WALK_ROWS = 32


@dataclass(frozen=True)
class RieszBounds:
    """Optimal coefficient-side bounds with completeness/basis classification."""

    lower: float
    upper: float
    complete: bool
    is_basis: bool


@dataclass(frozen=True)
class EquivalenceConstants:
    """Best constants of the four equivalent weaving conditions for a pair
    of g-Riesz bases.

    ``riesz_low``/``riesz_up``: extreme per-weaving Riesz bounds over all
    partitions, the ``common_lower``/``common_upper`` of
    :class:`WeavingRieszReport`.  ``a2``: largest constant A with
    ``A ||sum_sigma L* g||^2 <= ||sum_sigma L* g + sum_sigma^c G* g||^2``
    for all g and sigma.  ``d3``: same with the split-sum quadratic form on
    the left.  ``e4`` equals ``a2`` by homogeneity (the unit-norm
    normalization is a sphere constraint on a ratio).
    """

    riesz_low: float
    riesz_up: float
    a2: float
    d3: float
    e4: float


@dataclass(frozen=True)
class WeavingRieszReport:
    """Per-partition Riesz verdicts for a pair of g-Riesz bases."""

    woven: bool
    common_lower: float
    common_upper: float
    witness_lower: Partition
    witness_upper: Partition
    partitions_checked: int


@dataclass(frozen=True)
class PermutationWeaveReport:
    """Weaving a g-Riesz basis against a permuted copy of itself; each field
    is derived from the cycles of ``pi`` in :func:`permutation_weave`."""

    permutation: tuple[int, ...]
    identity: bool
    woven: bool
    base_lower: float
    base_upper: float
    universal_lower: float
    universal_upper: float
    span_lower_min: float
    witness: Partition | None


def riesz_bounds(f: GFrame, tol: Tolerance = DEFAULT_TOL) -> RieszBounds:
    """Optimal Riesz-sequence constants of the synthesis matrix."""
    t = synthesis_matrix(f)
    s = np.linalg.svd(t, compute_uv=False)
    upper = float(s[0]) ** 2
    # The coefficient-space Gram is (coeff_dim x coeff_dim); extra columns
    # beyond the ambient dimension force a kernel, hence a zero lower bound.
    lower = 0.0 if f.coeff_dim > f.ambient_dim else float(s[-1]) ** 2
    complete = bool(_rank_from_singular_values(s, t.shape, tol) == f.ambient_dim)
    is_basis = complete and lower > tol.frame_rtol * upper
    return RieszBounds(lower=lower, upper=upper, complete=complete, is_basis=is_basis)


def _squares(x: np.ndarray) -> np.ndarray:
    """``float(v) ** 2`` for each entry.

    Python squares a float with libm ``pow``; numpy's ``x ** 2`` computes
    ``x * x``, which differs from ``pow`` in the last bit for some inputs.
    """
    return np.array([v**2 for v in x.tolist()])


def _owned_columns(fam: GFrameFamily, labels0: np.ndarray) -> np.ndarray:
    """Per 0-based label row of a pair, the mask of the synthesis columns
    taken from the second member."""
    return np.repeat(labels0 == 1, fam.block_dims, axis=1)


def _riesz_sweep(fam: GFrameFamily, members):
    """One pass over the ``2**N`` partitions of a pair of g-Riesz bases.

    Returns ``(best, kept)``: ``best`` as folded by ``_fold_extremes`` over
    squared extreme singular values of the weaving synthesis matrices ``T``
    (columns in index order), keyed by 0-based label rows; ``kept`` the
    label rows, in code order, that :func:`_angle_constants` must visit.
    ``members`` are the two members' :class:`RieszBounds`.

    *Angle screen.*  With ``mu**2`` the smaller lower and ``nu**2`` the
    larger upper Riesz bound of the members, every weaving factors as ``T =
    [Q_A Q_B] diag(R_A, R_B)`` with the singular values of ``R_A`` and
    ``R_B`` in ``[mu, nu]`` (column subsets interlace), so ``s_min(T)**2 /
    nu**2 <= 1 - cos(theta) <= s_min(T)**2 / mu**2`` for the smallest
    principal angle ``theta`` between the two sides.  ``a2`` and ``d3``
    both increase with ``1 - cos(theta)``, so a partition can attain them
    only if ``s_min(T)**2 <= (nu / mu)**2 * min s_min**2``.  ``kept`` holds
    the rows with ``s_min**2 <= thr(min s_min**2)``, where ``thr(low) =
    (1 + 1e-6) (nu / mu)**2 (low + 1e3 n eps nu**2)``: the relative term
    covers rounding in ``mu`` and ``nu``, the absolute one rounding in the
    singular values and the angle constants.  ``thr`` is monotone in
    floating point too, so ``thr`` of any value at or above the final
    ``low`` is at least ``thr`` of it: the pass stores the rows, and their
    ``s_min**2``, at or below ``thr`` of the running ``low``, and loses none
    that the final ``thr`` keeps.

    *Weaving screen.*  Each ``T`` is square, so ``s(T)**2`` are the
    eigenvalues of ``M = T* T``, the rows and columns of ``T``'s columns in
    the coefficient Gram ``Gc = B* B``, ``B`` the columns of both members,
    formed once by one GEMM (:func:`_coefficient_gram`).  A weaving is
    proven inside ``(c_lo, c_up)`` if the outer-product LDL* of both ``M -
    c_lo I`` and ``c_up I - M``, in index order (:func:`_eliminate`), has
    only positive pivots.  A NaN fails, and no pivot is infinite: after a
    positive pivot ``d`` an update lowers each diagonal entry by
    ``|x_ap|**2 / d >= 0``, so until a test fails a pivot is at most its
    finite diagonal entry.  The leading block of ``M`` depends only
    on the label prefix, so :func:`_pivot_tree` runs these eliminations
    for all ``2**N`` weavings at once, sharing every step of a common
    prefix, and each weaving gets the pivots of its own elimination, bit
    for bit.  The shifts come from the SVDs of a few candidate weavings
    (:func:`_candidates`), ``low0`` their least ``s_min**2`` and ``up0``
    their largest ``s_max**2``.  Each is a value that the fold will see, so
    the final bounds satisfy ``low <= low0`` and ``up >= up0``, and a
    weaving proven at ``c_lo = thr(low0) + margin`` and ``c_up = up0 -
    margin`` has computed ``s_min**2 > thr(low0) >= thr(low) >= low`` and
    ``s_max**2 < up0 <= up``: it moves no bound, is no witness and is not
    kept.  The weavings left are walked in code order, in blocks of
    ``_WALK_ROWS``; once the running bounds pass the candidates', each is
    tested again by the same elimination, on its own rows of ``Gc``, at
    ``thr(low) + margin`` and ``up - margin``, ``(low, up)`` the running
    bounds, which only tighten.  The rest take one batched SVD of their
    ``T`` and are folded in code order, so reports are those of a sweep
    that takes every SVD, bit for bit: SVDs are per matrix, so which rows
    share a batch changes no bit of a result.

    *Margin.*  ``margin = 1e3 * n**2 * eps * nu**2``.  Every weaving has
    ``T T* <= T_1 T_1* + T_2 T_2*``, so ``||M|| <= 2 nu**2``; a lower test
    that passes has ``0 < c_lo < 2 nu**2``, and an upper one ``0 < c_up <=
    up0 <= 2 nu**2``, as ``M``'s diagonal is positive.  With ``u = eps /
    2`` and ``gamma_k = k u / (1 - k u)`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 3), to first order: each entry of ``Gc``
    is an ``n``-term complex inner product, within ``gamma_{n+2} (|B*|
    |B|)_ab``, so the Hermitian matrix of the computed lower triangle on
    ``T``'s columns is within ``gamma_{n+2} ||T||_F**2 <= n (n + 2) eps
    nu**2`` of ``M`` in norm, and the shift rounds within ``u |M_aa - c|
    <= 2 eps nu**2``.  An LDL* whose pivots are all positive is a
    Cholesky ``R = D^(1/2) L*`` that completes, exact for ``A + dA`` with
    ``|dA| <= gamma_{n+3} |L| D |L*|`` for complex entries (Higham, Thm
    10.3), and ``|| |L| D |L*| || <= || |L| D^(1/2) ||_F**2 = tr(A + dA) <=
    n ||A + dA||``, so ``||dA|| <= n (n + 3) eps nu**2``.  So ``M - c_lo
    I`` proven positive definite puts ``lambda_min(M) > c_lo - (2 n**2 +
    5 n + 2) eps nu**2``, and ``c_up I - M`` puts ``lambda_max(M)`` as far
    below ``c_up``.  A backward stable SVD puts the computed ``s**2`` within
    about ``4 n eps nu**2`` of ``eig(M)``, squares included, and ``c_lo``
    and ``c_up`` themselves round within ``eps nu**2``.  In all, ``(2
    n**2 + 9 n + 3) eps nu**2 <= 8 n**2 eps nu**2`` for ``n >= 2``, and
    ``margin`` exceeds it 125 times.  ``margin``, ``thr``, ``Gc`` and
    every pivot scale with ``nu**2``, so the screen's decisions do not
    depend on the input's scale.
    """
    t_first, t_second = (synthesis_matrix(fr) for fr in fam.frames)
    big_n, n = fam.n_indices, fam.ambient_dim
    mu2, nu2 = min(rb.lower for rb in members), max(rb.upper for rb in members)
    eps = np.finfo(float).eps
    ratio, slack = (1 + 1e-6) * nu2 / mu2, 1e3 * n * eps * nu2
    margin = 1e3 * n**2 * eps * nu2
    gc = _coefficient_gram(fam)

    def spectra(labels0):
        owner = _owned_columns(fam, labels0)
        s = np.linalg.svd(np.where(owner[:, None, :], t_second, t_first), compute_uv=False)
        return np.stack([_squares(s[:, -1]), _squares(s[:, 0])], axis=1)

    def tables(x, low, up):  # the lower and upper test matrices of x at (low, up)
        return np.stack([_shifted(x, ratio * (low + slack) + margin, True),
                         _shifted(x, up - margin, False)], axis=2)

    w = spectra(_candidates(fam, gc))
    low0, up0 = float(w[:, 0].min()), float(w[:, 1].max())
    with np.errstate(all="ignore"):  # a pivot that is not a number fails its test
        codes = _leaves_under(_pivot_tree(tables(gc, low0, up0), fam.block_dims, True), big_n)
    best = (np.inf, None, -np.inf, None)
    stored = []
    for first in range(0, len(codes), _WALK_ROWS):
        labels0 = _label_rows(codes[first : first + _WALK_ROWS], big_n)
        low, up = min(best[0], low0), max(best[2], up0)
        if (low, up) != (low0, up0):
            labels0 = labels0[~_all_positive(tables(gc[_gathered(fam.block_dims, labels0)], low, up))]
            if not len(labels0):
                continue
        w = spectra(labels0)
        best = _fold_extremes(best, w, labels0)
        below = w[:, 0] <= ratio * (min(best[0], low0) + slack)
        stored.append((labels0[below], w[below, 0]))
    rows, floor = (np.concatenate(x) for x in zip(*stored))
    return best, rows[floor <= ratio * (best[0] + slack)]


def _label_rows(codes: np.ndarray, big_n: int) -> np.ndarray:
    """The 0-based label rows of the weavings with codes ``codes``, index 1
    the most significant bit."""
    return (codes[:, None] >> np.arange(big_n - 1, -1, -1)) & 1


def _leaves_under(nodes, big_n: int) -> np.ndarray:
    """The sorted codes of the leaves under the ``(k, codes, _)`` batches of
    nodes ``nodes``, whose subtrees must not overlap: a node at depth ``k``
    with code ``x`` holds the ``2**(N - k)`` codes from ``x 2**(N - k)``."""
    starts, sizes = [], []
    for k, codes, _ in nodes:
        starts.append(codes << (big_n - k))
        sizes.append(np.full(len(codes), 1 << (big_n - k)))
    starts, sizes = np.concatenate(starts), np.concatenate(sizes)
    at = np.argsort(starts)
    starts, sizes = starts[at], sizes[at]
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _coefficient_gram(fam: GFrameFamily) -> np.ndarray:
    """``Gc = B* B`` of a pair, ``(2c, 2c)``: ``B`` holds the synthesis
    columns of index 1 of member 1, then of member 2, then index 2's, and
    so on."""
    b = np.hstack([blk.conj().T for pair in zip(*(fr.blocks for fr in fam.frames)) for blk in pair])
    return b.conj().T @ b


def _shifted(x: np.ndarray, c: float, lower: bool) -> np.ndarray:
    """``x - c I`` if ``lower``, else ``c I - x``, for matrices along the
    leading two axes of ``x``."""
    y = x.copy()
    diag = np.arange(x.shape[0])
    y[diag, diag] -= c
    return y if lower else np.negative(y, out=y)


def _gathered(dims, labels0: np.ndarray):
    """The index pair that gathers each label row's ``T* T`` from
    :func:`_coefficient_gram`, rows last: weaving ``sigma`` takes index
    ``i``'s columns at ``2 o_i + sigma_i d_i + t``, ``o_i`` the index's
    first synthesis column and ``t < d_i``."""
    dims = np.asarray(dims)
    at = np.arange(dims.sum()) + np.repeat(np.cumsum(dims) - dims, dims)
    at = (at + np.repeat(labels0 * dims, dims, axis=1)).T
    return at[:, None], at[None]


def _eliminate(x: np.ndarray, p: int = 0, skip: int = 0, out=None):
    """One outer-product LDL* step at pivot ``p`` on Hermitian matrices
    along the leading two axes of ``x``: the pivots ``d = Re x_pp`` and the
    Schur complements ``x_ab - (x_ap / d) conj(x_bp)`` on the rows and
    columns from ``p + 1 + skip`` on, written to ``out`` if given.

    It reads the real diagonal and the column below it, so it factors the
    Hermitian matrix of ``x``'s lower triangle.  Each entry is one
    elementwise expression, so a step on any subset of the rows and
    columns that keeps the pivot gives the same floats on that subset.
    """
    q = p + 1 + skip
    d = x[p, p].real
    rest = np.multiply(x[q:, p, None] / d, x[None, q:, p].conj(), out=out)
    return d, np.subtract(x[q:, q:], rest, out=rest)


def _all_positive(x: np.ndarray) -> np.ndarray:
    """Per last index of ``x`` ``(r, r, t, rows)``, whether the LDL* of
    :func:`_eliminate` gives only positive pivots on all ``t`` of its
    matrices; a pivot that is not a number fails."""
    ok = np.ones(x.shape[-1], dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(len(x)):
            d, x = _eliminate(x)
            ok &= (d > 0).all(axis=0)
    return ok


def _pivot_tree(tables: np.ndarray, dims, prune: bool):
    """The outer-product LDL* of every weaving's matrices, shared over label
    prefixes.

    ``tables`` ``(2c, 2c, t)`` are ``t`` Hermitian matrices over the
    coefficient columns of both members, in :func:`_coefficient_gram`'s
    order; weaving ``sigma``'s matrices are their rows and columns on its
    own columns (:func:`_gathered`).  The node of a label prefix of length
    ``k`` holds each table's Schur complement after the prefix's columns
    were eliminated in index order (:func:`_eliminate`), on the columns of
    both members at indices ``k`` and up.  A node branches at an index's
    first column, one rank-one update per column: label 2 eliminates the
    second member's columns, which follow the first member's, and label 1
    its own, its last step skipping the second member's.  Every entry of a
    weaving's own matrices takes the same operations as in the elimination
    of its gathered matrices, so its pivots are that elimination's, bit for
    bit.

    Nodes lie along the last axis, so each operation runs over a batch at
    once.  Depth first, in batches whose children hold at most
    ``_BATCH_ENTRIES`` table entries and pivots, with at most one batch's children
    waiting at each depth.  Yields ``(k, codes, pivots)``: nodes at depth
    ``k`` by their prefixes' codes (index 1 the most significant bit).
    With ``prune``, the nodes whose last index gave a pivot that is not
    positive (NaN included) on some table, whose subtrees are not expanded,
    and ``pivots`` is ``None``; without, every leaf, with its pivots
    ``(columns, t, leaves)``.
    """
    big_n, t = len(dims), tables.shape[-1]
    stack = [(0, np.zeros(1, dtype=np.int64), tables[..., None], np.empty((0, t, 1)), 0)]
    while stack:
        k, codes, x, pivots, start = stack.pop()
        d, width = dims[k], len(x) - 2 * dims[k]
        per_child = t * (width**2 + (0 if prune else len(pivots) + d))
        stop = min(start + max(1, _BATCH_ENTRIES // max(2 * per_child, 1)), len(codes))
        if stop < len(codes):
            stack.append((k, codes, x, pivots, stop))
        size = stop - start
        children = np.empty((width, width, t, 2, size), dtype=complex)
        new = np.empty((d, t, 2, size))
        for label in (0, 1):
            y = x[..., start:stop]
            for step in range(d):
                last = step == d - 1
                new[step, :, label], y = _eliminate(
                    y, label * d if step == 0 else 0, d if last and not label else 0,
                    children[..., label, :] if last else None,
                )
        k, codes = k + 1, 2 * codes[start:stop]
        codes = np.concatenate((codes, codes + 1))
        x, new = children.reshape(width, width, t, 2 * size), new.reshape(d, t, 2 * size)
        if prune:
            ok = (new > 0).all(axis=(0, 1))
            if not ok.all():
                yield k, codes[~ok], None
                codes, x = codes[ok], x[..., ok]
        else:
            pivots = pivots[..., start:stop]
            pivots = np.concatenate((np.concatenate((pivots, pivots), axis=-1), new))
            if k == big_n:
                yield k, codes, pivots
        if k < big_n and len(codes):
            stack.append((k, codes, x, pivots, 0))


def _candidates(fam: GFrameFamily, gc: np.ndarray) -> np.ndarray:
    """Label rows whose spectra set :func:`_riesz_sweep`'s shifts: the
    ``_CANDIDATES`` weavings with the smallest least pivot of ``T* T``
    itself (:func:`_pivot_tree` on ``Gc``; each pivot is at least
    ``lambda_min``), then :func:`_seed_weavings`' two upper rows."""
    codes, least = np.empty(0, dtype=np.int64), np.empty(0)
    with np.errstate(all="ignore"):  # NaN pivots sort last
        for _, more, pivots in _pivot_tree(gc[..., None], fam.block_dims, False):
            codes = np.concatenate((codes, more))
            least = np.concatenate((least, pivots.min(axis=(0, 1))))
            at = np.argsort(least, kind="stable")[:_CANDIDATES]
            codes, least = codes[at], least[at]
    grams = _gram_tensor(fam)
    upper = _seed_weavings(grams, _suffix_sums(_envelopes(grams)[1]), lower=False)
    return np.vstack((_label_rows(codes, fam.n_indices), upper))


def _angle_constants(fam: GFrameFamily, tol: Tolerance, rows: np.ndarray):
    """``(a2, d3)`` of :func:`equivalence_constants` over the partitions
    with the 0-based label rows ``rows`` (``inf`` where none constrains
    them).

    One partition at a time, in the order of ``rows``: an SVD per side for
    its range basis, one of the overlap for ``a2`` and one of the joined
    bases for ``d3``, so each partition gets the same floats however
    ``rows`` was screened.
    """
    t_first, t_second = (synthesis_matrix(fr) for fr in fam.frames)
    a2 = d3 = np.inf
    for owner in _owned_columns(fam, rows):
        o_left = _range_basis(t_first[:, ~owner], tol)
        o_right = _range_basis(t_second[:, owner], tol)
        rl, rr = o_left.shape[1], o_right.shape[1]
        if rl > 0 and rr == 0:
            a2 = min(a2, 1.0)
        elif rl > 0:
            overlap = np.linalg.svd(o_right.conj().T @ o_left, compute_uv=False)
            a2 = min(a2, max(0.0, 1.0 - float(overlap[0]) ** 2))
        if rl + rr > 0:
            mix = np.hstack([o_left, o_right])
            d3 = min(d3, float(np.linalg.svd(mix, compute_uv=False)[-1]) ** 2)
    return float(a2), float(d3)


def _riesz_pair_reports(fam: GFrameFamily, tol: Tolerance, budget: int, angles: bool):
    """The :func:`weaving_riesz_check` report, and with ``angles`` the
    :func:`equivalence_constants` report (else ``None``), from one sweep.

    Both members must be g-Riesz bases: ``ValueError`` names the first that
    is not.  ``riesz_low``/``riesz_up`` are ``common_lower``/``common_upper``."""
    if fam.m != 2:
        raise ValueError("the Riesz weaving check is defined for two-member families")
    members = [riesz_bounds(fr, tol) for fr in fam.frames]
    for j, rb in enumerate(members, start=1):
        if not rb.is_basis:
            raise ValueError(f"member {j} is not a g-Riesz basis")
    total = _check_budget(budget, "Riesz weaving check needs", 2, fam.n_indices)
    best, kept = _riesz_sweep(fam, members)
    best_low, labels_low, best_up, labels_up = best
    report = WeavingRieszReport(
        woven=best_low > tol.frame_rtol * best_up,
        common_lower=max(best_low, 0.0),
        common_upper=best_up,
        witness_lower=_partition_of(labels_low),
        witness_upper=_partition_of(labels_up),
        partitions_checked=total,
    )
    if not angles:
        return report, None
    a2, d3 = _angle_constants(fam, tol, kept)
    return report, EquivalenceConstants(
        riesz_low=report.common_lower, riesz_up=report.common_upper, a2=a2, d3=d3, e4=a2
    )


def weaving_riesz_check(
    fam: GFrameFamily,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> WeavingRieszReport:
    """Enumerate all weavings of two g-Riesz bases and classify each.

    Both members must be g-Riesz bases, so every weaving has a square
    synthesis matrix and an injective weaving is automatically onto: if all
    weavings keep a positive lower Riesz constant, every weaving is a
    g-Riesz basis and the pair is woven.  Witnesses are the first partition
    in lexicographic order that attains each bound.  Each weaving that LDL*
    pivot tests on the members' coefficient Gram prove unable to move
    either bound skips its SVD (see ``_riesz_sweep``), which changes no
    reported float.
    """
    return _riesz_pair_reports(fam, tol, budget, angles=False)[0]


def permutation_weave(
    f: GFrame,
    pi,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> PermutationWeaveReport:
    """Weave a g-Riesz basis against a relabelled copy of itself.

    ``pi`` maps index i to ``pi[i-1]`` (1-based); its entries must be
    integers, not ``bool``.  ``f`` must be a g-Riesz basis under ``tol``.
    No weaving is enumerated.  ``T = synthesis_matrix(f)`` is invertible,
    and weaving ``sigma`` has synthesis matrix ``T P``, where ``P`` picks
    block ``b`` of ``f`` ``d_b = [sigma_b = 1] + [sigma_a = 2]`` times, ``a
    = pi^-1(b)``.  ``T P`` is invertible iff every ``d_b = 1``, iff
    ``sigma`` is constant on each cycle of ``pi``.  So for ``pi != id``
    ``universal_lower`` is 0.0 and the pair is not woven.  The witness has
    label 2 only at the largest index ``j`` that ``pi`` moves: it holds
    block ``pi(j)`` twice, and each weaving before it in code order differs
    from the all-ones one only at fixed points, so its matrix is ``T``.
    The nonzero eigenvalues of ``T P P* T* = T D T*`` are those of
    ``D_B^(1/2) G_BB D_B^(1/2)``, ``G = T* T`` and ``B`` the blocks with
    ``d_b >= 1``: at least ``lambda_min(G_BB)`` by Ostrowski's theorem
    (``d_b`` is 1 or 2), which is at least ``lambda_min(G)`` by Cauchy
    interlacing (Horn & Johnson, *Matrix Analysis*, secs. 4.3 and 4.5).
    The all-ones weaving attains it: ``span_lower_min = s_min(T)**2``, from
    the SVD in :func:`riesz_bounds`.  ``universal_upper``, the largest
    ``lambda_max`` of a weaving, is exhaustive :func:`certify_woven`'s on
    ``(f, f relabelled)``, from its upper search alone.  For ``pi = id`` every
    weaving is ``T``, and the report is that of its one SVD, bit for bit.
    Against 50-digit ``mpmath`` over every weaving (``N <= 6``),
    ``universal_upper`` is accurate to 1e-12 relative and ``span_lower_min``
    to 1e-12 times ``universal_upper``.
    """
    rb = riesz_bounds(f, tol)
    if not rb.is_basis:
        raise ValueError("recoded-copy weaving requires a g-Riesz basis")
    big_n = f.n_blocks
    message = f"pi must be a permutation of 1..{big_n}"
    pi = _integers(pi, message)
    if sorted(pi) != list(range(1, big_n + 1)):
        raise ValueError(message)
    dims = f.block_dims
    for i, target in enumerate(pi, start=1):
        if dims[target - 1] != dims[i - 1]:
            raise ValueError(
                f"block dimension mismatch: index {i} has dim {dims[i - 1]} "
                f"but pi({i}) = {target} has dim {dims[target - 1]}"
            )
    _check_budget(budget, "permutation weave needs", 2, big_n)
    fb = frame_bounds(f, tol)
    moved = [i for i, target in enumerate(pi) if target != i + 1]
    if moved:
        recoded = GFrame(f.ambient_dim, tuple(f.blocks[target - 1] for target in pi))
        # Both members have the blocks of f, already a basis under tol.
        fam = GFrameFamily((f, recoded), allow_degenerate=True)
        grams = _gram_tensor(fam)
        low, up = 0.0, _search_side(grams, _envelopes(grams), lower=False)[0]
        witness = Partition(tuple(2 if i == moved[-1] else 1 for i in range(big_n)))
    else:
        low, up, witness = rb.lower, rb.upper, None
    return PermutationWeaveReport(
        permutation=pi,
        identity=not moved,
        woven=low > tol.frame_rtol * up,
        base_lower=fb.lower,
        base_upper=fb.upper,
        universal_lower=low,
        universal_upper=up,
        span_lower_min=rb.lower,
        witness=witness,
    )


def _range_basis(mat: np.ndarray, tol: Tolerance) -> np.ndarray:
    """An orthonormal basis of the numerical column range of ``mat``."""
    if mat.shape[1] == 0:
        return mat
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = _rank_from_singular_values(s, mat.shape, tol)
    # A boolean mask copies the columns column-major; a slice would keep
    # u's row-major strides, matmul would take another BLAS route and the
    # overlap could differ in the last bit.
    return u[:, np.arange(s.size) < rank]


def equivalence_constants(
    fam: GFrameFamily,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> EquivalenceConstants:
    """Compute the optimal constants of the four weaving conditions.

    For each partition, the best constant of the one-sided condition is a
    principal-angle quantity: minimizing the ratio over coefficients (with
    the free complement coordinates minimized out) equals
    ``1 - cos^2`` of the smallest angle between the span of the first
    member's kept blocks and the span of the second member's complementary
    blocks.  The split-sum condition reduces to the smallest singular value
    of the concatenated orthonormal range bases.  Partitions whose
    denominator form vanishes identically contribute no constraint.

    Both members must be g-Riesz bases, as for :func:`weaving_riesz_check`:
    ``ValueError`` names the first that is not.  ``riesz_low``/``riesz_up``
    are that check's ``common_lower``/``common_upper``, from the same sweep.

    Two screens skip work that cannot change a reported float; their
    proofs and rounding margins are in ``_riesz_sweep``.  The angle
    quantities are computed only on partitions that can attain ``a2`` and
    ``d3``, and a weaving takes the weaving SVD only if the LDL* pivot
    tests on the members' coefficient Gram cannot prove it inside the
    bounds and above the angle threshold.
    """
    return _riesz_pair_reports(fam, tol, budget, angles=True)[1]
