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
    DEFAULT_BUDGET,
    GFrameFamily,
    Partition,
    _SCREEN_ROWS,
    _check_budget,
    _envelopes,
    _fold_extremes,
    _gram_tensor,
    _inside_bounds,
    _label_blocks,
    _partition_of,
    _screen_operators,
    _search_side,
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
    singular values and the angle constants.  The running ``low`` only
    falls and ``thr`` is monotone in floating point too, so ``thr`` at the
    running ``low`` is at least ``thr`` at the final one: the pass stores
    the rows, and their ``s_min**2``, at or below ``thr`` of the running
    ``low``, and loses none that the final ``thr`` keeps.

    *Weaving screen.*  The sweep walks :func:`_label_blocks` of 64 rows in
    code order.  Each ``T`` is square, so ``s(T)**2`` are the eigenvalues
    of ``S = T T*``, and after the first block a partition is skipped by
    sampled mode's row screen (:func:`certify_woven`) with the running
    ``(low, up)`` and the floor ``thr(low)``, whose Cholesky margin also
    covers the rounding of the Gram terms (about ``n eps up``) and the
    SVD's error in ``s_min**2`` (about ``2 eps up``).  A skipped
    partition's computed ``s_min**2`` lies above ``thr(low) >= low`` and
    its ``s_max**2`` below ``up``, so it moves no bound and would not have
    been stored.  The other partitions take one batched SVD of their ``T``
    and are folded in code order, so reports are those of a sweep that
    takes every SVD, bit for bit.  SVDs are per matrix, so the block size
    changes no bit of a result.
    """
    t_first, t_second = (synthesis_matrix(fr) for fr in fam.frames)
    mu2, nu2 = min(rb.lower for rb in members), max(rb.upper for rb in members)
    ratio, slack = (1 + 1e-6) * nu2 / mu2, 1e3 * fam.ambient_dim * np.finfo(float).eps * nu2
    operators, margin = _screen_operators(_gram_tensor(fam))
    best = (np.inf, None, -np.inf, None)
    stored = []
    for labels0 in _label_blocks(2, fam.n_indices, _SCREEN_ROWS):
        if best[1] is not None:
            labels0 = labels0[~_inside_bounds(operators(labels0), thr + margin, best[2] - margin)]
            if not len(labels0):
                continue
        owner = _owned_columns(fam, labels0)
        s = np.linalg.svd(np.where(owner[:, None, :], t_second, t_first), compute_uv=False)
        w = np.stack([_squares(s[:, -1]), _squares(s[:, 0])], axis=1)
        best = _fold_extremes(best, w, labels0)
        thr = ratio * (best[0] + slack)  # only a fold moves it
        below = w[:, 0] <= thr
        stored.append((labels0[below], w[below, 0]))
    rows, floor = (np.concatenate(x) for x in zip(*stored))
    return best, rows[floor <= thr]


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
    in lexicographic order that attains each bound.  After the first block
    of 64, each weaving that a Cholesky test on sampled mode's GEMM operator
    proves unable to move either bound skips its SVD (see ``_riesz_sweep``),
    which changes no reported float.
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
    ``d3``, and a weaving after the first 64 takes the weaving SVD only if
    a Cholesky test on its GEMM operator, within a margin of its frame
    operator, cannot prove it inside the running bounds and above the angle
    threshold.
    """
    return _riesz_pair_reports(fam, tol, budget, angles=True)[1]
