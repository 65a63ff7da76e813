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
from .linalg import DEFAULT_TOL, Tolerance, _rank_from_singular_values
from .weaving import (
    DEFAULT_BUDGET,
    GFrameFamily,
    Partition,
    _SCREEN_ROWS,
    _check_budget,
    _decode_codes,
    _exhaustive_operators,
    _fold_extremes,
    _gram_tensor,
    _inside_bounds,
    _partition_of,
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

_CHUNK = 128


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

    ``riesz_low``/``riesz_up``: extreme per-weaving Riesz-sequence bounds
    over all partitions.  ``a2``: largest constant A with
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
    """Weaving a g-Riesz basis against a permuted copy of itself."""

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


def _riesz_sweep(fam: GFrameFamily, tol: Tolerance, members=None):
    """One pass over the ``2**N`` partitions of a two-member family.

    Returns ``(best, span_low_min, kept)``: ``best`` as folded by
    ``_fold_extremes`` over squared extreme singular values of the weaving
    synthesis matrices ``T`` (columns in index order), keyed by 0-based
    label rows; ``span_low_min`` the smallest squared singular value above
    the rank threshold; ``kept`` the codes that :func:`_angle_constants`
    must visit.  ``members`` are the two members' :class:`RieszBounds`, or
    ``None`` (then every code is kept).

    *Angle screen.*  If both members pass ``lower > frame_rtol * upper``
    (full column rank, so ``c <= n``), with ``mu**2`` the smaller lower and
    ``nu**2`` the larger upper Riesz bound, every weaving factors as ``T =
    [Q_A Q_B] diag(R_A, R_B)`` with the singular values of ``R_A`` and
    ``R_B`` in ``[mu, nu]`` (column subsets interlace), so ``s_min(T)**2 /
    nu**2 <= 1 - cos(theta) <= s_min(T)**2 / mu**2`` for the smallest
    principal angle ``theta`` between the two sides.  ``a2`` and ``d3``
    both increase with ``1 - cos(theta)``, so a partition can attain them
    only if ``s_min(T)**2 <= (nu / mu)**2 * min s_min**2``.  ``kept`` holds
    the codes with ``s_min**2 <= thr(min s_min**2)``, where ``thr(low) =
    (1 + 1e-6) (nu / mu)**2 (low + 1e3 max(n, c) eps nu**2)``: the relative
    term covers rounding in ``mu`` and ``nu``, the absolute one rounding in
    the singular values and the angle constants.  Otherwise the inequality
    can fail and every code is kept.  The pass stores one float,
    ``s_min**2``, per partition.

    *Weaving screen.*  On a square pair (``c == n`` and the angle screen
    applies), ``s(T)**2`` are the eigenvalues of ``S = T T* = sum_i
    G_{i sigma_i}``.  The ``S`` come from ``_exhaustive_operators`` in code
    order and in blocks of ``_SCREEN_ROWS``; with ``(low, up)`` the running
    bounds, a block after the first is skipped if ``_inside_bounds(S,
    thr(low), up)``, that is if Cholesky factors ``S - (thr(low) + delta)
    I`` and ``(up - delta) I - S`` with ``delta = 1e3 n**2 eps up``.  A
    skipped partition's computed ``s_min**2`` lies above ``thr(low)`` and
    its ``s_max**2`` below ``up``: ``delta`` covers the backward error of a
    completed Cholesky (about ``n**2 eps up``, see :func:`certify_woven`),
    the rounding of the Gram terms and of the prefix sums (``N <= n``
    terms, about ``(n + N) eps up``), and the SVD's error in ``s_min**2``
    (about ``2 eps s_max s_min <= 2 eps up``, plus one rounding of the
    square).  ``thr(low) >= low``, and only a strictly better row moves a
    bound, so the bounds and witnesses stay exact.  The running ``low`` only
    falls and ``thr`` is monotone in floating point too, so ``thr`` at the
    running ``low`` is at least ``thr`` at the final one, and a skipped
    partition (stored as ``inf``) would not have been kept either.  Every
    other block takes the SVD of its ``T``, as the unscreened loop does, so
    reports are those of the unscreened sweep bit for bit.  The screened
    path leaves ``span_low_min`` at ``inf``.

    Every other family (``c != n``, which only redundant or rank-deficient
    :func:`equivalence_constants` inputs reach, and :func:`permutation_weave`,
    which passes no ``members``) takes chunks of ``_CHUNK`` codes, each one
    batched SVD.
    """
    n, c = fam.ambient_dim, fam.coeff_dim
    t_first, t_second = (synthesis_matrix(fr) for fr in fam.frames)
    big_n, total = fam.n_indices, 2**fam.n_indices
    best = (np.inf, None, -np.inf, None)
    span_low_min = np.inf
    screen = members is not None and all(
        rb.lower > tol.frame_rtol * rb.upper for rb in members
    )
    if screen:
        low, up = min(rb.lower for rb in members), max(rb.upper for rb in members)
        ratio, slack = (1 + 1e-6) * up / low, 1e3 * max(n, c) * np.finfo(float).eps * up
        floor = np.full(total, np.inf)

    def svd_block(first, stop):
        """One batched SVD of the weavings ``first..stop-1``, folded in."""
        nonlocal best
        labels0 = _decode_codes(np.arange(first, stop), 2, big_n)
        # Columns that the partition takes from the second member.
        owner = np.repeat(labels0 == 1, fam.block_dims, axis=1)
        s = np.linalg.svd(np.where(owner[:, None, :], t_second, t_first), compute_uv=False)
        w = np.stack([_squares(s[:, -1]), _squares(s[:, 0])], axis=1)
        best = _fold_extremes(best, w, labels0)
        if screen:
            floor[first:stop] = w[:, 0]
        return s

    if screen and c == n:
        for first, ops in _exhaustive_operators(_gram_tensor(fam), 2):
            for start in range(0, len(ops), _SCREEN_ROWS):
                s = ops[start : start + _SCREEN_ROWS]
                if best[1] is None or not _inside_bounds(s, ratio * (best[0] + slack), best[2]):
                    svd_block(first + start, first + start + len(s))
    else:
        for first in range(0, total, _CHUNK):
            s = svd_block(first, min(first + _CHUNK, total))
            # Singular values come sorted, so the live ones are a prefix.
            live = _rank_from_singular_values(s, (n, c), tol)
            span_low_min = min(span_low_min, _squares(s[np.arange(len(s)), live - 1]).min())
    kept = np.flatnonzero(floor <= ratio * (best[0] + slack)) if screen else np.arange(total)
    return best, float(span_low_min), kept


def _angle_constants(fam: GFrameFamily, tol: Tolerance, codes: np.ndarray):
    """``(a2, d3)`` of :func:`equivalence_constants` over the partitions
    ``codes`` (``inf`` where none constrains them).

    One partition at a time, in code order: an SVD per side for its range
    basis, one of the overlap for ``a2`` and one of the joined bases for
    ``d3``, so each partition gets the same floats however ``codes`` was
    screened.
    """
    n = fam.ambient_dim
    t_first, t_second = (synthesis_matrix(fr) for fr in fam.frames)
    a2 = d3 = np.inf
    for owner in np.repeat(_decode_codes(codes, 2, fam.n_indices) == 1, fam.block_dims, axis=1):
        o_left = _range_basis(t_first[:, ~owner], tol)
        o_right = _range_basis(t_second[:, owner], tol)
        rl, rr = o_left.shape[1], o_right.shape[1]
        if rl > 0 and rr == 0:
            a2 = min(a2, 1.0)
        elif rl > 0:
            overlap = np.linalg.svd(o_right.conj().T @ o_left, compute_uv=False)
            a2 = min(a2, max(0.0, 1.0 - float(overlap[0]) ** 2))
        if rl + rr > n:
            d3 = min(d3, 0.0)
        elif rl + rr > 0:
            mix = np.hstack([o_left, o_right])
            d3 = min(d3, float(np.linalg.svd(mix, compute_uv=False)[-1]) ** 2)
    return float(a2), float(d3)


def _riesz_pair_reports(fam: GFrameFamily, tol: Tolerance, budget: int, angles: bool):
    """The :func:`weaving_riesz_check` report, and with ``angles`` the
    :func:`equivalence_constants` report (else ``None``), from one sweep.

    Both members are g-Riesz bases, so the sweep takes the weaving screen
    either way."""
    if fam.m != 2:
        raise ValueError("the Riesz weaving check is defined for two-member families")
    members = [riesz_bounds(fr, tol) for fr in fam.frames]
    for j, rb in enumerate(members, start=1):
        if not rb.is_basis:
            raise ValueError(f"member {j} is not a g-Riesz basis")
    total = _check_budget(budget, "Riesz weaving check needs", 2, fam.n_indices)
    best, _, kept = _riesz_sweep(fam, tol, members)
    best_low, (rows_low, i_low), best_up, (rows_up, i_up) = best
    report = WeavingRieszReport(
        woven=best_low > tol.frame_rtol * best_up,
        common_lower=max(best_low, 0.0),
        common_upper=best_up,
        witness_lower=_partition_of(rows_low[i_low]),
        witness_upper=_partition_of(rows_up[i_up]),
        partitions_checked=total,
    )
    if not angles:
        return report, None
    return report, _equivalence_report(fam, best_low, best_up, *_angle_constants(fam, tol, kept))


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
    in lexicographic order that attains each bound.  Blocks of weavings
    that a Cholesky test proves unable to move either bound skip their SVD
    (see ``_riesz_sweep``), which changes no reported float.
    """
    return _riesz_pair_reports(fam, tol, budget, angles=False)[0]


def permutation_weave(
    f: GFrame,
    pi,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> PermutationWeaveReport:
    """Weave a g-Riesz basis against a relabelled copy of itself.

    ``pi`` maps index i to ``pi[i-1]`` (1-based).  Every weaving is a
    g-frame sequence for its span with lower bound at least the base lower
    bound and upper bound at most twice the base upper bound; the pair is
    woven only for the identity permutation.

    The sweep takes no Cholesky screen, only chunks of 128 codes, each one
    batched SVD.  A weaving is nonsingular only if each cycle of ``pi``
    takes one member throughout, so just ``2**(cycles of pi)`` of the
    ``2**N`` weavings are; nearly every block of 64 then holds a singular
    frame operator ``S``, which fails the lower test on ``S - thr I`` for
    every ``thr >= 0``.  ``span_lower_min`` also needs every partition.
    """
    rb = riesz_bounds(f, tol)
    if not rb.is_basis:
        raise ValueError("recoded-copy weaving requires a g-Riesz basis")
    big_n = f.n_blocks
    pi = tuple(int(x) for x in pi)
    if sorted(pi) != list(range(1, big_n + 1)):
        raise ValueError(f"pi must be a permutation of 1..{big_n}")
    dims = f.block_dims
    for i, target in enumerate(pi, start=1):
        if dims[target - 1] != dims[i - 1]:
            raise ValueError(
                f"block dimension mismatch: index {i} has dim {dims[i - 1]} "
                f"but pi({i}) = {target} has dim {dims[target - 1]}"
            )
    recoded = GFrame(f.ambient_dim, tuple(f.blocks[target - 1] for target in pi))
    fam = GFrameFamily((f, recoded))

    _check_budget(budget, "permutation weave needs", 2, big_n)
    fb = frame_bounds(f, tol)
    best, span_low_min, _ = _riesz_sweep(fam, tol)
    best_low, (rows_low, i_low), best_up, _ = best
    woven = best_low > tol.frame_rtol * best_up
    return PermutationWeaveReport(
        permutation=pi,
        identity=pi == tuple(range(1, big_n + 1)),
        woven=woven,
        base_lower=fb.lower,
        base_upper=fb.upper,
        universal_lower=max(best_low, 0.0),
        universal_upper=best_up,
        span_lower_min=span_low_min,
        witness=None if woven else _partition_of(rows_low[i_low]),
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

    ``riesz_low``/``riesz_up`` come from the same weaving SVDs as
    :func:`weaving_riesz_check`, so on a pair of g-Riesz bases they are the
    same floats as its ``common_lower``/``common_upper``.

    Two screens skip work that cannot change a reported float; their
    proofs and rounding margins are in ``_riesz_sweep``.  The angle
    quantities are computed only on partitions that can attain ``a2`` and
    ``d3``.  On a square pair (``c == n``, both members past ``lower >
    frame_rtol * upper``) blocks of 64 weavings take the weaving SVD only
    if a Cholesky test on their frame operators cannot prove them inside
    the running bounds and above the angle threshold.  A member with
    ``lower <= frame_rtol * upper`` (redundant or rank deficient) turns
    both screens off, and ``c != n`` the weaving screen.
    """
    if fam.m != 2:
        raise ValueError("equivalence constants are defined for two-member families")
    _check_budget(budget, "equivalence constants need", 2, fam.n_indices, "partitions")
    members = [riesz_bounds(fr, tol) for fr in fam.frames]
    (low, _, up, _), _, kept = _riesz_sweep(fam, tol, members)
    return _equivalence_report(fam, low, up, *_angle_constants(fam, tol, kept))


def _equivalence_report(fam, low, up, a2, d3) -> EquivalenceConstants:
    # More coefficients than ambient dimensions force a kernel.
    low = 0.0 if fam.coeff_dim > fam.ambient_dim else max(low, 0.0)
    return EquivalenceConstants(riesz_low=low, riesz_up=up, a2=a2, d3=d3, e4=a2)
