"""Sufficient-condition certificates for woven families.

Each certificate verifies a checkable hypothesis and produces a universal
lower bound prediction that is sound for *every* weaving:

* :func:`minimal_k` - pairwise block differences dominated by ``K`` times
  either member's restricted energy, over every index subset; yields the
  lower bound ``sum(A_j) / (2 (m-1) (K+1) + 1)``.  By the mediant
  inequality the largest singleton constraint bounds every subset, and a
  subset is infeasible only if one of its singletons is, so ``N`` singleton
  constraints per pair decide the certificate exactly.
* :func:`perturbation_certificate` / :func:`chained_certificate` -
  closeness of synthesis operators measured by scalars (lambda, eta, mu);
  the exact mode covers the lambda-only case, where the full index set
  dominates every subset because coordinate projections never increase the
  operator norm.  General scalars are only falsified by seeded sampling,
  never declared verified.
* :func:`operator_perturbation` - per-index invertible operators close to
  the identity; the sound lower bound is
  ``(sqrt(A) - sqrt(B) * max_dev)^2``.
* :func:`scaled_dual_weave` - a frame is woven with its scaled canonical
  dual whenever its bound ratio stays below two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gframe import (
    GFrame,
    _gram_terms,
    _inverse_frame_operator,
    _invertible,
    frame_bounds,
    synthesis_matrix,
)
from .linalg import DEFAULT_TOL, Tolerance, _integers, _reals, _seed, as_matrix, op_norm
from .weaving import GFrameFamily, _gram_tensor

__all__ = [
    "KCertificate",
    "PerturbationCertificate",
    "OperatorPerturbationReport",
    "ScaledDualReport",
    "minimal_k",
    "perturbation_certificate",
    "chained_certificate",
    "operator_perturbation",
    "scaled_dual_weave",
]

# Pure floating-point-noise slack for the exact-mode scalar comparison; it
# perturbs the certified bound by far less than any stated test tolerance.
_GAP_SLACK = 1e-12


@dataclass(frozen=True)
class KCertificate:
    """Minimal admissible dominance constant over all subsets and pairs."""

    feasible: bool
    k: float | None
    predicted_lower: float | None
    predicted_upper: float
    worst_subset: tuple[int, ...] | None
    worst_pair: tuple[int, int] | None
    member_lowers: tuple[float, ...]
    member_uppers: tuple[float, ...]


class FalsificationWitness(NamedTuple):
    """Index subset (1-based) and its coefficient segments that violate the
    closeness inequality."""

    subset: tuple[int, ...]
    segments: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PerturbationCertificate:
    """Synthesis-closeness certificate (fixed base member or chained).

    ``predicted_lower`` is recomputable from the stored scalars and member
    bounds.  ``status`` is one of ``"valid"``, ``"hypothesis-fails"``,
    ``"lambda-below-gap"`` (exact mode) or ``"falsified"`` /
    ``"not-falsified"`` (sampled mode).
    """

    base_index: int | None
    chained: bool
    lambdas: tuple[float, ...]
    etas: tuple[float, ...]
    mus: tuple[float, ...]
    member_lowers: tuple[float, ...]
    member_uppers: tuple[float, ...]
    predicted_lower: float
    predicted_upper: float
    verification_mode: str
    status: str
    synthesis_gaps: tuple[float, ...] | None
    falsification_witness: FalsificationWitness | None

    @property
    def valid(self) -> bool:
        return self.status == "valid"


@dataclass(frozen=True)
class OperatorPerturbationReport:
    """Weaving a frame against per-index right-composed operator copies."""

    family: GFrameFamily = field(metadata={"json": False})
    base_lower: float
    base_upper: float
    max_deviation: float
    condition_value: float
    condition_threshold: float
    hypothesis_ok: bool
    predicted_lower: float


@dataclass(frozen=True)
class ScaledDualReport:
    """Weaving a frame against its scaled canonical dual."""

    base_lower: float
    base_upper: float
    ratio: float | None
    hypothesis_ok: bool
    scale: float | None = None
    deviation_norm: float | None = None
    deviation_bound: float | None = None
    op_report: OperatorPerturbationReport | None = None
    scaled_dual: GFrame | None = field(default=None, metadata={"json": False})


def _max_ratios(
    d_sym: np.ndarray, m_sym: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """Largest generalized eigenvalue of each (D, M) pair on the complement of ker M.

    ``d_sym`` has shape (rows, 1, n, n) and ``m_sym`` (rows, k, n, n): each
    row's D is paired with each of its k Hermitian PSD matrices M.  Returns
    the (rows, k) ratios and a mask of the pairs where D does not vanish on
    the kernel of M (no finite constant dominates); the ratios of masked
    pairs are meaningless.  Kernel columns are zeroed rather than sliced
    away, so every pair shares one shape.
    """
    w, v = np.linalg.eigh(m_sym)
    w = np.clip(w, 0.0, None)
    keep = w > tol.rank_rtol * w[..., -1:] * w.shape[-1]
    ker = ~keep.all(axis=-1)
    infeasible = np.zeros(ker.shape, dtype=bool)
    if ker.any():
        v_ker = v[ker] * ~keep[ker][:, None, :]
        d_ker = np.broadcast_to(d_sym, v.shape)[ker]
        kernel_mass = np.linalg.eigvalsh(_herm_t(v_ker) @ d_ker @ v_ker)[:, -1]
        d_scale = np.maximum(np.linalg.eigvalsh(d_ker)[:, -1], 0.0)
        infeasible[ker] = kernel_mass > tol.eq_atol * d_scale
    # Dividing (not multiplying by the reciprocal) keeps the kept columns
    # equal to the per-matrix computation bit for bit; kernel columns -> 0.
    basis = v
    basis /= np.sqrt(np.where(keep, w, np.inf))[..., None, :]
    reduced = _herm_t(basis) @ d_sym @ basis
    top = np.linalg.eigvalsh(_make_hermitian(reduced))[..., -1]
    return np.maximum(top, 0.0), infeasible


def _herm_t(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _make_hermitian(a: np.ndarray) -> np.ndarray:
    """Replace each matrix of a stack by ``(A + A*) / 2``, in place."""
    a += _herm_t(a)
    a /= 2.0
    return a


def minimal_k(fam: GFrameFamily, tol: Tolerance = DEFAULT_TOL) -> KCertificate:
    """Minimal ``K`` dominating all pairwise block differences.

    For every nonempty index subset ``S`` and every unordered member pair,
    the difference Gram ``D_S`` must be dominated by ``K`` times the
    restricted Gram ``M_S`` of *each* member of the pair.  The minimal
    per-constraint ``K(S)`` is a generalized eigenvalue; the certificate
    reports the maximum over all constraints, or infeasibility when some
    kernel carries difference energy.

    The singletons decide it.  Fix ``x`` and let ``a_i = x* D_i x`` and
    ``c_i = x* M_i x``, both nonnegative.  If every singleton is feasible
    (``a_i = 0`` wherever ``c_i = 0``), the mediant inequality gives
    ``sum a_i / sum c_i <= max_{i: c_i > 0} a_i / c_i``, so
    ``K(S) <= max_{i in S} K({i})``.  Since ``ker M_S`` is the intersection
    of the ``ker M_i``, a subset is infeasible only if one of its
    singletons is.  So only the ``N`` singleton constraints per pair and
    member are solved, one stack of eigenproblems per pair.  Singleton
    ``{i}`` has subset code ``2**i`` and precedes every larger subset that
    contains it, so scanning (index, pair, member) with strict comparisons
    yields the first-occurrence witness of the full subset order.
    """
    big_n, m = fam.n_indices, fam.m
    grams = _make_hermitian(_gram_tensor(fam))
    pairs = [(j, l) for j in range(m) for l in range(j + 1, m)]
    shape = (big_n, len(pairs), 2)
    ratios = np.empty(shape)
    infeasible = np.empty(shape, dtype=bool)
    # One pair at a time keeps the stacks at 2 matrices per index for any m.
    for p, (j, l) in enumerate(pairs):
        pair_blocks = zip(fam.frames[j].blocks, fam.frames[l].blocks)
        diff = np.array([*_gram_terms(a - b for a, b in pair_blocks)])
        ratios[:, p], infeasible[:, p] = _max_ratios(
            _make_hermitian(diff[:, None]), grams[:, [j, l]], tol
        )
    if infeasible.any():
        i, p, _ = np.unravel_index(np.argmax(infeasible), shape)
        return _k_certificate(fam, False, None, [int(i)], pairs[p])
    top = int(np.argmax(ratios))
    if ratios.flat[top] > 0.0:
        i, p, _ = np.unravel_index(top, shape)
        return _k_certificate(fam, True, float(ratios.flat[top]), [int(i)], pairs[p])
    return _k_certificate(fam, True, 0.0, [], None)


def _member_bounds(fam: GFrameFamily) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Optimal lower and upper frame bounds of each member, one pass each."""
    bounds = [frame_bounds(fr) for fr in fam.frames]
    return tuple(b.lower for b in bounds), tuple(b.upper for b in bounds)


def _k_certificate(fam, feasible, k, subset, pair) -> KCertificate:
    lowers, uppers = _member_bounds(fam)
    predicted = None
    if feasible:
        predicted = sum(lowers) / (2.0 * (fam.m - 1) * (k + 1.0) + 1.0)
    return KCertificate(
        feasible=feasible,
        k=k,
        predicted_lower=predicted,
        predicted_upper=float(sum(uppers)),
        worst_subset=tuple(i + 1 for i in subset) if subset else None,
        worst_pair=(pair[0] + 1, pair[1] + 1) if pair else None,
        member_lowers=lowers,
        member_uppers=uppers,
    )


def _as_scalars(values, count: int, name: str) -> tuple[float, ...]:
    message = f"{name} entries must be finite and nonnegative real numbers"
    vals = (0.0,) * count if values is None else _reals(values, message)
    if len(vals) != count:
        raise ValueError(f"{name} must have {count} entries, got {len(vals)}")
    if not all(v >= 0 for v in vals):
        raise ValueError(message)
    return vals


def _certificate(
    fam: GFrameFamily,
    pairs: list[tuple[int, int]],
    lambdas,
    etas,
    mus,
    mode: str,
    trials: int,
    seed: int,
    tol: Tolerance,
    base_index: int | None,
) -> PerturbationCertificate:
    """Certificate over member ``pairs``, scalars indexed like ``pairs``.

    The predicted lower bound starts from the lower bound of the anchor
    ``pairs[0][0]`` and subtracts each pair's closeness term.  Both modes
    use one synthesis matrix ``T_j`` per member: exact mode takes the norms
    of the differences, sampled mode tests each pair on ``u_j = T_j g``.
    In either mode ``trials >= 1`` and ``seed >= 0`` must be integers (else
    ``ValueError``).
    """
    lambdas = _as_scalars(lambdas, len(pairs), "lambdas")
    etas = _as_scalars(etas, len(pairs), "etas")
    mus = _as_scalars(mus, len(pairs), "mus")
    if mode not in ("exact-lambda-only", "sampled-falsification"):
        raise ValueError(
            f"mode must be 'exact-lambda-only' or 'sampled-falsification', got {mode!r}"
        )
    exact = mode == "exact-lambda-only"
    if exact and (any(etas) or any(mus)):
        raise ValueError(
            "exact verification covers the lambda-only case; "
            "use sampled-falsification for nonzero eta/mu"
        )
    trials, seed = _integers((trials, seed), "trials and seed must be integers")
    seed = _seed(seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lowers, uppers = _member_bounds(fam)
    predicted = lowers[pairs[0][0]]
    for k, (a, b) in enumerate(pairs):
        predicted -= (
            lambdas[k] + etas[k] * np.sqrt(uppers[a]) + mus[k] * np.sqrt(uppers[b])
        ) * (np.sqrt(uppers[a]) + np.sqrt(uppers[b]))

    synths = [synthesis_matrix(fr) for fr in fam.frames]
    gaps = tuple(op_norm(synths[a] - synths[b]) for a, b in pairs) if exact else None
    witness = None
    if predicted <= 0.0:
        status = "hypothesis-fails"
    elif exact:
        ok = all(
            lam + _GAP_SLACK * max(1.0, gap) >= gap
            for lam, gap in zip(lambdas, gaps)
        )
        status = "valid" if ok else "lambda-below-gap"
    else:
        # Per trial: a nonempty index mask, then per chosen index its real and
        # then its imaginary draws, written into a zero coefficient vector g.
        rng = np.random.Generator(np.random.Philox(seed))
        ends = np.cumsum(fam.block_dims)
        status = "not-falsified"
        for _ in range(trials):
            mask = np.zeros(len(ends), dtype=bool)
            while not mask.any():
                mask = rng.integers(0, 2, size=len(ends)).astype(bool)
            g = np.zeros(ends[-1], dtype=np.complex128)
            segs = [g[e - fam.block_dims[i] : e] for i, e in enumerate(ends) if mask[i]]
            for seg in segs:
                d = seg.size
                seg[:] = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
            coeff_norm = np.sqrt(sum(float(np.vdot(seg, seg).real) for seg in segs))
            u = [t @ g for t in synths]
            if any(
                np.linalg.norm(u[a] - u[b])
                > eta * np.linalg.norm(u[a]) + mu * np.linalg.norm(u[b])
                + lam * coeff_norm + tol.eq_atol
                for lam, eta, mu, (a, b) in zip(lambdas, etas, mus, pairs)
            ):
                subset = tuple(int(i) + 1 for i in np.flatnonzero(mask))
                witness = FalsificationWitness(subset, tuple(segs))
                status = "falsified"
                break

    return PerturbationCertificate(
        base_index=base_index,
        chained=base_index is None,
        lambdas=lambdas,
        etas=etas,
        mus=mus,
        member_lowers=lowers,
        member_uppers=uppers,
        predicted_lower=float(predicted),
        predicted_upper=float(sum(uppers)),
        verification_mode=mode,
        status=status,
        synthesis_gaps=gaps,
        falsification_witness=witness,
    )


def perturbation_certificate(
    fam: GFrameFamily,
    base: int,
    lambdas,
    etas=None,
    mus=None,
    mode: str = "exact-lambda-only",
    trials: int = 200,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PerturbationCertificate:
    """Closeness-to-a-base-member certificate.

    Scalars are indexed by the non-base members in ascending order.  The
    predicted universal lower bound is

    ``A_base - sum_j (lambda_j + eta_j sqrt(B_base) + mu_j sqrt(B_j))
    (sqrt(B_base) + sqrt(B_j))``

    using the optimal member bounds.  In exact mode (eta = mu = 0) validity
    reduces to ``lambda_j >= ||T_base - T_j||`` on full synthesis matrices,
    which dominates every subset.
    """
    m = fam.m
    (base,) = _integers((base,), "base index must be an integer")
    if not 1 <= base <= m:
        raise ValueError(f"base index must lie in 1..{m}, got {base}")
    pairs = [(base - 1, j) for j in range(m) if j != base - 1]
    return _certificate(
        fam, pairs, lambdas, etas, mus, mode, trials, seed, tol, base_index=base
    )


def chained_certificate(
    fam: GFrameFamily,
    lambdas,
    etas=None,
    mus=None,
    mode: str = "exact-lambda-only",
    trials: int = 200,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PerturbationCertificate:
    """Consecutive-pair variant anchored at member one.

    Scalars are indexed by the pairs (j, j+1) for j in 1..m-1; the predicted
    lower bound subtracts each pair's contribution from the first member's
    lower bound.  For m = 2 this coincides with the fixed-base certificate.
    """
    pairs = [(k, k + 1) for k in range(fam.m - 1)]
    return _certificate(
        fam, pairs, lambdas, etas, mus, mode, trials, seed, tol, base_index=None
    )


def operator_perturbation(
    f: GFrame,
    operators,
    tol: Tolerance = DEFAULT_TOL,
) -> OperatorPerturbationReport:
    """Weave a frame against per-index right-composed invertible operators.

    The hypothesis is ``max_i ||I - T_i||^2 < A / B``.  When it holds, every
    weaving is a g-frame with lower bound at least
    ``(sqrt(A) - sqrt(B) * max_i ||I - T_i||)^2`` (the square develops from
    the norm-difference estimate; the plain difference ``A - B max||I-T||^2``
    is larger and is *not* a valid bound).
    """
    return _operator_perturbation(f, operators, tol, frame_bounds(f, tol))


def _operator_perturbation(f: GFrame, operators, tol: Tolerance, fb) -> OperatorPerturbationReport:
    """:func:`operator_perturbation` with the frame bounds ``fb`` of ``f`` given."""
    n = f.ambient_dim
    big_n = f.n_blocks
    # A single operator (a 2-D array or a one-element list) serves every
    # index; it is checked once and broadcast afterwards.
    if isinstance(operators, np.ndarray) and operators.ndim == 2:
        operators = [operators]
    ops = [as_matrix(t) for t in operators]
    if len(ops) not in (1, big_n):
        raise ValueError(f"expected one operator per index ({big_n}), got {len(ops)}")
    for idx, t in enumerate(ops, start=1):
        _invertible(t, n, tol, f"operator {idx}")
    a_low, b_up = fb.lower, fb.upper
    dev = max(op_norm(np.eye(n) - t) for t in ops)
    ops *= big_n // len(ops)
    threshold = a_low / b_up if b_up > 0 else 0.0
    hypothesis_ok = b_up > 0 and dev**2 < threshold
    predicted = (np.sqrt(a_low) - np.sqrt(b_up) * dev) ** 2 if hypothesis_ok else 0.0
    moved = GFrame(n, tuple(b @ t for b, t in zip(f.blocks, ops)))
    return OperatorPerturbationReport(
        family=GFrameFamily((f, moved), allow_degenerate=True),
        base_lower=a_low,
        base_upper=b_up,
        max_deviation=float(dev),
        condition_value=float(dev**2),
        condition_threshold=float(threshold),
        hypothesis_ok=hypothesis_ok,
        predicted_lower=float(predicted),
    )


def scaled_dual_weave(f: GFrame, tol: Tolerance = DEFAULT_TOL) -> ScaledDualReport:
    """Weave a frame against its scaled canonical dual.

    The dual is scaled by ``2AB / (A + B)``, which centres the spectrum of
    the composed operator around one: the deviation from the identity is at
    most ``(B - A) / (B + A)``, small enough for the operator-perturbation
    hypothesis exactly when ``B / A < 2``.  A failed hypothesis is reported,
    not raised.
    """
    fb = frame_bounds(f, tol)
    a_low, b_up = fb.lower, fb.upper
    ratio = float(b_up / a_low) if fb.is_frame and a_low > 0 else None
    if ratio is None or ratio >= 2.0:
        return ScaledDualReport(a_low, b_up, ratio, hypothesis_ok=False)
    scale = 2.0 * a_low * b_up / (a_low + b_up)
    op_report = _operator_perturbation(f, scale * _inverse_frame_operator(f), tol, fb)
    return ScaledDualReport(
        base_lower=a_low,
        base_upper=b_up,
        ratio=ratio,
        hypothesis_ok=True,
        scale=float(scale),
        deviation_norm=op_report.max_deviation,
        deviation_bound=float((b_up - a_low) / (b_up + a_low)),
        op_report=op_report,
        scaled_dual=op_report.family.frames[1],
    )
