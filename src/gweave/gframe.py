"""Core g-frame model and its operator calculus.

A g-frame on an ``n``-dimensional complex space is an ordered family of
blocks, block ``i`` being a ``(d_i, n)`` matrix that maps a vector to its
``i``-th (vector-valued) measurement.  Classical frames are the all
``d_i = 1`` case.  This module provides the synthesis / analysis / frame
operators, optimal frame bounds, the canonical dual, the classical frame
induced by splitting each block into its rows, and the classification
predicates built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, _complex_array, _integers, as_matrix, rank

__all__ = [
    "DegenerateGFrameError",
    "GFrame",
    "CoefficientVector",
    "FrameBounds",
    "synthesis_matrix",
    "analysis_matrix",
    "frame_operator",
    "frame_bounds",
    "canonical_dual",
    "induced_frame",
    "is_g_orthonormal",
    "apply_operator",
    "apply_synthesis",
]


class DegenerateGFrameError(ValueError):
    """Raised when an operation requires an invertible frame operator."""


@dataclass(frozen=True, eq=False)
class GFrame:
    """An indexed family of complex blocks acting on an ``n``-dim space.

    ``blocks[i]`` has shape ``(d_i, ambient_dim)``; the index set is the
    implicit ``1..N``.  Instances are immutable: block arrays are copied at
    construction and marked read-only.
    """

    ambient_dim: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        message = f"ambient_dim must be a positive integer, got {self.ambient_dim!r}"
        (n,) = _integers((self.ambient_dim,), message)
        if n < 1:
            raise ValueError(message)
        object.__setattr__(self, "ambient_dim", n)
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a g-frame needs at least one block")
        normalized = []
        for i, raw in enumerate(blocks):
            b = np.array(as_matrix(raw), copy=True)
            if b.shape[1] != self.ambient_dim:
                raise ValueError(
                    f"block {i + 1}: expected {self.ambient_dim} columns, got {b.shape[1]}"
                )
            b.setflags(write=False)
            normalized.append(b)
        object.__setattr__(self, "blocks", tuple(normalized))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def coeff_dim(self) -> int:
        """Dimension of the coefficient space, the sum of all block rows."""
        return sum(b.shape[0] for b in self.blocks)


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Element of the coefficient space: one segment of length ``d_i`` per block."""

    segments: tuple[np.ndarray, ...]

    def __post_init__(self):
        segs = []
        for i, raw in enumerate(tuple(self.segments)):
            message = f"segment {i + 1}: entries must be numbers, not bool, str or bytes"
            s = _complex_array(raw, message)
            if s.ndim != 1 or s.size == 0:
                raise ValueError(f"segment {i + 1}: expected a nonempty 1-D vector")
            if not np.all(np.isfinite(s)):
                raise ValueError(f"segment {i + 1}: entries must be finite")
            s = s.copy()
            s.setflags(write=False)
            segs.append(s)
        if not segs:
            raise ValueError("a coefficient vector needs at least one segment")
        object.__setattr__(self, "segments", tuple(segs))

    def matches(self, frame: GFrame) -> bool:
        return tuple(s.size for s in self.segments) == frame.block_dims

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.segments)

    @classmethod
    def from_stacked(cls, dims, vec) -> "CoefficientVector":
        v = _complex_array(vec, "entries must be numbers, not bool, str or bytes")
        if v.ndim != 1 or v.size != sum(dims):
            raise ValueError(f"expected a flat vector of length {sum(dims)}")
        return cls(tuple(np.split(v, np.cumsum(dims)[:-1])))

    def norm(self) -> float:
        return float(np.linalg.norm(self.stacked()))


@dataclass(frozen=True)
class FrameBounds:
    """Optimal bounds (the spectral extremes of the frame operator).

    ``classification`` is one of ``"g-frame"`` (lower bound positive at
    tolerance), ``"g-bessel-only"`` (complete but too ill-conditioned to
    certify the lower bound) or ``"degenerate"`` (rank deficient).
    """

    lower: float
    upper: float
    classification: str

    @property
    def is_frame(self) -> bool:
        return self.classification == "g-frame"


def synthesis_matrix(f: GFrame) -> np.ndarray:
    """The ``n x sum(d_i)`` matrix whose column-blocks are the conjugate
    transposes of the frame blocks; applying it to a stacked coefficient
    vector sums the per-block contributions."""
    return np.hstack([b.conj().T for b in f.blocks])


def analysis_matrix(f: GFrame) -> np.ndarray:
    """Adjoint of the synthesis matrix: stacks all blocks vertically."""
    return np.vstack(f.blocks)


def _gram_terms(blocks):
    """The Gram terms ``b* b`` of a sequence of blocks, one at a time."""
    return (b.conj().T @ b for b in blocks)


def frame_operator(f: GFrame) -> np.ndarray:
    """The ``n x n`` Hermitian PSD operator summing ``block* block`` terms
    in block order from zero, holding one term at a time."""
    return sum(_gram_terms(f.blocks))


def frame_bounds(f: GFrame, tol: Tolerance = DEFAULT_TOL) -> FrameBounds:
    """Optimal lower/upper bounds with classification.

    The bounds are the extreme eigenvalues of the frame operator.  A family
    counts as a g-frame when ``lower > frame_rtol * upper``.  Otherwise it is
    ``g-bessel-only`` when complete, by :func:`rank` on the singular values
    of the synthesis matrix (square roots of eigenvalues of ``S`` carry an
    error near ``1e-8 * sqrt(upper)`` and cannot decide rank), else
    ``degenerate``.
    """
    s = frame_operator(f)
    w = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    lower = max(float(w[0]), 0.0)
    upper = max(float(w[-1]), 0.0)
    if lower > tol.frame_rtol * upper and upper > 0.0:
        kind = "g-frame"
    elif rank(synthesis_matrix(f), tol) == f.ambient_dim:
        kind = "g-bessel-only"
    else:
        kind = "degenerate"
    return FrameBounds(lower=lower, upper=upper, classification=kind)


def _inverse_frame_operator(f: GFrame) -> np.ndarray:
    s = frame_operator(f)
    w, v = np.linalg.eigh((s + s.conj().T) / 2.0)
    return (v / w) @ v.conj().T


def canonical_dual(f: GFrame, tol: Tolerance = DEFAULT_TOL) -> GFrame:
    """The dual family with blocks ``block_i @ S^-1``.

    Reconstruction holds: summing ``dual_block* block`` over all indices
    gives the identity.  Raises :class:`DegenerateGFrameError` when the
    frame operator is not invertible at tolerance.
    """
    fb = frame_bounds(f, tol)
    if not fb.is_frame:
        raise DegenerateGFrameError(
            f"canonical dual requires a g-frame, got classification {fb.classification!r}"
        )
    s_inv = _inverse_frame_operator(f)
    return GFrame(f.ambient_dim, tuple(b @ s_inv for b in f.blocks))


def induced_frame(f: GFrame) -> GFrame:
    """Split every block into its rows, yielding a classical frame.

    The result has one ``1 x n`` block per (block, row) pair, ordered by
    block index then row index; as a vector, entry (i, j) is the conjugate
    of row j of block i.  Frame and Riesz data are preserved because the
    synthesis matrix is unchanged.
    """
    rows = []
    for b in f.blocks:
        for j in range(b.shape[0]):
            rows.append(b[j : j + 1, :])
    return GFrame(f.ambient_dim, tuple(rows))


def is_g_orthonormal(f: GFrame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the synthesis matrix has orthonormal columns and the frame
    operator is the identity (both within ``eq_atol``)."""
    t = synthesis_matrix(f)
    gram = t.conj().T @ t
    if float(np.max(np.abs(gram - np.eye(f.coeff_dim)))) > tol.eq_atol:
        return False
    s = t @ t.conj().T
    return float(np.max(np.abs(s - np.eye(f.ambient_dim)))) <= tol.eq_atol


def apply_operator(f: GFrame, t, tol: Tolerance = DEFAULT_TOL) -> GFrame:
    """Compose every block with an invertible ``n x n`` operator on the right.

    If the input has bounds (A, B), the result has bounds inside
    ``[A / ||T^-1||^2, B ||T||^2]``; a singular operator would destroy the
    lower bound, so it is rejected.
    """
    t = _invertible(t, f.ambient_dim, tol)
    return GFrame(f.ambient_dim, tuple(b @ t for b in f.blocks))


def _invertible(t, n: int, tol: Tolerance, name: str = "operator") -> np.ndarray:
    """``t`` as a matrix, checked to be ``n x n`` and of rank ``n`` at ``tol``;
    ``name`` starts the error messages."""
    t = as_matrix(t)
    if t.shape != (n, n):
        raise ValueError(f"{name} must be {n} x {n}, got {t.shape}")
    if rank(t, tol) < n:
        raise ValueError(f"{name} is singular at the working tolerance")
    return t


def apply_synthesis(f: GFrame, coeffs: CoefficientVector) -> np.ndarray:
    """Apply the synthesis operator to a coefficient vector."""
    if not coeffs.matches(f):
        raise ValueError("coefficient segments do not match the block dimensions")
    out = np.zeros(f.ambient_dim, dtype=np.complex128)
    for b, g in zip(f.blocks, coeffs.segments):
        out += b.conj().T @ g
    return out
