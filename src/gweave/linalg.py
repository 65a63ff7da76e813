"""Dense complex linear algebra with an explicit tolerance contract.

Every routine in this module works on 2-D ``numpy`` arrays of
``complex128``.  Inputs are validated once (finite entries, expected
shape), and all rank / positivity decisions are driven by a shared
:class:`Tolerance`, so spectral classifications are reproducible across
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "hermitian_extremes",
    "singular_extremes",
    "pinv",
    "op_norm",
    "rank",
]


def _complex_array(a, message: str) -> np.ndarray:
    """``a`` as a complex128 array; ``ValueError(message)`` if the dtype numpy
    infers for ``a`` is bool, string, bytes or object (``np.asarray(a,
    dtype=complex)`` reads True as 1 and '0.5' as 0.5).  Numpy infers a
    number dtype for a list mixing bools and numbers, such as float64 for
    ``[[True, 2.0]]``, so such a list is read as numbers."""
    a = np.asarray(a)
    if a.dtype.kind in "bSUO":
        raise ValueError(message)
    return a.astype(np.complex128, copy=False)


def _reals(values, message: str) -> tuple[float, ...]:
    """``values`` as Python floats; ``ValueError(message)`` unless each is a
    Python or numpy integer or float, not a ``bool``, and finite (``float()``
    reads True as 1.0 and '0.5' as 0.5)."""
    values = tuple(values)
    real = (int, float, np.integer, np.floating)
    if all(isinstance(x, real) and not isinstance(x, bool) for x in values):
        try:
            floats = tuple(float(x) for x in values)
        except OverflowError:  # an int past the float range
            floats = (np.inf,)
        if all(math.isfinite(x) for x in floats):
            return floats
    raise ValueError(message)


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by every spectral decision.

    Parameters
    ----------
    rank_rtol
        Relative threshold for rank decisions; singular values are compared
        against ``rank_rtol * sigma_max * max(rows, cols)``.
    frame_rtol
        Relative threshold deciding whether a lower spectral bound counts as
        strictly positive (lower > ``frame_rtol`` * upper).
    eq_atol
        Absolute tolerance for equality and inequality-margin checks.
    """

    rank_rtol: float = 1e-10
    frame_rtol: float = 1e-10
    eq_atol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "frame_rtol", "eq_atol"):
            raw = getattr(self, name)
            (value,) = _reals((raw,), f"{name} must be a finite real, got {raw!r}")
            if not (0.0 < value <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2], got {value!r}")
            object.__setattr__(self, name, value)


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array and validate its entries.

    Raises ``ValueError`` for entries that are not numbers (see
    :func:`_complex_array`), for empty or non-2-D input and for NaN/Inf
    entries.  The returned array may share memory with the input; callers
    that store it long-term should copy.
    """
    m = _complex_array(a, "matrix entries must be numbers, not bool, str or bytes")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("matrix must have at least one row and one column")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def hermitian_extremes(m, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The input is symmetrized as ``(M + M*) / 2`` before decomposition;
    asymmetry beyond ``eq_atol * max(1, max|M|)`` is rejected rather than
    silently averaged away.  The limit is relative so that the rounding
    drift of large Gram sums passes at any scale.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    drift = float(np.max(np.abs(m - m.conj().T)))
    limit = tol.eq_atol * max(1.0, float(np.max(np.abs(m))))
    if drift > limit:
        raise ValueError(
            f"matrix is not Hermitian within eq_atol ({drift:.3e} > {limit:.3e})"
        )
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(w[0]), float(w[-1])


def singular_extremes(m) -> tuple[float, float]:
    """Smallest and largest singular value; the smallest is taken over the
    ``min(rows, cols)`` singular values of the matrix."""
    m = as_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), float(s[0])


def pinv(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse.

    Singular values below ``rank_rtol * sigma_max`` are treated as zero, so
    the zero matrix maps to the zero matrix and near-singular directions do
    not blow up.
    """
    m = as_matrix(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cutoff = tol.rank_rtol * (float(s[0]) if s.size else 0.0)
    inv = np.zeros_like(s)
    np.divide(1.0, s, out=inv, where=s > cutoff)
    return (vh.conj().T * inv) @ u.conj().T


def op_norm(m) -> float:
    """Operator (spectral) norm, i.e. the largest singular value."""
    return singular_extremes(m)[1]


def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rank_rtol * sigma_max * max(rows, cols)``."""
    m = as_matrix(m)
    return int(_rank_from_singular_values(np.linalg.svd(m, compute_uv=False), m.shape, tol))


def _integers(values, message: str) -> tuple[int, ...]:
    """``values`` as Python ints; ``ValueError(message)`` unless each is a Python
    or numpy integer and not a ``bool`` (``int()`` reads 1.9 and True as 1)."""
    values = tuple(values)
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in values):
        raise ValueError(message)
    return tuple(int(x) for x in values)


def _seed(seed) -> int:
    """``seed`` as a Python int; ``ValueError`` naming it unless it is an
    integer (:func:`_integers`) and ``>= 0``, as numpy's generators need."""
    (seed,) = _integers((seed,), "seed must be an integer")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _rank_from_singular_values(s: np.ndarray, shape, tol: Tolerance):
    """The rank rule of :func:`rank` on singular values already at hand.

    ``s`` holds each matrix's singular values in descending order along its
    last axis, and ``shape`` ends in the matrices' ``(rows, cols)``; a stack
    of matrices gives one rank per matrix.
    """
    return np.count_nonzero(s > tol.rank_rtol * s[..., :1] * max(shape[-2:]), axis=-1)
