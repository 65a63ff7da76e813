"""Seeded random instance generators for property-based testing.

Everything here is deterministic in the seed: random unitaries come from
QR-orthonormalized seeded Gaussian matrices (with the phase fix that makes
the factorization unique), and family members draw from spawned child
seeds so parallel generation stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gframe import GFrame
from .linalg import _integers, _reals
from .weaving import GFrameFamily, Partition

__all__ = ["GenSpec", "KINDS", "generate", "random_partition"]

KINDS = ("parseval", "prescribed-spectrum", "riesz-basis", "g-orthonormal", "perturbed")


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a random g-frame (or perturbed pair of g-frames).

    ``spectrum`` is required for the prescribed-spectrum kind (one finite
    positive eigenvalue per ambient dimension).  The riesz-basis and g-orthonormal
    kinds need block dimensions summing to the ambient dimension.  The
    perturbed kind produces a two-member family: a base frame plus a copy
    with entrywise complex Gaussian noise of scale ``noise_scale`` (a finite,
    nonnegative real; checked for every kind).
    """

    ambient_dim: int
    block_dims: tuple[int, ...]
    kind: str
    seed: int
    spectrum: tuple[float, ...] | None = None
    noise_scale: float = 0.05

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        (n,) = _integers((self.ambient_dim,), "ambient_dim must be an integer")
        (seed,) = _integers((self.seed,), "seed must be an integer")
        if n < 1:
            raise ValueError("ambient_dim must be >= 1")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "seed", seed)
        message = "block_dims must be a nonempty tuple of positive ints"
        dims = _integers(self.block_dims, message)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(message)
        object.__setattr__(self, "block_dims", dims)
        total = sum(dims)
        if self.kind in ("parseval", "prescribed-spectrum", "perturbed") and total < self.ambient_dim:
            raise ValueError(
                f"block dims sum to {total} < ambient_dim {self.ambient_dim}: "
                "cannot span the space"
            )
        if self.kind in ("riesz-basis", "g-orthonormal") and total != self.ambient_dim:
            raise ValueError(
                f"{self.kind} needs block dims summing to ambient_dim "
                f"({total} != {self.ambient_dim})"
            )
        if self.kind == "prescribed-spectrum":
            if self.spectrum is None:
                raise ValueError("prescribed-spectrum needs a spectrum")
            spec = tuple(self.spectrum)
            if len(spec) != self.ambient_dim:
                raise ValueError(
                    f"spectrum must have {self.ambient_dim} entries, got {len(spec)}"
                )
            spec = _reals(spec, "spectrum entries must be finite reals")
            if any(x <= 0 for x in spec):
                raise ValueError("spectrum entries must be positive")
            object.__setattr__(self, "spectrum", spec)
        elif self.spectrum is not None:
            raise ValueError(f"spectrum is only meaningful for prescribed-spectrum")
        (noise,) = _reals((self.noise_scale,), "noise_scale must be finite and real")
        if noise < 0:
            raise ValueError("noise_scale must be nonnegative")
        object.__setattr__(self, "noise_scale", noise)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _stacked_frame(spec: GenSpec, singulars: np.ndarray, rng) -> GFrame:
    """Frame via an analysis matrix with prescribed singular values."""
    n, total = spec.ambient_dim, sum(spec.block_dims)
    u = _random_unitary(total, rng)[:, :n]
    v = _random_unitary(n, rng)
    analysis = (u * singulars) @ v.conj().T
    return GFrame(n, np.split(analysis, np.cumsum(spec.block_dims)[:-1]))


def generate(spec: GenSpec) -> GFrame | GFrameFamily:
    """Materialize the recipe; deterministic in ``spec.seed``."""
    root = np.random.SeedSequence(spec.seed)
    if spec.kind == "perturbed":
        base_seq, noise_seq = root.spawn(2)
        base_rng = np.random.default_rng(base_seq)
        spectrum = base_rng.uniform(1.0, 2.0, spec.ambient_dim)
        base = _stacked_frame(spec, np.sqrt(spectrum), base_rng)
        noise_rng = np.random.default_rng(noise_seq)
        noisy_blocks = []
        for b in base.blocks:
            noise = noise_rng.standard_normal(b.shape) + 1j * noise_rng.standard_normal(b.shape)
            noisy_blocks.append(b + spec.noise_scale * noise / np.sqrt(2.0))
        noisy = GFrame(spec.ambient_dim, tuple(noisy_blocks))
        return GFrameFamily((base, noisy), allow_degenerate=True)

    rng = np.random.default_rng(root)
    if spec.kind == "parseval":
        singulars = np.ones(spec.ambient_dim)
        return _stacked_frame(spec, singulars, rng)
    if spec.kind == "prescribed-spectrum":
        return _stacked_frame(spec, np.sqrt(np.asarray(spec.spectrum)), rng)
    if spec.kind == "riesz-basis":
        singulars = rng.uniform(0.6, 1.6, spec.ambient_dim)
        return _stacked_frame(spec, singulars, rng)
    if spec.kind == "g-orthonormal":
        analysis = _random_unitary(spec.ambient_dim, rng)
        return GFrame(spec.ambient_dim, np.split(analysis, np.cumsum(spec.block_dims)[:-1]))
    raise AssertionError(f"unhandled kind {spec.kind!r}")


def random_partition(n_indices: int, m: int, seed: int) -> Partition:
    """Uniform random label vector, deterministic in the seed."""
    n_indices, m = _integers((n_indices, m), "n_indices and m must be integers")
    if n_indices < 1:
        raise ValueError("n_indices must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return Partition(tuple(int(x) for x in rng.integers(1, m + 1, size=n_indices)))
