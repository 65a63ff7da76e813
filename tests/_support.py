"""Shared instance builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: universal
weaving bounds are recomputed by stacking synthesis matrices one partition
at a time, and Hermitian extremes come from shifted power iteration.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from gweave import (
    GFrame,
    GFrameFamily,
    GenSpec,
    Partition,
    generate,
)


def onb_frame(n: int) -> GFrame:
    """Standard basis as n one-dimensional blocks."""
    eye = np.eye(n)
    return GFrame(n, tuple(eye[i : i + 1] for i in range(n)))


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_frame(n, dims, seed, lo=1.0, hi=2.0) -> GFrame:
    """Well-conditioned random frame with spectrum inside [lo, hi]."""
    rng = np.random.default_rng(seed)
    spectrum = tuple(rng.uniform(lo, hi, n))
    return generate(
        GenSpec(ambient_dim=n, block_dims=tuple(dims), kind="prescribed-spectrum",
                seed=int(rng.integers(0, 2**31)), spectrum=spectrum)
    )


def riesz_pair(n, seed, noise=0.2) -> GFrameFamily:
    """Two g-Riesz bases (1-dim blocks), second a perturbation of the first."""
    rng = np.random.default_rng(seed)
    base = generate(
        GenSpec(ambient_dim=n, block_dims=(1,) * n, kind="riesz-basis",
                seed=int(rng.integers(0, 2**31)))
    )
    blocks = []
    for b in base.blocks:
        z = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        blocks.append(b + noise * z / np.sqrt(2.0))
    return GFrameFamily((base, GFrame(n, tuple(blocks))))


def ill_conditioned_basis(seed: int = 0) -> GFrame:
    """A g-Riesz basis of C^3 (1-dim blocks) with squared singular values
    ``(1, 1, 1e-11)``: a basis at ``frame_rtol = 1e-12``, not at the default."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    t = q * np.sqrt([1.0, 1.0, 1e-11])
    return GFrame(3, tuple(t[:, i : i + 1].conj().T for i in range(3)))


def noisy_family(n, dims, m, seed, noise=0.03) -> GFrameFamily:
    """m near-identical frames: a base plus independent small perturbations.

    The base spectrum sits in [1, 2], so small noise keeps every member and
    every weaving a healthy frame.
    """
    rng = np.random.default_rng(seed)
    base = random_frame(n, dims, int(rng.integers(0, 2**31)))
    members = [base]
    for _ in range(m - 1):
        blocks = []
        for b in base.blocks:
            z = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
            blocks.append(b + noise * z / np.sqrt(2.0))
        members.append(GFrame(n, tuple(blocks)))
    return GFrameFamily(tuple(members))


def noisy_at(base: GFrame, index: int, seed: int, noise: float) -> GFrameFamily:
    """Base frame paired with a copy whose block ``index`` (zero-based) is perturbed."""
    rng = np.random.default_rng(seed)
    blocks = list(base.blocks)
    b = blocks[index]
    blocks[index] = b + noise * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
    return GFrameFamily((base, GFrame(base.ambient_dim, tuple(blocks))))


def independent_family(n, dims, m, seed) -> GFrameFamily:
    """m independently drawn well-conditioned frames (generically woven)."""
    rng = np.random.default_rng(seed)
    members = tuple(
        random_frame(n, dims, int(rng.integers(0, 2**31))) for _ in range(m)
    )
    return GFrameFamily(members)


def swapped_onb_family(n: int = 2) -> GFrameFamily:
    base = onb_frame(n)
    rolled = GFrame(n, base.blocks[1:] + base.blocks[:1])
    return GFrameFamily((base, rolled))


def brute_universal_bounds(fam: GFrameFamily):
    """Independent oracle: per-partition synthesis stacking + svd.

    Returns (lower, upper, witness_lower_labels, witness_upper_labels) with
    lexicographic tie-breaking, matching the reporting contract.
    """
    best_low, best_up = np.inf, -np.inf
    wit_low = wit_up = None
    n = fam.ambient_dim
    for labels in product(range(1, fam.m + 1), repeat=fam.n_indices):
        cols = [fam.frames[l - 1].blocks[i].conj().T for i, l in enumerate(labels)]
        t = np.hstack(cols)
        s = np.linalg.svd(t, compute_uv=False)
        low = 0.0 if t.shape[1] < n else float(s[n - 1]) ** 2
        up = float(s[0]) ** 2
        if low < best_low:
            best_low, wit_low = low, labels
        if up > best_up:
            best_up, wit_up = up, labels
    return best_low, best_up, wit_low, wit_up


def brute_all_lowers(fam: GFrameFamily):
    """Per-partition smallest frame-operator eigenvalue (dict keyed by labels)."""
    out = {}
    for labels in product(range(1, fam.m + 1), repeat=fam.n_indices):
        s = np.zeros((fam.ambient_dim, fam.ambient_dim), dtype=complex)
        for i, l in enumerate(labels):
            b = fam.frames[l - 1].blocks[i]
            s += b.conj().T @ b
        out[labels] = float(np.linalg.eigvalsh(s)[0])
    return out


def power_extremes(m: np.ndarray, iters: int = 2000, seed: int = 5) -> tuple[float, float]:
    """Hermitian extreme eigenvalues by shifted power iteration.

    Independent of LAPACK eigensolvers: the dominant eigenvalue of M + cI
    (resp. cI - M) is found by repeated matvec and Rayleigh quotient.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    shift = float(np.linalg.norm(m, "fro")) + 1.0
    rng = np.random.default_rng(seed)

    def dominant(mat):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = mat @ v
            v = w / np.linalg.norm(w)
        return float((v.conj() @ mat @ v).real)

    hi = dominant(m + shift * np.eye(n)) - shift
    lo = shift - dominant(shift * np.eye(n) - m)
    return lo, hi


def exhaustive_family_partitions(fam: GFrameFamily):
    for labels in product(range(1, fam.m + 1), repeat=fam.n_indices):
        yield Partition(labels)


def _counting_svd(monkeypatch) -> list[int]:
    """Patch ``np.linalg.svd`` to record how many matrices each call takes;
    ``len()`` of the list counts the calls."""
    svd, matrices = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return matrices
