"""Shared instance builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: universal
weaving bounds are recomputed by stacking synthesis matrices one partition
at a time, Hermitian extremes come from shifted power iteration, and frame
and operators payloads are parsed one entry at a time.
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
from gweave.fileio import FrameFileError
from gweave.weaving import _RowScreen


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


def _recording_screen(monkeypatch) -> list:
    """Patch ``_RowScreen.inside`` so that every screen records the mask of
    each call: the decision of the norm test and the Cholesky tests
    together."""
    inside, masks = _RowScreen.inside, []

    def recorded(self, *args):
        masks.append(inside(self, *args))
        return masks[-1]

    monkeypatch.setattr(_RowScreen, "inside", recorded)
    return masks


def _counting_gemm_rows(monkeypatch, gemm: str) -> list:
    """Patch ``_RowScreen``'s GEMM ``gemm`` (``"operators"``, which feeds the
    Cholesky tests, or ``"rotated"``, the norm test's) to record the row
    count of each call."""
    gemm_product, rows = getattr(_RowScreen, gemm), []

    def counting(self, x):
        rows.append(len(x))
        return gemm_product(self, x)

    monkeypatch.setattr(_RowScreen, gemm, counting)
    return rows


def _ref_require(payload: dict, key: str, where: str):
    if key not in payload:
        raise FrameFileError(f"{where}: missing required field {key!r}")
    return payload[key]


def _ref_scalar(raw, field: str, where: str) -> complex:
    if field == "real":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise FrameFileError(f"{where}: expected a real number, got {raw!r}")
        raw = (raw, 0.0)
    elif (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in raw)
    ):
        raise FrameFileError(f"{where}: expected an [re, im] pair, got {raw!r}")
    try:
        return complex(float(raw[0]), float(raw[1]))
    except OverflowError as exc:
        raise FrameFileError(f"{where}: integer too large for float64") from exc


def reference_matrix_entries(entries, rows: int, cols: int, field: str, where: str):
    """Oracle for ``fileio.parse_matrix_entries``: the entry-by-entry parse
    it replaced, with its messages and their order."""
    if not isinstance(entries, list) or len(entries) != rows:
        raise FrameFileError(f"{where}: expected {rows} rows")
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise FrameFileError(f"{where}[{r}]: expected {cols} entries")
    out = np.empty((rows, cols), dtype=np.complex128)
    for r, row in enumerate(entries):
        for c, raw in enumerate(row):
            out[r, c] = _ref_scalar(raw, field, f"{where}[{r}][{c}]")
    if not np.all(np.isfinite(out)):
        raise FrameFileError(f"{where}: entries must be finite numbers")
    return out


def reference_frame(payload, where: str = "frame") -> GFrame:
    """Oracle for ``fileio.frame_from_payload``, parsing block by block."""
    if not isinstance(payload, dict):
        raise FrameFileError(f"{where}: expected an object")
    ambient = _ref_require(payload, "ambient_dim", where)
    if isinstance(ambient, bool) or not isinstance(ambient, int) or ambient < 1:
        raise FrameFileError(f"{where}.ambient_dim: expected a positive integer")
    field = _ref_require(payload, "field", where)
    if field not in ("real", "complex"):
        raise FrameFileError(f"{where}.field: expected 'real' or 'complex', got {field!r}")
    blocks_raw = _ref_require(payload, "blocks", where)
    if not isinstance(blocks_raw, list) or not blocks_raw:
        raise FrameFileError(f"{where}.blocks: expected a nonempty list")
    blocks = []
    for b, item in enumerate(blocks_raw):
        spot = f"{where}.blocks[{b}]"
        if not isinstance(item, dict):
            raise FrameFileError(f"{spot}: expected an object")
        rows = _ref_require(item, "rows", spot)
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
            raise FrameFileError(f"{spot}.rows: expected a positive integer")
        entries = _ref_require(item, "entries", spot)
        blocks.append(reference_matrix_entries(entries, rows, ambient, field, f"{spot}.entries"))
    return GFrame(ambient, tuple(blocks))


def reference_operators(payload: dict, path, n: int) -> list:
    """Oracle for ``fileio.load_operators`` on an already-read payload."""
    mats = _ref_require(payload, "matrices", str(path))
    field = payload.get("field", "complex")
    if field not in ("real", "complex"):
        raise FrameFileError(f"{path}.field: expected 'real' or 'complex', got {field!r}")
    if not isinstance(mats, list) or not mats:
        raise FrameFileError(f"{path}.matrices: expected a nonempty list")
    return [
        reference_matrix_entries(entry, n, n, field, f"{path}.matrices[{k}]")
        for k, entry in enumerate(mats)
    ]
