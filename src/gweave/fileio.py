"""JSON serialization for g-frames and families.

Frame files carry the ambient dimension, a scalar field marker and a list
of blocks; complex entries are ``[re, im]`` pairs, real entries plain
numbers.  Serialization uses Python's shortest round-trip float repr, so
``load(save(F))`` reproduces every entry bit-for-bit and repeated saves
are byte-identical.  Parse errors carry the offending field path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .gframe import GFrame
from .weaving import GFrameFamily

__all__ = [
    "FrameFileError",
    "load_frame",
    "load_family",
    "load_any",
    "load_operators",
    "save_frame",
    "save_family",
    "frame_to_payload",
    "frame_from_payload",
    "parse_matrix_entries",
]


class FrameFileError(ValueError):
    """Malformed frame/family file; the message names the bad field."""


def _require(payload: dict, key: str, where: str):
    if key not in payload:
        raise FrameFileError(f"{where}: missing required field {key!r}")
    return payload[key]


def _parse_scalar(raw, field: str, where: str) -> complex:
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
        # An integer past float64, not echoed: long ints may refuse to format.
        raise FrameFileError(f"{where}: integer too large for float64") from exc


def parse_matrix_entries(entries, rows: int, cols: int, field: str, where: str) -> np.ndarray:
    """Parse a nested entries array into a validated complex matrix."""
    if not isinstance(entries, list) or len(entries) != rows:
        raise FrameFileError(f"{where}: expected {rows} rows")
    # Shapes first, so a file cannot claim more memory than its entries hold.
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise FrameFileError(f"{where}[{r}]: expected {cols} entries")
    out = np.empty((rows, cols), dtype=np.complex128)
    for r, row in enumerate(entries):
        for c, raw in enumerate(row):
            out[r, c] = _parse_scalar(raw, field, f"{where}[{r}][{c}]")
    if not np.all(np.isfinite(out)):
        raise FrameFileError(f"{where}: entries must be finite numbers")
    return out


def frame_from_payload(payload, where: str = "frame") -> GFrame:
    if not isinstance(payload, dict):
        raise FrameFileError(f"{where}: expected an object")
    ambient = _require(payload, "ambient_dim", where)
    if isinstance(ambient, bool) or not isinstance(ambient, int) or ambient < 1:
        raise FrameFileError(f"{where}.ambient_dim: expected a positive integer")
    field = _require(payload, "field", where)
    if field not in ("real", "complex"):
        raise FrameFileError(f"{where}.field: expected 'real' or 'complex', got {field!r}")
    blocks_raw = _require(payload, "blocks", where)
    if not isinstance(blocks_raw, list) or not blocks_raw:
        raise FrameFileError(f"{where}.blocks: expected a nonempty list")
    blocks = []
    for b, item in enumerate(blocks_raw):
        spot = f"{where}.blocks[{b}]"
        if not isinstance(item, dict):
            raise FrameFileError(f"{spot}: expected an object")
        rows = _require(item, "rows", spot)
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
            raise FrameFileError(f"{spot}.rows: expected a positive integer")
        entries = _require(item, "entries", spot)
        blocks.append(parse_matrix_entries(entries, rows, ambient, field, f"{spot}.entries"))
    try:
        return GFrame(ambient, tuple(blocks))
    except ValueError as exc:
        raise FrameFileError(f"{where}: {exc}") from exc


def _payload_from_path(path) -> dict:
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise FrameFileError(f"{path}: expected a top-level object")
    return payload


def load_frame(path) -> GFrame:
    payload = _payload_from_path(path)
    if "frames" in payload:
        raise FrameFileError(f"{path}: found a family file where a frame file was expected")
    return frame_from_payload(payload, where=str(path))


def load_family(path) -> GFrameFamily:
    payload = _payload_from_path(path)
    return family_from_payload(payload, where=str(path))


def family_from_payload(payload, where: str = "family") -> GFrameFamily:
    frames_raw = _require(payload, "frames", where)
    if not isinstance(frames_raw, list) or len(frames_raw) < 2:
        raise FrameFileError(f"{where}.frames: expected a list of at least two frames")
    frames = tuple(
        frame_from_payload(item, where=f"{where}.frames[{j}]")
        for j, item in enumerate(frames_raw)
    )
    try:
        # Degenerate members are loadable on purpose: the CLI reports on
        # them instead of refusing the file.
        return GFrameFamily(frames, allow_degenerate=True)
    except ValueError as exc:
        raise FrameFileError(f"{where}: {exc}") from exc


def load_any(path) -> GFrame | GFrameFamily:
    payload = _payload_from_path(path)
    if "frames" in payload:
        return family_from_payload(payload, where=str(path))
    return frame_from_payload(payload, where=str(path))


def load_operators(path, n: int) -> list[np.ndarray]:
    """The ``n x n`` matrices of an operators file (``field`` defaults to complex)."""
    payload = _payload_from_path(path)
    mats = _require(payload, "matrices", str(path))
    field = payload.get("field", "complex")
    if field not in ("real", "complex"):
        raise FrameFileError(f"{path}.field: expected 'real' or 'complex', got {field!r}")
    if not isinstance(mats, list) or not mats:
        raise FrameFileError(f"{path}.matrices: expected a nonempty list")
    return [
        parse_matrix_entries(entry, n, n, field, f"{path}.matrices[{k}]")
        for k, entry in enumerate(mats)
    ]


def _entries_payload(block: np.ndarray, field: str):
    if field == "real":
        return [[float(z.real) for z in row] for row in block]
    return [[[float(z.real), float(z.imag)] for z in row] for row in block]


def frame_to_payload(f: GFrame) -> dict:
    field = "real" if all(np.all(b.imag == 0.0) for b in f.blocks) else "complex"
    return {
        "ambient_dim": f.ambient_dim,
        "field": field,
        "blocks": [
            {"rows": int(b.shape[0]), "entries": _entries_payload(b, field)}
            for b in f.blocks
        ],
    }


def family_to_payload(fam: GFrameFamily) -> dict:
    return {"frames": [frame_to_payload(fr) for fr in fam.frames]}


def _dump(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def save_frame(f: GFrame, path) -> None:
    _dump(frame_to_payload(f), path)


def save_family(fam: GFrameFamily, path) -> None:
    _dump(family_to_payload(fam), path)
