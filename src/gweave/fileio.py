"""JSON serialization for g-frames and families.

Frame files carry the ambient dimension, a scalar field marker and a list
of blocks; complex entries are ``[re, im]`` pairs, real entries plain
numbers.  Serialization uses Python's shortest round-trip float repr, so
``load(save(F))`` reproduces every entry bit-for-bit and repeated saves
are byte-identical.  Parse errors carry the offending field path.
"""

from __future__ import annotations

import cmath
import json
from itertools import accumulate, chain
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


def _accepted(rows, field: str) -> bool:
    """Whether every entry of the rows is a number (``field == "real"``) or
    an ``[re, im]`` pair of numbers; a bool is none, though ``np.array``
    would read ``True``, ``'1.5'`` and ``None`` as numbers."""
    scalars = chain.from_iterable(rows)
    if field == "complex":
        pairs = list(scalars)
        kinds = set(map(type, pairs))
        if not all(issubclass(t, (list, tuple)) for t in kinds) or set(map(len, pairs)) - {2}:
            return False
        scalars = chain.from_iterable(pairs)
    return all(
        issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, scalars))
    )


def _parse_scalar(raw, field: str, where: str) -> complex:
    if not _accepted([[raw]], field):
        kind = "a real number" if field == "real" else "an [re, im] pair"
        raise FrameFileError(f"{where}: expected {kind}, got {raw!r}")
    re, im = (raw, 0.0) if field == "real" else raw
    try:
        return complex(float(re), float(im))
    except OverflowError as exc:
        # An integer past float64, not echoed: long ints may refuse to format.
        raise FrameFileError(f"{where}: integer too large for float64") from exc


def _check_scalars(matrices, field: str) -> None:
    """The walk: raise the first error of shape-checked ``(entries, rows,
    where)`` matrices, a rejected entry or else a matrix's non-finite one."""
    for entries, _, where in matrices:
        finite = True
        for r, row in enumerate(entries):
            for c, raw in enumerate(row):
                finite &= cmath.isfinite(_parse_scalar(raw, field, f"{where}[{r}][{c}]"))
        if not finite:
            raise FrameFileError(f"{where}: entries must be finite numbers")


def _parse_matrices(specs, cols: int, field: str) -> list[np.ndarray]:
    """The complex matrices of ``specs``, an iterable of ``(entries, rows,
    where)`` that may itself raise: shapes checked in turn, then all entries
    converted by one ``np.array`` and split by row counts.  Errors come from
    the walk, as if each matrix were parsed entry by entry in turn."""
    checked = []
    try:
        for entries, rows, where in specs:
            if not isinstance(entries, list) or len(entries) != rows:
                raise FrameFileError(f"{where}: expected {rows} rows")
            # Shapes first, so no entry of a malformed matrix is converted.
            for r, row in enumerate(entries):
                if not isinstance(row, list) or len(row) != cols:
                    raise FrameFileError(f"{where}[{r}]: expected {cols} entries")
            checked.append((entries, rows, where))
    except FrameFileError:
        # A bad entry of an earlier matrix comes first.
        _check_scalars(checked, field)
        raise
    flat = [row for entries, _, _ in checked for row in entries]
    try:
        values = np.array(flat, dtype=np.float64) if _accepted(flat, field) else None
    except OverflowError:
        values = None
    if values is None or not np.isfinite(values).all():
        _check_scalars(checked, field)
    values = values.astype(np.complex128) if field == "real" else values.view(np.complex128)
    values = values.reshape(len(flat), cols)
    stops = accumulate(rows for _, rows, _ in checked)
    return [values[stop - rows : stop] for (_, rows, _), stop in zip(checked, stops)]


def parse_matrix_entries(entries, rows: int, cols: int, field: str, where: str) -> np.ndarray:
    """Parse a nested entries array into a validated complex matrix, by one
    ``np.array``; errors name the field path of the first bad entry, found
    by the entry-by-entry walk."""
    return _parse_matrices([(entries, rows, where)], cols, field)[0]


def _block(item, spot: str) -> tuple:
    """The ``(entries, rows, where)`` of a frame file's block."""
    if not isinstance(item, dict):
        raise FrameFileError(f"{spot}: expected an object")
    rows = _require(item, "rows", spot)
    if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
        raise FrameFileError(f"{spot}.rows: expected a positive integer")
    return _require(item, "entries", spot), rows, f"{spot}.entries"


def frame_from_payload(payload, where: str = "frame") -> GFrame:
    """The g-frame of a frame file's payload, all entries converted by one
    ``np.array``; errors come from the walk, block by block."""
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
    specs = (_block(item, f"{where}.blocks[{b}]") for b, item in enumerate(blocks_raw))
    # The checks above leave GFrame nothing to reject.
    return GFrame(ambient, tuple(_parse_matrices(specs, ambient, field)))


def _payload_from_path(path) -> dict:
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise FrameFileError(f"{path}: JSON nested too deeply") from exc
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
    return _parse_matrices(
        ((entry, n, f"{path}.matrices[{k}]") for k, entry in enumerate(mats)), n, field
    )


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
