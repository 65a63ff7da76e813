"""The one-conversion parser against the entry-by-entry parse it replaced.

``_support.reference_*`` keep that parse as the oracle.  On every drawn
input both sides raise the same exception with the same message, or both
return arrays equal byte for byte, signed zeros included.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gweave import fileio
from gweave.fileio import frame_from_payload, load_operators, parse_matrix_entries

from _support import reference_frame, reference_matrix_entries, reference_operators

# Past float64: 2**1024 - 2**970 is the least integer that rounds to 2**1024.
_EDGE_INTS = [2**53 + 1, 2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**309, -(10**309)]
_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**1100), 2**1100),
    st.integers(-(2**53), 2**53),
    st.sampled_from(_EDGE_INTS + _EDGE_FLOATS),
)
odd = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    # What a library caller may pass: only np.float64 is a float.
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
scalars = st.one_of(numbers, odd)


@st.composite
def entries(draw, rows: int, cols: int, field: str):
    """A nested entries array of ``rows x cols``, well-formed about half of
    the time; otherwise with odd scalars, pairs of length 1 or 3, tuples
    and ragged rows."""
    clean = draw(st.booleans())
    scalar = numbers if clean else scalars
    if field == "real":
        entry = scalar
    else:
        pair = st.tuples(scalar, scalar).map(list)
        entry = pair if clean else st.one_of(
            pair, st.tuples(scalar, scalar), st.lists(scalar, min_size=1, max_size=3), scalar
        )
    out = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if not clean and out and draw(st.booleans()):
        # A ragged row: one entry short or one too many.
        row = draw(st.integers(0, len(out) - 1))
        out[row] = out[row][:-1] if draw(st.booleans()) else out[row] + [draw(entry)]
    return out


def _outcome(call):
    """``("ok", [(shape, dtype, bytes), ...])`` or ``("raised", type, message)``."""
    try:
        arrays = call()
    except Exception as exc:  # any type: it is compared too
        return ("raised", type(exc), str(exc))
    return ("ok", [(a.shape, a.dtype, a.tobytes()) for a in arrays])


fields = st.sampled_from(["real", "complex"])


def test_edge_values_match_the_walk():
    # Drawn too rarely to rely on: signed zeros, subnormals, the largest
    # float and integers that round, in both fields.
    row = [*_EDGE_FLOATS, 2**53 + 1, 2**1024 - 2**970 - 1, np.float64(-0.0)]
    for field, raw in (("real", [row]), ("complex", [[[x, -x] for x in row]])):
        args = (raw, 1, len(row), field, "m")
        ours = _outcome(lambda: [parse_matrix_entries(*args)])
        assert ours[0] == "ok"
        assert ours == _outcome(lambda: [reference_matrix_entries(*args)])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=fields, rows=st.integers(0, 3), cols=st.integers(0, 3))
def test_parse_matrix_entries_matches_the_walk(data, field, rows, cols):
    raw = data.draw(entries(rows, cols, field))
    claimed = data.draw(st.sampled_from([rows, rows + 1, max(rows - 1, 0)]))
    args = (raw, claimed, cols, field, "m")
    assert _outcome(lambda: [parse_matrix_entries(*args)]) == _outcome(
        lambda: [reference_matrix_entries(*args)]
    )


@st.composite
def frame_payloads(draw):
    field = draw(fields)
    ambient = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(1, 3))
        block = {"rows": rows, "entries": draw(entries(rows, ambient, field))}
        # Now and then a block whose own fields are bad, after good ones.
        blocks.append(draw(st.sampled_from(
            [block] * 6 + [{"entries": block["entries"]}, {**block, "rows": 0}, [block]]
        )))
    return {"ambient_dim": ambient, "field": field, "blocks": blocks}


@settings(max_examples=300, deadline=None)
@given(payload=frame_payloads())
def test_frame_from_payload_matches_the_walk(payload):
    assert _outcome(lambda: frame_from_payload(payload, "f").blocks) == _outcome(
        lambda: reference_frame(payload, "f").blocks
    )


@st.composite
def operator_payloads(draw, n: int):
    field = draw(fields)
    mats = draw(st.lists(entries(n, n, field), min_size=1, max_size=3))
    payload = {"matrices": mats}
    if field == "real" or draw(st.booleans()):
        payload["field"] = field
    return payload


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_load_operators_matches_the_walk(data, n):
    payload = data.draw(operator_payloads(n))
    with mock.patch.object(fileio, "_payload_from_path", lambda path: payload):
        ours = _outcome(lambda: load_operators("ops.json", n))
    assert ours == _outcome(lambda: reference_operators(payload, "ops.json", n))
