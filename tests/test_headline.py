"""``tools/headline.py``: its count of the matrices each search side tests, its
families and its two headline lines."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gweave import weaving
from gweave.generate import GenSpec, generate

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "headline.py"
_spec = importlib.util.spec_from_file_location("headline", _TOOL)
headline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(headline)


def test_search_counts_both_sides_and_restores_names():
    factors, search_side = weaving._factors, weaving._search_side
    fam = generate(GenSpec(6, (1,) * 10, "perturbed", 0))
    lower, upper = headline.search_counts(fam)
    assert lower > 0 and upper > 0
    assert weaving._factors is factors and weaving._search_side is search_side
    # The same counts again: nothing is left wrapped twice.
    assert headline.search_counts(fam) == (lower, upper)


def test_names_restored_when_the_call_raises(monkeypatch):
    factors, search_side = weaving._factors, weaving._search_side
    fam = generate(GenSpec(6, (1,) * 10, "perturbed", 0))

    def failing(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(headline, "certify_woven", failing)
    with pytest.raises(RuntimeError, match="stop"):
        headline.search_counts(fam)
    assert weaving._factors is factors and weaving._search_side is search_side


def test_three_member_family_and_counts():
    fam = headline.family(3, 8, 0)
    pair = headline.family(2, 8, 0)
    assert (fam.m, fam.ambient_dim, fam.block_dims) == (3, 6, (1,) * 8)
    for member, expected in zip(fam.frames, pair.frames):
        assert all(np.array_equal(a, b) for a, b in zip(member.blocks, expected.blocks))
    again = headline.family(3, 8, 0).frames[2]
    assert all(np.array_equal(a, b) for a, b in zip(fam.frames[2].blocks, again.blocks))
    lower, upper = headline.search_counts(fam)
    assert lower > 0 and upper > 0
    assert headline.search_counts(fam) == (lower, upper)


# Each sweep stops at its first N with a seed at the limit and prints the
# largest N before it, for m = 2 and then m = 3.
def test_main_prints_both_lines(monkeypatch, capsys):
    calls = []

    def timed(m, big_n, seed):
        calls.append((m, big_n, seed))
        last = {2: 20, 3: 12}[m]
        return (headline.LIMIT_S if big_n > last else 0.1), "woven", (1, 2)

    monkeypatch.setattr(headline, "best_time", timed)
    assert headline.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "largest 3**N under 10 s at n = 6: 3**12"
    assert "largest 2**N under 10 s at n = 6: 2**20" in out
    assert "3**10  seed 0     0.100 s  woven  tested: lower 1, upper 2" in out
    assert [c[:2] for c in calls if c[2] == 0] == [
        (2, 16), (2, 18), (2, 20), (2, 22), (3, 10), (3, 11), (3, 12), (3, 13)
    ]
