"""``tools/headline.py``'s count of the matrices each search side tests."""

import importlib.util
from pathlib import Path

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
