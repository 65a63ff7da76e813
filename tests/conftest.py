"""Test set-up shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def _default_budget(monkeypatch):
    """Run every test at the default partition budget, whatever the shell
    exports; a test that needs ``GWEAVE_BUDGET`` sets it itself."""
    monkeypatch.delenv("GWEAVE_BUDGET", raising=False)
