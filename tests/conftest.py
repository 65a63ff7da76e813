"""Test set-up shared by every test module."""

import contextlib
import warnings

import pytest

# The hypothesis plugin imports this module when a property first fails, and
# the import raises a DeprecationWarning (mypy_extensions.TypedDict).  Under
# ``-W error`` that ends the run in INTERNALERROR instead of printing the
# falsifying example, so it is imported once here with only that warning
# category ignored.  It needs libcst, which plain ``hypothesis`` does not
# install; without libcst the plugin skips the import, and so does this.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(autouse=True)
def _default_budget(monkeypatch):
    """Run every test at the default partition budget, whatever the shell
    exports; a test that needs ``GWEAVE_BUDGET`` sets it itself."""
    monkeypatch.delenv("GWEAVE_BUDGET", raising=False)
