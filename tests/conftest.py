"""Fixtures shared by the test modules."""

import pytest

from kshrink import montecarlo


@pytest.fixture()
def helper_threads(monkeypatch):
    """The list of helper threads that the test's harness runs start, filled as they start them."""
    real = montecarlo.Thread
    helpers = []

    def spy(*args, **kwargs):
        helpers.append(real(*args, **kwargs))
        return helpers[-1]

    monkeypatch.setattr(montecarlo, "Thread", spy)
    return helpers
