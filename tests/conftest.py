"""Shared test set-up."""

import pytest

import hardyconst.solver


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Start every test with the solver's cached alpha(s2) cleared, so work
    counts and injected failures do not depend on which test ran before."""
    hardyconst.solver._alpha.cache_clear()
