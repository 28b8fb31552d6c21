"""Shared test set-up."""

import pytest

import hardyconst.hardy
import hardyconst.solver


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Start every test with the solver's cached alpha(s2) and the cached
    moments of the last step function cleared, so work counts and injected
    failures do not depend on which test ran before."""
    hardyconst.solver._alpha.cache_clear()
    hardyconst.hardy._induced.cache_clear()
