"""Shared test set-up."""

import pytest

import hardyconst.solver


@pytest.fixture(autouse=True)
def _fresh_solver_memos():
    """Start every test with the solver's one-entry memos empty, so work counts
    and injected failures do not depend on which test ran before."""
    hardyconst.solver._clear_memos()
