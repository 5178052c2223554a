"""Shared test setup."""

import pytest

import poscones.forms


@pytest.fixture(autouse=True)
def _fresh_rank_one_cache():
    # rank_one keeps <u> for recently used elements process-wide; clear it so
    # that a count of diagonalizations does not depend on the tests before
    poscones.forms.rank_one.cache_clear()
    yield
