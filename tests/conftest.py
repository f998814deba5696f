"""Shared test setup."""

from __future__ import annotations

import pytest

from critgap import fredholm


@pytest.fixture(autouse=True)
def _no_kept_pair_factors():
    """Start each test without the PairFactors that contour-Q keeps alive
    (fredholm._RECENT) from the tests before it, so that a test counting
    probes, sketches or LUs does not depend on which tests ran first."""
    fredholm._RECENT.clear()
