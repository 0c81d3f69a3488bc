"""Shared fixtures for the tier-1 suite."""

import functools

import pytest

from repro.cts.dme import BottomUpMerger


@pytest.fixture
def scalar_merger(monkeypatch):
    """Route through the scalar reference merger for the rest of the test.

    The routing API has one engine (the kernel-screened merger); the
    scalar engine survives only as its parity oracle.  This fixture
    swaps it in under every tree builder, so flow- and CLI-level tests
    can check that the scalar side lands on the same trees and pins.
    """
    scalar = functools.partial(BottomUpMerger, vectorize=False)
    for module in (
        "repro.core.gated_routing",
        "repro.cts.buffered",
        "repro.cts.nearest_neighbor",
    ):
        monkeypatch.setattr(module + ".BottomUpMerger", scalar)
