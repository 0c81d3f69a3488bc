"""Shared fixtures for the tier-1 suite."""

import functools

import pytest

from repro.cts.dme import BottomUpMerger
from repro.cts.reembed import reembed
from repro.cts.refine import _SNAPSHOT_FIELDS


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


def _reembed_drift(tree):
    """``(node id, field)`` pairs a full ``reembed`` would change.

    Compares a re-embedded clone with ``tree`` on every field the
    refinement pass snapshots, with ``==`` (no tolerance); an empty
    list means ``tree`` is a bitwise fixed point of ``reembed``.
    """
    twin = tree.clone()
    reembed(twin)
    return [
        (node.id, field)
        for node, other in zip(tree.nodes(), twin.nodes())
        for field in _SNAPSHOT_FIELDS
        if getattr(node, field) != getattr(other, field)
    ]


@pytest.fixture
def reembed_drift():
    """The :func:`_reembed_drift` checker, for fixed-point assertions."""
    return _reembed_drift
