"""Unit tests for the buffered baseline and NN wrapper."""

import numpy as np
import pytest

from repro.cts import Sink, build_buffered_tree
from repro.cts.dme import GateEveryEdgePolicy
from repro.cts.nearest_neighbor import build_nearest_neighbor_tree
from repro.geometry import Point
from repro.obs import MetricsRegistry, set_registry
from repro.tech import unit_technology


def rng_sinks(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


class TestBufferedTree:
    def test_every_edge_has_a_buffer(self):
        tech = unit_technology()
        tree = build_buffered_tree(rng_sinks(12), tech)
        for node in tree.edges():
            assert node.edge_cell == tech.buffer
            assert not node.edge_maskable

    def test_no_gates(self):
        tree = build_buffered_tree(rng_sinks(12), unit_technology())
        assert tree.gate_count() == 0
        assert tree.cell_count() == 22

    def test_zero_skew(self):
        tree = build_buffered_tree(rng_sinks(18, seed=2), unit_technology())
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)

    def test_cell_area_counts_buffers(self):
        tech = unit_technology()
        tree = build_buffered_tree(rng_sinks(6), tech)
        assert tree.cell_area() == pytest.approx(10 * tech.buffer.area)


class TestNearestNeighborTree:
    def test_default_is_plain_wire(self):
        tree = build_nearest_neighbor_tree(rng_sinks(10), unit_technology())
        assert tree.cell_count() == 0

    def test_policy_override(self):
        tree = build_nearest_neighbor_tree(
            rng_sinks(10), unit_technology(), cell_policy=GateEveryEdgePolicy()
        )
        assert tree.gate_count() == 18

    def test_wirelength_close_to_buffered(self):
        # Same topology heuristic, so wirelength differs only through
        # cell-induced balancing.
        sinks = rng_sinks(20, seed=5)
        nn = build_nearest_neighbor_tree(sinks, unit_technology())
        buf = build_buffered_tree(sinks, unit_technology())
        assert buf.total_wirelength() == pytest.approx(
            nn.total_wirelength(), rel=0.35
        )


class TestVectorizeFlag:
    """Both builders produce the scalar reference merger's trees."""

    @pytest.mark.parametrize("limit", [None, 4])
    def test_nearest_neighbor_vectorize_parity(self, limit, request):
        sinks = rng_sinks(24, seed=7)
        tech = unit_technology()
        fast = build_nearest_neighbor_tree(sinks, tech, candidate_limit=limit)
        request.getfixturevalue("scalar_merger")
        plain = build_nearest_neighbor_tree(sinks, tech, candidate_limit=limit)
        assert fast.total_wirelength() == plain.total_wirelength()  # exact
        assert fast.skew() == plain.skew()

    def test_buffered_vectorize_parity(self, request):
        sinks = rng_sinks(24, seed=8)
        tech = unit_technology()
        fast = build_buffered_tree(sinks, tech)
        request.getfixturevalue("scalar_merger")
        plain = build_buffered_tree(sinks, tech)
        assert fast.total_wirelength() == plain.total_wirelength()
        assert fast.skew() == plain.skew()

    def test_scalar_merger_fixture_runs_no_kernels(self, scalar_merger):
        # Guards the seam the parity tests rely on: under the fixture a
        # builder must never reach the kernel screens.
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            build_buffered_tree(rng_sinks(24, seed=9), unit_technology())
        finally:
            set_registry(previous)
        assert registry.counter("dme.plans_computed").value > 0
        assert registry.counter("dme.kernel_batches").value == 0
