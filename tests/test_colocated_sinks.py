"""Co-located (zero-distance) sink pairs: one enforced behavior.

The decided contract (ISSUE 4): two distinct sinks at identical
coordinates are **merged with a zero-length edge and an exact split**
-- never an error -- and the vectorized kernel lane agrees with the
scalar ``zero_skew_split`` bit for bit at ``L == 0``.
"""

import numpy as np
import pytest

from repro.check.errors import GeometryError
from repro.cts import BottomUpMerger, Sink
from repro.cts.kernels import batch_zero_skew_split
from repro.cts.merge import Tap, zero_skew_split
from repro.geometry import Point
from repro.tech import unit_technology
from repro.tech.presets import date98_technology


def _lane(tech, cap_a, delay_a, cap_b, delay_b, length=0.0):
    """Scalar vs batch outcome for one cell-free lane."""
    scalar = zero_skew_split(
        length, Tap(cap=cap_a, delay=delay_a), Tap(cap=cap_b, delay=delay_b), tech
    )
    batch = batch_zero_skew_split(
        np.array([length]),
        cap_a,
        delay_a,
        np.array([cap_b]),
        np.array([delay_b]),
        tech.unit_wire_resistance,
        tech.unit_wire_capacitance,
    )
    return scalar, batch


class TestKernelParityAtZeroDistance:
    def test_equal_subtrees(self):
        tech = date98_technology()
        scalar, batch = _lane(tech, 1.0, 5.0, 1.0, 5.0)
        assert batch.in_range[0]
        assert batch.length_a[0] == scalar.length_a
        assert batch.length_b[0] == scalar.length_b
        assert batch.delay[0] == scalar.delay
        assert batch.merged_cap[0] == scalar.merged_cap

    def test_unequal_caps_balanced_delays(self):
        tech = date98_technology()
        scalar, batch = _lane(tech, 1.0, 5.0, 10.0, 5.0)
        assert batch.in_range[0]
        assert batch.length_a[0] == scalar.length_a == 0.0
        assert batch.length_b[0] == scalar.length_b == 0.0
        assert batch.delay[0] == scalar.delay

    def test_unequal_delays_classified_as_snake(self):
        # b is slower: the scalar path snakes a; the kernel classifies
        # the lane as snaking and models it at parity (no fallback).
        tech = date98_technology()
        scalar, batch = _lane(tech, 1.0, 1.0, 1.0, 9.0)
        assert scalar.snaked == "a"
        assert bool(batch.snake_a[0])
        assert not batch.in_range[0]
        assert bool(batch.modelled[0])
        assert batch.length_a[0] == scalar.length_a > 0.0
        assert batch.length_b[0] == scalar.length_b == 0.0
        assert batch.delay[0] == scalar.delay
        assert batch.merged_cap[0] == scalar.merged_cap

    def test_unit_technology_lane_agrees(self):
        tech = unit_technology()
        scalar, batch = _lane(tech, 2.0, 3.0, 2.0, 3.0)
        assert batch.length_a[0] == scalar.length_a
        assert batch.length_b[0] == scalar.length_b

    def test_zero_rc_degenerate_lane_agrees(self):
        # Zero-RC technology at L=0: the balance denominator vanishes;
        # both classifiers must take the same trivial-split branch.
        from repro.tech.parameters import GateModel, Technology

        cell = GateModel(
            input_cap=0.0, drive_resistance=0.0, intrinsic_delay=0.0, area=0.0
        )
        tech = Technology(
            unit_wire_resistance=0.0,
            unit_wire_capacitance=0.0,
            masking_gate=cell,
            buffer=cell,
        )
        scalar, batch = _lane(tech, 2.0, 3.0, 2.0, 3.0)
        assert bool(batch.degenerate[0])
        assert batch.in_range[0]
        assert batch.length_a[0] == scalar.length_a == 0.0
        assert batch.length_b[0] == scalar.length_b == 0.0


class TestMergerBehavior:
    def test_coincident_pair_zero_length_edges(self):
        sinks = [
            Sink("a", Point(5, 5), 1.0, 0),
            Sink("b", Point(5, 5), 1.0, 1),
        ]
        tree = BottomUpMerger(sinks, date98_technology()).run()
        assert tree.total_wirelength() == pytest.approx(0.0)
        assert tree.skew() <= 1e-9
        tree.validate_embedding()

    def test_vectorize_parity_with_colocated_sinks(self):
        sinks = [
            Sink("a", Point(5, 5), 1.0, 0),
            Sink("b", Point(5, 5), 2.0, 1),
            Sink("c", Point(40, 5), 1.0, 2),
            Sink("d", Point(5, 40), 1.5, 3),
            Sink("e", Point(40, 40), 1.0, 4),
        ]
        runs = {}
        for vectorize in (True, False):
            merger = BottomUpMerger(
                sinks, date98_technology(), vectorize=vectorize
            )
            tree = merger.run()
            runs[vectorize] = (merger.merge_trace, tree.total_wirelength())
        # Byte-identical decisions and wirelength across modes.
        assert runs[True] == runs[False]

    def test_negative_distance_still_rejected(self):
        tech = date98_technology()
        with pytest.raises(GeometryError):
            zero_skew_split(-1.0, Tap(cap=1.0, delay=0.0), Tap(cap=1.0, delay=0.0), tech)

    def test_non_finite_distance_rejected(self):
        tech = date98_technology()
        with pytest.raises(GeometryError, match="finite"):
            zero_skew_split(
                float("nan"), Tap(cap=1.0, delay=0.0), Tap(cap=1.0, delay=0.0), tech
            )
