"""Kernel/scalar parity tests for the vectorized DME screens.

Two layers of defence:

* **property tests** pin the exact-parity contract of
  :mod:`repro.cts.kernels` -- the batched distance, split, and
  enable-star kernels must agree with their scalar counterparts to
  *exact float equality* (``==``, not approx) on everything they model;
* **trace determinism tests** run the full merger with ``vectorize``
  on and off across every cost/policy/fallback configuration and
  assert byte-identical ``merge_trace`` and wirelength.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import InstructionSet, paper_example_isa, paper_example_stream
from repro.core.cost import (
    incremental_switched_capacitance_cost,
    switched_capacitance_cost,
)
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import (
    BufferEveryEdgePolicy,
    GateEveryEdgePolicy,
    NoCellPolicy,
    nearest_neighbor_cost,
)
from repro.cts import kernels
from repro.cts.merge import Tap, zero_skew_split
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.obs import MetricsRegistry, set_registry
from repro.tech import date98_technology, unit_technology

NUM_MODULES = 6  # paper_example_isa()

coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
extents = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)
caps = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
delays = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
lengths = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
# Delays up to 1e6 push most lanes out of range, onto the snaking path.
skewed_delays = st.one_of(
    delays, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
)


@st.composite
def arcs(draw):
    """A random Manhattan arc (degenerate in one rotated axis)."""
    u, v = draw(coords), draw(coords)
    length = draw(extents)
    if draw(st.booleans()):
        return Trr(u, u + length, v, v)
    return Trr(u, u, v, v + length)


def batch_of(segments):
    return (
        np.array([s.ulo for s in segments]),
        np.array([s.uhi for s in segments]),
        np.array([s.vlo for s in segments]),
        np.array([s.vhi for s in segments]),
    )


class TestBatchDistanceParity:
    @settings(max_examples=200, deadline=None)
    @given(a=arcs(), others=st.lists(arcs(), min_size=1, max_size=8))
    def test_exact_equality_with_scalar(self, a, others):
        got = kernels.batch_segment_distance(
            a.ulo, a.uhi, a.vlo, a.vhi, *batch_of(others)
        )
        for j, b in enumerate(others):
            assert got[j] == a.distance_to(b)  # exact, not approx

    @settings(max_examples=200, deadline=None)
    @given(a=arcs(), b=arcs())
    def test_orientation_symmetric(self, a, b):
        ab = kernels.batch_segment_distance(
            a.ulo, a.uhi, a.vlo, a.vhi, *batch_of([b])
        )
        ba = kernels.batch_segment_distance(
            b.ulo, b.uhi, b.vlo, b.vhi, *batch_of([a])
        )
        assert ab[0] == ba[0] == a.distance_to(b)

    def test_touching_segments_have_zero_distance(self):
        a = Trr(0.0, 4.0, 0.0, 0.0)
        b = Trr(4.0, 8.0, 0.0, 0.0)
        got = kernels.batch_segment_distance(
            a.ulo, a.uhi, a.vlo, a.vhi, *batch_of([b])
        )
        assert got[0] == 0.0


class TestBatchStarParity:
    @settings(max_examples=200, deadline=None)
    @given(px=coords, py=coords, others=st.lists(arcs(), min_size=1, max_size=8))
    def test_exact_equality_with_scalar(self, px, py, others):
        cp = Point(px, py)
        got = kernels.batch_star_length(cp.x, cp.y, *batch_of(others))
        for j, seg in enumerate(others):
            assert got[j] == cp.manhattan_to(seg.center())


class TestBatchSplitParity:
    """Cell-free batched splits agree with ``zero_skew_split`` exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        length=lengths,
        cap_a=caps,
        delay_a=delays,
        sides=st.lists(st.tuples(caps, delays), min_size=1, max_size=8),
    )
    def test_in_range_lanes_bit_identical(self, length, cap_a, delay_a, sides):
        tech = unit_technology()
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        n = len(sides)
        split = kernels.batch_zero_skew_split(
            np.full(n, length),
            cap_a,
            delay_a,
            np.array([s[0] for s in sides]),
            np.array([s[1] for s in sides]),
            r,
            c,
        )
        tap_a = Tap(cap=cap_a, delay=delay_a)
        for j, (cap_b, delay_b) in enumerate(sides):
            scalar = zero_skew_split(length, tap_a, Tap(cap=cap_b, delay=delay_b), tech)
            # Classification always matches the scalar branch taken.
            assert bool(split.snake_a[j]) == (scalar.snaked == "a")
            assert bool(split.snake_b[j]) == (scalar.snaked == "b")
            assert bool(split.in_range[j]) == (scalar.snaked is None)
            if split.in_range[j]:
                # Exact equality on every modelled quantity.
                assert split.length_a[j] == scalar.length_a
                assert split.length_b[j] == scalar.length_b
                assert split.delay[j] == scalar.delay
                assert split.presented_a[j] == scalar.presented_a
                assert split.presented_b[j] == scalar.presented_b
                assert split.merged_cap[j] == scalar.merged_cap

    def test_degenerate_denominator_classification(self):
        # r*(cap_a+cap_b) + r*c*L == 0: the scalar branches on the skew.
        tech = unit_technology()
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        split = kernels.batch_zero_skew_split(
            np.zeros(3),
            0.0,
            5.0,
            np.zeros(3),
            np.array([5.0, 9.0, 1.0]),  # equal / b slower / a slower
            r,
            c,
        )
        assert split.degenerate.all()
        assert bool(split.in_range[0]) and split.x[0] == 0.0
        assert bool(split.snake_a[1])  # b slower: snake a
        assert bool(split.snake_b[2])  # a slower: snake b

    def test_out_of_range_lanes_listed(self):
        # The out-of-range lane is still classified as snaking, but it
        # is modelled and at parity: nothing is left to the scalar plan.
        tech = unit_technology()
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        split = kernels.batch_zero_skew_split(
            np.array([10.0, 10.0]),
            1.0,
            0.0,
            np.array([1.0, 1.0]),
            np.array([0.0, 1e6]),  # balanced / wildly slower b: snake a
            r,
            c,
        )
        assert np.nonzero(~split.in_range)[0].tolist() == [1]
        assert bool(split.snake_a[1])
        assert split.modelled.all()
        assert kernels.fallback_lanes(split) == []
        for j, delay_b in enumerate((0.0, 1e6)):
            scalar = zero_skew_split(
                10.0, Tap(cap=1.0, delay=0.0), Tap(cap=1.0, delay=delay_b), tech
            )
            assert_lane_equal(split, j, scalar)
        assert split.length_a[1] > 10.0  # snaked beyond the distance

    @settings(max_examples=300, deadline=None)
    @given(
        tech=st.sampled_from([unit_technology(), date98_technology()]),
        cells=st.sampled_from(["none", "gate", "buffer"]),
        length=st.one_of(st.just(0.0), lengths),
        query=st.tuples(st.one_of(st.just(0.0), caps), delays),
        sides=st.lists(
            st.tuples(st.one_of(st.just(0.0), caps), skewed_delays),
            min_size=1,
            max_size=8,
        ),
        query_on_a=st.booleans(),
    )
    def test_every_lane_bit_identical(
        self, tech, cells, length, query, sides, query_on_a
    ):
        # Snaked or not, in either orientation, every lane equals the
        # scalar split on every field the cost kernels read.
        cell = {"none": None, "gate": tech.masking_gate, "buffer": tech.buffer}[
            cells
        ]
        n = len(sides)
        arr = (np.array([s[0] for s in sides]), np.array([s[1] for s in sides]))
        a_side, b_side = (query, arr) if query_on_a else (arr, query)
        split = kernels.batch_zero_skew_split(
            np.full(n, length),
            *a_side,
            *b_side,
            tech.unit_wire_resistance,
            tech.unit_wire_capacitance,
            cell_a=cell,
            cell_b=cell,
        )
        assert split.modelled.all()
        tap_q = Tap(cap=query[0], delay=query[1], cell=cell)
        for j, (cap, delay) in enumerate(sides):
            tap_o = Tap(cap=cap, delay=delay, cell=cell)
            tap_a, tap_b = (tap_q, tap_o) if query_on_a else (tap_o, tap_q)
            scalar = zero_skew_split(length, tap_a, tap_b, tech)
            assert bool(split.snake_a[j]) == (scalar.snaked == "a")
            assert bool(split.snake_b[j]) == (scalar.snaked == "b")
            assert_lane_equal(split, j, scalar)

    def test_degenerate_snaked_lanes_at_parity(self):
        # Zero distance and unloaded subtrees: the degenerate branch
        # forces both snaking directions; each lane still equals the
        # scalar split.
        tech = unit_technology()
        delays_b = (5.0, 9.0, 1.0)  # equal / b slower / a slower
        split = kernels.batch_zero_skew_split(
            np.zeros(3),
            0.0,
            5.0,
            np.zeros(3),
            np.array(delays_b),
            tech.unit_wire_resistance,
            tech.unit_wire_capacitance,
        )
        assert split.degenerate.all() and split.modelled.all()
        for j, delay_b in enumerate(delays_b):
            scalar = zero_skew_split(
                0.0, Tap(cap=0.0, delay=5.0), Tap(cap=0.0, delay=delay_b), tech
            )
            assert_lane_equal(split, j, scalar)

    def test_negligible_wire_rc_left_to_scalar(self):
        # quad = r c / 2 <= EPS: the scalar snake takes its linear
        # special case, which the kernel leaves to the scalar plan.
        tech = low_rc_technology()
        split = kernels.batch_zero_skew_split(
            np.array([10.0, 10.0]),
            1.0,
            0.0,
            np.array([1.0, 1.0]),
            np.array([0.0, 1e3]),
            tech.unit_wire_resistance,
            tech.unit_wire_capacitance,
        )
        assert kernels.fallback_lanes(split) == [1]
        assert bool(split.modelled[0]) and bool(split.snake_a[1])

    @settings(max_examples=200, deadline=None)
    @given(
        length=lengths,
        cap_a=caps,
        delay_a=delays,
        sides=st.lists(st.tuples(caps, delays), min_size=1, max_size=8),
        gates=st.booleans(),
    )
    def test_cell_lanes_bit_identical(self, length, cap_a, delay_a, sides, gates):
        # Cell-aware lanes (gate or buffer on both new edges, the case
        # every uniform cell policy produces) against the scalar split.
        tech = unit_technology()
        cell = tech.masking_gate if gates else tech.buffer
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        n = len(sides)
        split = kernels.batch_zero_skew_split(
            np.full(n, length),
            cap_a,
            delay_a,
            np.array([s[0] for s in sides]),
            np.array([s[1] for s in sides]),
            r,
            c,
            cell_a=cell,
            cell_b=cell,
        )
        tap_a = Tap(cap=cap_a, delay=delay_a, cell=cell)
        for j, (cap_b, delay_b) in enumerate(sides):
            scalar = zero_skew_split(
                length, tap_a, Tap(cap=cap_b, delay=delay_b, cell=cell), tech
            )
            assert bool(split.snake_a[j]) == (scalar.snaked == "a")
            assert bool(split.snake_b[j]) == (scalar.snaked == "b")
            assert bool(split.in_range[j]) == (scalar.snaked is None)
            if split.in_range[j]:
                assert split.length_a[j] == scalar.length_a
                assert split.length_b[j] == scalar.length_b
                assert split.delay[j] == scalar.delay
                assert split.presented_a[j] == scalar.presented_a
                assert split.presented_b[j] == scalar.presented_b
                assert split.merged_cap[j] == scalar.merged_cap

    @settings(max_examples=200, deadline=None)
    @given(
        length=lengths,
        cap_b=caps,
        delay_b=delays,
        sides=st.lists(st.tuples(caps, delays), min_size=1, max_size=8),
        gates=st.booleans(),
    )
    def test_swapped_lanes_bit_identical(
        self, length, cap_b, delay_b, sides, gates
    ):
        # The kernel is broadcasting-symmetric: candidate arrays on the
        # *a*-side and the scalar query on the *b*-side reproduce the
        # scalar split in the swapped (other, query) orientation -- the
        # case the canonical init scans feed it for ids below the query.
        tech = unit_technology()
        cell = tech.masking_gate if gates else tech.buffer
        r, c = tech.unit_wire_resistance, tech.unit_wire_capacitance
        n = len(sides)
        split = kernels.batch_zero_skew_split(
            np.full(n, length),
            np.array([s[0] for s in sides]),
            np.array([s[1] for s in sides]),
            cap_b,
            delay_b,
            r,
            c,
            cell_a=cell,
            cell_b=cell,
        )
        tap_b = Tap(cap=cap_b, delay=delay_b, cell=cell)
        for j, (cap_a, delay_a) in enumerate(sides):
            scalar = zero_skew_split(
                length, Tap(cap=cap_a, delay=delay_a, cell=cell), tap_b, tech
            )
            assert bool(split.snake_a[j]) == (scalar.snaked == "a")
            assert bool(split.snake_b[j]) == (scalar.snaked == "b")
            assert bool(split.in_range[j]) == (scalar.snaked is None)
            if split.in_range[j]:
                assert split.length_a[j] == scalar.length_a
                assert split.length_b[j] == scalar.length_b
                assert split.delay[j] == scalar.delay
                assert split.presented_a[j] == scalar.presented_a
                assert split.presented_b[j] == scalar.presented_b
                assert split.merged_cap[j] == scalar.merged_cap


def assert_lane_equal(split, j, scalar):
    """Lane ``j`` of a batch split equals the scalar split exactly."""
    assert split.length_a[j] == scalar.length_a
    assert split.length_b[j] == scalar.length_b
    assert split.delay[j] == scalar.delay
    assert split.presented_a[j] == scalar.presented_a
    assert split.presented_b[j] == scalar.presented_b
    assert split.merged_cap[j] == scalar.merged_cap


def low_rc_technology():
    """Unit constants with wire RC so small that ``r c / 2 <= EPS``."""
    tech = unit_technology()
    return dataclasses.replace(
        tech, unit_wire_resistance=1e-7, unit_wire_capacitance=1e-7
    )


class TestNodeArrays:
    def test_grow_preserves_rows(self):
        arrays = kernels.NodeArrays(2)

        class FakeNode:
            merging_segment = Trr(1.0, 2.0, 3.0, 3.0)
            subtree_cap = 4.0
            sink_delay = 5.0
            enable_probability = 0.25
            enable_transition_probability = 0.125

        arrays.set_row(1, FakeNode())
        arrays.set_row(9, FakeNode())  # forces a grow
        for nid in (1, 9):
            assert (
                arrays.ulo[nid],
                arrays.uhi[nid],
                arrays.vlo[nid],
                arrays.vhi[nid],
            ) == (1.0, 2.0, 3.0, 3.0)
            assert arrays.cap[nid] == 4.0
            assert arrays.delay[nid] == 5.0
            assert arrays.enable_p[nid] == 0.25
            assert arrays.enable_ptr[nid] == 0.125

    def test_active_ids_add_discard(self):
        ids = kernels.ActiveIds(range(5), capacity=5)
        assert sorted(ids.view().tolist()) == [0, 1, 2, 3, 4]
        ids.discard(2)
        ids.discard(2)  # idempotent
        ids.add(7)  # forces a grow past capacity
        assert len(ids) == 5
        assert sorted(ids.view().tolist()) == [0, 1, 3, 4, 7]
        assert sorted(ids.others(4).tolist()) == [0, 1, 3, 7]

    def test_rank_by_cost_breaks_ties_by_id(self):
        ids = np.array([9, 3, 5], dtype=np.int64)
        costs = np.array([1.0, 1.0, 0.5])
        order = kernels.rank_by_cost(ids, costs)
        assert ids[order].tolist() == [5, 3, 9]


# ----------------------------------------------------------------------
# full-merger trace determinism, vectorize on vs off
# ----------------------------------------------------------------------


def total_split_length_cost(plan, merger):
    """Test-only split-dependent cost: the committed wirelength."""
    return plan.split.total_length


def _tsl_batch_cost(merger, a_ids, b_ids, distance, split):
    return split.length_a + split.length_b


total_split_length_cost.batch_cost = _tsl_batch_cost
total_split_length_cost.batch_cost_needs_split = True


def make_sinks(n, seed=0, span=200.0, cap_spread=1.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, span, n)
    ys = rng.uniform(0, span, n)
    loads = rng.uniform(1.0, 1.0 + cap_spread, n)
    return [
        Sink(
            name="s%d" % i,
            location=Point(x, y),
            load_cap=load,
            module=i % NUM_MODULES,
        )
        for i, (x, y, load) in enumerate(zip(xs, ys, loads))
    ]


@pytest.fixture(scope="module")
def oracle():
    isa = paper_example_isa()
    stream = InstructionStream(ids=np.array(paper_example_stream()))
    return ActivityOracle(ActivityTables.from_stream(isa, stream))


def run_config(sinks, vectorize, **kwargs):
    merger = BottomUpMerger(
        sinks, unit_technology(), vectorize=vectorize, **kwargs
    )
    tree = merger.run()
    return merger, merger.merge_trace, tree.total_wirelength()


def run_spied(sinks, **kwargs):
    """Run a vectorized merger, recording whether each batched bound
    call answered (``True``) or declined to the scalar scan."""
    merger = BottomUpMerger(sinks, unit_technology(), vectorize=True, **kwargs)
    answered = []
    bound = merger._batch_bound

    def spy(*args):
        out = bound(*args)
        answered.append(out is not None)
        return out

    merger._batch_bound = spy
    merger.run()
    return merger, answered


def wide_isa_oracle(num_instructions, seed=0):
    """An oracle over ``NUM_MODULES`` modules whose ISA has
    ``num_instructions`` instructions (the signature width)."""
    rng = np.random.default_rng(seed)
    usage = [
        set(np.nonzero(rng.random(NUM_MODULES) < 0.4)[0].tolist()) or {i % NUM_MODULES}
        for i in range(num_instructions)
    ]
    isa = InstructionSet.from_usage_lists(usage, num_modules=NUM_MODULES)
    ids = rng.integers(0, num_instructions, 2000)
    return ActivityOracle(ActivityTables.from_stream(isa, InstructionStream(ids=ids)))


@pytest.fixture
def snaked_lanes(monkeypatch):
    """Snaked lanes per batched split, recorded for the rest of the test."""
    counts = []
    split_kernel = kernels.batch_zero_skew_split

    def spy(*args, **kwargs):
        split = split_kernel(*args, **kwargs)
        counts.append(int((split.snake_a | split.snake_b).sum()))
        return split

    monkeypatch.setattr(kernels, "batch_zero_skew_split", spy)
    return counts


class TestVectorizeTraceParity:
    """``vectorize`` never changes a greedy decision, in any mode."""

    @pytest.mark.parametrize("limit", [None, 4])
    def test_nn_exact_screen(self, limit):
        sinks = make_sinks(48, seed=31)
        vec, trace_v, wl_v = run_config(
            sinks, True, cost=nearest_neighbor_cost, candidate_limit=limit
        )
        _, trace_s, wl_s = run_config(
            sinks, False, cost=nearest_neighbor_cost, candidate_limit=limit
        )
        assert vec._exact_screen
        assert trace_v == trace_s
        assert wl_v == wl_s

    def test_nn_buffered_policy(self):
        sinks = make_sinks(40, seed=32)
        vec, trace_v, wl_v = run_config(
            sinks, True, cost=nearest_neighbor_cost,
            cell_policy=BufferEveryEdgePolicy(),
        )
        _, trace_s, wl_s = run_config(
            sinks, False, cost=nearest_neighbor_cost,
            cell_policy=BufferEveryEdgePolicy(),
        )
        assert vec._exact_screen  # cost needs no split, cells are fine
        assert trace_v == trace_s and wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 6])
    def test_eq3_exact_screen(self, oracle, limit):
        # The uniform gate policy satisfies the eq3 cost's
        # batch_cost_ready gate, so the cell-aware exact screen engages
        # (it used to run only the bound screen).
        sinks = make_sinks(36, seed=33)
        common = dict(
            cost=switched_capacitance_cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
            candidate_limit=limit,
        )
        vec, trace_v, wl_v = run_config(sinks, True, **common)
        _, trace_s, wl_s = run_config(sinks, False, **common)
        assert vec._exact_screen and vec._bound_screen
        assert vec.stats.kernel_batches > 0
        assert trace_v == trace_s and wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 6])
    def test_incremental_exact_screen(self, oracle, limit):
        # The count-once cost batches its merged probabilities through
        # activation signatures; with a uniform gate policy it passes
        # batch_cost_ready and exact-screens like the others.
        sinks = make_sinks(30, seed=34)
        common = dict(
            cost=incremental_switched_capacitance_cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
            candidate_limit=limit,
        )
        vec, trace_v, wl_v = run_config(sinks, True, **common)
        _, trace_s, wl_s = run_config(sinks, False, **common)
        assert vec._exact_screen and vec._signatures_ok
        assert vec.stats.kernel_batches > 0
        assert trace_v == trace_s and wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 6])
    @pytest.mark.parametrize(
        "cost",
        [incremental_switched_capacitance_cost, switched_capacitance_cost],
        ids=["incremental", "eq3"],
    )
    @pytest.mark.parametrize("knob", [0.5, 1.0])
    def test_gate_reduction_bound_screen(self, oracle, knob, cost, limit):
        # The section-4.3 policy has no uniform decision, so the exact
        # screen stays off; its per-lane rules feed the batched bounds,
        # which must answer every call and prune exactly like the
        # scalar bounds.
        sinks = make_sinks(30, seed=35)
        common = dict(
            cost=cost,
            cell_policy=GateReductionPolicy.from_knob(knob, unit_technology()),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
            candidate_limit=limit,
        )
        vec, answered = run_spied(sinks, **common)
        scalar, trace_s, wl_s = run_config(sinks, False, **common)
        assert vec._bound_screen and not vec._exact_screen
        assert answered and all(answered)
        assert vec.merge_trace == trace_s
        assert vec.tree.total_wirelength() == wl_s
        assert vec.stats.plans_computed == scalar.stats.plans_computed
        assert vec.stats.pruned_probes == scalar.stats.pruned_probes
        assert vec.stats.pruned_probes > 0

    def test_gate_reduction_wide_isa_declines_to_scalar(self):
        # Activation signatures of a 64-instruction ISA overflow the
        # int64 column: the batched bound must decline on every call
        # and the scalar bound scan must reproduce the scalar run.
        wide = wide_isa_oracle(num_instructions=64)
        sinks = make_sinks(24, seed=39)
        common = dict(
            cost=incremental_switched_capacitance_cost,
            cell_policy=GateReductionPolicy.from_knob(0.5, unit_technology()),
            oracle=wide,
            controller_point=Point(0.0, 0.0),
        )
        vec, answered = run_spied(sinks, **common)
        scalar, trace_s, wl_s = run_config(sinks, False, **common)
        assert not vec._signatures_ok
        assert answered and not any(answered)
        assert vec.merge_trace == trace_s
        assert vec.tree.total_wirelength() == wl_s
        assert vec.stats.pruned_probes == scalar.stats.pruned_probes

    def test_skew_bound_disables_exact_screen(self):
        sinks = make_sinks(32, seed=36)
        vec, trace_v, wl_v = run_config(
            sinks, True, cost=nearest_neighbor_cost, skew_bound=50.0
        )
        _, trace_s, wl_s = run_config(
            sinks, False, cost=nearest_neighbor_cost, skew_bound=50.0
        )
        assert not vec._exact_screen  # bounded splits are not modelled
        assert trace_v == trace_s and wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 5])
    def test_split_dependent_cost_with_snakes(self, limit, snaked_lanes):
        # Wildly uneven sink loads force snaked splits: the split
        # kernel models those lanes, so none reaches the scalar plan(),
        # and the run still matches the scalar merger.
        sinks = make_sinks(36, seed=37, cap_spread=400.0)
        vec, trace_v, wl_v = run_config(
            sinks, True, cost=total_split_length_cost, candidate_limit=limit
        )
        _, trace_s, wl_s = run_config(
            sinks, False, cost=total_split_length_cost, candidate_limit=limit
        )
        assert vec._exact_screen and vec._batch_cost_needs_split
        assert vec.stats.kernel_scalar_fallbacks == 0
        assert sum(snaked_lanes) > 0
        assert trace_v == trace_s
        assert wl_v == wl_s

    @pytest.mark.parametrize("limit", [None, 5, 16])
    @pytest.mark.parametrize(
        "cost",
        [incremental_switched_capacitance_cost, switched_capacitance_cost],
        ids=["incremental", "eq3"],
    )
    def test_gated_snake_heavy(self, oracle, cost, limit, snaked_lanes):
        # The gated objective on snake-heavy sinks: every snaked lane
        # is screened by the kernel, at parity with the scalar merger.
        sinks = make_sinks(40, seed=44, cap_spread=400.0)
        common = dict(
            cost=cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
            candidate_limit=limit,
        )
        vec, trace_v, wl_v = run_config(sinks, True, **common)
        scalar, trace_s, wl_s = run_config(sinks, False, **common)
        assert vec._exact_screen
        assert vec.stats.kernel_scalar_fallbacks == 0
        assert sum(snaked_lanes) > 0
        assert trace_v == trace_s and wl_v == wl_s
        assert vec.stats.heap_pops == scalar.stats.heap_pops
        assert vec.stats.orphan_recomputes == scalar.stats.orphan_recomputes

    @pytest.mark.parametrize("limit", [None, 5, 16])
    def test_buffered_snake_heavy(self, limit):
        sinks = make_sinks(40, seed=45, cap_spread=400.0)
        common = dict(
            cost=nearest_neighbor_cost,
            cell_policy=BufferEveryEdgePolicy(),
            candidate_limit=limit,
        )
        vec, trace_v, wl_v = run_config(sinks, True, **common)
        _, trace_s, wl_s = run_config(sinks, False, **common)
        assert vec._exact_screen
        assert trace_v == trace_s and wl_v == wl_s

    def test_negligible_wire_rc_reaches_scalar_plan(self):
        # Snaked lanes of a technology with r c / 2 <= EPS are left to
        # the scalar plan() and counted; the trace still matches.
        sinks = make_sinks(24, seed=46, cap_spread=400.0)
        tech = low_rc_technology()
        runs = []
        for vectorize in (True, False):
            merger = BottomUpMerger(
                sinks, tech, cost=total_split_length_cost, vectorize=vectorize
            )
            tree = merger.run()
            runs.append((merger, merger.merge_trace, tree.total_wirelength()))
        (vec, trace_v, wl_v), (_, trace_s, wl_s) = runs
        assert vec._exact_screen
        assert vec.stats.kernel_scalar_fallbacks > 0
        assert trace_v == trace_s and wl_v == wl_s

    def test_embedded_locations_identical(self):
        sinks = make_sinks(24, seed=38)
        m_v, _, _ = run_config(sinks, True, cost=nearest_neighbor_cost)
        m_s, _, _ = run_config(sinks, False, cost=nearest_neighbor_cost)
        for nid in range(len(m_v.tree)):
            lv = m_v.tree.node(nid).location
            ls = m_s.tree.node(nid).location
            assert (lv.x, lv.y) == (ls.x, ls.y)


class _FrontierParityMerger(BottomUpMerger):
    """Test-only merger: after every merge, each orphan the batched
    repair recomputed is recomputed again, one at a time, through the
    scalar candidate scan and scalar ``plan()``, and the two best
    pairs must be equal ``(cost, partner)`` for ``(cost, partner)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0
        self.largest_frontier = 0

    def _scalar_best(self, nid):
        scored = [
            (self.cost(self.plan(nid, other), self), other)
            for other in self._candidates_for(nid)
        ]
        return min(scored) if scored else None

    def _repair_orphans(self, orphans):
        stale = [
            o
            for o in orphans
            if o not in self._best or self._best[o][1] not in self._active
        ]
        super()._repair_orphans(orphans)
        self.largest_frontier = max(self.largest_frontier, len(stale))
        for orphan in stale:
            expected = self._scalar_best(orphan)
            got = self._best.get(orphan)
            assert (got and got[:2]) == expected, (orphan, got, expected)
            self.checked += 1


class TestFrontierParity:
    """One batched screen over the merge frontier decides exactly what
    per-orphan scalar recomputes decide."""

    @pytest.mark.parametrize("limit", [4, 16])
    @pytest.mark.parametrize(
        "cost",
        [incremental_switched_capacitance_cost, switched_capacitance_cost],
        ids=["incremental", "eq3"],
    )
    def test_batched_repair_matches_scalar(self, oracle, cost, limit):
        sinks = make_sinks(64, seed=47, cap_spread=400.0)
        common = dict(
            cost=cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
            candidate_limit=limit,
        )
        merger = _FrontierParityMerger(sinks, unit_technology(), **common)
        merger.run()
        _, trace_s, wl_s = run_config(sinks, False, **common)
        assert merger._exact_screen
        assert merger.checked > 0
        assert merger.largest_frontier >= 2  # the batch spans orphans
        assert merger.merge_trace == trace_s
        assert merger.tree.total_wirelength() == wl_s


class TestKernelAccounting:
    def test_kernel_counters_advance(self):
        merger, _, _ = run_config(
            make_sinks(32, seed=40), True, cost=nearest_neighbor_cost
        )
        s = merger.stats
        assert s.kernel_batches > 0
        assert s.kernel_candidates >= s.kernel_batches
        assert s.distance_reuses > 0
        snap = s.snapshot()
        for key in (
            "kernel_batches",
            "kernel_candidates",
            "kernel_scalar_fallbacks",
            "distance_reuses",
        ):
            assert snap[key] == getattr(s, key)

    def test_scalar_mode_never_batches(self):
        merger, _, _ = run_config(
            make_sinks(32, seed=40), False, cost=nearest_neighbor_cost
        )
        assert merger.stats.kernel_batches == 0
        assert merger.stats.kernel_candidates == 0
        assert merger.node_arrays is None

    def test_distance_reuse_in_scalar_pruned_scan(self, oracle):
        # The threaded-distance satellite also pays off with vectorize
        # off: the ranked-candidate distances reach plan() unchanged.
        merger, _, _ = run_config(
            make_sinks(32, seed=41),
            False,
            cost=switched_capacitance_cost,
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
            controller_point=Point(0.0, 0.0),
        )
        assert merger.stats.distance_reuses > 0

    def test_kernel_counters_published(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            run_config(make_sinks(24, seed=42), True, cost=nearest_neighbor_cost)
        finally:
            set_registry(previous)
        assert registry.counter("dme.kernel_batches").value > 0
        assert registry.counter("dme.kernel_candidates").value > 0
        assert registry.counter("dme.distance_reuses").value > 0

    def test_index_tightening_counters_published(self, oracle):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            run_config(
                make_sinks(64, seed=43),
                True,
                cost=switched_capacitance_cost,
                cell_policy=GateEveryEdgePolicy(),
                oracle=oracle,
                controller_point=Point(0.0, 0.0),
                candidate_limit=6,
            )
        finally:
            set_registry(previous)
        # Merging halves the population several times, so the index
        # must have re-tightened its radius bound at least once.
        assert registry.counter("dme.index.radius_recomputes").value > 0
        assert "dme.index.tightened_queries" in registry


class TestNodeArraysTransport:
    """NodeArrays must survive pickling and SharedMemory transport
    bit-exactly -- the sharded worker pool ships per-shard state
    between processes and any dtype/layout drift would silently break
    the kernels' exact-parity contract."""

    def _routed_arrays(self):
        merger, _, _ = run_config(
            make_sinks(24, seed=9),
            True,
            cost=nearest_neighbor_cost,
            candidate_limit=4,
        )
        assert merger.node_arrays is not None
        return merger.node_arrays

    def test_pickle_round_trip_is_bit_exact(self):
        import pickle

        na = self._routed_arrays()
        clone = pickle.loads(pickle.dumps(na))
        for name in kernels.NodeArrays._FIELDS:
            src = getattr(na, name)
            dst = getattr(clone, name)
            assert dst.dtype == np.float64
            assert dst.shape == src.shape
            assert src.tobytes() == dst.tobytes()
        assert clone.sig.dtype == np.int64
        assert na.sig.tobytes() == clone.sig.tobytes()

    def test_pickle_protocol_layout_is_stable(self):
        # The pickled payload is exactly the slots dict: a layout
        # change (field rename/reorder/dtype) must be a deliberate,
        # test-visible decision, not an accident.
        na = self._routed_arrays()
        state = na.__reduce_ex__(2)
        assert kernels.NodeArrays._FIELDS == (
            "ulo", "uhi", "vlo", "vhi", "cap", "delay", "enable_p", "enable_ptr",
        )
        assert set(kernels.NodeArrays.__slots__) == set(
            kernels.NodeArrays._FIELDS + ("sig",)
        )
        assert state is not None

    def test_shared_memory_round_trip_is_bit_exact(self):
        from multiprocessing import shared_memory

        na = self._routed_arrays()
        fields = kernels.NodeArrays._FIELDS + ("sig",)
        blocks = []
        try:
            for name in fields:
                src = getattr(na, name)
                shm = shared_memory.SharedMemory(create=True, size=src.nbytes)
                blocks.append(shm)
                view = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
                view[:] = src
                back = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
                assert back.dtype == src.dtype
                assert back.tobytes() == src.tobytes()
        finally:
            for shm in blocks:
                shm.close()
                shm.unlink()
