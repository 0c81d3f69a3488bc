"""Unit tests for the gate-reduction rules (paper section 4.3)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import ActivityOracle, ActivityTables, InstructionStream
from repro.activity.isa import InstructionSet
from repro.core.gate_reduction import (
    GateReductionPolicy,
    apply_gate_reduction,
    reduction_fraction,
)
from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.cts import BottomUpMerger, Sink
from repro.cts.dme import GateEveryEdgePolicy
from repro.geometry import Point
from repro.tech import date98_technology, unit_technology


def rng_oracle(num_modules, seed=0, usage=0.4, k=8):
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(k):
        row = set(np.nonzero(rng.random(num_modules) < usage)[0].tolist())
        if not row:
            row = {int(rng.integers(0, num_modules))}
        lists.append(row)
    isa = InstructionSet.from_usage_lists(lists, num_modules=num_modules)
    ids = rng.integers(0, k, 500)
    return ActivityOracle(ActivityTables.from_stream(isa, InstructionStream(ids=ids)))


def rng_sinks(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    return [
        Sink(name="s%d" % i, location=Point(x, y), load_cap=1.0, module=i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, span, n), rng.uniform(0, span, n))
        )
    ]


def gated_tree(n=20, seed=1):
    oracle = rng_oracle(n, seed=seed)
    return (
        BottomUpMerger(
            rng_sinks(n, seed=seed),
            unit_technology(),
            cell_policy=GateEveryEdgePolicy(),
            oracle=oracle,
        ).run(),
        oracle,
    )


class TestRules:
    def setup_method(self):
        self.tech = unit_technology()

    def test_rule1_high_activity_drops_gate(self):
        policy = GateReductionPolicy(activity_threshold=0.9, force_cap_ratio=None)
        assert not policy.should_keep(0.95, 1.0, 100.0, self.tech)
        assert policy.should_keep(0.85, 1.0, 100.0, self.tech)

    def test_rule2_small_cap_drops_gate(self):
        policy = GateReductionPolicy(switched_cap_threshold=1.0, force_cap_ratio=None)
        # edge SC = a_clk * exposed * P = 2 * 0.6 * 0.5 = 0.6 <= 1.
        assert not policy.should_keep(0.5, 1.0, 0.6, self.tech)
        assert policy.should_keep(0.5, 1.0, 10.0, self.tech)

    def test_rule3_similar_parent_drops_gate(self):
        policy = GateReductionPolicy(parent_delta_threshold=0.1, force_cap_ratio=None)
        assert not policy.should_keep(0.45, 0.5, 100.0, self.tech)
        assert policy.should_keep(0.2, 0.5, 100.0, self.tech)

    def test_force_rule_overrides(self):
        policy = GateReductionPolicy(
            activity_threshold=0.5, force_cap_ratio=10.0
        )
        # P = 0.9 >= 0.5 would drop, but exposure 20 >= 10 * C_g (= 10).
        assert policy.should_keep(0.9, 1.0, 20.0, self.tech)
        assert not policy.should_keep(0.9, 1.0, 5.0, self.tech)

    def test_force_rule_can_be_ignored(self):
        policy = GateReductionPolicy(activity_threshold=0.5, force_cap_ratio=10.0)
        assert not policy.should_keep(0.9, 1.0, 20.0, self.tech, honor_force=False)

    def test_default_policy_keeps_everything(self):
        policy = GateReductionPolicy()
        assert policy.should_keep(0.99, 1.0, 1.0, self.tech)

    def test_validation(self):
        with pytest.raises(ValueError):
            GateReductionPolicy(activity_threshold=1.5)
        with pytest.raises(ValueError):
            GateReductionPolicy(switched_cap_threshold=-1.0)
        with pytest.raises(ValueError):
            GateReductionPolicy(force_cap_ratio=0.0)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
cap = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


@st.composite
def rule_lanes(draw):
    """A policy plus candidate lanes, some pinned to its rule boundaries.

    Each threshold is either at its disabling value or copied from a
    lane, so ``P == activity_threshold``, ``delta ==
    parent_delta_threshold`` and ``switched cap == threshold`` hold
    exactly on that lane; one lane sits exactly at the force limit.
    """
    tech = unit_technology()
    n = draw(st.integers(min_value=1, max_value=12))
    p = draw(st.lists(unit, min_size=n, max_size=n))
    mask = draw(st.lists(unit, min_size=n, max_size=n))
    exposed = draw(st.lists(cap, min_size=n, max_size=n))
    lane = st.integers(min_value=0, max_value=n - 1)
    force = draw(st.none() | st.floats(min_value=0.5, max_value=200.0))
    if force is not None:
        exposed[draw(lane)] = force * tech.masking_gate.input_cap
    i, j, k = draw(lane), draw(lane), draw(lane)
    policy = GateReductionPolicy(
        activity_threshold=draw(st.sampled_from([1.0, p[i]])),
        switched_cap_threshold=draw(
            st.sampled_from(
                [0.0, tech.clock_transitions_per_cycle * exposed[j] * p[j]]
            )
        ),
        parent_delta_threshold=draw(st.sampled_from([-1.0, mask[k] - p[k]])),
        force_cap_ratio=force,
    )
    return policy, np.array(p), np.array(mask), np.array(exposed)


class TestLaneRules:
    """The per-lane rules equal scalar ``should_keep`` lane for lane."""

    @settings(max_examples=300, deadline=None)
    @given(case=rule_lanes())
    def test_keep_lanes_match_should_keep(self, case):
        policy, p, mask, exposed = case
        tech = unit_technology()
        got = policy.keep_lanes(p, mask, exposed, tech)
        want = [policy.should_keep(*lane, tech) for lane in zip(p, mask, exposed)]
        assert got.tolist() == want
        # A scalar child against array lanes (the query side of a batch).
        got = policy.keep_lanes(float(p[0]), mask, exposed, tech)
        want = [
            policy.should_keep(float(p[0]), *lane, tech)
            for lane in zip(mask, exposed)
        ]
        assert got.tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(
        case=rule_lanes(),
        distance=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    )
    def test_lane_decisions_match_decide(self, case, distance):
        policy, p, mask, subtree_cap = case
        tech = unit_technology()
        distances = np.full(p.size, distance)
        chosen, on, off = policy.lane_decisions(p, subtree_cap, mask, distances, tech)
        for lane, (prob, merged, c) in enumerate(zip(p, mask, subtree_cap)):
            child = SimpleNamespace(enable_probability=prob, subtree_cap=c)
            want = policy.decide(child, merged, distance, tech)
            assert (on if chosen[lane] else off) == want


class TestKnob:
    def test_knob_zero_is_no_reduction(self):
        tech = unit_technology()
        policy = GateReductionPolicy.from_knob(0.0, tech)
        assert policy == GateReductionPolicy()
        assert policy.activity_threshold == 1.0
        assert policy.switched_cap_threshold == 0.0
        assert policy.parent_delta_threshold < 0.0
        # Every rule is disabled, even on a never-idle edge whose
        # parent masks no better (P(EN) = 1, zero delta, no exposure).
        assert policy.should_keep(1.0, 1.0, 0.0, tech)

    @pytest.mark.parametrize("mode", ["demote", "merge"])
    def test_knob_zero_routes_the_gated_gate_count(self, mode):
        tech = date98_technology()
        case = load_benchmark("r1", scale=0.1)
        common = dict(die=case.die, candidate_limit=16)
        gated = route_gated(case.sinks, tech, case.oracle, **common)
        reduced = route_gated(
            case.sinks,
            tech,
            case.oracle,
            reduction=GateReductionPolicy.from_knob(0.0, tech),
            reduction_mode=mode,
            **common,
        )
        assert gated.gate_count == 2 * len(case.sinks) - 2
        assert reduced.gate_count == gated.gate_count
        assert reduced.gate_reduction == 0.0

    def test_knob_bounds(self):
        tech = unit_technology()
        with pytest.raises(ValueError):
            GateReductionPolicy.from_knob(-0.1, tech)
        with pytest.raises(ValueError):
            GateReductionPolicy.from_knob(1.1, tech)

    def test_knob_monotone_reduction(self):
        tree0, oracle = gated_tree(n=24, seed=3)
        tech = unit_technology()
        previous = -1
        for knob in (0.0, 0.25, 0.5, 0.75, 1.0):
            tree, _ = gated_tree(n=24, seed=3)
            apply_gate_reduction(tree, GateReductionPolicy.from_knob(knob, tech))
            removed = (2 * 24 - 2) - tree.gate_count()
            assert removed >= previous
            previous = removed


class TestApplyDemote:
    def test_demote_keeps_skew_exactly(self):
        tree, _ = gated_tree()
        before = tree.phase_delay()
        apply_gate_reduction(tree, GateReductionPolicy.from_knob(0.6, unit_technology()))
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)
        assert tree.phase_delay() == pytest.approx(before)

    def test_demoted_cells_remain_electrically(self):
        tree, _ = gated_tree()
        cells_before = tree.cell_count()
        apply_gate_reduction(tree, GateReductionPolicy.from_knob(0.8, unit_technology()))
        assert tree.cell_count() == cells_before
        assert tree.gate_count() < cells_before

    def test_demoted_cell_area_is_buffer_area(self):
        tech = unit_technology()
        tree, _ = gated_tree()
        apply_gate_reduction(tree, GateReductionPolicy.from_knob(0.8, tech))
        demoted = [
            n for n in tree.edges() if n.edge_cell is not None and not n.edge_maskable
        ]
        assert demoted
        for node in demoted:
            assert node.edge_cell.area == tech.buffer.area
            assert node.edge_cell.input_cap == tech.masking_gate.input_cap

    def test_returns_removed_count(self):
        tree, _ = gated_tree()
        gates_before = tree.gate_count()
        removed = apply_gate_reduction(
            tree, GateReductionPolicy.from_knob(0.7, unit_technology())
        )
        assert removed == gates_before - tree.gate_count()
        assert removed > 0

    def test_rule3_protected_by_kept_parent_logic(self):
        # With a pure rule-3 policy, pruning is chain-safe: whenever a
        # gate is pruned, the nearest kept enable above it is close in
        # probability (that is what rule 3 checked against).
        tree, _ = gated_tree(n=30, seed=9)
        policy = GateReductionPolicy(
            parent_delta_threshold=0.15, force_cap_ratio=None
        )
        apply_gate_reduction(tree, policy)
        mask_prob = {tree.root_id: 1.0}
        for node in tree.preorder():
            if node.id == tree.root_id:
                continue
            above = mask_prob[node.parent]
            if node.has_gate:
                mask_prob[node.id] = node.enable_probability
            else:
                assert above - node.enable_probability <= 0.15 + 1e-9
                mask_prob[node.id] = above


class TestApplyRemove:
    def test_remove_restores_zero_skew(self):
        tree, _ = gated_tree(n=16, seed=5)
        apply_gate_reduction(
            tree,
            GateReductionPolicy.from_knob(0.5, unit_technology()),
            mode="remove",
        )
        assert tree.skew() <= 1e-9 * max(tree.phase_delay(), 1.0)
        tree.validate_embedding()

    def test_remove_honors_force_rule(self):
        tree, _ = gated_tree(n=16, seed=6)
        limit = 10.0 * unit_technology().masking_gate.input_cap
        apply_gate_reduction(
            tree,
            GateReductionPolicy(
                activity_threshold=0.0,  # try to remove everything
                force_cap_ratio=10.0,
            ),
            mode="remove",
        )
        tech = tree.tech
        # No ungated edge may expose more than the forced limit.
        ev = tree.elmore_evaluator()
        for node in tree.edges():
            if node.edge_cell is None:
                exposed = tech.wire_cap(node.edge_length) + ev.subtree_cap(node.id)
                assert exposed < limit + 1e-6

    def test_invalid_mode_rejected(self):
        tree, _ = gated_tree(n=8, seed=7)
        with pytest.raises(ValueError):
            apply_gate_reduction(
                tree, GateReductionPolicy(), mode="bogus"
            )


class TestReductionFraction:
    def test_full_tree(self):
        assert reduction_fraction(0, 10) == 1.0
        assert reduction_fraction(18, 10) == 0.0

    def test_half(self):
        assert reduction_fraction(9, 10) == pytest.approx(0.5)

    def test_bounds(self):
        with pytest.raises(ValueError):
            reduction_fraction(19, 10)
        with pytest.raises(ValueError):
            reduction_fraction(-1, 10)
        with pytest.raises(ValueError):
            reduction_fraction(0, 0)

    def test_single_sink(self):
        assert reduction_fraction(0, 1) == 0.0
