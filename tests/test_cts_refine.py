"""The annealing refinement pass: no-op, determinism, zero skew."""

import json

import pytest

from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.check.errors import InputError
from repro.core.controller import ControllerLayout, Die
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts import AnnealingRefiner, RefineConfig, refine_tree
from repro.io.treejson import tree_to_dict
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


@pytest.fixture(scope="module")
def case():
    return load_benchmark("r1", scale=0.12)


@pytest.fixture(scope="module")
def case2():
    return load_benchmark("r2", scale=0.1)


@pytest.fixture(scope="module")
def greedy(case, tech):
    return route_gated(case.sinks, tech, case.oracle, die=case.die)


@pytest.fixture(scope="module")
def refined(case, tech):
    return route_gated(
        case.sinks,
        tech,
        case.oracle,
        die=case.die,
        refine=RefineConfig(moves=150, seed=1),
    )


class TestConfigValidation:
    def test_negative_moves(self):
        with pytest.raises(InputError):
            RefineConfig(moves=-1)

    def test_bad_cooling_ratio(self):
        with pytest.raises(InputError):
            RefineConfig(cooling_ratio=0.0)
        with pytest.raises(InputError):
            RefineConfig(cooling_ratio=1.5)

    def test_bad_weights(self):
        with pytest.raises(InputError):
            RefineConfig(weights=(1.0, -0.5, 0.2))
        with pytest.raises(InputError):
            RefineConfig(weights=(0.0, 0.0, 0.0))

    def test_bad_temperature(self):
        with pytest.raises(InputError):
            RefineConfig(initial_temperature=-0.1)


class TestZeroMoveNoOp:
    def test_zero_budget_returns_the_input_object(self, greedy, case, tech):
        tree = greedy.tree
        layout = ControllerLayout.centralized(
            case.die or Die.bounding([s.location for s in case.sinks])
        )
        best, assignment, result = refine_tree(
            tree, tech, case.oracle, layout, RefineConfig(moves=0)
        )
        assert best is tree  # identity, not just equality
        assert assignment is None
        assert result.moves_proposed == 0
        assert result.improvement == 0.0

    def test_zero_budget_flow_is_byte_identical(self, greedy, case, tech):
        with_refine = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            refine=RefineConfig(moves=0),
        )
        assert json.dumps(tree_to_dict(with_refine.tree)) == json.dumps(
            tree_to_dict(greedy.tree)
        )
        assert with_refine.pins() == greedy.pins()
        assert with_refine.routing.explicit_assignment is False


class TestDeterminism:
    def test_same_seed_refines_byte_identically(self, refined, case, tech):
        again = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            refine=RefineConfig(moves=150, seed=1),
        )
        assert json.dumps(tree_to_dict(again.tree)) == json.dumps(
            tree_to_dict(refined.tree)
        )
        assert again.pins() == refined.pins()


class TestNeverRegresses:
    def test_refined_cost_at_most_greedy(self, greedy, refined):
        assert refined.switched_cap.total <= greedy.switched_cap.total

    def test_r1_strictly_improves(self, case, tech):
        # The acceptance-level claim at a realistic budget: the greedy
        # merge leaves switched capacitance on the table that 200
        # annealing moves recover.
        greedy = route_gated(case.sinks, tech, case.oracle, die=case.die)
        refined = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            refine=RefineConfig(moves=200, seed=1),
        )
        assert refined.switched_cap.total < greedy.switched_cap.total

    def test_hostile_seeds_never_regress(self, case, tech):
        greedy = route_gated(case.sinks, tech, case.oracle, die=case.die)
        for seed in (0, 7):
            refined = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                refine=RefineConfig(moves=40, seed=seed),
            )
            assert refined.switched_cap.total <= greedy.switched_cap.total


class TestRefinedTreeIsSound:
    def test_exact_zero_skew(self, refined):
        assert refined.skew <= 1e-9 * max(refined.phase_delay, 1.0)

    def test_audit_clean(self, refined):
        report = audit_network(refined.tree, routing=refined.routing)
        assert report.ok, report.summary()

    def test_module_universe_preserved(self, greedy, refined):
        assert refined.tree.root.module_mask == greedy.tree.root.module_mask
        assert sorted(s.sink.name for s in refined.tree.sinks()) == sorted(
            s.sink.name for s in greedy.tree.sinks()
        )

    def test_r2_audit_clean_and_zero_skew(self, case2, tech):
        refined = route_gated(
            case2.sinks,
            tech,
            case2.oracle,
            die=case2.die,
            refine=RefineConfig(moves=120, seed=3),
        )
        assert refined.skew <= 1e-9 * max(refined.phase_delay, 1.0)
        report = audit_network(refined.tree, routing=refined.routing)
        assert report.ok, report.summary()


class TestResultAccounting:
    def test_counters_partition_the_budget(self, case, tech):
        greedy = route_gated(case.sinks, tech, case.oracle, die=case.die)
        layout = ControllerLayout.centralized(
            case.die or Die.bounding([s.location for s in case.sinks])
        )
        _, _, result = refine_tree(
            greedy.tree.clone(),
            tech,
            case.oracle,
            layout,
            RefineConfig(moves=80, seed=2),
        )
        assert result.moves_proposed == 80
        assert (
            result.moves_accepted + result.moves_rejected + result.moves_infeasible
            == result.moves_proposed
        )
        assert (
            result.nni_accepted + result.gate_accepted + result.reassign_accepted
            == result.moves_accepted
        )
        assert result.best_cost <= result.initial_cost
        assert result.improvement >= 0.0
        assert "refine:" in result.summary()


class TestGuards:
    def test_bounded_skew_is_rejected(self, case, tech):
        with pytest.raises(InputError):
            route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                skew_bound=5.0,
                refine=RefineConfig(moves=10),
            )


class _ParityRefiner(AnnealingRefiner):
    """Checks every incremental accept against the full recomputation."""

    def __init__(self, *args, drift, **kwargs):
        super().__init__(*args, **kwargs)
        self.drift = drift
        self.checked = 0

    def _commit(self, snapshot, assignment_undo, path):
        current = super()._commit(snapshot, assignment_undo, path)
        assert self.drift(self.tree) == []
        assert current == self._exact_cost()
        self.checked += 1
        return current


_WEIGHTS = {
    "default": RefineConfig().weights,
    "nni": (1.0, 0.0, 0.0),
    "gate": (0.0, 1.0, 0.0),
    "reassign": (0.0, 0.0, 1.0),
}


class TestIncrementalAcceptParity:
    """After every accepted move the dirty-set re-placement equals a
    full ``reembed`` field for field, and the term cache equals the
    exact whole-network re-measurement as a float."""

    @pytest.fixture(scope="class")
    def flow_trees(self, tech):
        case = load_benchmark("r1", scale=0.12)
        die = case.die or Die.bounding([s.location for s in case.sinks])
        trees = {}
        for mode in (None, "merge", "demote", "remove"):
            reduction = (
                None if mode is None else GateReductionPolicy.from_knob(0.5, tech)
            )
            for controllers in (1, 4):
                trees[mode, controllers] = route_gated(
                    case.sinks,
                    tech,
                    case.oracle,
                    die=die,
                    reduction=reduction,
                    reduction_mode=mode or "merge",
                    num_controllers=controllers,
                ).tree
        return case.oracle, die, trees

    @pytest.mark.parametrize("weights", sorted(_WEIGHTS))
    @pytest.mark.parametrize("controllers", [1, 4])
    @pytest.mark.parametrize("mode", [None, "merge", "demote", "remove"])
    def test_every_accept_matches_full_recompute(
        self, flow_trees, tech, reembed_drift, mode, controllers, weights
    ):
        oracle, die, trees = flow_trees
        tree = trees[mode, controllers]
        layout = (
            ControllerLayout.centralized(die)
            if controllers == 1
            else ControllerLayout.distributed(die, controllers)
        )
        config = RefineConfig(moves=100, seed=5, weights=_WEIGHTS[weights])
        refiner = _ParityRefiner(
            tree, tech, oracle, layout, config, drift=reembed_drift
        )
        initial = refiner._exact_cost()
        _, _, result = refiner.run()
        assert result.initial_cost == initial
        assert refiner.checked == result.moves_accepted
        if weights == "reassign" and controllers == 1:
            assert result.moves_accepted == 0  # a single controller
        else:
            assert result.moves_accepted > 0
