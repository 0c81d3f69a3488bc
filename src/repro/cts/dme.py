"""Deferred-merge embedding with a pluggable greedy objective.

The engine implements the construction shared by the paper's router and
the baselines:

1. **Bottom-up merging** (paper Fig. 2): every subtree root carries a
   merging segment (Manhattan arc).  A greedy loop repeatedly merges
   the pair of active subtrees with minimum *cost*; the cost function
   is a parameter -- geometric distance gives the nearest-neighbour
   baseline, the paper's Eq. 3 gives the min-switched-capacitance
   router.  Each merge performs an exact zero-skew split (with cells
   decided by a pluggable *cell policy*) and computes the new merging
   segment.
2. **Top-down placement**: the root is embedded at the center of its
   merging segment, every child at the point of its own segment
   nearest to its parent's placement.

The greedy pair selection keeps, per active subtree, its current best
partner; a lazy min-heap orders the candidates.  This gives the exact
greedy (same result as scanning all pairs each round) in roughly
O(N^2) cost evaluations.  An optional ``candidate_limit`` restricts
each node's candidates to its k geometrically nearest neighbours --
the speed/quality trade-off explored in the ablation bench.

Four optimization layers accelerate the loop without changing a
single greedy decision.  Each has a :class:`BottomUpMerger` constructor
switch, but the switches are parity oracles, not configuration: only
tests and benches turn a layer off, to check that ``merge_trace`` stays
byte-identical (no routing function or CLI flag forwards them).  The
layers are:

* a **merge-plan cache** memoizes :meth:`BottomUpMerger.plan` per
  *ordered* active pair (ordered, so a hit returns the exact floats an
  uncached call would have produced) and is invalidated when either
  side retires; the winning plan is reused at commit instead of being
  recomputed;
* a **spatial candidate index**
  (:class:`repro.cts.candidate_index.SegmentGridIndex`) answers the
  k-nearest-candidate queries of ``candidate_limit`` runs from a
  uniform grid instead of a full O(N log N) sort per query;
* **lower-bound pruning** skips full plan evaluations for candidates
  whose cheap cost lower bound (``cost.lower_bound``, see
  :mod:`repro.core.cost`) proves they cannot beat the current best.
  Bounds are shrunk by a relative margin far larger than accumulated
  float rounding, so a true winner can never be pruned by an
  ulp-level tie;
* **vectorized kernel screens** batch-evaluate whole candidate sets
  with the NumPy kernels of :mod:`repro.cts.kernels`.  Costs exposing
  ``batch_cost`` (all the built-in objectives) get an *exact* screen
  over *pair lanes*: lane ``j`` is the pair ``(a_ids[j], b_ids[j])``
  in that plan orientation, so one screen serves many query nodes and
  both orientations.  The initialization scan (in chunks of a fixed
  lane budget), each new node's introduction and each merge's eager
  orphan repair are one screen apiece; every query takes its lanes'
  ``(cost, id)`` minimum, and scalar ``plan()`` plans only the pair
  that is actually merged.  The split kernel models snaked lanes too,
  so the only scalar fallbacks left are the lanes the scalar split
  raises on or special-cases.  The optional ``batch_cost_ready`` hook
  lets a cost decline the exact screen per run (e.g. the
  switched-capacitance costs without a uniform cell decision);
  declined runs batch their lower bounds through ``batch_lower_bound``
  instead.  Those bounds read the cell policy's per-lane decisions
  (:meth:`CellPolicy.lane_decisions`), so the merge-time gate
  reduction of :mod:`repro.core.gate_reduction` -- the CLI default --
  batches its bounds too.  Merged-pair enable probabilities are
  batched through activation signatures
  (:meth:`repro.activity.probability.ActivityOracle.batch_probabilities`),
  and ``candidate_limit`` index queries batch their ring distances
  through the same segment-distance kernel.  The kernels mirror the
  scalar float arithmetic bit for bit, and the engine keeps scalar
  ``plan()`` for everything they do not model -- bounded skew, the
  cell sizer -- so greedy decisions never change.

Exact-greedy runs (no ``candidate_limit``) also repair orphaned
best-pair pointers *lazily*: pair costs are immutable and an orphan's
candidate set only shrinks until its entry pops, so the stale heap
entry's cost can only underestimate the node's true current best and
the recompute safely waits for :meth:`_pop_valid_pair`'s
partner-inactive branch.  ``candidate_limit`` runs keep the eager
per-merge repair -- their k-nearest candidate snapshots are
time-sensitive.

:class:`MergerStats` counts plans, cache hits, heap traffic, index
queries, pruned probes, kernel batches, and reused distances; the
scaling benches (``benchmarks/test_complexity_dme_cache.py``,
``benchmarks/test_dme_vectorize.py``) record them.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.activity.probability import ActivityOracle
from repro.check.errors import InputError, InternalInvariantError
from repro.cts import kernels as _kernels
from repro.cts.candidate_index import SegmentGridIndex
from repro.obs import (
    get_registry,
    get_tracer,
    publish_index_stats,
    publish_merger_stats,
)
from repro.cts.merge import SplitResult, Tap, merge_regions, zero_skew_split
from repro.cts.topology import ClockNode, ClockTree, Sink
from repro.geometry.point import Point
from repro.quantity import LengthUm, Probability
from repro.tech.parameters import GateModel, Technology


@dataclass(frozen=True)
class CellDecision:
    """What to put at the top of a new edge."""

    cell: Optional[GateModel]
    maskable: bool = False

    def __post_init__(self):
        if self.maskable and self.cell is None:
            raise InputError("a maskable edge needs a gate cell", field="cell")


class CellPolicy:
    """Decides the cell on each new edge during bottom-up merging.

    ``decide`` must be a pure function of its arguments: the merger may
    call it more than once per candidate pair (e.g. from a cost lower
    bound) and caches the resulting plans.
    """

    needs_merged_probability = False
    """Set True when :meth:`decide` uses the merged node's P(EN)."""

    def decide(
        self,
        child: ClockNode,
        merged_probability: Optional[Probability],
        distance: LengthUm,
        tech: Technology,
    ) -> CellDecision:
        raise NotImplementedError

    def uniform_decision(self, tech: Technology) -> Optional[CellDecision]:
        """The constant decision this policy takes on *every* edge.

        Policies whose :meth:`decide` ignores the child, probability
        and distance arguments return that constant here; the exact
        kernel screen needs it, because its batched zero-skew split
        models one cell per edge side.  The default ``None`` (for
        data-dependent policies such as merge-time gate reduction)
        keeps those runs off the exact screen; their cost bounds still
        batch through :meth:`lane_decisions`.
        """
        return None

    def lane_decisions(
        self, enable_probability, subtree_cap, merged_probability, distance, tech
    ):
        """Per-lane :meth:`decide` for one plan side of a candidate batch.

        The child arrives as its ``enable_probability`` and
        ``subtree_cap`` (floats or NumPy arrays), ``merged_probability``
        (``None`` or an array) and ``distance`` (an array) per lane.
        Returns ``(chosen, on, off)``: lanes where the boolean
        ``chosen`` is set take decision ``on``, the others ``off``.  The
        batched cost bounds build on it, and each lane must equal the
        scalar :meth:`decide` exactly, or pruning could change.  The
        default is :meth:`uniform_decision` as a constant mask; ``None``
        (no uniform decision) keeps the bounds on the scalar path.
        """
        uniform = self.uniform_decision(tech)
        if uniform is None:
            return None
        return True, uniform, uniform


class NoCellPolicy(CellPolicy):
    """Plain wires everywhere (unbuffered Tsay/DME tree)."""

    def decide(self, child, merged_probability, distance, tech) -> CellDecision:
        return CellDecision(cell=None)

    def uniform_decision(self, tech: Technology) -> Optional[CellDecision]:
        return CellDecision(cell=None)


class BufferEveryEdgePolicy(CellPolicy):
    """The baseline's buffer on every edge (never maskable)."""

    def decide(self, child, merged_probability, distance, tech) -> CellDecision:
        return CellDecision(cell=tech.buffer, maskable=False)

    def uniform_decision(self, tech: Technology) -> Optional[CellDecision]:
        return CellDecision(cell=tech.buffer, maskable=False)


class GateEveryEdgePolicy(CellPolicy):
    """The paper's default: a masking gate on every edge."""

    def decide(self, child, merged_probability, distance, tech) -> CellDecision:
        return CellDecision(cell=tech.masking_gate, maskable=True)

    def uniform_decision(self, tech: Technology) -> Optional[CellDecision]:
        return CellDecision(cell=tech.masking_gate, maskable=True)


@dataclass
class MergePlan:
    """Everything known about a candidate merge before committing it."""

    a_id: int
    b_id: int
    distance: LengthUm
    decision_a: CellDecision
    decision_b: CellDecision
    split: SplitResult
    merged_mask: int
    merged_probability: Optional[Probability]


@dataclass
class MergerStats:
    """Counters of the greedy engine's work, for benches and reports.

    ``plans_computed`` is the number of full :meth:`BottomUpMerger.plan`
    evaluations (zero-skew split + oracle statistics); everything the
    caching/pruning layers save shows up as ``plan_cache_hits`` and
    ``pruned_probes`` instead.

    The kernel counters track the vectorized screens:
    ``kernel_batches`` batched evaluations, ``kernel_candidates``
    candidate lanes they covered, and ``kernel_scalar_fallbacks``
    lanes handed back to the scalar ``plan()`` because the split
    kernel leaves them to the scalar split (the snaking quadratic's
    raising or linear special cases; snaked lanes themselves are
    modelled).  ``distance_reuses`` counts ``plan()`` calls that
    received an already-measured segment distance instead of
    re-deriving it.

    The repair counters split best-pair recomputations by trigger:
    ``orphan_recomputes`` eager per-merge repairs of nodes whose best
    partner retired (``candidate_limit`` runs), ``repair_recomputes``
    lazy repairs taken when a stale best pair actually popped from the
    heap (exact-greedy runs).
    """

    plans_computed: int = 0
    plan_cache_hits: int = 0
    heap_pops: int = 0
    stale_entries: int = 0
    index_queries: int = 0
    pruned_probes: int = 0
    distance_reuses: int = 0
    kernel_batches: int = 0
    kernel_candidates: int = 0
    kernel_scalar_fallbacks: int = 0
    orphan_recomputes: int = 0
    repair_recomputes: int = 0

    @property
    def cost_probes(self) -> int:
        """Pair-cost requests answered (computed, cached, or pruned)."""
        return self.plans_computed + self.plan_cache_hits + self.pruned_probes

    def snapshot(self) -> Dict[str, int]:
        """Stable-key dict of every counter (plus derived totals).

        The keys are a public contract: the metrics exporters
        (``repro.obs``), :func:`repro.analysis.report.format_merger_stats`
        and the benches all read this instead of the attributes.
        """
        return {
            "plans_computed": self.plans_computed,
            "plan_cache_hits": self.plan_cache_hits,
            "heap_pops": self.heap_pops,
            "stale_entries": self.stale_entries,
            "index_queries": self.index_queries,
            "pruned_probes": self.pruned_probes,
            "distance_reuses": self.distance_reuses,
            "kernel_batches": self.kernel_batches,
            "kernel_candidates": self.kernel_candidates,
            "kernel_scalar_fallbacks": self.kernel_scalar_fallbacks,
            "orphan_recomputes": self.orphan_recomputes,
            "repair_recomputes": self.repair_recomputes,
            "cost_probes": self.cost_probes,
        }


PairCost = Callable[["MergePlan", "BottomUpMerger"], float]

logger = logging.getLogger(__name__)

#: Relative shrink applied to cost lower bounds before they are allowed
#: to prune a candidate.  Rounding between a bound and the exact cost
#: differs by at most a few ulps (~1e-15 relative); the margin is a
#: thousand times that, yet negligible against any real cost gap.
_LOWER_BOUND_MARGIN = 1.0 - 1e-12

#: Lanes per pair-lane screen of :meth:`BottomUpMerger._screen_all`:
#: large enough that NumPy call overhead vanishes, small enough that an
#: initialization scan of 100k nodes stays within a few MiB of lanes.
_SCREEN_LANE_BUDGET = 1 << 14


def nearest_neighbor_cost(plan: MergePlan, merger: "BottomUpMerger") -> LengthUm:
    """Geometric distance between merging segments (Edahiro-style)."""
    return plan.distance


def _nearest_neighbor_lower_bound(
    merger: "BottomUpMerger", na: ClockNode, nb: ClockNode, distance: LengthUm
) -> LengthUm:
    """The distance *is* the cost, so the bound is exact."""
    return distance


def _nearest_neighbor_batch_cost(merger, a_ids, b_ids, distance, split=None):
    """Exact batched costs: the cost *is* the batched distance.

    ``batch_cost`` hooks receive pair lanes -- the id arrays ``a_ids``
    and ``b_ids`` -- with their batched segment distances and (only
    when the cost sets ``batch_cost_needs_split``) the lanes'
    :class:`repro.cts.kernels.BatchSplit`.  They must return per-lane
    costs bit-identical to ``cost(plan(a_ids[j], b_ids[j]))``; both
    sides' node quantities are read from ``merger.node_arrays``.
    """
    return distance


def _nearest_neighbor_batch_lower_bound(merger, nid, others, distance):
    """Batched form of the (exact) distance lower bound."""
    return distance


nearest_neighbor_cost.lower_bound = _nearest_neighbor_lower_bound
nearest_neighbor_cost.batch_cost = _nearest_neighbor_batch_cost
nearest_neighbor_cost.batch_cost_needs_split = False
nearest_neighbor_cost.batch_lower_bound = _nearest_neighbor_batch_lower_bound


class BottomUpMerger:
    """Greedy bottom-up zero-skew merger with top-down embedding.

    Parameters
    ----------
    sinks:
        The clock sinks (at least one).
    tech:
        Technology constants.
    cost:
        Pair cost; the next merge is always a currently cheapest pair.
    cell_policy:
        Decides buffers/gates on new edges.
    oracle:
        Activity oracle; when given, every node is annotated with
        ``P(EN)`` / ``P_tr(EN)`` of its module set.  Without it all
        nodes behave as always-on (baseline trees).
    controller_point:
        Location of the gate controller, for costs that include
        controller-wiring terms.  Defaults to the sink bounding-box
        center (the paper's "center of the chip").
    candidate_limit:
        Optional k-nearest-neighbour candidate restriction.
    cell_sizer:
        Optional sizing hook (e.g.
        :class:`repro.core.gate_sizing.GateSizingPolicy`): given a
        merge whose unit-size split snakes, it may resize the new
        edges' cells to balance the delays with less wire.  Sizing may
        swap cells after the split, which invalidates the pin terms of
        cost lower bounds, so it disables lower-bound pruning.
    plan_cache / cost_pruning / spatial_index / vectorize:
        Parity-oracle switches for the four optimization layers (all
        on by default).  Turning one off changes no greedy decision,
        only how much work the engine does.  Only the determinism
        tests and the benches set them, to compare traces against the
        plain scalar engine; no routing function or CLI flag forwards
        them.  ``vectorize=False`` drops the NumPy kernel screens of
        :mod:`repro.cts.kernels`, leaving the scalar reference merger.
    """

    def __init__(
        self,
        sinks: Sequence[Sink],
        tech: Technology,
        cost: PairCost = nearest_neighbor_cost,
        cell_policy: Optional[CellPolicy] = None,
        oracle: Optional[ActivityOracle] = None,
        controller_point: Optional[Point] = None,
        candidate_limit: Optional[int] = None,
        cell_sizer=None,
        skew_bound: float = 0.0,
        plan_cache: bool = True,
        cost_pruning: bool = True,
        spatial_index: bool = True,
        vectorize: bool = True,
    ):
        if not sinks:
            raise InputError("at least one sink is required")
        if candidate_limit is not None and candidate_limit < 1:
            raise InputError(
                "candidate_limit must be positive", field="candidate_limit"
            )
        if not math.isfinite(skew_bound) or skew_bound < 0:
            raise InputError(
                "skew_bound must be non-negative", field="skew_bound"
            )
        self.tech = tech
        self.cost = cost
        self.cell_policy = cell_policy or NoCellPolicy()
        self.oracle = oracle
        self.candidate_limit = candidate_limit
        self.cell_sizer = cell_sizer
        self.skew_bound = skew_bound
        self._needs_merged_probability = bool(
            self.cell_policy.needs_merged_probability
            or getattr(cost, "needs_merged_probability", False)
        )
        self.stats = MergerStats()
        self._plan_cache_enabled = plan_cache
        self._plan_cache: Dict[Tuple[int, int], MergePlan] = {}
        self._plan_partners: Dict[int, Set[int]] = {}
        self._lower_bound = getattr(cost, "lower_bound", None)
        self._prune = bool(
            cost_pruning and self._lower_bound is not None and cell_sizer is None
        )
        self.tree = ClockTree(tech)
        for sink in sinks:
            node = self.tree.add_leaf(sink)
            if oracle is not None:
                stats = oracle.statistics(node.module_mask)
                node.enable_probability = stats.signal_probability
                node.enable_transition_probability = stats.transition_probability
        if controller_point is None:
            xs = [s.location.x for s in sinks]
            ys = [s.location.y for s in sinks]
            controller_point = Point(
                (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0
            )
        self.controller_point = controller_point
        self._active: Set[int] = set(range(len(sinks)))
        self._best: Dict[int, Tuple[float, int, int, Optional[float]]] = {}
        self._reverse: Dict[int, Set[int]] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._generation = 0
        self._index: Optional[SegmentGridIndex] = None
        if spatial_index and candidate_limit is not None and len(sinks) > 1:
            self._index = SegmentGridIndex(self._index_cell_size(sinks))
            for nid in self._active:
                self._index.insert(nid, self.tree.node(nid).merging_segment)
        self._vectorize = bool(vectorize)
        self.node_arrays = None
        """Struct-of-arrays mirror (:class:`repro.cts.kernels.NodeArrays`)
        of active-node state, ``None`` when ``vectorize`` is off.  Batch
        cost hooks read candidate rows from it by id."""
        self._active_ids = None
        self._batch_cost = getattr(cost, "batch_cost", None)
        self._batch_cost_needs_split = bool(
            getattr(cost, "batch_cost_needs_split", False)
        )
        self._batch_bound = getattr(cost, "batch_lower_bound", None)
        uniform = None
        self._signatures_ok = False
        if self._vectorize:
            uniform = self.cell_policy.uniform_decision(tech)
            # Activation signatures ride in an int64 array column, so
            # batched merged probabilities need the ISA to fit 63 bits;
            # wider ISAs keep the scalar per-pair oracle lookups.
            self._signatures_ok = bool(
                oracle is not None
                and getattr(oracle, "signature_bits", 64) <= 63
            )
            capacity = 2 * len(sinks) - 1
            self.node_arrays = _kernels.NodeArrays(capacity)
            for nid in range(len(sinks)):
                node = self.tree.node(nid)
                self.node_arrays.set_row(
                    nid, node, sig=self._node_signature(node)
                )
            self._active_ids = _kernels.ActiveIds(range(len(sinks)), capacity)
        self._uniform_decision = uniform
        # The exact screen replaces per-candidate plan() evaluation, so
        # it must cover every case bit-exactly: no bounded skew, no
        # sizing, and -- for costs that need the split -- a uniform
        # cell decision to feed the cell-aware batch split.  The cost's
        # optional ``batch_cost_ready`` hook gets the final say: the
        # switched-capacitance costs decline without a uniform decision
        # or (when they need merged probabilities) usable signatures.
        ready = getattr(cost, "batch_cost_ready", None)
        cost_ready = self._batch_cost is not None and (
            ready is None or bool(ready(self))
        )
        cells_modeled = uniform is not None
        self._exact_screen = bool(
            self._vectorize
            and cost_ready
            and self.skew_bound == 0
            and self.cell_sizer is None
            and (not self._batch_cost_needs_split or cells_modeled)
        )
        # The bound screen only reorders/batches lower bounds the
        # scalar pruning path would have computed anyway; the hook
        # itself declines (returns None) when it cannot vectorize.
        self._bound_screen = bool(
            self._vectorize and self._prune and self._batch_bound is not None
        )
        # Exact-greedy runs repair orphaned best pairs lazily at pop
        # time (see the module docstring); candidate_limit runs must
        # stay eager because their k-nearest candidate snapshots are
        # taken relative to the *current* active set.
        self._eager_repair = candidate_limit is not None
        self._index_batch = (
            self._index_batch_distance if self.node_arrays is not None else None
        )
        self.merge_trace: List[Tuple[int, int, int]] = []
        """(left, right, merged) triples, in merge order -- for tests."""

    @staticmethod
    def _index_cell_size(sinks: Sequence[Sink]) -> float:
        """Grid pitch near the expected nearest-neighbour spacing."""
        us = [s.location.u for s in sinks]
        vs = [s.location.v for s in sinks]
        span = max(max(us) - min(us), max(vs) - min(vs))
        if span <= 0.0:
            return 1.0
        return span / max(1.0, math.sqrt(len(sinks)))

    # ------------------------------------------------------------------
    # planning and executing a single merge
    # ------------------------------------------------------------------
    def _node_signature(self, node: ClockNode) -> int:
        """Activation signature stored with the node's array row.

        Zero when signatures are unusable (no oracle, or an ISA wider
        than the int64 column) -- the batched cost hooks then decline
        and the scalar oracle lookups take over.
        """
        if not self._signatures_ok:
            return 0
        return self.oracle.activation_signature(node.module_mask)

    def merged_probability(self, na: ClockNode, nb: ClockNode) -> Optional[float]:
        """``P(EN)`` of the union module set, exactly as :meth:`plan`
        computes it (``None`` when the cost/policy does not need it)."""
        if self._needs_merged_probability and self.oracle is not None:
            return self.oracle.signal_probability(na.module_mask | nb.module_mask)
        return None

    def plan(
        self, a_id: int, b_id: int, distance: Optional[float] = None
    ) -> MergePlan:
        """Evaluate the merge of two active subtrees without committing.

        ``distance`` threads an already-measured segment distance (from
        a candidate ranking or a kernel screen) so the plan does not
        re-derive it.  ``Trr.distance_to`` is symmetric at the bit
        level -- the interval-gap arguments merely swap under ``max`` --
        so a measurement taken in either pair orientation is exact.
        """
        self.stats.plans_computed += 1
        na, nb = self.tree.node(a_id), self.tree.node(b_id)
        if distance is None:
            distance = na.merging_segment.distance_to(nb.merging_segment)
        else:
            self.stats.distance_reuses += 1
        merged_mask = na.module_mask | nb.module_mask
        merged_probability = None
        if self._needs_merged_probability and self.oracle is not None:
            merged_probability = self.oracle.signal_probability(merged_mask)
        decision_a = self.cell_policy.decide(na, merged_probability, distance, self.tech)
        decision_b = self.cell_policy.decide(nb, merged_probability, distance, self.tech)
        if self.skew_bound > 0:
            from repro.cts.bounded import bounded_skew_split

            split = bounded_skew_split(
                distance,
                Tap(cap=na.subtree_cap, delay=na.sink_delay, cell=decision_a.cell),
                na.sink_delay_min,
                Tap(cap=nb.subtree_cap, delay=nb.sink_delay, cell=decision_b.cell),
                nb.sink_delay_min,
                self.skew_bound,
                self.tech,
            )
        else:
            split = zero_skew_split(
                distance,
                Tap(cap=na.subtree_cap, delay=na.sink_delay, cell=decision_a.cell),
                Tap(cap=nb.subtree_cap, delay=nb.sink_delay, cell=decision_b.cell),
                self.tech,
            )
        # Sizing re-balances to exact zero skew, which is always within
        # any bound; it only engages when the split had to snake.
        if self.cell_sizer is not None and split.snaked is not None:
            decision_a, decision_b, split = self.cell_sizer.resolve(
                distance,
                na.subtree_cap,
                na.sink_delay,
                decision_a,
                nb.subtree_cap,
                nb.sink_delay,
                decision_b,
                self.tech,
                split,
            )
        return MergePlan(
            a_id=a_id,
            b_id=b_id,
            distance=distance,
            decision_a=decision_a,
            decision_b=decision_b,
            split=split,
            merged_mask=merged_mask,
            merged_probability=merged_probability,
        )

    def _plan_pair(
        self, a_id: int, b_id: int, distance: Optional[float] = None
    ) -> MergePlan:
        """:meth:`plan` through the memo.

        Keys are *ordered* pairs: ``plan(a, b)`` and ``plan(b, a)``
        agree to rounding but not bit-for-bit (the split solves for the
        other side's edge first), and a cache must never change any
        float an uncached run would have produced.
        """
        if not self._plan_cache_enabled:
            return self.plan(a_id, b_id, distance)
        key = (a_id, b_id)
        cached = self._plan_cache.get(key)
        if cached is not None:
            self.stats.plan_cache_hits += 1
            return cached
        plan = self.plan(a_id, b_id, distance)
        self._plan_cache[key] = plan
        self._plan_partners.setdefault(a_id, set()).add(b_id)
        self._plan_partners.setdefault(b_id, set()).add(a_id)
        return plan

    def _invalidate_plans(self, nid: int) -> None:
        """Drop every cached plan involving a retired node."""
        partners = self._plan_partners.pop(nid, None)
        if not partners:
            return
        for other in partners:
            self._plan_cache.pop((nid, other), None)
            self._plan_cache.pop((other, nid), None)
            remaining = self._plan_partners.get(other)
            if remaining is not None:
                remaining.discard(nid)
                if not remaining:
                    del self._plan_partners[other]

    def execute(self, plan: MergePlan) -> ClockNode:
        """Commit a planned merge: create the internal node."""
        na, nb = self.tree.node(plan.a_id), self.tree.node(plan.b_id)
        region = merge_regions(na.merging_segment, nb.merging_segment, plan.split)
        merged = self.tree.add_internal(plan.a_id, plan.b_id, region)

        na.edge_length = plan.split.length_a
        na.edge_cell = plan.decision_a.cell
        na.edge_maskable = plan.decision_a.maskable
        na.snaked = plan.split.snaked == "a"
        nb.edge_length = plan.split.length_b
        nb.edge_cell = plan.decision_b.cell
        nb.edge_maskable = plan.decision_b.maskable
        nb.snaked = plan.split.snaked == "b"

        merged.module_mask = plan.merged_mask
        merged.subtree_cap = plan.split.merged_cap
        merged.sink_delay = plan.split.delay
        merged.sink_delay_min = plan.split.earliest_delay
        if self.oracle is not None:
            stats = self.oracle.statistics(plan.merged_mask)
            merged.enable_probability = stats.signal_probability
            merged.enable_transition_probability = stats.transition_probability
        self.merge_trace.append((plan.a_id, plan.b_id, merged.id))
        return merged

    # ------------------------------------------------------------------
    # greedy pair selection
    # ------------------------------------------------------------------
    def _pair_cost(
        self, a_id: int, b_id: int, distance: Optional[float] = None
    ) -> float:
        return self.cost(self._plan_pair(a_id, b_id, distance), self)

    def _candidates_for(self, nid: int) -> List[int]:
        limit = self.candidate_limit
        if limit is None or len(self._active) - (nid in self._active) <= limit:
            return [o for o in self._active if o != nid]
        ms = self.tree.node(nid).merging_segment
        if self._index is not None:
            self.stats.index_queries += 1
            return self._index.nearest(
                ms, limit, exclude=nid, batch_distance=self._index_batch
            )
        others = [o for o in self._active if o != nid]
        others.sort(key=lambda o: (ms.distance_to(self.tree.node(o).merging_segment), o))
        return others[:limit]

    # ------------------------------------------------------------------
    # vectorized candidate screens
    # ------------------------------------------------------------------
    def _batch_distances(self, nid: int, ids):
        """Batched ``Trr.distance_to`` from ``nid`` to each candidate id."""
        self.stats.kernel_batches += 1
        self.stats.kernel_candidates += int(ids.size)
        seg = self.tree.node(nid).merging_segment
        arrays = self.node_arrays
        return _kernels.batch_segment_distance(
            seg.ulo,
            seg.uhi,
            seg.vlo,
            seg.vhi,
            arrays.ulo[ids],
            arrays.uhi[ids],
            arrays.vlo[ids],
            arrays.vhi[ids],
        )

    def _index_batch_distance(self, segment, ids) -> List[float]:
        """``batch_distance`` hook for :meth:`SegmentGridIndex.nearest`.

        Answers one grid ring's exact segment distances with a single
        kernel call; bit-identical to the per-candidate
        ``Trr.distance_to`` loop the index runs without the hook.
        """
        arr = _kernels.as_id_array(ids)
        self.stats.kernel_batches += 1
        self.stats.kernel_candidates += int(arr.size)
        arrays = self.node_arrays
        return _kernels.batch_segment_distance(
            segment.ulo,
            segment.uhi,
            segment.vlo,
            segment.vhi,
            arrays.ulo[arr],
            arrays.uhi[arr],
            arrays.vlo[arr],
            arrays.vhi[arr],
        ).tolist()

    def _kernel_candidates(self, nid: int):
        """:meth:`_candidates_for` as an id array, sorts batched."""
        limit = self.candidate_limit
        others = self._active_ids.others(nid)
        if limit is None or others.size <= limit:
            return others
        if self._index is not None:
            self.stats.index_queries += 1
            ms = self.tree.node(nid).merging_segment
            return _kernels.as_id_array(
                self._index.nearest(
                    ms, limit, exclude=nid, batch_distance=self._index_batch
                )
            )
        distance = self._batch_distances(nid, others)
        return others[_kernels.rank_by_cost(others, distance)[:limit]]

    def _screen_pairs(self, a_ids, b_ids):
        """Exact batched ``(costs, distances)`` over pair lanes.

        Lane ``j`` is the pair ``(a_ids[j], b_ids[j])`` in that plan
        orientation, so one screen can mix query nodes and orientations
        (``plan(a, b)`` and ``plan(b, a)`` agree only to rounding).
        Per-lane costs are bit-identical to ``self.cost`` over scalar
        plans: in-range and snaked zero-skew lanes come from the batch
        kernels; the rare lanes the split kernel leaves to the scalar
        split fall back to a scalar plan, counted in
        ``kernel_scalar_fallbacks``.
        """
        self.stats.kernel_batches += 1
        self.stats.kernel_candidates += int(b_ids.size)
        arrays = self.node_arrays
        distance = _kernels.batch_segment_distance(
            arrays.ulo[a_ids],
            arrays.uhi[a_ids],
            arrays.vlo[a_ids],
            arrays.vhi[a_ids],
            arrays.ulo[b_ids],
            arrays.uhi[b_ids],
            arrays.vlo[b_ids],
            arrays.vhi[b_ids],
        )
        if not self._batch_cost_needs_split:
            return self._batch_cost(self, a_ids, b_ids, distance, None), distance
        cell = self._uniform_decision.cell
        split = _kernels.batch_zero_skew_split(
            distance,
            arrays.cap[a_ids],
            arrays.delay[a_ids],
            arrays.cap[b_ids],
            arrays.delay[b_ids],
            self.tech.unit_wire_resistance,
            self.tech.unit_wire_capacitance,
            cell_a=cell,
            cell_b=cell,
        )
        costs = self._batch_cost(self, a_ids, b_ids, distance, split)
        lanes = _kernels.fallback_lanes(split)
        if lanes:
            costs = costs.copy()
            for j in lanes:
                costs[j] = self._pair_cost(
                    int(a_ids[j]), int(b_ids[j]), distance=float(distance[j])
                )
                self.stats.kernel_scalar_fallbacks += 1
        return costs, distance

    def _screen_best(self, queries, canonical: bool = False) -> None:
        """Exact-screen best partners for ``(nid, candidate ids)`` queries.

        All queries share one pair-lane screen; each query's winner is
        its segment's ``(cost, id)`` minimum -- the scalar loop's
        comparison over the same bit-identical floats.  ``_set_best``
        runs in query order, so generations and heap entries match
        per-node recomputes.  ``canonical`` orients every lane
        ``(min id, max id)``, like the scalar initialization scans.
        """
        sizes = [int(ids.size) for _, ids in queries]
        lanes = sum(sizes)
        best = [(None, None, None)] * len(queries)
        if lanes:
            others = np.concatenate([ids for _, ids in queries])
            lane_nid = np.repeat(
                _kernels.as_id_array(nid for nid, _ in queries), sizes
            )
            if canonical:
                a_ids = np.minimum(lane_nid, others)
                b_ids = np.maximum(lane_nid, others)
            else:
                a_ids, b_ids = lane_nid, others
            costs, distance = self._screen_pairs(a_ids, b_ids)
            segment = np.repeat(np.arange(len(queries)), sizes)
            order = np.lexsort((others, costs, segment))
            # Sorted by segment first: each segment's winner leads its
            # block, which starts where the earlier segments end.
            starts = np.cumsum(sizes) - sizes
            winners = order[np.minimum(starts, lanes - 1)]
            best = zip(
                costs[winners].tolist(),
                others[winners].tolist(),
                distance[winners].tolist(),
            )
        for (nid, _), size, (cost, partner, d) in zip(queries, sizes, best):
            if size:
                self._set_best(nid, cost, partner, d)
            else:
                self._best.pop(nid, None)

    def _screen_all(self, nids, canonical: bool = False) -> None:
        """:meth:`_screen_best` over ``nids`` in order, in screens of
        about ``_SCREEN_LANE_BUDGET`` lanes so memory stays bounded.

        Candidate sets read only the active set and the index, which no
        recompute changes, so batching the queries changes no decision.
        """
        queries, lanes = [], 0
        for nid in nids:
            ids = self._kernel_candidates(nid)
            queries.append((nid, ids))
            lanes += int(ids.size)
            if lanes >= _SCREEN_LANE_BUDGET:
                self._screen_best(queries, canonical)
                queries, lanes = [], 0
        if queries:
            self._screen_best(queries, canonical)

    def _kernel_rank(self, nid: int, candidates: List[int]):
        """Batched lower bounds for :meth:`_ranked_candidates`, or
        ``None`` when the cost's ``batch_lower_bound`` declines."""
        ids = _kernels.as_id_array(candidates)
        distance = self._batch_distances(nid, ids)
        bounds = self._batch_bound(self, nid, ids, distance)
        if bounds is None:
            return None
        scaled = bounds * _LOWER_BOUND_MARGIN
        order = _kernels.rank_by_cost(ids, scaled)
        return list(
            zip(
                scaled[order].tolist(),
                ids[order].tolist(),
                distance[order].tolist(),
            )
        )

    def _ranked_candidates(
        self, nid: int
    ) -> List[Tuple[Optional[float], int, Optional[float]]]:
        """Candidates as ``(cost lower bound, id, distance)``, cheapest
        bound first.

        Without pruning the bound and distance are ``None`` and the
        original candidate order is kept.  The measured distance rides
        along so the plan evaluation that usually follows can reuse it
        (:attr:`MergerStats.distance_reuses`).
        """
        candidates = self._candidates_for(nid)
        if not self._prune:
            return [(None, o, None) for o in candidates]
        if self._bound_screen and candidates:
            ranked = self._kernel_rank(nid, candidates)
            if ranked is not None:
                return ranked
        node = self.tree.node(nid)
        ms = node.merging_segment
        scored = []
        for other in candidates:
            peer = self.tree.node(other)
            distance = ms.distance_to(peer.merging_segment)
            bound = self._lower_bound(self, node, peer, distance)
            scored.append((bound * _LOWER_BOUND_MARGIN, other, distance))
        scored.sort()
        return scored

    def _set_best(
        self,
        nid: int,
        cost: float,
        partner: int,
        distance: Optional[float] = None,
    ) -> None:
        """Record ``nid``'s best pair; a screen's measured ``distance``
        rides along to the pair's plan if it is merged."""
        old = self._best.get(nid)
        if old is not None:
            self._reverse.get(old[1], set()).discard(nid)
        self._generation += 1
        self._best[nid] = (cost, partner, self._generation, distance)
        self._reverse.setdefault(partner, set()).add(nid)
        heapq.heappush(self._heap, (cost, nid, self._generation))

    def _recompute_best(self, nid: int, canonical: bool = False) -> None:
        """Re-scan a node's candidates for its cheapest partner.

        ``canonical`` evaluates each pair in ``(min id, max id)``
        orientation -- used by the exact-greedy initialization so the
        pruned per-node scans reproduce, bit for bit, the costs the
        shared all-pairs loop would have produced (``plan(a, b)`` and
        ``plan(b, a)`` agree only to rounding).

        With an exact kernel screen one pair-lane screen ranks every
        candidate (:meth:`_screen_best`).
        """
        if self._exact_screen:
            self._screen_all([nid], canonical)
            return
        best_cost, best_partner = None, None
        ranked = self._ranked_candidates(nid)
        for i, (bound, other, distance) in enumerate(ranked):
            if (
                bound is not None
                and best_cost is not None
                and (bound, other) >= (best_cost, best_partner)
            ):
                # Ranked by bound, so no later candidate can win either.
                self.stats.pruned_probes += len(ranked) - i
                break
            if canonical and other < nid:
                cost = self._pair_cost(other, nid, distance=distance)
            else:
                cost = self._pair_cost(nid, other, distance=distance)
            if best_cost is None or (cost, other) < (best_cost, best_partner):
                best_cost, best_partner = cost, other
        if best_partner is None:
            self._best.pop(nid, None)
            return
        self._set_best(nid, best_cost, best_partner)

    def _initialize_best(self) -> None:
        # Exact greedy scans in canonical pair orientation, which keeps
        # every cost float identical to the all-pairs loop below; the
        # exact kernel screen or lower-bound pruning skips almost every
        # plan evaluation.
        if self._exact_screen:
            self._screen_all(
                sorted(self._active), canonical=self.candidate_limit is None
            )
            return
        if self.candidate_limit is not None:
            for nid in sorted(self._active):
                self._recompute_best(nid)
            return
        if self._prune:
            for nid in sorted(self._active):
                self._recompute_best(nid, canonical=True)
            return
        ids = sorted(self._active)
        best: Dict[int, Tuple[float, int]] = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                cost = self._pair_cost(a, b)
                if a not in best or (cost, b) < best[a]:
                    best[a] = (cost, b)
                if b not in best or (cost, a) < best[b]:
                    best[b] = (cost, a)
        for nid, (cost, partner) in best.items():
            self._set_best(nid, cost, partner)

    def _pop_valid_pair(self) -> Tuple[int, int, Optional[float]]:
        while self._heap:
            cost, nid, generation = heapq.heappop(self._heap)
            self.stats.heap_pops += 1
            if nid not in self._active:
                self.stats.stale_entries += 1
                continue
            current = self._best.get(nid)
            if current is None or current[2] != generation:
                self.stats.stale_entries += 1
                continue  # superseded by a newer _set_best
            partner = current[1]
            if partner not in self._active:
                # Lazy repair: the stale entry's cost never exceeded
                # this node's true current best, so it could not have
                # won a pop over any valid pair (module docstring).
                self.stats.repair_recomputes += 1
                self._recompute_best(nid)
                continue
            return nid, partner, current[3]
        # The merge loop always leaves >= 2 active nodes with mutual
        # best pointers; an empty heap here means the bookkeeping
        # (generation counters, reverse pointers) broke mid-run.
        survivor = min(self._active) if self._active else None
        raise InternalInvariantError(
            "no mergeable pair left among %d active node(s) "
            "(best-pair heap drained; internal error)" % len(self._active),
            node=survivor,
        )

    def _retire(self, nid: int) -> Set[int]:
        """Deactivate a node; return nodes that pointed at it."""
        self._active.discard(nid)
        if self._active_ids is not None:
            self._active_ids.discard(nid)
        self._best.pop(nid, None)
        self._invalidate_plans(nid)
        if self._index is not None and nid in self._index:
            self._index.remove(nid)
        return self._reverse.pop(nid, set())

    def _activate(self, nid: int) -> None:
        """Mark a node active in the set, id array, and spatial index."""
        self._active.add(nid)
        if self._active_ids is not None:
            self._active_ids.add(nid)
        if self._index is not None:
            self._index.insert(nid, self.tree.node(nid).merging_segment)

    def _introduce(self, merged_id: int) -> None:
        """Register a new subtree and refresh neighbours' best pairs."""
        if self.node_arrays is not None:
            node = self.tree.node(merged_id)
            self.node_arrays.set_row(
                merged_id, node, sig=self._node_signature(node)
            )
        if self._exact_screen:
            self._introduce_screened(merged_id)
            return
        best_cost, best_partner = None, None
        for bound, other, distance in self._ranked_candidates(merged_id):
            if bound is not None:
                need_self = best_cost is None or (bound, other) < (
                    best_cost,
                    best_partner,
                )
                current = self._best.get(other)
                need_other = current is None or bound < current[0]
                if not (need_self or need_other):
                    self.stats.pruned_probes += 1
                    continue
            cost = self._pair_cost(merged_id, other, distance=distance)
            if best_cost is None or (cost, other) < (best_cost, best_partner):
                best_cost, best_partner = cost, other
            current = self._best.get(other)
            if current is None or (cost, merged_id) < (current[0], current[1]):
                self._set_best(other, cost, merged_id)
        self._activate(merged_id)
        if best_partner is not None:
            self._set_best(merged_id, best_cost, best_partner)

    def _introduce_screened(self, merged_id: int) -> None:
        """Kernel-screened :meth:`_introduce`.

        One pair-lane screen evaluates every candidate's exact pair
        cost, and the new node takes the ``(cost, id)`` minimum.
        Neighbour updates apply the scalar loop's exact condition
        ``(cost, merged_id) < (current cost, current partner)`` to the
        bit-identical batched costs, so the resulting best-pair state
        matches the scalar path's (update *order* differs, but
        generation staleness makes heap outcomes order-independent).
        """
        ids = self._kernel_candidates(merged_id)
        best_cost = best_partner = best_distance = None
        if ids.size:
            costs, distance = self._screen_pairs(
                np.full(ids.size, merged_id, dtype=np.int64), ids
            )
            order = _kernels.rank_by_cost(ids, costs)
            ranked = list(
                zip(
                    costs[order].tolist(),
                    ids[order].tolist(),
                    distance[order].tolist(),
                )
            )
            best_cost, best_partner, best_distance = ranked[0]
            for cost, other, d in ranked:
                current = self._best.get(other)
                if current is None or (cost, merged_id) < (current[0], current[1]):
                    self._set_best(other, cost, merged_id, d)
        self._activate(merged_id)
        if best_partner is not None:
            self._set_best(merged_id, best_cost, best_partner, best_distance)

    def _repair_orphans(self, orphans: Set[int]) -> None:
        """Eager repair of nodes whose best partner just merged.

        The orphans that still need a recompute after ``_introduce``
        are collected first and, under the exact screen, screened in
        one batch.  A recompute changes only its own node's best pair,
        so collecting first changes no decision.
        """
        stale = []
        for orphan in orphans:
            current = self._best.get(orphan)
            if current is None or current[1] not in self._active:
                stale.append(orphan)
        self.stats.orphan_recomputes += len(stale)
        if self._exact_screen:
            self._screen_all(stale)
            return
        for orphan in stale:
            self._recompute_best(orphan)

    # ------------------------------------------------------------------
    # the full flow
    # ------------------------------------------------------------------
    def run(self) -> ClockTree:
        """Build the tree: greedy bottom-up merge, then top-down embed."""
        num_sinks = len(self._active)
        logger.debug(
            "merging %d sinks (cost=%s, policy=%s, candidate_limit=%s, "
            "skew_bound=%g)",
            num_sinks,
            getattr(self.cost, "__name__", type(self.cost).__name__),
            type(self.cell_policy).__name__,
            self.candidate_limit,
            self.skew_bound,
        )
        tracer = get_tracer()
        with tracer.span(
            "dme.merge",
            n=num_sinks,
            cost=getattr(self.cost, "__name__", type(self.cost).__name__),
            policy=type(self.cell_policy).__name__,
            candidate_limit=self.candidate_limit,
            vectorize=self._vectorize,
        ) as span:
            if num_sinks == 1:
                (only,) = self._active
                self.tree.set_root(only)
                with tracer.span("dme.embed"):
                    self._place()
                return self.tree
            init_start = time.perf_counter_ns()
            with tracer.span("dme.init_best", n=num_sinks):
                self._initialize_best()
            registry = get_registry()
            registry.gauge("dme.init_best.seconds").set(
                (time.perf_counter_ns() - init_start) / 1e9
            )
            registry.counter("dme.init_best.runs").inc()
            with tracer.span("dme.merge_loop"):
                # The loop knows its exact extent (N-1 merges), which is
                # what makes the progress stream's percent estimate
                # monotonic instead of guessed; tracer.progress is one
                # attribute test when no listener is attached.
                total_merges = len(self._active) - 1
                merges_done = 0
                while len(self._active) > 1:
                    a_id, b_id, distance = self._pop_valid_pair()
                    plan = self._plan_pair(a_id, b_id, distance)
                    merged = self.execute(plan)
                    orphans = (self._retire(a_id) | self._retire(b_id)) & self._active
                    self._introduce(merged.id)
                    if self._eager_repair:
                        self._repair_orphans(orphans)
                    merges_done += 1
                    tracer.progress(merges_done, total_merges)
            (root,) = self._active
            self.tree.set_root(root)
            with tracer.span("dme.embed"):
                self._place()
            span.set(
                plans_computed=self.stats.plans_computed,
                plan_cache_hits=self.stats.plan_cache_hits,
                pruned_probes=self.stats.pruned_probes,
                kernel_batches=self.stats.kernel_batches,
                distance_reuses=self.stats.distance_reuses,
            )
            publish_merger_stats(self.stats)
            publish_index_stats(self._index)
        if logger.isEnabledFor(logging.DEBUG):
            # Guarded: these arguments walk the whole tree.
            logger.debug(
                "tree built: wirelength %.4g, %d gates, root delay %.4g",
                self.tree.total_wirelength(),
                self.tree.gate_count(),
                self.tree.root.sink_delay,
            )
        return self.tree

    def _place(self) -> None:
        """Top-down embedding of merging segments into points."""
        root = self.tree.root
        root.location = root.merging_segment.center()
        for node in self.tree.preorder():
            for child_id in node.children:
                child = self.tree.node(child_id)
                child.location = child.merging_segment.nearest_point_to(node.location)
        self.tree.validate_embedding()
