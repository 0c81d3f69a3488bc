"""Minimum-switched-capacitance merge costs.

When subtrees ``v_i`` and ``v_j`` are merged, the switched capacitance
added to the design per paper Eq. 3 is

* the two new clock edges:  ``(c e_i + C_i) P(EN_i)`` each, scaled by
  the clock activity factor, and
* the two new enable wires: ``(c |EN_i| + C_g) P_tr(EN_i)`` each,

with the enable wirelength estimated -- exactly as in the paper -- as
the distance from the controller point to the *middle of the child's
merging segment* (the Steiner point's final location is not known
during the bottom-up phase).

Two cost functions are provided:

``switched_capacitance_cost``
    The literal Eq. 3.
``incremental_switched_capacitance_cost``
    A count-once re-attribution of the same total (see its docstring);
    it avoids a greedy pathology of the literal form and is the
    default objective of :func:`repro.core.gated_routing.build_gated_tree`.
    The cost-term ablation bench compares the two.

Extensions beyond the literal Eq. 3, used only when the corresponding
feature is active:

* an edge the cell policy left ungated contributes its clock term
  weighted by the merged node's enable probability (its switching will
  be governed by the nearest gated ancestor; the merged node is the
  best bottom-up estimate) and no controller term;
* a buffered (non-maskable cell) edge contributes with weight 1.

Each cost also carries batched hooks for the merger's vectorized
screens (:mod:`repro.cts.dme`): ``batch_cost`` for the exact screen of
uniform cell policies, and ``batch_lower_bound`` for the bound screen
of any policy with per-lane decisions.  Both reproduce the scalar
floats bit for bit; the scalar ``lower_bound`` stays their parity
oracle and the path for ISAs wider than 63 instructions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cts import kernels as _kernels
from repro.cts.dme import BottomUpMerger, CellDecision, MergePlan
from repro.cts.topology import ClockNode
from repro.quantity import LengthUm, Probability, SwitchedCap


def _decision_weight(
    decision: CellDecision,
    child_probability: Probability,
    merged_probability: Optional[Probability],
) -> Probability:
    """Switching probability of a new clock edge under ``decision``.

    The probabilities may be floats or per-lane arrays.
    """
    if decision.maskable:
        return child_probability
    if decision.cell is not None:
        return 1.0  # buffer: never masked
    if merged_probability is not None:
        return merged_probability
    return 1.0


def _edge_weight(decision: CellDecision, child: ClockNode, plan: MergePlan) -> Probability:
    """Switching probability of the new clock edge above ``child``."""
    return _decision_weight(decision, child.enable_probability, plan.merged_probability)


def _batchable(merger: BottomUpMerger) -> bool:
    """Can the merger's candidate lanes be batched at all?

    Needs the vectorized node arrays and -- when the cost or policy
    reads the merged enable probability -- an oracle whose activation
    signatures fit the ``int64`` signature column (ISAs up to 63
    instructions; wider ones stay on the scalar path).
    """
    if merger.node_arrays is None:
        return False
    if merger._needs_merged_probability and merger.oracle is not None:
        return merger._signatures_ok
    return True


def _uniform_screen_ready(merger: BottomUpMerger) -> bool:
    """Can the batch costs below cover *every* candidate lane exactly?

    The ``batch_cost_ready`` protocol: the merger calls this once at
    construction before enabling its exact kernel screen.  On top of
    :func:`_batchable`, the batched split needs a constant cell
    decision.
    """
    return (
        _batchable(merger)
        and merger.cell_policy.uniform_decision(merger.tech) is not None
    )


def _batch_merged_probability(merger, a_ids, b_ids):
    """Batched ``plan.merged_probability`` per pair lane.

    ``None`` when the plan would not compute one (cost/policy does not
    need it, or there is no oracle) -- matching :meth:`plan` exactly.
    Merged-pair signatures are one ``np.bitwise_or`` over the signature
    column; the oracle answers them through the same signature memo the
    scalar ``signal_probability`` routes through, so each lane is
    bit-identical to the scalar lookup.  ``a_ids`` may also be one node
    id, broadcast over the ``b_ids`` lanes (the bound screen's query).
    """
    if not merger._needs_merged_probability or merger.oracle is None:
        return None
    sigs = merger.node_arrays.sig
    return merger.oracle.batch_probabilities(np.bitwise_or(sigs[a_ids], sigs[b_ids]))


def _select(chosen, on_value, off_value):
    """``on_value`` on the ``chosen`` lanes, ``off_value`` elsewhere.

    ``chosen`` is a boolean lane array, or ``True`` for a uniform
    policy's constant mask (then ``on_value`` passes through as is).
    """
    if chosen is True:
        return on_value
    return np.where(chosen, on_value, off_value)


def _bound_sides(merger, nid, others, distance):
    """Per-lane inputs of the batched bounds over the ``(nid, other)`` plans.

    Returns ``(merged_p, sides)``: the batched merged probability and,
    for the a-side (``nid``) then the b-side (the candidates),
    ``(cap, weight, lanes, star)`` -- the child's subtree cap, the new
    edge's switching weight, the policy's ``(chosen, on, off)`` lane
    decisions (:meth:`~repro.cts.dme.CellPolicy.lane_decisions`) and
    the enable-star term ``(c |EN| + C_g) P_tr(EN)`` (0.0 on lanes
    whose edge is not maskable, ``None`` when no lane is).  Every lane
    holds exactly what :func:`_bound_decisions` gives the scalar bound;
    adding a 0.0 star leaves the non-negative running total
    bit-identical, so skipped scalar terms need no separate path.

    ``None`` declines the batch to the scalar scan: the lanes are not
    :func:`_batchable` or the policy has no per-lane form.
    """
    if not _batchable(merger):
        return None
    tech = merger.tech
    c = tech.unit_wire_capacitance
    gate_in = tech.masking_gate.input_cap
    cp = merger.controller_point
    policy = merger.cell_policy
    arrays = merger.node_arrays
    na = merger.tree.node(nid)
    merged_p = _batch_merged_probability(merger, nid, others)
    lanes_a = policy.lane_decisions(
        na.enable_probability, na.subtree_cap, merged_p, distance, tech
    )
    if lanes_a is None:
        return None
    p_b = arrays.enable_p[others]
    cap_b = arrays.cap[others]
    lanes_b = policy.lane_decisions(p_b, cap_b, merged_p, distance, tech)
    star_a = star_b = None
    if lanes_a[1].maskable or lanes_a[2].maskable:
        star_len = cp.manhattan_to(na.merging_segment.center())
        star_a = (c * star_len + gate_in) * na.enable_transition_probability
    if lanes_b[1].maskable or lanes_b[2].maskable:
        star_len = _kernels.batch_star_length(
            cp.x,
            cp.y,
            arrays.ulo[others],
            arrays.uhi[others],
            arrays.vlo[others],
            arrays.vhi[others],
        )
        star_b = (c * star_len + gate_in) * arrays.enable_ptr[others]
    sides = []
    for cap, probability, lanes, star in (
        (na.subtree_cap, na.enable_probability, lanes_a, star_a),
        (cap_b, p_b, lanes_b, star_b),
    ):
        chosen, on, off = lanes
        weight = _select(
            chosen,
            _decision_weight(on, probability, merged_p),
            _decision_weight(off, probability, merged_p),
        )
        if star is not None:
            star = _select(
                chosen, star if on.maskable else 0.0, star if off.maskable else 0.0
            )
        sides.append((cap, weight, lanes, star))
    return merged_p, sides


def _bound_decisions(
    merger: BottomUpMerger, na: ClockNode, nb: ClockNode, distance: LengthUm
) -> Tuple[Optional[Probability], CellDecision, CellDecision]:
    """The merged probability and cell decisions :meth:`plan` would take.

    Everything here is recomputed exactly as the full plan does (the
    cell policy is pure and the oracle memoizes per mask), so a lower
    bound built from these values differs from the true cost only in
    the wire-length split -- which the bound handles with
    ``e_a + e_b >= distance``.
    """
    merged_probability = merger.merged_probability(na, nb)
    decision_a = merger.cell_policy.decide(na, merged_probability, distance, merger.tech)
    decision_b = merger.cell_policy.decide(nb, merged_probability, distance, merger.tech)
    return merged_probability, decision_a, decision_b


def switched_capacitance_cost(plan: MergePlan, merger: BottomUpMerger) -> SwitchedCap:
    """Paper Eq. 3: switched capacitance added by this merge."""
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    cp = merger.controller_point

    total = 0.0
    for child_id, decision, edge_len in (
        (plan.a_id, plan.decision_a, plan.split.length_a),
        (plan.b_id, plan.decision_b, plan.split.length_b),
    ):
        child = merger.tree.node(child_id)
        clock_cap = c * edge_len + child.subtree_cap
        total += a_clk * clock_cap * _edge_weight(decision, child, plan)
        if decision.maskable:
            star_len = cp.manhattan_to(child.merging_segment.center())
            total += (c * star_len + gate_in) * child.enable_transition_probability
    return total


def _eq3_lower_bound(
    merger: BottomUpMerger, na: ClockNode, nb: ClockNode, distance: LengthUm
) -> SwitchedCap:
    """Cheap lower bound of :func:`switched_capacitance_cost`.

    Exact except for the wire split: the subtree-capacitance, gate-pin,
    and enable-star terms depend only on the two children, and the new
    wire contributes at least ``distance`` length (splits cover the
    merging distance; snaking only adds), charged at the smaller of the
    two edge weights.
    """
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    cp = merger.controller_point
    merged_p, decision_a, decision_b = _bound_decisions(merger, na, nb, distance)

    total = 0.0
    weights = []
    for child, decision in ((na, decision_a), (nb, decision_b)):
        weight = _decision_weight(decision, child.enable_probability, merged_p)
        weights.append(weight)
        total += a_clk * child.subtree_cap * weight
        if decision.maskable:
            star_len = cp.manhattan_to(child.merging_segment.center())
            total += (c * star_len + gate_in) * child.enable_transition_probability
    total += a_clk * c * distance * min(weights)
    return total


def _eq3_batch_lower_bound(merger, nid, others, distance):
    """Batched :func:`_eq3_lower_bound` over a candidate id array.

    Mirrors the scalar bound's float chain term for term (same
    association order, ``np.minimum`` for the rounding-free ``min``)
    over the per-lane decisions of :func:`_bound_sides`, so every lane
    is bit-identical to the scalar call -- the pruning decisions, and
    therefore every downstream greedy choice, cannot differ between
    the vectorized and scalar paths.  ``None`` (the scalar scan) when
    :func:`_bound_sides` declines.
    """
    bound = _bound_sides(merger, nid, others, distance)
    if bound is None:
        return None
    merged_p, sides = bound
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle

    total = 0.0
    for cap, weight, _, star in sides:
        total = total + a_clk * cap * weight
        if star is not None:
            total = total + star
    (_, w_a, _, _), (_, w_b, _, _) = sides
    return total + a_clk * c * distance * np.minimum(w_a, w_b)


def _batch_sides(merger, a_ids, b_ids, uniform, merged_p):
    """Per-side quantities for the batched costs, in plan-side order.

    Returns ``((cap, weight, star, ptr), ...)`` for the a-side lanes
    ``a_ids`` then the b-side lanes ``b_ids``, both read from the node
    arrays, so a lane's pair orientation is simply which array holds
    which id.
    """
    cp = merger.controller_point
    arrays = merger.node_arrays
    sides = []
    for ids in (a_ids, b_ids):
        weight = _decision_weight(uniform, arrays.enable_p[ids], merged_p)
        star = ptr = None
        if uniform.maskable:
            star = _kernels.batch_star_length(
                cp.x,
                cp.y,
                arrays.ulo[ids],
                arrays.uhi[ids],
                arrays.vlo[ids],
                arrays.vhi[ids],
            )
            ptr = arrays.enable_ptr[ids]
        sides.append((arrays.cap[ids], weight, star, ptr))
    return sides


def _eq3_batch_cost(merger, a_ids, b_ids, distance, split):
    """Exact batched Eq. 3 costs over the pair lanes ``(a_ids, b_ids)``.

    Called only under the merger's exact kernel screen, whose
    ``batch_cost_ready`` gate (:func:`_uniform_screen_ready`) guarantees
    a uniform cell decision; ``split`` carries the lanes' cell-aware
    batched zero-skew splits, snaked lanes included.  Mirrors
    :func:`switched_capacitance_cost`'s accumulation order term for
    term, so every lane the split models is bit-identical to the scalar
    ``cost(plan(a, b))``; the merger re-plans the rest scalar
    (``kernel_scalar_fallbacks``).
    """
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    uniform = merger.cell_policy.uniform_decision(tech)
    merged_p = _batch_merged_probability(merger, a_ids, b_ids)
    sides = _batch_sides(merger, a_ids, b_ids, uniform, merged_p)

    total = None
    for length, (cap, weight, star, ptr) in zip(
        (split.length_a, split.length_b), sides
    ):
        clock_cap = c * length + cap
        term = a_clk * clock_cap * weight
        total = term if total is None else total + term
        if uniform.maskable:
            total = total + (c * star + gate_in) * ptr
    return total


switched_capacitance_cost.lower_bound = _eq3_lower_bound
switched_capacitance_cost.batch_lower_bound = _eq3_batch_lower_bound
switched_capacitance_cost.batch_cost = _eq3_batch_cost
switched_capacitance_cost.batch_cost_needs_split = True
switched_capacitance_cost.batch_cost_ready = _uniform_screen_ready


def incremental_switched_capacitance_cost(
    plan: MergePlan, merger: BottomUpMerger
) -> SwitchedCap:
    """Count-once variant of Eq. 3 (the default router objective).

    Summed over a whole construction this equals the final
    ``W(T) + W(S)`` up to per-sink constants -- exactly like Eq. 3 --
    but each capacitance is attributed to the merge whose *choice*
    controls it:

    * the two new edge wires, weighted by their enables,
    * the new cells' input pins, which hang at the merge node and
      switch with the merged enable's probability,
    * the two new enable star edges.

    The difference from the literal Eq. 3 is the child subtree
    capacitance ``C_i``: it consists of pins committed by the child's
    *own* creation (where this cost already charged them) and is
    identical for every candidate partner.  Including it per Eq. 3
    biases the greedy toward pairs of "cheap" nodes regardless of the
    wirelength the pairing commits, which inflates the routed tree.

    The merged enable probability -- a per-pair oracle lookup over
    module-mask unions -- is batched through activation signatures
    (:meth:`~repro.activity.probability.ActivityOracle.batch_probabilities`):
    signatures of mask unions are bitwise ORs of the per-node
    signatures, so whole candidate sets resolve their merged
    probabilities in one vectorized call through the same memo the
    scalar path uses.  ``batch_cost`` / ``batch_lower_bound`` below
    build on that.  ``batch_cost`` engages only when
    :func:`_uniform_screen_ready` holds (uniform cell decision,
    signatures fit ``int64``); ``batch_lower_bound`` also takes the
    per-lane decisions of data-dependent policies such as gate
    reduction (:func:`_bound_sides`).
    """
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    cp = merger.controller_point
    merged_p = plan.merged_probability if plan.merged_probability is not None else 1.0

    total = 0.0
    for child_id, decision, edge_len in (
        (plan.a_id, plan.decision_a, plan.split.length_a),
        (plan.b_id, plan.decision_b, plan.split.length_b),
    ):
        child = merger.tree.node(child_id)
        total += a_clk * c * edge_len * _edge_weight(decision, child, plan)
        if decision.cell is not None:
            pin_weight = merged_p if decision.maskable else 1.0
            total += a_clk * decision.cell.input_cap * pin_weight
        if decision.maskable:
            star_len = cp.manhattan_to(child.merging_segment.center())
            total += (c * star_len + gate_in) * child.enable_transition_probability
    return total


incremental_switched_capacitance_cost.needs_merged_probability = True


def _incremental_lower_bound(
    merger: BottomUpMerger, na: ClockNode, nb: ClockNode, distance: LengthUm
) -> SwitchedCap:
    """Cheap lower bound of :func:`incremental_switched_capacitance_cost`.

    The pin and enable-star terms are computed exactly (they need no
    split); the two wire terms are bounded below by the merging
    distance at the smaller edge weight.
    """
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    cp = merger.controller_point
    merged_p, decision_a, decision_b = _bound_decisions(merger, na, nb, distance)
    pin_p = merged_p if merged_p is not None else 1.0

    total = 0.0
    weights = []
    for child, decision in ((na, decision_a), (nb, decision_b)):
        weights.append(
            _decision_weight(decision, child.enable_probability, merged_p)
        )
        if decision.cell is not None:
            pin_weight = pin_p if decision.maskable else 1.0
            total += a_clk * decision.cell.input_cap * pin_weight
        if decision.maskable:
            star_len = cp.manhattan_to(child.merging_segment.center())
            total += (c * star_len + gate_in) * child.enable_transition_probability
    total += a_clk * c * distance * min(weights)
    return total


def _incremental_batch_cost(merger, a_ids, b_ids, distance, split):
    """Exact batched count-once costs over the pair lanes ``(a_ids, b_ids)``.

    The batched mirror of
    :func:`incremental_switched_capacitance_cost`, engaged by the
    merger's exact kernel screen when :func:`_uniform_screen_ready`
    holds.  Accumulation order matches the scalar loop (a-wire, a-pin,
    a-star, b-wire, b-pin, b-star), so every lane the split models,
    snaked or not, is bit-identical to the scalar ``cost(plan(a, b))``.
    """
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    gate_in = tech.masking_gate.input_cap
    uniform = merger.cell_policy.uniform_decision(tech)
    merged_p = _batch_merged_probability(merger, a_ids, b_ids)
    pin_p = merged_p if merged_p is not None else 1.0
    sides = _batch_sides(merger, a_ids, b_ids, uniform, merged_p)

    total = None
    for length, (cap, weight, star, ptr) in zip(
        (split.length_a, split.length_b), sides
    ):
        term = a_clk * c * length * weight
        total = term if total is None else total + term
        if uniform.cell is not None:
            pin_weight = pin_p if uniform.maskable else 1.0
            total = total + a_clk * uniform.cell.input_cap * pin_weight
        if uniform.maskable:
            total = total + (c * star + gate_in) * ptr
    return total


def _incremental_batch_lower_bound(merger, nid, others, distance):
    """Batched :func:`_incremental_lower_bound` over a candidate array.

    Mirrors the scalar bound's float chain term for term (same
    association order, ``np.minimum`` for the rounding-free ``min``)
    over the per-lane decisions and batched merged probabilities of
    :func:`_bound_sides`, so every lane is bit-identical to the scalar
    call and pruning decisions cannot differ between the paths.
    ``None`` (the scalar scan) when :func:`_bound_sides` declines.
    """
    bound = _bound_sides(merger, nid, others, distance)
    if bound is None:
        return None
    merged_p, sides = bound
    tech = merger.tech
    c = tech.unit_wire_capacitance
    a_clk = tech.clock_transitions_per_cycle
    pin_p = merged_p if merged_p is not None else 1.0

    def pin(decision):
        if decision.cell is None:
            return 0.0
        pin_weight = pin_p if decision.maskable else 1.0
        return a_clk * decision.cell.input_cap * pin_weight

    total = 0.0
    for _, _, (chosen, on, off), star in sides:
        total = total + _select(chosen, pin(on), pin(off))
        if star is not None:
            total = total + star
    (_, w_a, _, _), (_, w_b, _, _) = sides
    return total + a_clk * c * distance * np.minimum(w_a, w_b)


incremental_switched_capacitance_cost.lower_bound = _incremental_lower_bound
incremental_switched_capacitance_cost.batch_lower_bound = (
    _incremental_batch_lower_bound
)
incremental_switched_capacitance_cost.batch_cost = _incremental_batch_cost
incremental_switched_capacitance_cost.batch_cost_needs_split = True
incremental_switched_capacitance_cost.batch_cost_ready = _uniform_screen_ready
