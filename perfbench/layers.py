"""Per-layer metrics of one traced operation.

Times are span self times (a span's duration minus the part its child
spans cover), summed per span name under the flow's root span.  Counts
come from the :mod:`repro.obs` metrics registry the flow publishes
into.  In the sharded workload the worker tracers are disabled by
design, so there the ``dme.*`` times read 0 and the ``dme.*`` counts
are the workers' registries folded into the parent's.

``LAYER_METRICS`` names, for each metric, its layer, the end-to-end
metric it should move and the workloads where it should move it (and
stay quiet), so a later claim of a layer gain can be checked against
both.  A metric of a layer a workload never runs reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence

from repro.core.flow import ClockRoutingResult
from repro.obs import MetricsRegistry, SpanRecord

ROOT_SPANS = ("flow.route_gated", "flow.route_sharded")

#: The oracle memo that maps module masks to activation signatures;
#: every other memo caches a probability.
SIGNATURE_MEMO = "activation_signature"


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    on: str
    quiet_on: str = ""


_ALL_BUT_SHARDED = "default-r5, reduced-exact-r2, gated-refine-r3"
_ALL = "all"

LAYER_METRICS: List[LayerMetric] = [
    LayerMetric("dme.init_best_s", "s", "lower", "repro.cts.dme", "route_s", _ALL_BUT_SHARDED),
    LayerMetric("dme.merge_loop_s", "s", "lower", "repro.cts.dme", "route_s", _ALL_BUT_SHARDED),
    LayerMetric("dme.embed_s", "s", "lower", "repro.cts.dme", "route_s", _ALL_BUT_SHARDED),
    LayerMetric("dme.heap_pops", "count", "lower", "repro.cts.dme", "route_s",
                "default-r5, gated-refine-r3"),
    LayerMetric("dme.stale_ratio", "ratio", "lower", "repro.cts.dme", "route_s",
                "default-r5, gated-refine-r3"),
    LayerMetric("dme.plans_computed", "count", "lower", "repro.cts.dme", "route_s", _ALL),
    LayerMetric("dme.plans_per_merge", "ratio", "lower", "repro.cts.dme", "route_s", _ALL),
    LayerMetric("dme.plan_cache_hit_ratio", "ratio", "higher", "repro.cts.dme", "route_s",
                _ALL),
    LayerMetric("dme.pruned_probes", "count", "higher", "repro.core.cost", "route_s",
                "reduced-exact-r2, default-r5", "gated-refine-r3"),
    LayerMetric("dme.pruned_share", "ratio", "higher", "repro.core.cost", "route_s",
                "reduced-exact-r2, default-r5", "gated-refine-r3"),
    LayerMetric("dme.orphan_recomputes", "count", "lower", "repro.cts.dme", "route_s",
                "k=16 workloads", "reduced-exact-r2"),
    LayerMetric("dme.repair_recomputes", "count", "lower", "repro.cts.dme", "route_s",
                "reduced-exact-r2", "k=16 workloads"),
    LayerMetric("dme.kernel_batches", "count", "lower", "repro.cts.kernels", "route_s",
                "gated-refine-r3, sharded-synth10k", "reduced workloads"),
    LayerMetric("dme.kernel_lanes_per_batch", "ratio", "higher", "repro.cts.kernels",
                "route_s", "gated-refine-r3, sharded-synth10k", "reduced workloads"),
    LayerMetric("dme.kernel_scalar_fallbacks", "count", "lower", "repro.cts.kernels",
                "route_s", "gated-refine-r3, sharded-synth10k", "reduced workloads"),
    LayerMetric("dme.index.queries", "count", "lower", "repro.cts.candidate_index",
                "route_s", "k=16 workloads", "reduced-exact-r2"),
    LayerMetric("dme.index.cells_per_query", "ratio", "lower", "repro.cts.candidate_index",
                "route_s", "k=16 workloads", "reduced-exact-r2"),
    LayerMetric("oracle.signature_hit_ratio", "ratio", "higher",
                "repro.activity.probability", "route_s", "reduced-exact-r2",
                "gated-refine-r3"),
    LayerMetric("oracle.probability_hit_ratio", "ratio", "higher",
                "repro.activity.probability", "route_s", "reduced-exact-r2",
                "gated-refine-r3"),
    LayerMetric("oracle.misses", "count", "lower", "repro.activity.probability",
                "route_s", "reduced-exact-r2", "gated-refine-r3"),
    LayerMetric("controller.star_s", "s", "lower", "repro.core.controller", "route_s",
                "sharded-synth10k, gated-refine-r3", "default-r5"),
    LayerMetric("controller.gates", "count", "lower", "repro.core.controller",
                "route_s, switched_cap_pf", "sharded-synth10k, gated-refine-r3",
                "default-r5"),
    LayerMetric("flow.measure_s", "s", "lower", "repro.core.switched_cap, repro.rc",
                "route_s", "sharded-synth10k"),
    LayerMetric("refine.anneal_s", "s", "lower", "repro.cts.refine", "route_s",
                "gated-refine-r3", "all others (0)"),
    LayerMetric("refine.moves_proposed", "count", "higher", "repro.cts.refine",
                "route_s, switched_cap_pf", "gated-refine-r3", "all others (0)"),
    LayerMetric("refine.accept_ratio", "ratio", "higher", "repro.cts.refine",
                "switched_cap_pf", "gated-refine-r3", "all others (0)"),
    LayerMetric("refine.reembeds", "count", "lower", "repro.cts.refine", "route_s",
                "gated-refine-r3", "all others (0)"),
    LayerMetric("refine.improvement_frac", "ratio", "higher", "repro.cts.refine",
                "switched_cap_pf", "gated-refine-r3", "all others (0)"),
    LayerMetric("shard.partition_s", "s", "lower", "repro.cts.sharded", "route_s",
                "sharded-synth10k", "all others (0)"),
    LayerMetric("shard.route_s", "s", "lower", "repro.cts.sharded", "route_s",
                "sharded-synth10k", "all others (0)"),
    LayerMetric("shard.stitch_s", "s", "lower", "repro.cts.sharded", "route_s",
                "sharded-synth10k", "all others (0)"),
    LayerMetric("shard.imbalance", "ratio", "lower", "repro.cts.sharded", "route_s",
                "sharded-synth10k", "all others (0)"),
    LayerMetric("shard.parallel_efficiency", "ratio", "higher", "repro.cts.sharded",
                "route_s", "sharded-synth10k", "all others (0)"),
    LayerMetric("check.audit_s", "s", "lower", "repro.check.auditor", "verified_frac",
                _ALL),
    LayerMetric("check.audit_findings", "count", "lower", "repro.check.auditor",
                "verified_frac", _ALL),
    LayerMetric("sim.replay_s", "s", "lower", "repro.sim.cycle", "verified_frac", _ALL),
    LayerMetric("sim.cycles_per_s", "1/s", "higher", "repro.sim.cycle", "verified_frac", _ALL),
    LayerMetric("obs.self_time_coverage", "ratio", "higher", "repro.obs", "none",
                _ALL),
    LayerMetric("obs.trace_overhead", "ratio", "lower", "repro.obs",
                "none; should stay near 1", _ALL),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_times(spans: Sequence[SpanRecord]):
    """``(root, self_s, total_s)`` of one traced operation.

    ``self_s`` sums self times per name over the spans under the flow
    root; ``total_s`` sums whole durations per name over every span.
    """
    children_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent_id is not None:
            children_ns[span.parent_id] += span.duration_ns
    roots = [s for s in spans if s.parent_id is None and s.name in ROOT_SPANS]
    if len(roots) != 1:
        raise ValueError("expected one flow root span, found %d" % len(roots))
    root = roots[0]
    under = {root.span_id}
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    # Spans finish child-first, so walk them newest first: a parent is
    # always seen before its children.
    for span in reversed(spans):
        total_s[span.name] += span.duration_ns / 1e9
        if span.parent_id in under:
            under.add(span.span_id)
            self_s[span.name] += (span.duration_ns - children_ns[span.span_id]) / 1e9
    return root, self_s, total_s


def layer_metrics(
    spans: Sequence[SpanRecord],
    registry: MetricsRegistry,
    result: ClockRoutingResult,
    workers: int,
) -> Dict[str, float]:
    """Every entry of ``LAYER_METRICS`` except ``obs.trace_overhead``."""
    root, self_s, total_s = span_times(spans)
    metrics = registry.as_dict()

    def value(name: str) -> float:
        entry = metrics.get(name)
        return entry["value"] or 0 if entry else 0

    def histogram(name: str, field: str) -> float:
        entry = metrics.get(name)
        return entry[field] or 0.0 if entry else 0.0

    memos = {
        name.split(".")[1]
        for name in metrics
        if name.startswith("oracle.") and name.endswith(".hits")
    }
    hits = {m: value("oracle.%s.hits" % m) for m in memos}
    misses = {m: value("oracle.%s.misses" % m) for m in memos}
    prob_memos = memos - {SIGNATURE_MEMO}
    prob_hits = sum(hits[m] for m in prob_memos)
    prob_misses = sum(misses[m] for m in prob_memos)

    plans = value("dme.plans_computed")
    proposed = value("refine.moves_proposed")
    improvement = value("refine.improvement")
    shard_route_s = total_s.get("shard.route", 0.0)
    audit_spans = [s for s in spans if s.name == "check.audit"]
    sim_spans = [s for s in spans if s.name == "sim.check"]
    sim_s = total_s.get("sim.check", 0.0)
    return {
        "dme.init_best_s": self_s.get("dme.init_best", 0.0),
        "dme.merge_loop_s": self_s.get("dme.merge_loop", 0.0),
        "dme.embed_s": self_s.get("dme.embed", 0.0),
        "dme.heap_pops": value("dme.heap_pops"),
        "dme.stale_ratio": _ratio(value("dme.stale_entries"), value("dme.heap_pops")),
        "dme.plans_computed": plans,
        "dme.plans_per_merge": _ratio(plans, result.num_sinks - 1),
        "dme.plan_cache_hit_ratio": _ratio(
            value("dme.plan_cache_hits"), value("dme.plan_cache_hits") + plans
        ),
        "dme.pruned_probes": value("dme.pruned_probes"),
        "dme.pruned_share": _ratio(value("dme.pruned_probes"), value("dme.cost_probes")),
        "dme.orphan_recomputes": value("dme.orphan_recomputes"),
        "dme.repair_recomputes": value("dme.repair_recomputes"),
        "dme.kernel_batches": value("dme.kernel_batches"),
        "dme.kernel_lanes_per_batch": _ratio(
            value("dme.kernel_candidates"), value("dme.kernel_batches")
        ),
        "dme.kernel_scalar_fallbacks": value("dme.kernel_scalar_fallbacks"),
        "dme.index.queries": value("dme.index.queries"),
        "dme.index.cells_per_query": _ratio(
            value("dme.index.cells_scanned"), value("dme.index.queries")
        ),
        "oracle.signature_hit_ratio": _ratio(
            hits.get(SIGNATURE_MEMO, 0),
            hits.get(SIGNATURE_MEMO, 0) + misses.get(SIGNATURE_MEMO, 0),
        ),
        "oracle.probability_hit_ratio": _ratio(prob_hits, prob_hits + prob_misses),
        "oracle.misses": sum(misses.values()),
        "controller.star_s": self_s.get("controller.star", 0.0),
        "controller.gates": result.gate_count,
        "flow.measure_s": self_s.get("flow.measure", 0.0),
        "refine.anneal_s": self_s.get("refine.anneal", 0.0),
        "refine.moves_proposed": proposed,
        "refine.accept_ratio": _ratio(value("refine.moves_accepted"), proposed),
        "refine.reembeds": value("refine.reembeds"),
        # The annealer returns its best tree, so the greedy tree's W is
        # the final W plus the improvement.
        "refine.improvement_frac": _ratio(
            improvement, result.switched_cap.total + improvement
        ),
        "shard.partition_s": self_s.get("shard.partition", 0.0),
        "shard.route_s": self_s.get("shard.route", 0.0),
        "shard.stitch_s": self_s.get("shard.stitch", 0.0),
        "shard.imbalance": _ratio(
            histogram("shard.route_seconds", "max"),
            histogram("shard.route_seconds", "mean"),
        ),
        "shard.parallel_efficiency": _ratio(
            histogram("shard.route_seconds", "sum"), workers * shard_route_s
        ),
        "check.audit_s": total_s.get("check.audit", 0.0),
        "check.audit_findings": sum(s.attrs.get("findings", 0) for s in audit_spans),
        "sim.replay_s": sim_s,
        "sim.cycles_per_s": _ratio(sum(s.attrs["cycles"] for s in sim_spans), sim_s),
        "obs.self_time_coverage": _ratio(sum(self_s.values()), root.duration_ns / 1e9),
    }
