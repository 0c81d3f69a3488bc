"""Speedup of the vectorized kernel screens over the scalar merger.

The ISSUE 3 acceptance bar: with the default cost (nearest neighbour)
and no cells, the ``dme.merge`` span must run >= 2x faster with
``vectorize=True`` than with ``vectorize=False`` at N >= 256 -- and the
``merge_trace`` must be byte-identical between the two modes on every
sink set, because the kernels mirror the scalar float arithmetic
exactly.

Outputs:

* ``benchmarks/results/dme_vectorize.txt`` -- the wall-clock table
  (also reproduced in EXPERIMENTS.md);
* ``BENCH_dme_vectorize.json`` at the repo root -- span timings, the
  speedups, and the kernel counters per size.
"""

import functools
from pathlib import Path

import pytest

from repro.analysis.report import format_table
from repro.bench.cpu_model import CpuModel, CpuModelConfig
from repro.bench.sinks import SinkGenerator
from repro.core import gated_routing
from repro.core.flow import route_gated
from repro.cts import BottomUpMerger
from repro.core.gate_reduction import GateReductionPolicy
from repro.obs import (
    MetricsRegistry,
    Tracer,
    load_json,
    set_registry,
    set_tracer,
    write_bench_json,
    write_json,
)
from repro.obs.jsonio import round_floats

ROOT = Path(__file__).resolve().parent.parent
SIZES = (128, 256, 512)

#: The acceptance threshold only binds where batching has enough lanes
#: to amortize the per-batch overhead.
SPEEDUP_FLOOR = 2.0
SPEEDUP_FLOOR_AT = 256

#: Full-flow sizes (r3..r5 scale; multiplied by REPRO_BENCH_SCALE).
FLOW_SIZES = (1024, 2048, 3101)

#: Flow-level floor: at full scale every FLOW_SIZES row clears 5x
#: comfortably (see EXPERIMENTS.md); the CI smoke runs at scale 0.25
#: (effective N = 256/512/775), where 3x at N >= 512 leaves margin.
FLOW_SPEEDUP_FLOOR = 3.0
FLOW_SPEEDUP_FLOOR_AT = 512


def _sinks(n):
    return SinkGenerator(num_sinks=n, seed=2).generate()


def _merge_span_seconds(sinks, tech, vectorize):
    """One merger run under a private tracer; returns (merger, seconds).

    Timing the ``dme.merge`` span (rather than ``run()`` wall-clock)
    scopes the measurement to exactly the phase the kernels accelerate.
    """
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        merger = BottomUpMerger(sinks, tech, vectorize=vectorize)
        merger.run()
    finally:
        set_tracer(previous)
    (span,) = [s for s in tracer.spans if s.name == "dme.merge"]
    assert span.attrs["vectorize"] is vectorize
    return merger, span.duration_ns / 1e9


@pytest.mark.benchmark(group="vectorize")
def test_vectorize_speedup(run_once, tech, record):
    """>= 2x faster merges at N >= 256, identical traces everywhere."""

    def measure():
        rows = []
        for n in SIZES:
            sinks = _sinks(n)
            scalar_m, scalar_t = _merge_span_seconds(sinks, tech, vectorize=False)
            vector_m, vector_t = _merge_span_seconds(sinks, tech, vectorize=True)
            # Bit-exact parity before any timing is trusted.
            assert vector_m.merge_trace == scalar_m.merge_trace
            assert (
                vector_m.tree.total_wirelength()
                == scalar_m.tree.total_wirelength()
            )
            assert vector_m._exact_screen
            assert vector_m.stats.kernel_batches > 0
            rows.append(
                {
                    "sinks": n,
                    "seconds_scalar": scalar_t,
                    "seconds_vectorized": vector_t,
                    "speedup": scalar_t / max(vector_t, 1e-9),
                    "plans_scalar": scalar_m.stats.plans_computed,
                    "plans_vectorized": vector_m.stats.plans_computed,
                    "kernel_batches": vector_m.stats.kernel_batches,
                    "kernel_candidates": vector_m.stats.kernel_candidates,
                    "kernel_scalar_fallbacks": (
                        vector_m.stats.kernel_scalar_fallbacks
                    ),
                    "distance_reuses": vector_m.stats.distance_reuses,
                }
            )
        return rows

    rows = run_once(measure)

    payload = {
        "cost": "nearest_neighbor_cost",
        "cell_policy": "NoCellPolicy",
        "span": "dme.merge",
        "sizes": list(SIZES),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_at": SPEEDUP_FLOOR_AT,
        "rows": rows,
    }
    write_bench_json(ROOT / "BENCH_dme_vectorize.json", "dme_vectorize", payload)

    record(
        "dme_vectorize",
        format_table(
            [
                "N",
                "s (scalar)",
                "s (vectorized)",
                "speedup",
                "plans (scalar)",
                "plans (vec)",
                "batches",
                "lanes",
            ],
            [
                [
                    r["sinks"],
                    r["seconds_scalar"],
                    r["seconds_vectorized"],
                    r["speedup"],
                    r["plans_scalar"],
                    r["plans_vectorized"],
                    r["kernel_batches"],
                    r["kernel_candidates"],
                ]
                for r in rows
            ],
            title="DME vectorized kernel screens (NN cost, no cells, "
            "dme.merge span)",
        ),
    )

    for r in rows:
        if r["sinks"] >= SPEEDUP_FLOOR_AT:
            assert r["speedup"] >= SPEEDUP_FLOOR, (
                "vectorize must be >= %gx faster at N=%d (got %.2fx)"
                % (SPEEDUP_FLOOR, r["sinks"], r["speedup"])
            )


def _flow_seconds(sinks, die, tech, n, vectorize, **flow_kwargs):
    """One full gated route under a private tracer and registry.

    Times the ``flow.route_gated`` root span -- the end-to-end number
    the topology.gated bottleneck used to dominate.  A fresh oracle per
    mode keeps the LRU memos from leaking work across modes.  The flow
    has one engine; the scalar side is the merger-level reference,
    swapped in under the gated tree builder.  Returns the result, the
    root span's seconds and the published ``dme.*`` counters.
    """
    cpu = CpuModel(CpuModelConfig(num_modules=n, num_instructions=24, seed=3))
    oracle = cpu.oracle(1500)
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    previous = set_tracer(tracer)
    previous_registry = set_registry(registry)
    try:
        with pytest.MonkeyPatch.context() as patch:
            if not vectorize:
                patch.setattr(
                    gated_routing,
                    "BottomUpMerger",
                    functools.partial(BottomUpMerger, vectorize=False),
                )
            result = route_gated(sinks, tech, oracle, die=die, **flow_kwargs)
    finally:
        set_tracer(previous)
        set_registry(previous_registry)
    (root,) = [s for s in tracer.spans if s.name == "flow.route_gated"]
    counters = {
        name: registry.counter("dme." + name).value
        for name in ("plans_computed", "kernel_scalar_fallbacks")
    }
    return result, root.duration_ns / 1e9, counters


@pytest.mark.benchmark(group="vectorize")
def test_flow_vectorize_speedup(run_once, tech, scale, record):
    """Full-flow (root span) speedup of the end-to-end screens.

    Exact greedy (no candidate limit) with the default incremental
    cost: the configuration whose O(N^2) scalar init scan made
    ``topology.gated`` the dominant flow phase.
    """

    def measure():
        rows = []
        for size in FLOW_SIZES:
            n = max(64, int(round(size * scale)))
            generator = SinkGenerator(num_sinks=n, seed=2)
            sinks, die = generator.generate(), generator.die()
            vector_r, vector_t, _ = _flow_seconds(sinks, die, tech, n, True)
            scalar_r, scalar_t, _ = _flow_seconds(sinks, die, tech, n, False)
            # The screens are decision-neutral end to end.
            assert vector_r.wirelength == scalar_r.wirelength
            assert vector_r.switched_cap.total == scalar_r.switched_cap.total
            assert vector_r.gate_count == scalar_r.gate_count
            rows.append(
                {
                    "sinks": n,
                    "seconds_scalar": scalar_t,
                    "seconds_vectorized": vector_t,
                    "speedup": scalar_t / max(vector_t, 1e-9),
                }
            )
        return rows

    rows = run_once(measure)

    # Extend the merge-span bench's payload rather than clobbering it
    # (definition order runs test_vectorize_speedup first; a standalone
    # run extends the committed file).
    path = ROOT / "BENCH_dme_vectorize.json"
    payload = load_json(path)
    payload["flow"] = {
        "cost": "incremental_switched_capacitance_cost",
        "span": "flow.route_gated",
        "sizes": list(FLOW_SIZES),
        "speedup_floor": FLOW_SPEEDUP_FLOOR,
        "speedup_floor_at": FLOW_SPEEDUP_FLOOR_AT,
        "rows": rows,
    }
    # The base payload already carries the schema key; re-rounding is
    # idempotent on it and normalizes the freshly added flow section.
    write_json(path, round_floats(payload))

    record(
        "dme_vectorize_flow",
        format_table(
            ["N", "s (scalar)", "s (vectorized)", "speedup"],
            [
                [
                    r["sinks"],
                    r["seconds_scalar"],
                    r["seconds_vectorized"],
                    r["speedup"],
                ]
                for r in rows
            ],
            title="Gated flow end-to-end (incremental cost, exact greedy, "
            "flow.route_gated span)",
        ),
    )

    for r in rows:
        if r["sinks"] >= FLOW_SPEEDUP_FLOOR_AT:
            assert r["speedup"] >= FLOW_SPEEDUP_FLOOR, (
                "full-flow vectorize must be >= %gx faster at N=%d "
                "(got %.2fx)"
                % (FLOW_SPEEDUP_FLOOR, r["sinks"], r["speedup"])
            )


#: The CLI default candidate limit; the k=16 rows below are recorded
#: only (no floor), so the default configuration's numbers are on file.
FLOW_K = 16


@pytest.mark.benchmark(group="vectorize")
def test_flow_k16_configurations(run_once, tech, scale, record):
    """Gated and gate-reduced flows at the CLI default k=16, recorded.

    The k=16 gated flow runs the exact pair-lane screen; the reduced
    (merge mode, knob 0.5) flow runs the bound screen.  Each row keeps
    both merges' plan counts and the vectorized run's scalar
    fallbacks, next to the two root-span times.
    """

    def measure():
        rows = []
        for size in FLOW_SIZES:
            n = max(64, int(round(size * scale)))
            generator = SinkGenerator(num_sinks=n, seed=2)
            sinks, die = generator.generate(), generator.die()
            for label, reduction in (
                ("gated", None),
                ("reduced", GateReductionPolicy.from_knob(0.5, tech)),
            ):
                kwargs = dict(candidate_limit=FLOW_K, reduction=reduction)
                vector_r, vector_t, vector_c = _flow_seconds(
                    sinks, die, tech, n, True, **kwargs
                )
                scalar_r, scalar_t, scalar_c = _flow_seconds(
                    sinks, die, tech, n, False, **kwargs
                )
                assert vector_r.wirelength == scalar_r.wirelength
                assert (
                    vector_r.switched_cap.total == scalar_r.switched_cap.total
                )
                rows.append(
                    {
                        "config": label,
                        "sinks": n,
                        "seconds_scalar": scalar_t,
                        "seconds_vectorized": vector_t,
                        "speedup": scalar_t / max(vector_t, 1e-9),
                        "plans_scalar": scalar_c["plans_computed"],
                        "plans_vectorized": vector_c["plans_computed"],
                        "kernel_scalar_fallbacks": (
                            vector_c["kernel_scalar_fallbacks"]
                        ),
                    }
                )
        return rows

    rows = run_once(measure)

    path = ROOT / "BENCH_dme_vectorize.json"
    payload = load_json(path)
    payload["flow_k16"] = {
        "candidate_limit": FLOW_K,
        "cost": "incremental_switched_capacitance_cost",
        "reduced": "GateReductionPolicy.from_knob(0.5), merge mode",
        "span": "flow.route_gated",
        "sizes": list(FLOW_SIZES),
        "rows": rows,
    }
    write_json(path, round_floats(payload))

    record(
        "dme_vectorize_flow_k16",
        format_table(
            [
                "config",
                "N",
                "s (scalar)",
                "s (vectorized)",
                "speedup",
                "plans (scalar)",
                "plans (vec)",
                "fallbacks",
            ],
            [
                [
                    r["config"],
                    r["sinks"],
                    r["seconds_scalar"],
                    r["seconds_vectorized"],
                    r["speedup"],
                    r["plans_scalar"],
                    r["plans_vectorized"],
                    r["kernel_scalar_fallbacks"],
                ]
                for r in rows
            ],
            title="Gated and gate-reduced flows at k=16 (incremental cost, "
            "flow.route_gated span; recorded, no floor)",
        ),
    )
