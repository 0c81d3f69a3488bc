"""Scaling of sharded routing vs. the single-process gated flow.

The acceptance bar: at scale with 8 workers the sharded flow must run
>= 2x faster end-to-end than the single-process gated flow, the
stitched tree must pass the full network audit with zero findings,
and the switched-capacitance premium of sharding (the top tree is
stitched along the partition's cut tree instead of greedily) must
stay small.  On a single-core host the 2x bar binds at N=100k, where
the greedy's superlinear per-merge cost dominates; in the mid range
the two arms share the same flat per-merge cost and the honest
single-core expectation is neutrality (see the floor tiers below).

Sizes come from ``REPRO_SHARD_BENCH_SINKS`` (comma list) so CI smokes
a sub-second size while the committed curve is regenerated at full
scale out-of-band::

    REPRO_SHARD_BENCH_SINKS=10000,30000,100000 \
    REPRO_SHARD_BENCH_WORKERS=8 \
    pytest benchmarks/test_dme_sharded.py --benchmark-only

Inputs are seeded synthetic workloads (:mod:`repro.bench.synthetic`),
so nothing at sharding scale is committed.  Note the host truth is
recorded in the payload (``cpu_count``): on a single-core runner the
speedup is purely algorithmic -- K shards of N/K sinks side-step the
greedy's superlinear growth -- and worker processes add real
parallelism on top wherever cores exist.

Outputs: ``benchmarks/results/dme_sharded.txt`` and
``BENCH_dme_sharded.json`` at the repo root (CI floor-checked).
"""

import os
from pathlib import Path

import pytest

from repro.analysis.report import format_table
from repro.bench.synthetic import generate_synthetic_case
from repro.check.auditor import audit_network
from repro.core.flow import route_gated, route_sharded
from repro.obs import Tracer, set_tracer, write_bench_json

ROOT = Path(__file__).resolve().parent.parent

#: Comma list of sink counts; the tiny default keeps tier-1/CI fast.
SIZES = tuple(
    int(s)
    for s in os.environ.get("REPRO_SHARD_BENCH_SINKS", "800").split(",")
    if s.strip()
)

#: Worker processes for the sharded arm (8 for the committed curve).
#: The smoke default routes shards inline: at sub-second sizes the
#: pool's fork+pickle cost exceeds the work it parallelises.
WORKERS = int(os.environ.get("REPRO_SHARD_BENCH_WORKERS", "1"))

#: Shards are sized toward this many sinks each (but never fewer than
#: eight shards, so the smoke size still exercises a real cut tree).
TARGET_SHARD_SINKS = 1500

#: Smoke floor: sharding must already win at the CI size, where the
#: shards are tiny relative to the greedy's frontier.
SPEEDUP_FLOOR = 1.05
SPEEDUP_FLOOR_AT = 800

#: Above this the smoke floor gives way to a neutrality guard: on a
#: single-core host the mid range (~10k-30k) is bounded by the flat
#: per-merge cost, identical in both arms, so the honest expectation
#: is "no pathological slowdown" (measured 0.95-1.4x), not a win.
MID_FLOOR = 0.75
MID_FLOOR_AT = 4000

#: The acceptance floor at scale: where the single-process greedy's
#: superlinear per-merge cost dominates, sharding must at least halve
#: the wall clock even with zero worker parallelism (cpu_count == 1;
#: with real cores the parallel term moves this bar far left).
FULL_SPEEDUP_FLOOR = 2.0
FULL_SPEEDUP_FLOOR_AT = 100000

#: Ceiling on the stitch's switched-capacitance premium.
CAP_RATIO_CEILING = 1.15

CANDIDATE_LIMIT = 16
SEED = 2


def _speedup_kind(cpu_count, workers: int) -> str:
    """``"parallel"`` only where worker processes can run at once.

    With fewer than two CPUs (or one worker) the shards run one after
    another, so the speedup is purely algorithmic: K greedy runs over
    N/K sinks instead of one over N.
    """
    if min(cpu_count or 1, workers) < 2:
        return "algorithmic"
    return "parallel"


def _num_shards(n: int) -> int:
    return max(8, round(n / TARGET_SHARD_SINKS))


def _span_seconds(tracer: Tracer, name: str) -> float:
    (span,) = [s for s in tracer.spans if s.name == name]
    return span.duration_ns / 1e9


def _route_arm(case, tech, sharded: bool, num_shards: int):
    """One end-to-end route under a private tracer; fresh oracle per
    arm so LRU memos never leak work across measurements."""
    oracle = case.oracle()
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        if sharded:
            result = route_sharded(
                case.sinks,
                tech,
                oracle,
                die=case.die,
                num_shards=num_shards,
                num_workers=WORKERS,
                candidate_limit=CANDIDATE_LIMIT,
            )
        else:
            result = route_gated(
                case.sinks,
                tech,
                oracle,
                die=case.die,
                candidate_limit=CANDIDATE_LIMIT,
            )
    finally:
        set_tracer(previous)
    name = "flow.route_sharded" if sharded else "flow.route_gated"
    return result, _span_seconds(tracer, name)


@pytest.mark.benchmark(group="sharded")
def test_sharded_scaling(run_once, tech, record):
    """Sharded vs single-process full flow at every configured size."""

    speedup_kind = _speedup_kind(os.cpu_count(), WORKERS)

    def measure():
        rows = []
        for n in SIZES:
            case = generate_synthetic_case(n, seed=SEED)
            k = _num_shards(n)
            single_r, single_t = _route_arm(case, tech, sharded=False, num_shards=k)
            sharded_r, sharded_t = _route_arm(case, tech, sharded=True, num_shards=k)
            report = audit_network(sharded_r.tree, routing=sharded_r.routing)
            assert report.ok, report.summary()
            rows.append(
                {
                    "sinks": n,
                    "shards": k,
                    "workers": WORKERS,
                    "seconds_single": single_t,
                    "seconds_sharded": sharded_t,
                    "speedup": single_t / max(sharded_t, 1e-9),
                    "speedup_kind": speedup_kind,
                    "switched_cap_single": single_r.switched_cap.total,
                    "switched_cap_sharded": sharded_r.switched_cap.total,
                    "cap_ratio": sharded_r.switched_cap.total
                    / single_r.switched_cap.total,
                    "skew_sharded": sharded_r.skew,
                    "audit_findings": len(report.findings),
                }
            )
        return rows

    rows = run_once(measure)

    payload = {
        "span_single": "flow.route_gated",
        "span_sharded": "flow.route_sharded",
        "candidate_limit": CANDIDATE_LIMIT,
        "seed": SEED,
        "target_shard_sinks": TARGET_SHARD_SINKS,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "sizes": list(SIZES),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_at": SPEEDUP_FLOOR_AT,
        "mid_floor": MID_FLOOR,
        "mid_floor_at": MID_FLOOR_AT,
        "full_speedup_floor": FULL_SPEEDUP_FLOOR,
        "full_speedup_floor_at": FULL_SPEEDUP_FLOOR_AT,
        "cap_ratio_ceiling": CAP_RATIO_CEILING,
        "rows": rows,
    }
    write_bench_json(ROOT / "BENCH_dme_sharded.json", "dme_sharded", payload)

    record(
        "dme_sharded",
        format_table(
            [
                "N",
                "K",
                "W",
                "s (single)",
                "s (sharded)",
                "speedup",
                "kind",
                "cap ratio",
            ],
            [
                [
                    r["sinks"],
                    r["shards"],
                    r["workers"],
                    r["seconds_single"],
                    r["seconds_sharded"],
                    r["speedup"],
                    r["speedup_kind"],
                    r["cap_ratio"],
                ]
                for r in rows
            ],
            title="Sharded routing scaling (partition -> worker pool -> "
            "exact zero-skew stitch)",
        ),
    )

    for r in rows:
        assert r["audit_findings"] == 0
        assert r["cap_ratio"] <= CAP_RATIO_CEILING, (
            "switched-cap premium of sharding above ceiling at N=%d: %.3f"
            % (r["sinks"], r["cap_ratio"])
        )
        if r["sinks"] >= FULL_SPEEDUP_FLOOR_AT:
            floor = FULL_SPEEDUP_FLOOR
        elif r["sinks"] >= MID_FLOOR_AT:
            floor = MID_FLOOR
        elif r["sinks"] >= SPEEDUP_FLOOR_AT:
            floor = SPEEDUP_FLOOR
        else:
            continue
        assert r["speedup"] >= floor, (
            "sharded flow must be >= %gx faster at N=%d (got %.2fx)"
            % (floor, r["sinks"], r["speedup"])
        )
