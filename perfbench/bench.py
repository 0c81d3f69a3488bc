"""One benchmark run: set up, route, verify, and summarise.

A run with tracing off (``trace=False``) repeats one operation --
build the case, route it through the workload's flow, verify the
network -- until ``seconds`` are spent (at least ``MIN_ROUTES``
times), and reports the end-to-end metrics.  A traced run interleaves
untraced and traced operations in blocks of four (U T T U) and reports
the per-layer metrics of :mod:`layers`, plus ``obs.trace_overhead``:
median traced over median untraced ``route_s`` of the same run.  Only the setup and the flow
call are timed; verification runs outside both.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy

from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer
from repro.tech import date98_technology

from checks import Tally, verify
from layers import LAYER_METRICS, layer_metrics
from workloads import HELD_OUT_SEED, Workload

#: Extra case builds timed before each route, so ``setup_s`` is a
#: median of builds spread over the run even when only two routes fit.
SETUPS_PER_ROUTE = 3

#: Fewest routes per run: two are needed to check that pins repeat.
MIN_ROUTES = 2

#: Scale of the one untimed warm-up route that pays import and
#: first-call costs before anything is measured.
WARMUP_SCALE = 0.05

#: The traced run's layer self times must cover this share of the flow.
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {
    "route_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "switched_cap_pf": "pF",
    "area_mlambda2": "1e6_lambda2",
    "verified_frac": "ratio",
}


@dataclass
class Operation:
    """What one build-route-verify cycle leaves behind.

    Only numbers are kept: holding on to routed trees would let every
    repeat raise ``peak_rss_mb``.
    """

    setup_s: float
    traced: bool
    route_s: Optional[float] = None
    """None when the flow raised."""
    switched_cap_pf: float = 0.0
    area_mlambda2: float = 0.0
    pins: Optional[Dict] = None
    layers: Optional[Dict[str, float]] = None
    """Per-layer metrics; traced operations only."""


def _operation(
    workload: Workload,
    seed: int,
    scale: float,
    traced: bool,
    reference_pins: Optional[Dict],
    tally: Tally,
) -> Operation:
    tech = date98_technology()
    start = time.perf_counter()
    case = workload.make_case(seed, scale)
    op = Operation(setup_s=time.perf_counter() - start, traced=traced)
    tracer = Tracer(enabled=traced)
    registry = MetricsRegistry()
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(registry)
    try:
        try:
            start = time.perf_counter()
            result = workload.route(case, tech)
            op.route_s = time.perf_counter() - start
            op.switched_cap_pf = result.switched_cap.total
            op.area_mlambda2 = result.area.total / 1e6
            op.pins = result.pins()
            reasons = verify(result, case, tech, reference_pins)
        except Exception as exc:  # a flow or check that raises fails the operation
            reasons = ["raised %s: %s" % (type(exc).__name__, exc)]
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)
    if traced and op.route_s is not None:
        op.layers = layer_metrics(tracer.spans, registry, result, _workers(workload))
    tally.record(reasons)
    return op


def _workers(workload: Workload) -> int:
    config = workload.config
    return min(config.get("num_workers", 1), config.get("num_shards", 1))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def fingerprint() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(result, context)``: the result line and what it was measured on."""
    tally = Tally()
    _operation(workload, seed, min(scale, WARMUP_SCALE), False, None, Tally())
    setups: List[float] = []
    ops: List[Operation] = []
    reference: Optional[Dict] = None
    # A traced run goes in blocks of untraced, traced, traced, untraced,
    # so each side runs first equally often.
    block = 4 if trace else 1
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 4 in (1, 2)
        setups.extend(_time_setup(workload, seed, scale) for _ in range(SETUPS_PER_ROUTE))
        op = _operation(workload, seed, scale, traced, reference, tally)
        if reference is None:
            reference = op.pins
        ops.append(op)
        gc.collect()
        elapsed = time.perf_counter() - start
        enough = len(ops) >= MIN_ROUTES and len(ops) % block == 0
        if enough and elapsed * (len(ops) + 1) / len(ops) > seconds:
            break

    routed = [op for op in ops if op.route_s is not None]
    setups.extend(op.setup_s for op in ops)
    correct = tally.failed == 0
    if trace:
        metrics, coverage_ok = _layer_summary(routed)
        correct = correct and coverage_ok
    else:
        metrics = {
            "route_s": _median([op.route_s for op in routed]),
            "setup_s": _median(setups),
            "peak_rss_mb": _peak_rss_mb(),
            "switched_cap_pf": _median([op.switched_cap_pf for op in routed]),
            "area_mlambda2": _median([op.area_mlambda2 for op in routed]),
            "verified_frac": 1.0 - tally.failed_frac,
        }
    units = dict(END_TO_END_UNITS, **{m.name: m.unit for m in LAYER_METRICS})
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    context = {
        "workload": workload.name,
        "why": workload.why,
        "config": workload.config,
        "cli_default": workload.cli_default,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "routes": len(ops),
        "traced_routes": sum(op.traced for op in ops),
        "setups": len(setups),
        "route_s_samples": [op.route_s for op in ops],
        "pins": reference,
        "failures": tally.reasons,
        "machine": fingerprint(),
    }
    workers = workload.config.get("num_workers")
    if workers is not None:
        cpus = os.cpu_count() or 1
        context["parallelism"] = {
            "workers": workers,
            "cpu_count": cpus,
            "note": (
                "workers share %d CPU(s): shard time is not a parallel speedup" % cpus
                if cpus < workers
                else "one CPU per worker"
            ),
        }
    return result, context


def _time_setup(workload: Workload, seed: int, scale: float) -> float:
    start = time.perf_counter()
    workload.make_case(seed, scale)
    return time.perf_counter() - start


def _layer_summary(routed: List[Operation]) -> Tuple[Dict[str, float], bool]:
    """Median per-layer metrics over the traced operations."""
    rows = [op.layers for op in routed if op.layers is not None]
    summary = {
        m.name: _median([row[m.name] for row in rows])
        for m in LAYER_METRICS
        if m.name != "obs.trace_overhead"
    }
    traced_s = _median([op.route_s for op in routed if op.traced])
    untraced_s = _median([op.route_s for op in routed if not op.traced])
    summary["obs.trace_overhead"] = traced_s / untraced_s if untraced_s else 0.0
    coverage_ok = bool(rows) and all(
        row["obs.self_time_coverage"] >= MIN_COVERAGE for row in rows
    )
    return summary, coverage_ok
