"""The benchmark's four workloads: how each builds its case and routes it.

Every workload goes through a public flow of :mod:`repro.core.flow`
(``route_gated`` or ``route_sharded``).  The sink placement and the
CPU model (ISA, clusters, Markov chain) are each case's canonical
ones; the workload seed re-samples the instruction trace the activity
oracle is built from -- the paper's notion of a workload.  Seed 0
reproduces the repo's canonical trace; any other seed is handed to
:meth:`repro.bench.cpu_model.CpuModel.stream` unchanged.

Re-seeding the placement as well would make the routed network, and
so W and area, differ far more between seeds than between code
versions: across ten full re-seeds r2's area spreads by 40% of its
median.

``scale`` shrinks the case for smoke tests; the benchmark itself
always runs at ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence

from repro.activity.isa import InstructionSet
from repro.activity.probability import ActivityOracle
from repro.activity.stream import InstructionStream
from repro.activity.tables import ActivityTables
from repro.bench.cpu_model import CpuModel, CpuModelConfig
from repro.bench.suite import load_benchmark
from repro.bench.synthetic import (
    MAX_MODULES,
    NUM_INSTRUCTIONS,
    generate_synthetic_case,
)
from repro.core.controller import Die
from repro.core.flow import ClockRoutingResult, route_gated, route_sharded
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts.refine import RefineConfig
from repro.cts.topology import Sink
from repro.tech.parameters import Technology

#: The held-out seed every later performance claim also reports.
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Case:
    """One generated input: sinks plus the workload that drives them."""

    sinks: Sequence[Sink]
    die: Die
    oracle: ActivityOracle
    isa: InstructionSet
    stream: InstructionStream


def _with_trace(sinks, die, cpu: CpuModel, length: int, seed: int) -> Case:
    """The case driven by ``cpu``'s trace number ``seed`` (0 = canonical)."""
    stream = cpu.stream(length, seed=seed or None)
    oracle = ActivityOracle(ActivityTables.from_stream(cpu.isa, stream))
    return Case(sinks, die, oracle, cpu.isa, stream)


def _r_case(benchmark: str) -> Callable[[int, float], Case]:
    def make_case(seed: int, scale: float) -> Case:
        case = load_benchmark(benchmark, scale=scale)
        return _with_trace(case.sinks, case.die, case.cpu, len(case.stream), seed)

    return make_case


def _synthetic_case(num_sinks: int) -> Callable[[int, float], Case]:
    def make_case(seed: int, scale: float) -> Case:
        n = max(64, round(num_sinks * scale))
        case = generate_synthetic_case(n)
        # The CPU model generate_synthetic_case draws internally (its
        # defaults, seed 0); the smoke test checks that trace 0 of this
        # model is the case's own trace.
        cpu = CpuModel(
            CpuModelConfig(
                num_modules=min(n, MAX_MODULES),
                num_instructions=NUM_INSTRUCTIONS,
                target_activity=0.4,
                locality=0.55,
                seed=0,
            )
        )
        return _with_trace(case.sinks, case.die, cpu, len(case.stream), seed)

    return make_case


@dataclass(frozen=True)
class Workload:
    """A named case generator plus the exact flow call that routes it."""

    name: str
    why: str
    config: Dict[str, Any]
    """Every setting of the flow call, recorded with each result."""
    cli_default: bool
    """True only where ``config`` is what ``gated-cts route`` runs by default."""
    make_case: Callable[[int, float], Case]
    """``make_case(seed, scale)`` builds the input: sinks plus oracle."""

    def route(self, case: Case, tech: Technology) -> ClockRoutingResult:
        config = self.config
        reduction = (
            GateReductionPolicy.from_knob(config["knob"], tech)
            if config["method"] == "reduced"
            else None
        )
        refine = config.get("refine")
        kwargs: Dict[str, Any] = dict(
            die=case.die,
            reduction=reduction,
            candidate_limit=config["candidate_limit"],
            refine=RefineConfig(**refine) if refine else None,
        )
        if config["flow"] == "route_sharded":
            return route_sharded(
                case.sinks,
                tech,
                case.oracle,
                num_shards=config["num_shards"],
                num_workers=config["num_workers"],
                **kwargs,
            )
        return route_gated(
            case.sinks,
            tech,
            case.oracle,
            reduction_mode=config["reduction_mode"],
            **kwargs,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="default-r5",
            why="the CLI default (gate-reduced in merge mode, knob 0.5, k=16) "
            "at the paper's largest benchmark, r5",
            config={
                "flow": "route_gated",
                "case": "r5",
                "method": "reduced",
                "knob": 0.5,
                "reduction_mode": "merge",
                "candidate_limit": 16,
                "refine": None,
            },
            cli_default=True,
            make_case=_r_case("r5"),
        ),
        Workload(
            name="reduced-exact-r2",
            why="the headline gate-reduced router with exact greedy: "
            "bound screen and pruned scalar scan, no spatial index, busy oracle",
            config={
                "flow": "route_gated",
                "case": "r2",
                "method": "reduced",
                "knob": 0.5,
                "reduction_mode": "merge",
                "candidate_limit": None,
                "refine": None,
            },
            cli_default=False,
            make_case=_r_case("r2"),
        ),
        Workload(
            name="gated-refine-r3",
            why="gate on every edge with k=16 plus 200 annealing moves: "
            "snaked kernel fallbacks, a 1.7k-gate star and the refine pass",
            config={
                "flow": "route_gated",
                "case": "r3",
                "method": "gated",
                "reduction_mode": "merge",
                "candidate_limit": 16,
                "refine": {"moves": 200, "seed": 1},
            },
            cli_default=False,
            make_case=_r_case("r3"),
        ),
        Workload(
            name="sharded-synth10k",
            why="a 10k-sink synthetic case routed as 4 shards on 2 worker "
            "processes and stitched at exact zero skew",
            config={
                "flow": "route_sharded",
                "case": "synthetic-10000",
                "method": "gated",
                "candidate_limit": 16,
                "num_shards": 4,
                "num_workers": 2,
                "refine": None,
            },
            cli_default=False,
            make_case=_synthetic_case(10000),
        ),
    )
}

