"""Greedy merge vs. annealing refinement across the r1-r5 corpus.

The acceptance bar for the ``--refine`` post-pass: at a fixed move
budget and seed the refined tree must never switch more capacitance
than the greedy one (the keep-best clone makes regression impossible
by construction -- this re-checks it end to end through the flow), and
it must *strictly* improve on at least ``IMPROVED_FLOOR`` of the five
benchmarks.  Every refined network must also pass the full audit with
exact zero skew.

Each row also records its real scale, the refiner's ``reembeds``
counter (accepted tree moves that were re-embedded) and the wall time
of the refinement pass alone: the minimum of ``REFINE_REPEATS``
:func:`~repro.cts.refine_tree` runs over the greedy tree.  The payload
carries the host fingerprint and CPU count the times were taken on.

The move budget comes from ``REPRO_REFINE_BENCH_MOVES`` (default 200,
the CLI default) so the committed numbers can be regenerated at a
larger budget out-of-band::

    REPRO_REFINE_BENCH_MOVES=1000 \
    pytest benchmarks/test_refine.py --benchmark-only

Outputs: ``benchmarks/results/refine.txt`` and ``BENCH_refine.json``
at the repo root (CI floor-checked).
"""

import os
import time
from pathlib import Path

import pytest

from repro.analysis.report import format_table
from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.core.controller import ControllerLayout, Die
from repro.core.flow import route_gated
from repro.cts import RefineConfig, refine_tree
from repro.obs import environment_fingerprint, write_bench_json

ROOT = Path(__file__).resolve().parent.parent

BENCHES = ("r1", "r2", "r3", "r4", "r5")

#: Fixed annealing budget of the committed numbers (the CLI default).
MOVES = int(os.environ.get("REPRO_REFINE_BENCH_MOVES", "200"))

SEED = 1

CANDIDATE_LIMIT = 16

#: On at least this many of the five benchmarks the refined tree must
#: switch strictly less capacitance than the greedy one.
IMPROVED_FLOOR = 3

#: The refine wall time of a row is the minimum over this many runs.
REFINE_REPEATS = 3


def _time_refine(greedy, case, tech, config):
    """Min-of-``REFINE_REPEATS`` wall time of the pass, and its result."""
    die = case.die or Die.bounding([s.location for s in case.sinks])
    layout = ControllerLayout.centralized(die)
    times = []
    for _ in range(REFINE_REPEATS):
        start = time.perf_counter()
        _, _, result = refine_tree(greedy.tree, tech, case.oracle, layout, config)
        times.append(time.perf_counter() - start)
    return min(times), result


@pytest.mark.benchmark(group="refine")
def test_refine_vs_greedy(run_once, scale, tech, record):
    """Route every benchmark greedily, refine, compare Eq. 3 totals."""

    def measure():
        rows = []
        for bench in BENCHES:
            case = load_benchmark(bench, scale=scale)
            greedy = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                candidate_limit=CANDIDATE_LIMIT,
            )
            config = RefineConfig(moves=MOVES, seed=SEED)
            refined = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                candidate_limit=CANDIDATE_LIMIT,
                refine=config,
            )
            refine_s, result = _time_refine(greedy, case, tech, config)
            report = audit_network(refined.tree, routing=refined.routing)
            assert report.ok, report.summary()
            rows.append(
                {
                    "bench": bench,
                    "scale": scale,
                    "sinks": case.num_sinks,
                    "moves": MOVES,
                    "seed": SEED,
                    "switched_cap_greedy": greedy.switched_cap.total,
                    "switched_cap_refined": refined.switched_cap.total,
                    "improvement_pct": 100.0
                    * (1.0 - refined.switched_cap.total / greedy.switched_cap.total),
                    "gates_greedy": greedy.gate_count,
                    "gates_refined": refined.gate_count,
                    "skew_refined": refined.skew,
                    "audit_findings": len(report.findings),
                    "reembeds": result.reembeds,
                    "refine_s": refine_s,
                }
            )
        return rows

    rows = run_once(measure)

    improved = sum(
        1 for r in rows if r["switched_cap_refined"] < r["switched_cap_greedy"]
    )
    payload = {
        "moves": MOVES,
        "seed": SEED,
        "candidate_limit": CANDIDATE_LIMIT,
        "scale": scale,
        "improved_floor": IMPROVED_FLOOR,
        "improved": improved,
        "refine_repeats": REFINE_REPEATS,
        "cpu_count": os.cpu_count(),
        "environment": environment_fingerprint(),
        "rows": rows,
    }
    write_bench_json(ROOT / "BENCH_refine.json", "refine", payload)

    record(
        "refine",
        format_table(
            [
                "bench",
                "sinks",
                "W greedy (pF)",
                "W refined (pF)",
                "impr %",
                "gates",
                "reembeds",
                "refine s",
            ],
            [
                [
                    r["bench"],
                    r["sinks"],
                    r["switched_cap_greedy"],
                    r["switched_cap_refined"],
                    r["improvement_pct"],
                    "%d -> %d" % (r["gates_greedy"], r["gates_refined"]),
                    r["reembeds"],
                    r["refine_s"],
                ]
                for r in rows
            ],
            title="Annealing refinement vs greedy merge "
            "(%d moves, seed %d, scale %g, refine s = min of %d)"
            % (MOVES, SEED, scale, REFINE_REPEATS),
        ),
    )

    for r in rows:
        assert r["audit_findings"] == 0
        assert r["switched_cap_refined"] <= r["switched_cap_greedy"], (
            "refinement regressed %s: %.6g -> %.6g"
            % (r["bench"], r["switched_cap_greedy"], r["switched_cap_refined"])
        )
    assert improved >= IMPROVED_FLOOR, (
        "refinement must strictly improve >= %d of %d benchmarks (got %d)"
        % (IMPROVED_FLOOR, len(BENCHES), improved)
    )
