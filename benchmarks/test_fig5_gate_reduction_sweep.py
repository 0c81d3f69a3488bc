"""Fig. 5: gate reduction vs switched capacitance and area (r1).

Sweeping the reduction knob trades the controller tree (shrinks with
every removed gate) against the clock tree (loses masking).  The paper
reports a U-shaped total with an interior optimum; the area chart
shows the controller-tree area falling while the clock tree's holds.
"""

import pytest

from benchmarks.conftest import CANDIDATE_LIMIT
from repro.analysis.report import format_table
from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy

KNOBS = (0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0)


@pytest.mark.benchmark(group="fig5")
def test_fig5_gate_reduction_sweep(run_once, scale, tech, record):
    case = load_benchmark("r1", scale=scale)

    def sweep():
        rows = []
        for knob in KNOBS:
            result = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                candidate_limit=CANDIDATE_LIMIT,
                reduction=GateReductionPolicy.from_knob(knob, tech),
            )
            rows.append(result)
        return rows

    results = run_once(sweep)
    record(
        "fig5_gate_reduction_sweep",
        format_table(
            [
                "knob",
                "reduction %",
                "W total",
                "W clock",
                "W ctrl",
                "area clock wire (1e6)",
                "area ctrl wire (1e6)",
                "gates",
            ],
            [
                [
                    knob,
                    100 * r.gate_reduction,
                    r.switched_cap.total,
                    r.switched_cap.clock_tree,
                    r.switched_cap.controller_tree,
                    r.area.clock_wire / 1e6,
                    r.area.controller_wire / 1e6,
                    r.gate_count,
                ]
                for knob, r in zip(KNOBS, results)
            ],
            title="Fig. 5: gate reduction sweep (r1, scale=%.2f)" % scale,
        ),
    )

    reductions = [r.gate_reduction for r in results]
    totals = [r.switched_cap.total for r in results]
    ctrl = [r.switched_cap.controller_tree for r in results]

    # Achieved reduction grows monotonically with the knob.
    assert reductions == sorted(reductions)
    # Controller switched cap falls monotonically with reduction.
    assert all(a >= b - 1e-9 for a, b in zip(ctrl, ctrl[1:]))
    # Interior optimum: some reduced point beats both the fully gated
    # tree and the most aggressive reduction isn't necessarily best.
    best = min(range(len(totals)), key=totals.__getitem__)
    assert best != 0
    assert totals[best] < totals[0]
