"""Verification of every routed network, outside the timed region.

An operation is one flow call.  It fails when the flow raises, when
:func:`repro.check.auditor.audit_network` reports a finding, when the
cycle-by-cycle replay of the case's instruction trace disagrees with
the analytic W, or when its pins differ from those of the run's first
operation (every operation of a run routes the same seed, so they
must agree byte for byte).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.activity.stream import InstructionStream
from repro.check.auditor import audit_network
from repro.check.tolerance import relatively_close
from repro.core.flow import ClockRoutingResult
from repro.obs import get_tracer
from repro.sim import ClockNetworkSimulator
from repro.tech.parameters import Technology

from workloads import Case

#: Cycles per simulator call (see :func:`replay_mean_w`).
REPLAY_CHUNK = 256


def verify(
    result: ClockRoutingResult,
    case: Case,
    tech: Technology,
    reference_pins: Optional[Dict],
) -> List[str]:
    """Reasons ``result`` is wrong; empty when every check passes.

    The benchmark's own ``check.audit`` and ``sim.check`` spans wrap
    the two verifying layers, so a traced run attributes their time.
    """
    reasons: List[str] = []
    tracer = get_tracer()
    with tracer.span("check.audit") as span:
        report = audit_network(result.tree, routing=result.routing)
        span.set(findings=len(report.findings))
    reasons.extend("audit: %s" % finding for finding in report.findings)
    with tracer.span("sim.check", cycles=len(case.stream)):
        replayed = replay_mean_w(
            ClockNetworkSimulator(result.tree, tech, case.isa, routing=result.routing),
            case.stream,
        )
    if not relatively_close(replayed, result.switched_cap.total):
        reasons.append(
            "sim: replayed W %r != analytic W %r"
            % (replayed, result.switched_cap.total)
        )
    if reference_pins is not None and result.pins() != reference_pins:
        reasons.append("pins: differ from the run's first route")
    return reasons


def replay_mean_w(simulator: ClockNetworkSimulator, stream: InstructionStream) -> float:
    """The replayed mean W of ``stream``, ``REPLAY_CHUNK`` cycles at a time.

    One replay call holds an enables x cycles matrix; at 20k gates and
    10k cycles that is gigabytes, which would swamp ``peak_rss_mb``.
    Each chunk after the first starts one cycle early, so the enable
    transition into its first cycle is still counted.
    """
    ids = stream.ids
    clock = controller = 0.0
    for start in range(0, len(ids), REPLAY_CHUNK):
        lo = max(start - 1, 0)
        part = simulator.run(InstructionStream(ids=ids[lo : start + REPLAY_CHUNK]))
        clock += float(part.clock_per_cycle[start - lo :].sum())
        controller += float(part.controller_per_cycle[1:].sum())
    transitions = len(ids) - 1
    return clock / len(ids) + (controller / transitions if transitions else 0.0)


class Tally:
    """Operations attempted and failed, with the first reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, reasons: List[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons[:3])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
