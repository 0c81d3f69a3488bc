"""Per-phase memory attribution of the gated routing flow.

Companion to the phase wall-clock bench: routes each benchmark with
the tracemalloc sampler attached, so every phase row carries its peak
heap growth and net allocated blocks alongside the timing.  The rows
(plus the process peak RSS) persist to ``BENCH_memory_profile.json``
at the repo root so memory regressions are attributable to phases the
same way time regressions are.

Two assertions make this a smoke gate rather than a report:

* the sampler must actually attribute memory -- the dominant phase
  (``topology.gated``) has to show a nonzero peak on every benchmark;
* process peak RSS stays under :data:`RSS_CEILING_BYTES`; CI re-checks
  the persisted value so a memory blowup fails the build even if the
  bench itself survived it.

Outputs:

* ``benchmarks/results/memory_profile.txt`` -- phase tables with the
  memory columns (via :func:`repro.analysis.report.format_phase_times`);
* ``BENCH_memory_profile.json`` -- per-phase peaks + peak RSS.
"""

from pathlib import Path

import pytest

from repro.analysis.report import format_phase_times
from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.obs import (
    DME_DETAIL_SPANS,
    MemorySampler,
    RunLedger,
    Tracer,
    load_json,
    peak_rss_bytes,
    phase_profile,
    record_from_trace,
    set_tracer,
    write_bench_json,
    write_json,
)
from repro.obs.jsonio import round_floats

ROOT = Path(__file__).resolve().parent.parent

#: Same benchmark set as the wall-clock profile so the two artifacts
#: stay row-for-row comparable.
BENCHES = ("r1", "r2", "r3", "r4", "r5")

#: Hard cap on process peak RSS after routing all five benchmarks at
#: the CI scale (0.25).  The suite currently peaks well under 400 MiB;
#: 1.5 GiB flags a genuine blowup (leaked trees, unbounded caches)
#: without tripping on allocator noise across platforms.
RSS_CEILING_BYTES = 1_536 * 1024 * 1024


@pytest.mark.benchmark(group="observability")
def test_memory_profile(run_once, tech, scale, record):
    """Route with the memory sampler on; persist per-phase peaks."""

    def measure():
        out = {}
        for name in BENCHES:
            case = load_benchmark(name, scale=scale)
            tracer = Tracer(enabled=True)
            sampler = MemorySampler()
            tracer.set_sampler(sampler)
            sampler.start()
            previous = set_tracer(tracer)
            try:
                route_gated(
                    case.sinks,
                    tech,
                    case.oracle,
                    die=case.die,
                    candidate_limit=16,
                )
            finally:
                set_tracer(previous)
                sampler.stop()
            out[name] = (len(case.sinks), tracer.spans)
        return out

    traced = run_once(measure)
    rss_peak = peak_rss_bytes()

    rows = []
    tables = []
    for name, (num_sinks, spans) in traced.items():
        profile = phase_profile(
            spans,
            root_name="flow.route_gated",
            detail_names=DME_DETAIL_SPANS,
        )
        assert profile.has_memory, "sampler attached but no memory attrs"
        peaks = {
            row.name: row.mem_peak_bytes
            for row in profile.rows
            if row.mem_peak_bytes is not None
        }
        assert peaks.get("topology.gated", 0) > 0, (
            "the dominant phase of %s shows no heap growth; the "
            "sampler is not attributing memory" % name
        )
        rows.append(
            {
                "benchmark": name,
                "sinks": num_sinks,
                **profile.as_dict(),
            }
        )
        tables.append(
            format_phase_times(
                profile,
                title="Memory profile: %s (N=%d)" % (name, num_sinks),
            )
        )

    assert rss_peak < RSS_CEILING_BYTES, (
        "peak RSS %.1f MiB exceeds the %.0f MiB ceiling"
        % (rss_peak / 2**20, RSS_CEILING_BYTES / 2**20)
    )

    payload = {
        "candidate_limit": 16,
        "rss_peak_bytes": rss_peak,
        "rss_ceiling_bytes": RSS_CEILING_BYTES,
        "rows": rows,
    }
    write_bench_json(
        ROOT / "BENCH_memory_profile.json", "memory_profile", payload
    )
    record("memory_profile", "\n\n".join(tables))


#: Generous in-bench ceiling for the traced-vs-ledgered root-span
#: ratio: the true overhead is ~0 by construction (see below), so the
#: margin only absorbs scheduler noise on a ~50 ms span.
OVERHEAD_CEILING = 1.05

#: Routes per side.  The two sides alternate in T L L T blocks, so a
#: drift in machine speed over the probe lands on both sides alike.
OVERHEAD_ROUNDS = 60


@pytest.mark.benchmark(group="observability")
def test_ledger_overhead(run_once, tech, scale, tmp_path):
    """Ledger recording must not tax the flow it records.

    A :class:`~repro.obs.ledger.RunRecord` is assembled *after* the
    ``flow.route_gated`` root span closed, and the memory hooks on
    ``Span.__enter__``/``__exit__`` collapse to one attribute check
    when no sampler is attached -- so the root span of a ledgered run
    must time the same as a plainly traced one.  Measured as a
    min-of-N ratio on r1 and persisted into the memory-profile
    artifact (the acceptance bar is <= 2%; the asserted ceiling adds
    noise margin).
    """
    case = load_benchmark("r1", scale=scale)
    ledger = RunLedger(tmp_path / "ledger")

    def _root_ns(with_ledger):
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            result = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                candidate_limit=16,
            )
        finally:
            set_tracer(previous)
        (root,) = [s for s in tracer.spans if s.name == "flow.route_gated"]
        if with_ledger:
            ledger.save(
                record_from_trace(
                    kind="bench",
                    label="overhead:r1",
                    config={"benchmark": "r1", "candidate_limit": 16},
                    tracer=tracer,
                    pins=result.pins(),
                    root_name="flow.route_gated",
                )
            )
        return root.duration_ns

    def measure():
        traced, ledgered = [], []
        for _ in range(OVERHEAD_ROUNDS // 2):
            traced.append(_root_ns(False))
            ledgered.append(_root_ns(True))
            ledgered.append(_root_ns(True))
            traced.append(_root_ns(False))
        return min(traced), min(ledgered)

    traced_ns, ledgered_ns = run_once(measure)
    ratio = ledgered_ns / max(traced_ns, 1)
    assert ratio <= OVERHEAD_CEILING, (
        "ledger recording inflated the r1 root span %.1f%% (ceiling %.0f%%)"
        % (100 * (ratio - 1), 100 * (OVERHEAD_CEILING - 1))
    )

    # Extend the memory-profile artifact written by test_memory_profile
    # (definition order runs it first; a standalone run starts fresh).
    path = ROOT / "BENCH_memory_profile.json"
    try:
        payload = load_json(path)
    except OSError:
        payload = {}
    payload["ledger_overhead"] = {
        "benchmark": "r1",
        "rounds": OVERHEAD_ROUNDS,
        "order": "T L L T",
        "root_ns_traced": traced_ns,
        "root_ns_ledgered": ledgered_ns,
        "ratio": ratio,
        "ceiling": OVERHEAD_CEILING,
    }
    write_json(path, round_floats(payload))
