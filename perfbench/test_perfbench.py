"""Smoke tests of the benchmark itself, at reduced scale.

Run from the repository root with::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from checks import Tally, verify
from layers import LAYER_METRICS
from repro.bench.suite import load_benchmark
from repro.bench.synthetic import generate_synthetic_case
from repro.tech import date98_technology
from workloads import HELD_OUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SCALE = 0.05


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke(request):
    """One untraced and one traced smoke run of every workload."""
    workload = WORKLOADS[request.param]
    return {
        trace: bench.run(workload, 0, 0.0, trace, scale=SCALE) for trace in (False, True)
    }


def _units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


class TestSmoke:
    def test_end_to_end_metrics_emitted_with_units(self, smoke):
        result, _ = smoke[False]
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert _units(result["metrics"]) == expected
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["verified_frac"]["value"] == 1.0

    def test_per_layer_metrics_emitted_with_units(self, smoke):
        result, context = smoke[True]
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert _units(result["metrics"]) == expected
        assert result["correct"], context["failures"]
        assert result["metrics"]["obs.self_time_coverage"]["value"] >= bench.MIN_COVERAGE
        assert context["traced_routes"] >= 1

    def test_context_labels_the_configuration(self, smoke):
        _, context = smoke[False]
        assert context["cli_default"] == (context["workload"] == "default-r5")
        assert {"cpu_count", "python", "numpy"} <= set(context["machine"])
        assert context["config"] == WORKLOADS[context["workload"]].config
        assert context["routes"] >= bench.MIN_ROUTES
        if "num_workers" in context["config"]:
            assert context["parallelism"]["workers"] == context["config"]["num_workers"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_is_deterministic_and_reaches_the_inputs(name):
    workload = WORKLOADS[name]
    tech = date98_technology()

    def pins(seed):
        return workload.route(workload.make_case(seed, SCALE), tech).pins()

    first = pins(0)
    assert pins(0) == first
    assert pins(HELD_OUT_SEED)["switched_cap_total"] != first["switched_cap_total"]


def test_seed_zero_is_the_canonical_trace():
    case = WORKLOADS["default-r5"].make_case(0, SCALE)
    canonical = load_benchmark("r5", scale=SCALE)
    assert (case.stream.ids == canonical.stream.ids).all()
    case = WORKLOADS["sharded-synth10k"].make_case(0, SCALE)
    canonical = generate_synthetic_case(len(case.sinks))
    assert (case.stream.ids == canonical.stream.ids).all()


def test_planted_failure_is_counted():
    workload = WORKLOADS["default-r5"]
    tech = date98_technology()
    case = workload.make_case(0, SCALE)
    result = workload.route(case, tech)
    tally = Tally()
    tally.record(verify(result, case, tech, result.pins()))
    assert tally.failed == 0

    node = next(n for n in result.tree.nodes() if n.edge_length > 0)
    node.edge_length *= 1.5
    reasons = verify(result, case, tech, None)
    tally.record(reasons)
    assert any(r.startswith("audit:") for r in reasons)
    assert tally.attempted == 2 and tally.failed == 1 and tally.failed_frac == 0.5


def test_changed_pins_are_a_failure():
    workload = WORKLOADS["default-r5"]
    tech = date98_technology()
    case = workload.make_case(0, SCALE)
    result = workload.route(case, tech)
    reference = dict(result.pins(), wirelength=0.0)
    assert verify(result, case, tech, reference) == [
        "pins: differ from the run's first route"
    ]


def test_benchmark_json_matches_the_code():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]
    readme = (HERE / "README.md").read_text()
    for m in LAYER_METRICS:
        row = "| `%s` | %s | %s | `%s` | %s | %s | %s |" % (
            m.name, m.unit, m.better, m.layer, m.moves, m.on, m.quiet_on or "—"
        )
        assert row in readme, row


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-r5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
