"""Fault-injection matrix: every perturbation -> typed error, never a
traceback; benign perturbations route cleanly and audit clean."""

import pytest

from repro.check.faults import (
    ERROR_EXIT_CODE,
    FAULTS,
    cli_argv,
    run_fault,
    write_baseline,
)

@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return write_baseline(tmp_path_factory.mktemp("baseline"))


_FILE_FAULTS = [f for f in FAULTS if f.kind in ("sinks", "isa", "trace")]
_TREE_FAULTS = [f for f in FAULTS if f.kind == "tree"]


@pytest.mark.parametrize("merger", ["vec", "scalar"])
@pytest.mark.parametrize("fault", _FILE_FAULTS, ids=lambda f: f.name)
def test_route_fault(fault, merger, baseline, tmp_path, capsys, request):
    if merger == "scalar":
        # The CLI routes through the kernel-screened merger only; the
        # scalar reference merger is reached through the test seam.
        request.getfixturevalue("scalar_merger")
    outcome = run_fault(fault, baseline, tmp_path)
    assert outcome.ok, (outcome.problems, outcome.unhandled)
    err = capsys.readouterr().err
    if fault.expect == "error":
        assert outcome.exit_code == ERROR_EXIT_CODE
        # One-line diagnostic on stderr, naming the error type.
        assert "gated-cts:" in err
        assert "Error" in err
        assert "Traceback" not in err
    else:
        assert outcome.exit_code == 0
        assert "Traceback" not in err


@pytest.mark.parametrize("fault", _TREE_FAULTS, ids=lambda f: f.name)
def test_audit_fault(fault, baseline, tmp_path, capsys):
    outcome = run_fault(fault, baseline, tmp_path)
    assert outcome.ok, (outcome.problems, outcome.unhandled)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if fault.expect == "findings":
        # The audit itself succeeded; the corruption is reported as
        # structured findings, not an input error.
        assert "finding" in captured.out


def test_missing_sink_file_exits_2(baseline, capsys):
    from repro.cli import main

    code = main(
        [
            "route",
            "--sinks", "/nonexistent/sinks.txt",
            "--isa", baseline["isa"],
            "--instr-trace", baseline["trace"],
        ]
    )
    assert code == ERROR_EXIT_CODE
    err = capsys.readouterr().err
    assert "gated-cts:" in err and "nonexistent" in err


def test_missing_tree_file_exits_2(capsys):
    from repro.cli import main

    code = main(["audit", "--tree", "/nonexistent/tree.json"])
    assert code == ERROR_EXIT_CODE


def test_debug_log_level_reraises(baseline, tmp_path):
    from repro.check.errors import InputError
    from repro.check.faults import apply_fault, fault_by_name
    from repro.cli import main

    fault = fault_by_name("nan_coordinate")
    paths = apply_fault(fault, baseline, tmp_path)
    with pytest.raises(InputError):
        main(cli_argv(fault, paths) + ["--log-level", "debug"])


def test_every_fault_has_an_expectation():
    assert {f.expect for f in FAULTS} <= {"error", "findings", "ok"}
    names = [f.name for f in FAULTS]
    assert len(names) == len(set(names))


def test_valid_baseline_routes_identically_with_audit(baseline, capsys):
    # The audit hook must observe, never perturb: summaries match.
    from repro.cli import main

    argv = [
        "route",
        "--sinks", baseline["sinks"],
        "--isa", baseline["isa"],
        "--instr-trace", baseline["trace"],
        "--method", "gated",
    ]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--audit"]) == 0
    audited = capsys.readouterr().out
    assert "audit: clean" in audited
    assert plain.strip().splitlines()[-1] in audited
