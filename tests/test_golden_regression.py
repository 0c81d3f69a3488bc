"""Golden-value regression pins for the deterministic flows.

Everything in the library is seeded and deterministic, so the exact
numbers below must reproduce bit-for-bit (up to float round-off) on
every run.  If an intentional algorithm change moves them, update the
constants *together with* a DESIGN.md note -- these pins exist to make
silent behavioural drift impossible.
"""

import pytest

from repro.bench.suite import load_benchmark
from repro.core.flow import route_buffered, route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.tech import date98_technology

SCALE = 0.2
LIMIT = 16


@pytest.fixture(scope="module")
def case():
    return load_benchmark("r1", scale=SCALE)


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


class TestGoldenValues:
    def test_benchmark_characteristics(self, case):
        row = case.characteristics()
        assert row["sinks"] == 53
        assert row["instructions"] == 16
        assert row["ave_modules_per_instruction"] == pytest.approx(
            0.3855509433962264, rel=1e-12
        )

    def test_buffered(self, case, tech):
        result = route_buffered(case.sinks, tech, candidate_limit=LIMIT)
        assert result.switched_cap.total == pytest.approx(107.03052704972016, rel=1e-9)
        assert result.wirelength == pytest.approx(241169.05338345797, rel=1e-9)
        assert result.gate_count == 0

    def test_gated(self, case, tech):
        result = route_gated(
            case.sinks, tech, case.oracle, die=case.die, candidate_limit=LIMIT
        )
        assert result.switched_cap.total == pytest.approx(110.90293651513682, rel=1e-9)
        assert result.wirelength == pytest.approx(300316.80312397203, rel=1e-9)
        assert result.gate_count == 104

    def test_reduced(self, case, tech):
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=LIMIT,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
        )
        assert result.switched_cap.total == pytest.approx(76.05020907296637, rel=1e-9)
        assert result.wirelength == pytest.approx(297962.54462896206, rel=1e-9)
        assert result.gate_count == 19

    def test_paper_ordering_at_this_pin(self, case, tech):
        # The pinned numbers themselves encode the Fig. 3 shape.
        assert 76.05 < 107.04 < 110.91


@pytest.mark.usefixtures("scalar_merger")
class TestVectorizeParity:
    """The NumPy kernel screens reproduce the pins bit-for-bit.

    The class above runs the kernel-screened merger; these runs swap in
    the scalar reference merger and must land on the *same* constants
    -- so a kernel/scalar divergence trips the golden pins from either
    side.
    """

    def test_buffered_scalar_path_matches_pin(self, case, tech):
        result = route_buffered(case.sinks, tech, candidate_limit=LIMIT)
        assert result.switched_cap.total == pytest.approx(107.03052704972016, rel=1e-9)
        assert result.wirelength == pytest.approx(241169.05338345797, rel=1e-9)

    def test_gated_scalar_path_matches_pin(self, case, tech):
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=LIMIT,
        )
        assert result.switched_cap.total == pytest.approx(110.90293651513682, rel=1e-9)
        assert result.wirelength == pytest.approx(300316.80312397203, rel=1e-9)
        assert result.gate_count == 104
