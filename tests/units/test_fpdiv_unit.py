"""Unit tests for the pipelined FP divider core and its datapath."""

import pytest

from repro.fabric.netlist import adder_datapath, divider_datapath
from repro.fabric.synthesis import sweep_stages, synthesize
from repro.fp.format import FP32, FP64, PAPER_FORMATS
from repro.fp.value import FPValue
from repro.units import PipelinedFPDivider


class TestDividerDatapath:
    @pytest.mark.parametrize("fmt", PAPER_FORMATS, ids=lambda f: f.name)
    def test_chain_well_formed(self, fmt):
        dp = divider_datapath(fmt)
        assert dp.quanta
        assert dp.total_delay_ns > 0
        assert dp.mult18 == 0

    def test_divider_dwarfs_adder_in_area(self):
        """The recurrence array grows quadratically: dividers are the
        area outlier of 2004-era FP libraries."""
        for fmt in PAPER_FORMATS:
            div = divider_datapath(fmt)
            add = adder_datapath(fmt)
            assert div.comb_slices > 2 * add.comb_slices

    def test_divider_pipelines_much_deeper(self):
        dp = divider_datapath(FP64)
        assert dp.natural_max_stages > 50  # one row per quotient bit

    def test_double_divider_reaches_200mhz_deep(self):
        best = max(r.clock_mhz for r in sweep_stages(divider_datapath(FP64)))
        assert best > 200.0

    def test_200mhz_needs_deep_pipeline(self):
        """Consistent with the Quixilica divider's very deep pipelines."""
        reports = sweep_stages(divider_datapath(FP64))
        reaching = [r.stages for r in reports if r.clock_mhz >= 200.0]
        assert min(reaching) > 20


class TestPipelinedDivider:
    def test_report_attached(self):
        u = PipelinedFPDivider(FP32, stages=20)
        assert u.report.stages == 20
        assert u.latency == 20
        assert u.slices > 0 and u.clock_mhz > 0

    def test_invalid_stages(self):
        with pytest.raises(ValueError):
            PipelinedFPDivider(FP32, stages=0)

    def test_compute(self):
        u = PipelinedFPDivider(FP32, stages=10)
        a = FPValue.from_float(FP32, 7.5).bits
        b = FPValue.from_float(FP32, 2.5).bits
        bits, flags = u.compute(a, b)
        assert FPValue(FP32, bits).to_float() == 3.0
        assert not flags.any_exception

    def test_timed_latency(self):
        u = PipelinedFPDivider(FP32, stages=6)
        a = FPValue.from_float(FP32, 1.0).bits
        b = FPValue.from_float(FP32, 4.0).bits
        u.step(a, b)
        for cycle in range(1, 7):
            result, done = u.step()
            assert done == (cycle == 6)
        bits, _ = result
        assert FPValue(FP32, bits).to_float() == 0.25

    def test_partial_issue_rejected(self):
        u = PipelinedFPDivider(FP32, stages=3)
        with pytest.raises(ValueError):
            u.step(1, None)

    def test_synthesize_divider_point(self):
        r = synthesize(divider_datapath(FP32), 25)
        assert r.unit == "fpdiv_fp32"
        assert r.flipflops > 0


class TestSqrtDatapath:
    def test_chain_well_formed(self):
        from repro.fabric.netlist import sqrt_datapath

        for fmt in PAPER_FORMATS:
            dp = sqrt_datapath(fmt)
            assert dp.quanta
            assert dp.mult18 == 0
            assert dp.comb_slices > adder_datapath(fmt).comb_slices

    def test_deep_pipelining_reaches_200mhz(self):
        from repro.fabric.netlist import sqrt_datapath

        best = max(r.clock_mhz for r in sweep_stages(sqrt_datapath(FP64)))
        assert best > 200.0
