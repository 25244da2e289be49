"""Unit tests for the pipeline-depth design-space explorer."""

import pytest

from repro.fp.format import FP32, FP64, PAPER_FORMATS
from repro.fp.ops import OP_ARITY, OP_TABLE
from repro.fp.value import FPValue
from repro.units import (
    PipelinedFPAdder,
    PipelinedFPDivider,
    PipelinedFPMultiplier,
    PipelinedFPSqrt,
)
from repro.units.explorer import (
    KINDS_BY_NAME,
    MIN_STAGES_ADDER,
    MIN_STAGES_MULTIPLIER,
    UnitKind,
    explore,
)

CORES = (PipelinedFPAdder, PipelinedFPMultiplier, PipelinedFPDivider, PipelinedFPSqrt)


class TestDesignSpace:
    def test_sweep_is_dense(self):
        space = explore(FP32, UnitKind.ADDER)
        stages = [r.stages for r in space.reports]
        assert stages == list(range(1, len(stages) + 1))

    def test_at_lookup(self):
        space = explore(FP32, UnitKind.ADDER)
        assert space.at(5).stages == 5
        with pytest.raises(KeyError):
            space.at(10_000)

    def test_minimum_uses_architectural_floor(self):
        assert explore(FP32, UnitKind.ADDER).minimum.stages == MIN_STAGES_ADDER
        assert (
            explore(FP32, UnitKind.MULTIPLIER).minimum.stages
            == MIN_STAGES_MULTIPLIER
        )

    def test_optimal_maximizes_freq_per_area(self):
        space = explore(FP64, UnitKind.ADDER)
        opt = space.optimal.report
        assert opt.freq_per_area == pytest.approx(
            max(r.freq_per_area for r in space.reports)
        )

    def test_maximum_is_first_peak_clock(self):
        space = explore(FP64, UnitKind.MULTIPLIER)
        mx = space.maximum.report
        peak = space.peak_clock_mhz
        assert mx.clock_mhz == pytest.approx(peak)
        # no shallower implementation reaches the peak
        for r in space.reports:
            if r.stages < mx.stages:
                assert r.clock_mhz < peak - 1e-9

    def test_ordering_min_le_opt_le_max_freq(self):
        for fmt in PAPER_FORMATS:
            for kind in (UnitKind.ADDER, UnitKind.MULTIPLIER):
                space = explore(fmt, kind)
                assert (
                    space.minimum.report.clock_mhz
                    <= space.optimal.report.clock_mhz + 1e-9
                )
                assert space.minimum.stages < space.maximum.stages

    def test_table_rows_order(self):
        space = explore(FP32, UnitKind.ADDER)
        labels = [p.label for p in space.table_rows()]
        assert labels == ["min", "max", "opt"]


class TestKernelSelection:
    def test_cheapest_at_least_meets_floor(self):
        space = explore(FP32, UnitKind.ADDER)
        impl = space.cheapest_at_least(250.0)
        assert impl.clock_mhz >= 250.0
        # every cheaper implementation misses the floor
        for r in space.reports:
            if r.slices < impl.slices:
                assert r.clock_mhz < 250.0

    def test_unreachable_floor_raises(self):
        space = explore(FP64, UnitKind.ADDER)
        with pytest.raises(ValueError, match="no fp64 adder implementation"):
            space.cheapest_at_least(400.0)

    def test_unreachable_floor_names_request_and_peak(self):
        # The error must tell the caller exactly what to relax: the
        # requested clock and the sweep's actually-achievable peak.
        space = explore(FP64, UnitKind.ADDER)
        with pytest.raises(ValueError) as err:
            space.cheapest_at_least(400.0)
        message = str(err.value)
        assert "requested 400 MHz" in message
        assert f"peak_clock_mhz is {space.peak_clock_mhz:.1f} MHz" in message
        assert space.peak_clock_mhz < 400.0

    def test_lower_floor_never_costs_more(self):
        space = explore(FP32, UnitKind.MULTIPLIER)
        at_150 = space.cheapest_at_least(150.0)
        at_250 = space.cheapest_at_least(250.0)
        assert at_150.slices <= at_250.slices


class TestUnitKind:
    def test_datapath_dispatch(self):
        assert UnitKind.ADDER.datapath(FP32).name == "fpadd_fp32"
        assert UnitKind.MULTIPLIER.datapath(FP32).name == "fpmul_fp32"

    def test_min_stages(self):
        assert UnitKind.ADDER.min_stages == MIN_STAGES_ADDER
        assert UnitKind.MULTIPLIER.min_stages == MIN_STAGES_MULTIPLIER


class TestUnitTable:
    """One row per unit; the behavioural cores are built from it."""

    def test_every_kind_has_an_op_table_row(self):
        for kind in UnitKind:
            assert kind.op in OP_TABLE
            assert kind.datapath(FP32).fmt == FP32
            assert KINDS_BY_NAME[kind.value] is kind
        assert {core.kind for core in CORES} == set(UnitKind)

    @pytest.mark.parametrize("core", CORES, ids=lambda core: core.kind.value)
    def test_operand_count_is_the_op_arity(self, core):
        unit = core(FP32, 3)
        arity = OP_ARITY[core.kind.op]
        assert unit.arity == arity
        one = FPValue.from_float(FP32, 1.0).bits
        want = OP_TABLE[core.kind.op].scalar(FP32, *[one] * arity)
        assert unit.compute(*[one] * arity) == want

    @pytest.mark.parametrize("core", CORES, ids=lambda core: core.kind.value)
    def test_wrong_operand_count_raises(self, core):
        unit = core(FP32, 3)
        arity = OP_ARITY[core.kind.op]
        one = FPValue.from_float(FP32, 1.0).bits
        for wrong in (arity - 1, arity + 1):
            with pytest.raises(ValueError):
                unit.compute(*[one] * wrong)
            if wrong:  # a step with no words at all is a bubble
                with pytest.raises(ValueError):
                    unit.step(*[one] * wrong)
        assert unit.pipe.issued == 0

    def test_subtract_issues_sub(self):
        five, two = (FPValue.from_float(FP32, x).bits for x in (5.0, 2.0))
        adder = PipelinedFPAdder(FP32, 2)
        assert adder.compute(five, two, subtract=True) == OP_TABLE["sub"].scalar(
            FP32, five, two
        )
        with pytest.raises(ValueError):
            PipelinedFPMultiplier(FP32, 2).compute(five, two, subtract=True)
