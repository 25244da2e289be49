"""Unit tests for the pipelined FP adder core object."""

import pytest

from repro.fp.format import FP32, FP64
from repro.fp.rounding import RoundingMode
from repro.fp.value import FPValue
from repro.units import PipelinedFPAdder


class TestConstruction:
    def test_report_attached(self):
        u = PipelinedFPAdder(FP32, stages=10)
        assert u.report.stages == 10
        assert u.slices == u.report.slices
        assert u.clock_mhz == u.report.clock_mhz
        assert u.latency == 10

    def test_invalid_stages(self):
        with pytest.raises(ValueError):
            PipelinedFPAdder(FP32, stages=0)

    def test_deeper_is_faster_until_saturation(self):
        shallow = PipelinedFPAdder(FP64, stages=3)
        deep = PipelinedFPAdder(FP64, stages=15)
        assert deep.clock_mhz > shallow.clock_mhz


class TestTimedBehaviour:
    def test_result_after_exact_latency(self):
        u = PipelinedFPAdder(FP32, stages=6)
        a = FPValue.from_float(FP32, 1.5).bits
        b = FPValue.from_float(FP32, 2.5).bits
        result, done = u.step(a, b)
        assert not done
        for cycle in range(1, 7):
            result, done = u.step()
            assert done == (cycle == 6), cycle
        bits, flags = result
        assert FPValue(FP32, bits).to_float() == 4.0
        assert not flags.any_exception

    def test_pipelined_throughput(self):
        u = PipelinedFPAdder(FP32, stages=4)
        ops = [(float(i), float(2 * i)) for i in range(10)]
        outs = []
        for x, y in ops:
            r, done = u.step(
                FPValue.from_float(FP32, x).bits, FPValue.from_float(FP32, y).bits
            )
            if done:
                outs.append(r)
        outs.extend(u.pipe.drain())
        got = [FPValue(FP32, bits).to_float() for bits, _ in outs]
        assert got == [x + y for x, y in ops]

    def test_subtract_through_pipeline(self):
        u = PipelinedFPAdder(FP32, stages=3)
        a = FPValue.from_float(FP32, 5.0).bits
        b = FPValue.from_float(FP32, 2.0).bits
        u.step(a, b, subtract=True)
        u.step()
        u.step()
        (bits, _), done = u.step()
        assert done
        assert FPValue(FP32, bits).to_float() == 3.0

    def test_partial_issue_rejected(self):
        u = PipelinedFPAdder(FP32, stages=2)
        with pytest.raises(ValueError):
            u.step(1, None)

    def test_compute_matches_pipeline(self):
        u = PipelinedFPAdder(FP32, stages=5)
        a = FPValue.from_float(FP32, 0.1).bits
        b = FPValue.from_float(FP32, 0.2).bits
        expected = u.compute(a, b)
        u.step(a, b)
        results = u.pipe.drain()
        assert results == [expected]


class TestModes:
    def test_truncate_mode(self):
        u = PipelinedFPAdder(FP32, stages=2, mode=RoundingMode.TRUNCATE)
        a = FPValue.from_float(FP32, 1.0).bits
        b = FPValue.from_float(FP32, 2.0**-24 * 1.5).bits
        bits, _ = u.compute(a, b)
        assert bits == a
