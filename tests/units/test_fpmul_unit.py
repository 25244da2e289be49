"""Unit tests for the pipelined FP multiplier core object."""

import pytest

from repro.fp.format import FP32, FP48
from repro.fp.value import FPValue
from repro.units import PipelinedFPMultiplier


class TestConstruction:
    def test_report_attached(self):
        u = PipelinedFPMultiplier(FP32, stages=7)
        assert u.report.stages == 7
        assert u.report.mult18 == 4
        assert u.latency == 7

    def test_invalid_stages(self):
        with pytest.raises(ValueError):
            PipelinedFPMultiplier(FP32, stages=0)

    def test_fp48_uses_nine_mult18(self):
        assert PipelinedFPMultiplier(FP48, stages=8).report.mult18 == 9


class TestTimedBehaviour:
    def test_result_after_exact_latency(self):
        u = PipelinedFPMultiplier(FP32, stages=5)
        a = FPValue.from_float(FP32, 3.0).bits
        b = FPValue.from_float(FP32, 4.0).bits
        u.step(a, b)
        for cycle in range(1, 6):
            result, done = u.step()
            assert done == (cycle == 5)
        bits, _ = result
        assert FPValue(FP32, bits).to_float() == 12.0

    def test_streaming(self):
        u = PipelinedFPMultiplier(FP32, stages=3)
        outs = []
        for i in range(1, 8):
            r, done = u.step(
                FPValue.from_float(FP32, float(i)).bits,
                FPValue.from_float(FP32, 2.0).bits,
            )
            if done:
                outs.append(r)
        outs.extend(u.pipe.drain())
        got = [FPValue(FP32, bits).to_float() for bits, _ in outs]
        assert got == [2.0 * i for i in range(1, 8)]

    def test_partial_issue_rejected(self):
        u = PipelinedFPMultiplier(FP32, stages=2)
        with pytest.raises(ValueError):
            u.step(None, 1)

    def test_bubble_cycles_produce_no_done(self):
        u = PipelinedFPMultiplier(FP32, stages=4)
        for _ in range(10):
            _, done = u.step()
            assert not done
