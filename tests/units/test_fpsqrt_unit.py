"""Unit tests for the pipelined FP square-root core."""

import pytest

from repro.fp.format import FP32, FP64
from repro.fp.sqrt import fp_sqrt
from repro.fp.value import FPValue
from repro.units import PipelinedFPSqrt


class TestPipelinedSqrt:
    def test_report_attached(self):
        u = PipelinedFPSqrt(FP32, stages=18)
        assert u.report.stages == 18
        assert u.report.unit == "fpsqrt_fp32"
        assert u.latency == 18
        assert u.slices > 0 and u.clock_mhz > 0

    def test_invalid_stages(self):
        with pytest.raises(ValueError):
            PipelinedFPSqrt(FP32, stages=0)

    def test_compute(self):
        u = PipelinedFPSqrt(FP32, stages=10)
        bits, flags = u.compute(FPValue.from_float(FP32, 9.0).bits)
        assert FPValue(FP32, bits).to_float() == 3.0
        assert not flags.any_exception

    def test_timed_latency(self):
        u = PipelinedFPSqrt(FP32, stages=5)
        u.step(FPValue.from_float(FP32, 4.0).bits)
        for cycle in range(1, 6):
            result, done = u.step()
            assert done == (cycle == 5)
        bits, _ = result
        assert FPValue(FP32, bits).to_float() == 2.0

    def test_streaming_matches_scalar(self, rng):
        u = PipelinedFPSqrt(FP64, stages=8)
        inputs = [
            FP64.pack(0, rng.randint(1, FP64.exp_max - 1), rng.randrange(1 << 52))
            for _ in range(20)
        ]
        outs = []
        for a in inputs:
            r, done = u.step(a)
            if done:
                outs.append(r)
        outs.extend(u.pipe.drain())
        assert outs == [fp_sqrt(FP64, a) for a in inputs]

    def test_deeper_is_faster(self):
        shallow = PipelinedFPSqrt(FP64, stages=6)
        deep = PipelinedFPSqrt(FP64, stages=40)
        assert deep.clock_mhz > shallow.clock_mhz
        assert deep.slices > shallow.slices
