"""RTL-vs-golden-model verification of the structural cores.

The structural pipelines must be stream-equivalent to the behavioural
datapaths at every stage count: same results, same flags, same latency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.adder import fp_add, fp_sub
from repro.fp.divider import fp_div
from repro.fp.format import FP32, FP64
from repro.fp.multiplier import fp_mul
from repro.fp.ops import OP_ARITY, OP_TABLE
from repro.fp.rounding import RoundingMode
from repro.fp.value import FPValue
from repro.rtl.staged import MicroOp, StagedPipeline, partition_micro_ops
from repro.units.structural import (
    MICRO_OPS,
    StructuralFPAdder,
    StructuralFPDivider,
    StructuralFPMac,
    StructuralFPMultiplier,
    StructuralFPSqrt,
    trace_datapath,
)

from tests.conftest import TINY, words


class TestPartition:
    def test_balanced_groups(self):
        ops = [MicroOp(str(i), lambda s: {}) for i in range(8)]
        groups = partition_micro_ops(ops, 3)
        assert [len(g) for g in groups] == [3, 3, 2]

    def test_more_stages_than_ops(self):
        ops = [MicroOp(str(i), lambda s: {}) for i in range(3)]
        groups = partition_micro_ops(ops, 6)
        assert [len(g) for g in groups] == [1, 1, 1, 0, 0, 0]

    def test_single_stage(self):
        ops = [MicroOp(str(i), lambda s: {}) for i in range(5)]
        groups = partition_micro_ops(ops, 1)
        assert [len(g) for g in groups] == [5]

    def test_invalid_stages(self):
        with pytest.raises(ValueError):
            partition_micro_ops([], 0)


class TestStagedPipeline:
    def test_latency_is_stage_count(self):
        ops = [MicroOp("inc", lambda s: {"x": s["x"] + 1})]
        pipe = StagedPipeline(ops, 4)
        pipe.step({"x": 0})
        outs = [pipe.step(None) for _ in range(5)]
        dones = [i for i, (_, d) in enumerate(outs, start=1) if d]
        assert dones == [4]

    def test_ops_execute_exactly_once(self):
        ops = [
            MicroOp("a", lambda s: {"x": s["x"] + 1}),
            MicroOp("b", lambda s: {"x": s["x"] * 10}),
            MicroOp("c", lambda s: {"x": s["x"] + 3}),
        ]
        for stages in (1, 2, 3, 5):
            pipe = StagedPipeline(ops, stages)
            pipe.step({"x": 1})
            out = pipe.drain()[0]
            assert out["x"] == ((1 + 1) * 10) + 3, stages

    def test_bubbles_preserved(self):
        ops = [MicroOp("id", lambda s: {})]
        pipe = StagedPipeline(ops, 3)
        pipe.step({"v": 1})
        pipe.step(None)
        pipe.step({"v": 2})
        seq = [pipe.step(None)[0] for _ in range(3)]
        assert [s["v"] if s else None for s in seq] == [1, None, 2]

    def test_reset(self):
        ops = [MicroOp("id", lambda s: {})]
        pipe = StagedPipeline(ops, 2)
        pipe.step({"v": 1})
        pipe.reset()
        assert pipe.in_flight == 0


def stream_check(structural, golden_fn, fmt, operands, stages):
    """Issue a stream with bubbles, compare against the golden function."""
    expected = [golden_fn(fmt, a, b) for a, b in operands]
    got = []
    i = 0
    cycle = 0
    while len(got) < len(expected):
        cycle += 1
        if i < len(operands) and cycle % 3 != 0:  # bubble every 3rd cycle
            a, b = operands[i]
            i += 1
            result, done = structural.step(a, b)
        else:
            result, done = structural.step()
        if done:
            got.append(result)
        assert cycle < 10_000
    assert got == expected, f"stages={stages}"


class TestAdderEquivalence:
    @pytest.mark.parametrize("stages", [1, 2, 3, 5, 8, 12])
    def test_stream_matches_behavioural(self, stages, rng):
        fmt = FP32
        ops = [
            (rng.randrange(fmt.word_mask + 1), rng.randrange(fmt.word_mask + 1))
            for _ in range(40)
        ]
        unit = StructuralFPAdder(fmt, stages)
        stream_check(unit, fp_add, fmt, ops, stages)

    def test_subtract_flag(self):
        unit = StructuralFPAdder(FP32, 4)
        a = FPValue.from_float(FP32, 5.0).bits
        b = FPValue.from_float(FP32, 2.0).bits
        bits, flags = unit.compute(a, b, subtract=True)
        expected = fp_sub(FP32, a, b)
        assert (bits, flags) == expected

    def test_truncate_mode(self, rng):
        unit = StructuralFPAdder(FP32, 6, mode=RoundingMode.TRUNCATE)
        for _ in range(100):
            a = rng.randrange(FP32.word_mask + 1)
            b = rng.randrange(FP32.word_mask + 1)
            assert unit.compute(a, b) == fp_add(FP32, a, b, RoundingMode.TRUNCATE)

    @settings(max_examples=150)
    @given(words(TINY), words(TINY), st.integers(1, 10))
    def test_tiny_format_property(self, a, b, stages):
        unit = StructuralFPAdder(TINY, stages)
        assert unit.compute(a, b) == fp_add(TINY, a, b)


class TestMultiplierEquivalence:
    @pytest.mark.parametrize("stages", [1, 3, 6, 9])
    def test_stream_matches_behavioural(self, stages, rng):
        fmt = FP64
        ops = [
            (rng.randrange(fmt.word_mask + 1), rng.randrange(fmt.word_mask + 1))
            for _ in range(30)
        ]
        unit = StructuralFPMultiplier(fmt, stages)
        stream_check(unit, fp_mul, fmt, ops, stages)

    @settings(max_examples=150)
    @given(words(TINY), words(TINY), st.integers(1, 8))
    def test_tiny_format_property(self, a, b, stages):
        unit = StructuralFPMultiplier(TINY, stages)
        assert unit.compute(a, b) == fp_mul(TINY, a, b)


class TestDividerEquivalence:
    @pytest.mark.parametrize("stages", [1, 4, 13, 26])
    def test_stream_matches_behavioural(self, stages, rng):
        fmt = FP32
        ops = [
            (rng.randrange(fmt.word_mask + 1), rng.randrange(fmt.word_mask + 1))
            for _ in range(20)
        ]
        unit = StructuralFPDivider(fmt, stages)
        stream_check(unit, fp_div, fmt, ops, stages)

    def test_recurrence_row_count(self):
        unit = StructuralFPDivider(FP32, 4)
        rows = [op for op in unit.micro_ops if op.name.startswith("row[")]
        assert len(rows) == FP32.man_bits + 3

    @settings(max_examples=120)
    @given(words(TINY), words(TINY), st.integers(1, 9))
    def test_tiny_format_property(self, a, b, stages):
        unit = StructuralFPDivider(TINY, stages)
        assert unit.compute(a, b) == fp_div(TINY, a, b)


class TestCoreInterface:
    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            StructuralFPAdder(FP32, 0)

    def test_partial_issue_rejected(self):
        unit = StructuralFPMultiplier(FP32, 2)
        with pytest.raises(ValueError):
            unit.step(1, None)

    def test_latency_property(self):
        assert StructuralFPAdder(FP32, 7).latency == 7

    def test_misspelled_subtract_is_rejected(self):
        # A typo must not silently add: 5 + 2 would come back as 7.0.
        five = FPValue.from_float(FP32, 5.0).bits
        two = FPValue.from_float(FP32, 2.0).bits
        unit = StructuralFPAdder(FP32, 3)
        with pytest.raises(ValueError, match="subtact"):
            unit.compute(five, two, subtact=True)
        with pytest.raises(ValueError, match="subtact"):
            unit.step(five, two, subtact=True)

    def test_subtract_is_the_adders_keyword_only(self):
        five = FPValue.from_float(FP32, 5.0).bits
        two = FPValue.from_float(FP32, 2.0).bits
        unit = StructuralFPMultiplier(FP32, 3)
        with pytest.raises(ValueError, match="subtract"):
            unit.compute(five, two, subtract=True)
        with pytest.raises(ValueError, match="subtract"):
            unit.step(five, two, subtract=True)


CORES = (
    StructuralFPAdder,
    StructuralFPMultiplier,
    StructuralFPDivider,
    StructuralFPSqrt,
    StructuralFPMac,
)


class TestOpTable:
    """One micro-op list per op table entry; the arity comes from it."""

    def test_table_keys_are_the_op_table(self):
        assert list(MICRO_OPS) == list(OP_TABLE)

    def test_cores_cover_every_arity(self):
        assert {OP_ARITY[core.op] for core in CORES} == {1, 2, 3}

    @pytest.mark.parametrize("core", CORES, ids=lambda core: core.op)
    def test_operand_count_is_the_op_arity(self, core):
        unit = core(FP32, 3)
        arity = OP_ARITY[core.op]
        assert len(unit.operands) == arity
        one = FPValue.from_float(FP32, 1.0).bits
        want = OP_TABLE[core.op].scalar(FP32, *[one] * arity)
        assert unit.compute(*[one] * arity) == want
        for wrong in (arity - 1, arity + 1):
            with pytest.raises(ValueError):
                unit.compute(*[one] * wrong)
        with pytest.raises(ValueError):
            unit.step(*[one] * (arity + 1))
        if arity > 1:
            with pytest.raises(ValueError):
                unit.step(*[one] * (arity - 1))

    @pytest.mark.parametrize("op", sorted(OP_TABLE))
    def test_trace_checks_the_op_arity(self, op):
        one = FPValue.from_float(FP32, 1.0).bits
        arity = OP_ARITY[op]
        trace = trace_datapath(op, FP32, *[one] * arity)
        assert (trace.result, trace.flags) == OP_TABLE[op].scalar(
            FP32, *[one] * arity
        )
        for wrong in (arity - 1, arity + 1):
            with pytest.raises(ValueError):
                trace_datapath(op, FP32, *[one] * wrong)


class TestSqrtEquivalence:
    @pytest.mark.parametrize("stages", [1, 5, 14, 28])
    def test_stream_matches_behavioural(self, stages, rng):
        from repro.fp.sqrt import fp_sqrt
        from repro.units.structural import StructuralFPSqrt

        fmt = FP32
        unit = StructuralFPSqrt(fmt, stages)
        operands = [rng.randrange(fmt.word_mask + 1) for _ in range(25)]
        expected = [fp_sqrt(fmt, a) for a in operands]
        got = []
        i = 0
        cycle = 0
        while len(got) < len(expected):
            cycle += 1
            if i < len(operands) and cycle % 4 != 0:
                result, done = unit.step(operands[i])
                i += 1
            else:
                result, done = unit.step()
            if done:
                got.append(result)
            assert cycle < 10_000
        assert got == expected

    @settings(max_examples=100)
    @given(words(TINY), st.integers(1, 12))
    def test_tiny_format_property(self, a, stages):
        from repro.fp.sqrt import fp_sqrt
        from repro.units.structural import StructuralFPSqrt

        unit = StructuralFPSqrt(TINY, stages)
        assert unit.compute(a) == fp_sqrt(TINY, a)

    def test_row_count(self):
        from repro.units.structural import StructuralFPSqrt

        unit = StructuralFPSqrt(FP32, 4)
        rows = [op for op in unit.micro_ops if op.name.startswith("row[")]
        assert len(rows) == FP32.man_bits + 4


class TestFusedMacEquivalence:
    @pytest.mark.parametrize("stages", [1, 2, 5])
    def test_stream_matches_behavioural(self, stages, rng):
        from repro.fp.mac import fp_fma
        from repro.units.structural import StructuralFPMac

        fmt = FP32
        unit = StructuralFPMac(fmt, stages)
        operands = [
            tuple(rng.randrange(fmt.word_mask + 1) for _ in range(3))
            for _ in range(30)
        ]
        expected = [fp_fma(fmt, a, b, c) for a, b, c in operands]
        got = []
        i = 0
        cycle = 0
        while len(got) < len(expected):
            cycle += 1
            if i < len(operands) and cycle % 3 != 0:
                result, done = unit.step(*operands[i])
                i += 1
            else:
                result, done = unit.step()
            if done:
                got.append(result)
            assert cycle < 10_000
        assert got == expected

    def test_truncate_mode(self, rng):
        from repro.fp.mac import fp_fma
        from repro.units.structural import StructuralFPMac

        unit = StructuralFPMac(FP32, 4, mode=RoundingMode.TRUNCATE)
        for _ in range(100):
            a, b, c = (rng.randrange(FP32.word_mask + 1) for _ in range(3))
            assert unit.compute(a, b, c) == fp_fma(
                FP32, a, b, c, RoundingMode.TRUNCATE
            )

    def test_single_rounding_beats_chained_on_directed_case(self):
        """``a*b - round(a*b)``: fused recovers the exact rounding
        residual where the chained mul-then-add cancels to zero."""
        from repro.fp.adder import fp_add
        from repro.fp.mac import fp_fma
        from repro.units.structural import StructuralFPMac

        a = FP32.pack(0, FP32.bias, 1)  # 1 + 2^-23
        product, _ = fp_mul(FP32, a, a)
        c = product ^ (1 << (FP32.width - 1))
        unit = StructuralFPMac(FP32, 3)
        bits, flags = unit.compute(a, a, c)
        assert (bits, flags) == fp_fma(FP32, a, a, c)
        assert bits == FP32.pack(0, FP32.bias - 46, 0)  # exact 2^-46
        assert not flags.inexact
        chained, chained_flags = fp_add(FP32, product, c)
        assert chained == FP32.zero(0)
        assert chained_flags.zero

    def test_partial_issue_rejected(self):
        from repro.units.structural import StructuralFPMac

        unit = StructuralFPMac(FP32, 2)
        with pytest.raises(ValueError):
            unit.step(1, 2, None)

    @settings(max_examples=100)
    @given(words(TINY), words(TINY), words(TINY), st.integers(1, 6))
    def test_tiny_format_property(self, a, b, c, stages):
        from repro.fp.mac import fp_fma
        from repro.units.structural import StructuralFPMac

        unit = StructuralFPMac(TINY, stages)
        assert unit.compute(a, b, c) == fp_fma(TINY, a, b, c)
