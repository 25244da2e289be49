"""Unit tests for the datapath trace recorder over the micro-op lists."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.adder import fp_add
from repro.fp.format import FP32
from repro.fp.multiplier import fp_mul
from repro.fp.rounding import RoundingMode
from repro.fp.value import FPValue
from repro.units import fp_add_trace, fp_mul_trace

from tests.conftest import ALL_FORMATS, words


def f(x: float) -> int:
    return FPValue.from_float(FP32, x).bits


class TestAdderTrace:
    def test_stage_sequence_normal_path(self):
        t = fp_add_trace(FP32, f(1.5), f(2.25))
        assert [s.name for s in t.stages] == [
            "unpack",
            "denorm",
            "swap",
            "align",
            "add_sub",
            "normalize",
            "round",
            "pack",
        ]
        assert t.special is None

    def test_signals_consistent(self):
        t = fp_add_trace(FP32, f(3.0), f(1.0))
        # 3.0 has exponent one above 1.0: the small operand aligns by 1.
        assert t.find("swap", "diff") == 1
        # No swap: the big significand stays in m1.
        assert t.find("swap", "m1") == t.find("denorm", "m1")
        # Like signs: add_sub adds.
        assert t.find("swap", "s1") == t.find("swap", "s2")

    def test_subtract_path(self):
        t = fp_add_trace(FP32, f(1.0), f(-1.0))
        # Exact cancellation: add_sub bypasses with a zero result.
        assert t.special == "add_sub"
        assert t.flags.zero and t.result == FP32.zero(0)

    def test_zero_operand_short_circuit(self):
        t = fp_add_trace(FP32, FP32.zero(0), f(2.0))
        assert t.special == "denorm"
        assert t.result == f(2.0)

    def test_special_operand(self):
        t = fp_add_trace(FP32, FP32.inf(0), f(1.0))
        assert t.special == "unpack"
        assert t.result == FP32.inf(0)

    def test_overflow_annotated(self):
        t = fp_add_trace(FP32, FP32.max_finite(), FP32.max_finite())
        # Overflow is not a bypass: round carries the exponent past the
        # top and pack saturates to infinity.
        assert t.special is None
        assert t.find("round", "exp") >= FP32.exp_max
        assert t.flags.overflow and t.result == FP32.inf(0)

    def test_render_mentions_stages(self):
        out = fp_add_trace(FP32, f(1.5), f(2.5)).render()
        assert "align" in out and "result" in out

    def test_missing_signal_raises(self):
        t = fp_add_trace(FP32, f(1.5), f(2.5))
        try:
            t.find("align", "nope")
            raise AssertionError("expected KeyError")
        except KeyError:
            pass


class TestMultiplierTrace:
    def test_stage_sequence(self):
        t = fp_mul_trace(FP32, f(1.5), f(2.5))
        assert [s.name for s in t.stages] == [
            "unpack",
            "denorm",
            "multiply",
            "normalize",
            "round",
            "pack",
        ]

    def test_normalize_shift_recorded(self):
        # 1.5 * 1.5 = 2.25 >= 2: a one-position shift bumps the exponent
        def shift(t):
            return t.find("normalize", "exp") - t.find("multiply", "exp")

        assert shift(fp_mul_trace(FP32, f(1.5), f(1.5))) == 1
        assert shift(fp_mul_trace(FP32, f(1.25), f(1.25))) == 0

    def test_zero_short_circuit(self):
        t = fp_mul_trace(FP32, FP32.zero(0), f(5.0))
        # The multiplier detects zero operands in unpack.
        assert t.special == "unpack"
        assert t.flags.zero


format_st = st.sampled_from(ALL_FORMATS)


@st.composite
def fmt_two_words_mode(draw):
    fmt = draw(format_st)
    return (
        fmt,
        draw(words(fmt)),
        draw(words(fmt)),
        draw(st.sampled_from(list(RoundingMode))),
    )


class TestTraceNeverDiverges:
    """The recorder's micro-op lists are pinned bit-for-bit to production."""

    @settings(max_examples=300)
    @given(fmt_two_words_mode())
    def test_add_trace_result_matches(self, fabm):
        fmt, a, b, mode = fabm
        t = fp_add_trace(fmt, a, b, mode=mode)
        bits, flags = fp_add(fmt, a, b, mode)
        assert t.result == bits
        assert t.flags == flags

    @settings(max_examples=300)
    @given(fmt_two_words_mode())
    def test_mul_trace_result_matches(self, fabm):
        fmt, a, b, mode = fabm
        t = fp_mul_trace(fmt, a, b, mode=mode)
        bits, flags = fp_mul(fmt, a, b, mode)
        assert t.result == bits
        assert t.flags == flags

    @settings(max_examples=200)
    @given(fmt_two_words_mode())
    def test_trace_final_sig_matches_result(self, fabm):
        """When the normal path completes, the traced rounded significand
        must reconstruct the result mantissa."""
        fmt, a, b, mode = fabm
        t = fp_add_trace(fmt, a, b, mode=mode)
        if t.special is not None or t.flags.overflow:
            return
        sig = t.find("round", "sig")
        _, exp, man = fmt.unpack(t.result)
        del exp
        assert sig & fmt.man_mask == man
