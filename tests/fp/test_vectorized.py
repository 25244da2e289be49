"""Element-wise equivalence of the vectorized ops with the scalar
datapaths, plus input validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fp.adder import fp_add
from repro.fp.format import FP32, FP48, FPFormat
from repro.fp.ops import OP_TABLE
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import vec_add, vec_mul

FP16 = FPFormat(exp_bits=5, man_bits=10, name="fp16")

OPS = [(OP_TABLE[op].vectorized, OP_TABLE[op].scalar) for op in ("add", "sub", "mul")]


def random_words(fmt, n, rng):
    return np.array(
        [rng.randrange(fmt.word_mask + 1) for _ in range(n)], dtype=np.uint64
    )


def special_words(fmt):
    return np.array(
        [
            fmt.zero(0),
            fmt.zero(1),
            fmt.one(0),
            fmt.one(1),
            fmt.min_normal(),
            fmt.max_finite(),
            fmt.max_finite(1),
            fmt.inf(0),
            fmt.inf(1),
            fmt.nan(),
            fmt.pack(0, 0, fmt.man_mask),  # denormal pattern
            fmt.pack(1, fmt.bias, 1),
        ],
        dtype=np.uint64,
    )


class TestElementwiseEquivalence:
    @pytest.mark.parametrize("fmt", [FP32, FP16], ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_random_words(self, fmt, mode, rng):
        n = 1500
        a = random_words(fmt, n, rng)
        b = random_words(fmt, n, rng)
        for vec, scal in OPS:
            out = vec(fmt, a, b, mode)
            for i in range(n):
                assert int(out[i]) == scal(fmt, int(a[i]), int(b[i]), mode)[0], (
                    vec.__name__,
                    hex(int(a[i])),
                    hex(int(b[i])),
                )

    @pytest.mark.parametrize("fmt", [FP32, FP16], ids=lambda f: f.name)
    def test_all_special_pairs(self, fmt):
        s = special_words(fmt)
        a, b = np.meshgrid(s, s)
        a, b = a.ravel(), b.ravel()
        for vec, scal in OPS:
            out = vec(fmt, a, b)
            for i in range(len(a)):
                assert int(out[i]) == scal(fmt, int(a[i]), int(b[i]))[0], (
                    vec.__name__,
                    hex(int(a[i])),
                    hex(int(b[i])),
                )

    @settings(max_examples=40)
    @given(
        arrays(np.uint32, st.integers(1, 64)),
        arrays(np.uint32, st.integers(1, 64)),
    )
    def test_property_arrays(self, a, b):
        n = min(len(a), len(b))
        a = a[:n].astype(np.uint64)
        b = b[:n].astype(np.uint64)
        out = vec_add(FP32, a, b)
        for i in range(n):
            assert int(out[i]) == fp_add(FP32, int(a[i]), int(b[i]))[0]


class TestShapeAndValidation:
    def test_preserves_shape(self, rng):
        a = random_words(FP32, 12, rng).reshape(3, 4)
        b = random_words(FP32, 12, rng).reshape(3, 4)
        assert vec_mul(FP32, a, b).shape == (3, 4)

    def test_fp48_accepted(self):
        # Wide paper formats run on the two-limb datapaths now.
        zeros = np.zeros(2, dtype=np.uint64)
        assert np.array_equal(vec_add(FP48, zeros, zeros), zeros)

    def test_too_wide_formats_rejected(self):
        fp65 = FPFormat(exp_bits=12, man_bits=52, name="fp65")
        with pytest.raises(ValueError, match="width <= 64"):
            vec_add(fp65, np.zeros(2, dtype=np.uint64), np.zeros(2, dtype=np.uint64))

    def test_tiny_mantissa_rejected(self):
        small = FPFormat(exp_bits=4, man_bits=2)
        with pytest.raises(ValueError, match="fraction bits <= 59"):
            vec_mul(small, np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64))

    def test_float_arrays_rejected(self):
        with pytest.raises(TypeError):
            vec_add(FP32, np.zeros(2), np.zeros(2))

    def test_out_of_range_words_rejected(self):
        bad = np.array([1 << 40], dtype=np.uint64)
        with pytest.raises(ValueError, match="outside"):
            vec_add(FP32, bad, bad)

    @pytest.mark.parametrize("fmt", [FP16, FP32], ids=lambda f: f.name)
    def test_out_of_range_words_rejected_before_narrowing(self, fmt):
        # word_mask + 1 would wrap to +0 in the narrow lane dtype.
        bad = np.array([fmt.word_mask + 1], dtype=np.uint64)
        ok = np.zeros(1, dtype=np.uint64)
        for vec, _ in OPS:
            with pytest.raises(ValueError, match="b contains words outside"):
                vec(fmt, ok, bad)

    def test_signed_words_are_checked_as_uint64(self):
        one = np.array([FP16.one()], dtype=np.int64)
        assert int(vec_mul(FP16, one, one)[0]) == FP16.one()
        with pytest.raises(ValueError, match="a contains words outside"):
            vec_add(FP16, np.array([-1], dtype=np.int64), one)

    def test_any_unsigned_dtype_in_uint64_out(self, rng):
        a = random_words(FP16, 64, rng)
        b = random_words(FP16, 64, rng)
        want_bits, want_flags = vec_add(FP16, a, b, with_flags=True)
        for dtype in (np.uint16, np.uint32):
            bits, flags = vec_add(
                FP16, a.astype(dtype), b.astype(dtype), with_flags=True
            )
            assert bits.dtype == np.uint64 and flags.dtype == np.uint8
            assert np.array_equal(bits, want_bits)
            assert np.array_equal(flags, want_flags)

    def test_empty_arrays(self):
        empty = np.array([], dtype=np.uint64)
        assert vec_add(FP32, empty, empty).size == 0


class TestConsistencyWithNumpyFloat32:
    def test_matches_ieee_away_from_denormals(self, rng):
        n = 2000
        vals_a = np.array(
            [rng.uniform(-1, 1) * 10 ** rng.randint(-10, 10) for _ in range(n)],
            dtype=np.float32,
        )
        vals_b = np.array(
            [rng.uniform(-1, 1) * 10 ** rng.randint(-10, 10) for _ in range(n)],
            dtype=np.float32,
        )
        a = vals_a.view(np.uint32).astype(np.uint64)
        b = vals_b.view(np.uint32).astype(np.uint64)
        with np.errstate(all="ignore"):
            expected = (vals_a + vals_b).view(np.uint32).astype(np.uint64)
        got = vec_add(FP32, a, b)
        exp_field = (expected >> np.uint64(23)) & np.uint64(0xFF)
        man_field = expected & np.uint64(0x7FFFFF)
        denormal = (exp_field == 0) & (man_field != 0)
        comparable = ~denormal
        assert np.array_equal(got[comparable], expected[comparable])
