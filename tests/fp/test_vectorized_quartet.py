"""Edge-focused tests for the vectorized div/sqrt/fma trio.

The generic elementwise sweeps live in ``test_vectorized.py``; these
target the corners the ISSUE calls out for the new ops: boundary
operands (minimum/maximum exponent with empty and all-ones mantissas),
signed-zero sign rules, and flag-sideband isolation between lanes of one
batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fp.divider import fp_div
from repro.fp.format import FP32, FPFormat
from repro.fp.mac import fp_fma
from repro.fp.multiplier import fp_mul
from repro.fp.rounding import RoundingMode
from repro.fp.sqrt import fp_sqrt
from repro.fp.vectorized import vec_div, vec_fma, vec_mul, vec_sqrt

FP16 = FPFormat(exp_bits=5, man_bits=10, name="fp16")


def boundary_words(fmt):
    """Normal-range extremes plus the signed specials.

    Every combination of sign, minimum/maximum normal exponent and
    empty/all-ones mantissa, then signed zeros, infinities, NaN and
    +-1.0 — the operands where normalize/round and the special-case
    bypasses meet.
    """
    words = [
        fmt.pack(sign, exp, man)
        for sign in (0, 1)
        for exp in (1, fmt.exp_max - 1)
        for man in (0, fmt.man_mask)
    ]
    words += [
        fmt.zero(0),
        fmt.zero(1),
        fmt.inf(0),
        fmt.inf(1),
        fmt.nan(),
        fmt.one(0),
        fmt.one(1),
    ]
    return np.array(words, dtype=np.uint64)


def assert_matches_scalar(fmt, mode, scalar_fn, vec_fn, *columns):
    bits, flags = vec_fn(fmt, *columns, mode, with_flags=True)
    for i in range(len(columns[0])):
        operands = tuple(int(col[i]) for col in columns)
        want_bits, want_flags = scalar_fn(fmt, *operands, mode)
        assert int(bits[i]) == want_bits, tuple(map(hex, operands))
        assert int(flags[i]) == want_flags.to_bits(), tuple(map(hex, operands))


@pytest.mark.parametrize("fmt", [FP32, FP16], ids=lambda f: f.name)
@pytest.mark.parametrize("mode", list(RoundingMode))
class TestBoundaryOperands:
    def test_div_full_mesh(self, fmt, mode):
        s = boundary_words(fmt)
        a, b = np.meshgrid(s, s)
        assert_matches_scalar(fmt, mode, fp_div, vec_div, a.ravel(), b.ravel())

    def test_sqrt_all_words(self, fmt, mode):
        assert_matches_scalar(fmt, mode, fp_sqrt, vec_sqrt, boundary_words(fmt))

    def test_fma_full_mesh(self, fmt, mode):
        s = boundary_words(fmt)
        a, b, c = np.meshgrid(s, s, s)
        assert_matches_scalar(
            fmt, mode, fp_fma, vec_fma, a.ravel(), b.ravel(), c.ravel()
        )


class TestSignedZeroRules:
    """IEEE sign-of-zero semantics, asserted against explicit words (not
    just scalar agreement, so a shared scalar/vector bug cannot hide)."""

    def words(self, *values):
        return np.array(values, dtype=np.uint64)

    def test_div_zero_over_finite_signs(self):
        a = self.words(FP32.zero(0), FP32.zero(1), FP32.zero(0), FP32.zero(1))
        b = self.words(FP32.one(1), FP32.one(1), FP32.one(0), FP32.one(0))
        bits, flags = vec_div(FP32, a, b, with_flags=True)
        assert [int(x) for x in bits] == [
            FP32.zero(1),
            FP32.zero(0),
            FP32.zero(0),
            FP32.zero(1),
        ]
        assert all(int(f) == 0b000001 for f in flags)  # zero flag only

    def test_div_by_zero_and_invalid(self):
        a = self.words(FP32.one(0), FP32.one(1), FP32.zero(0), FP32.inf(0))
        b = self.words(FP32.zero(0), FP32.zero(0), FP32.zero(0), FP32.inf(0))
        bits, flags = vec_div(FP32, a, b, with_flags=True)
        assert int(bits[0]) == FP32.inf(0)
        assert int(bits[1]) == FP32.inf(1)
        assert int(flags[0]) == int(flags[1]) == 0b100000  # div_by_zero
        assert int(bits[2]) == int(bits[3]) == FP32.nan()  # 0/0, Inf/Inf
        assert int(flags[2]) == int(flags[3]) == 0b000010  # invalid

    def test_sqrt_signed_zero_passes_through(self):
        bits, flags = vec_sqrt(
            FP32, self.words(FP32.zero(0), FP32.zero(1)), with_flags=True
        )
        assert [int(x) for x in bits] == [FP32.zero(0), FP32.zero(1)]
        assert all(int(f) == 0b000001 for f in flags)

    def test_sqrt_negative_is_invalid_nan(self):
        bits, flags = vec_sqrt(
            FP32, self.words(FP32.one(1), FP32.min_normal(1)), with_flags=True
        )
        assert all(int(x) == FP32.nan() for x in bits)
        assert all(int(f) == 0b000010 for f in flags)

    def test_fma_zero_sign_rules(self):
        # Matching product/addend signs keep the sign; mixed give +0;
        # exact cancellation of non-zero contributions gives +0.
        one, mone = FP32.one(0), FP32.one(1)
        a = self.words(FP32.zero(1), FP32.zero(1), one, mone)
        b = self.words(one, one, one, one)
        c = self.words(FP32.zero(1), FP32.zero(0), mone, one)
        bits, flags = vec_fma(FP32, a, b, c, with_flags=True)
        assert [int(x) for x in bits] == [
            FP32.zero(1),
            FP32.zero(0),
            FP32.zero(0),
            FP32.zero(0),
        ]
        assert all(int(f) == 0b000001 for f in flags)


class TestFlagSidebandIsolation:
    """A flag-raising lane must not leak into its neighbours' sideband
    words: the batch with a special spliced in reports exactly the same
    flags for the benign lanes as the benign-only batch."""

    def splice_check(self, vec_fn, benign_cols, special_row):
        clean = vec_fn(FP32, *benign_cols, with_flags=True)
        n = len(benign_cols[0])
        mid = n // 2
        spliced_cols = []
        for col, word in zip(benign_cols, special_row):
            spliced = np.concatenate(
                [col[:mid], np.array([word], dtype=np.uint64), col[mid:]]
            )
            spliced_cols.append(spliced)
        spliced = vec_fn(FP32, *spliced_cols, with_flags=True)
        keep = np.r_[0:mid, mid + 1 : n + 1]
        assert np.array_equal(spliced[0][keep], clean[0])
        assert np.array_equal(spliced[1][keep], clean[1])

    def benign(self, n, rng):
        # Mid-exponent normals: no overflow/underflow, flags mostly just
        # inexact — any cross-lane OR would be visible immediately.
        return np.array(
            [
                FP32.pack(
                    rng.randint(0, 1),
                    FP32.bias + rng.randint(-8, 8),
                    rng.randrange(FP32.man_mask + 1),
                )
                for _ in range(n)
            ],
            dtype=np.uint64,
        )

    @pytest.mark.parametrize(
        "special",
        [
            ("one", "zero"),  # div_by_zero lane
            ("zero", "zero"),  # invalid lane
            ("max_finite", "min_normal"),  # overflow lane
            ("min_normal", "max_finite"),  # underflow lane
            ("nan", "one"),  # NaN lane
        ],
        ids=lambda s: f"{s[0]}/{s[1]}",
    )
    def test_div_lane_isolation(self, special, rng):
        cols = (self.benign(17, rng), self.benign(17, rng))
        row = tuple(getattr(FP32, name)() for name in special)
        self.splice_check(vec_div, cols, row)

    def test_sqrt_lane_isolation(self, rng):
        for word in (FP32.one(1), FP32.inf(0), FP32.nan(), FP32.zero(1)):
            self.splice_check(vec_sqrt, (self.benign(17, rng),), (word,))

    def test_uint16_lane_isolation(self):
        # [overflow, NaN, exact, underflow] side by side on uint16 lanes:
        # each element carries exactly its own scalar flags.
        a = np.array(
            [FP16.max_finite(), FP16.nan(), FP16.one(), FP16.min_normal()],
            dtype=np.uint64,
        )
        b = np.array(
            [FP16.max_finite(), FP16.one(), FP16.one(), FP16.min_normal()],
            dtype=np.uint64,
        )
        assert_matches_scalar(FP16, RoundingMode.NEAREST_EVEN, fp_mul, vec_mul, a, b)
        _, flags = vec_mul(FP16, a, b, with_flags=True)
        assert flags[0] & 16  # overflow
        assert flags[1] & 2  # invalid
        assert flags[2] == 0  # exact
        assert flags[3] & 8  # underflow

    def test_fma_lane_isolation(self, rng):
        cols = tuple(self.benign(17, rng) for _ in range(3))
        for row in (
            (FP32.inf(0), FP32.zero(0), FP32.one(0)),  # 0 x Inf invalid
            (FP32.inf(0), FP32.one(0), FP32.inf(1)),  # Inf - Inf invalid
            (FP32.max_finite(), FP32.max_finite(), FP32.one(0)),  # overflow
            (FP32.nan(), FP32.one(0), FP32.one(0)),
        ):
            self.splice_check(vec_fma, cols, row)


class TestPropertyArrays:
    @settings(max_examples=30)
    @given(
        arrays(np.uint32, st.integers(1, 48)),
        arrays(np.uint32, st.integers(1, 48)),
    )
    def test_div_property(self, a, b):
        n = min(len(a), len(b))
        assert_matches_scalar(
            FP32,
            RoundingMode.NEAREST_EVEN,
            fp_div,
            vec_div,
            a[:n].astype(np.uint64),
            b[:n].astype(np.uint64),
        )

    @settings(max_examples=30)
    @given(arrays(np.uint32, st.integers(1, 48)))
    def test_sqrt_property(self, a):
        assert_matches_scalar(
            FP32,
            RoundingMode.NEAREST_EVEN,
            fp_sqrt,
            vec_sqrt,
            a.astype(np.uint64),
        )

    @settings(max_examples=30)
    @given(
        arrays(np.uint32, st.integers(1, 32)),
        arrays(np.uint32, st.integers(1, 32)),
        arrays(np.uint32, st.integers(1, 32)),
    )
    def test_fma_property(self, a, b, c):
        n = min(len(a), len(b), len(c))
        assert_matches_scalar(
            FP32,
            RoundingMode.NEAREST_EVEN,
            fp_fma,
            vec_fma,
            a[:n].astype(np.uint64),
            b[:n].astype(np.uint64),
            c[:n].astype(np.uint64),
        )
