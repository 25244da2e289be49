"""Wide-format (fp48/fp64) vectorized datapaths: bit-and-flag equivalence
with the scalar cores, limb- and lane-dtype-boundary formats, and the
shared format guard."""

import numpy as np
import pytest

from repro.fp import vectorized
from repro.fp.format import BF16, FP16, FP32, FP48, FP64, FPFormat
from repro.fp.ops import OP_TABLE
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import (
    MAX_MAN_BITS,
    check_vectorized_format,
    lane_dtype,
    supports_vectorized,
    vec_add,
    vec_mul,
    vec_sub,
)
from repro.verify.testbench import OperandClass, OperandGenerator

WIDE_FORMATS = (FP48, FP64)

#: Formats on each side of every lane-dtype switch, with the lane each
#: one must select: the guard-band bound (man_bits <= slot - 5) and the
#: total-width bound of the uint16 and uint32 lanes, plus the narrowest
#: supported format.
LANE_BOUNDARY_FORMATS = {
    FPFormat(exp_bits=2, man_bits=3, name="nano"): "uint16",
    FPFormat(exp_bits=4, man_bits=11, name="e4m11"): "uint16",
    FPFormat(exp_bits=3, man_bits=12, name="e3m12"): "uint32",
    FPFormat(exp_bits=5, man_bits=11, name="w17"): "uint32",
    FPFormat(exp_bits=4, man_bits=27, name="e4m27"): "uint32",
    FPFormat(exp_bits=3, man_bits=28, name="e3m28"): "uint64",
    FPFormat(exp_bits=9, man_bits=23, name="w33"): "uint64",
}

#: Formats straddling the one-limb/two-limb product boundary
#: (2 * sig_bits crosses 64 between man_bits 31 and 32), the maximum
#: supported mantissa, and the lane-dtype boundaries.
BOUNDARY_FORMATS = (
    FPFormat(exp_bits=8, man_bits=30, name="b30"),
    FPFormat(exp_bits=8, man_bits=31, name="b31"),
    FPFormat(exp_bits=8, man_bits=32, name="b32"),
    FPFormat(exp_bits=4, man_bits=59, name="b59"),
) + tuple(LANE_BOUNDARY_FORMATS)

OPS = [(OP_TABLE[op].vectorized, OP_TABLE[op].scalar) for op in ("add", "sub", "mul")]


def random_words(fmt, n, rng):
    return np.array(
        [rng.randrange(fmt.word_mask + 1) for _ in range(n)], dtype=np.uint64
    )


def class_directed_words(fmt, per_pair, seed):
    """One operand array per side, cycling every operand-class pair."""
    gen = OperandGenerator(fmt, seed)
    classes = list(OperandClass)
    a, b = [], []
    for cls_a in classes:
        for cls_b in classes:
            for _ in range(per_pair):
                a.append(gen.sample(cls_a))
                b.append(gen.sample(cls_b))
    return (
        np.array(a, dtype=np.uint64),
        np.array(b, dtype=np.uint64),
    )


def assert_bits_and_flags_match(fmt, a, b, mode):
    for vec, scal in OPS:
        bits, flags = vec(fmt, a, b, mode, with_flags=True)
        plain = vec(fmt, a, b, mode)
        assert np.array_equal(bits, plain), "with_flags must not change bits"
        for i in range(len(a)):
            want_bits, want_flags = scal(fmt, int(a[i]), int(b[i]), mode)
            assert int(bits[i]) == want_bits, (
                vec.__name__, fmt.name, mode.value,
                hex(int(a[i])), hex(int(b[i])),
            )
            assert int(flags[i]) == want_flags.to_bits(), (
                vec.__name__, fmt.name, mode.value,
                hex(int(a[i])), hex(int(b[i])),
            )


def special_pairs(fmt):
    """Both operand arrays of the full grid of special-value pairs."""
    specials = np.array(
        [
            fmt.zero(0), fmt.zero(1),
            fmt.one(0), fmt.one(1),
            fmt.min_normal(), fmt.min_normal(1),
            fmt.max_finite(), fmt.max_finite(1),
            fmt.inf(0), fmt.inf(1),
            fmt.nan(),
            fmt.pack(0, 0, fmt.man_mask),  # denormal pattern
            fmt.pack(1, 0, 1),
            fmt.pack(0, fmt.bias, fmt.man_mask),  # tie-prone
            fmt.pack(1, fmt.bias + 1, 1),
        ],
        dtype=np.uint64,
    )
    a, b = np.meshgrid(specials, specials)
    return a.ravel(), b.ravel()


def pin_lane(monkeypatch, fmt, lane):
    """Run add/sub/mul for every format on ``lane``, as the lanes bench
    does for its uint64 baseline, by substituting the one lane-selection
    function."""
    monkeypatch.setattr(vectorized, "_lane_dtype", lambda f: lane)
    assert lane_dtype("mul", fmt) == np.dtype(lane).name


class TestWideEquivalence:
    @pytest.mark.parametrize("fmt", WIDE_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_random_words(self, fmt, mode, rng):
        a = random_words(fmt, 800, rng)
        b = random_words(fmt, 800, rng)
        assert_bits_and_flags_match(fmt, a, b, mode)

    @pytest.mark.parametrize("fmt", WIDE_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_class_directed(self, fmt, mode):
        a, b = class_directed_words(fmt, per_pair=3, seed=0x51DE)
        assert_bits_and_flags_match(fmt, a, b, mode)

    @pytest.mark.parametrize(
        "fmt", WIDE_FORMATS + (FP16, BF16, FP32), ids=lambda f: f.name
    )
    def test_all_special_pairs(self, fmt):
        a, b = special_pairs(fmt)
        assert_bits_and_flags_match(fmt, a, b, RoundingMode.NEAREST_EVEN)


class TestLimbBoundaryFormats:
    @pytest.mark.parametrize("fmt", BOUNDARY_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_boundary_equivalence(self, fmt, mode, rng):
        a = random_words(fmt, 500, rng)
        b = random_words(fmt, 500, rng)
        assert_bits_and_flags_match(fmt, a, b, mode)

    @pytest.mark.parametrize("fmt", BOUNDARY_FORMATS, ids=lambda f: f.name)
    def test_boundary_class_directed(self, fmt):
        a, b = class_directed_words(fmt, per_pair=2, seed=7)
        for mode in RoundingMode:
            assert_bits_and_flags_match(fmt, a, b, mode)

    @pytest.mark.parametrize(
        "fmt,dtype", LANE_BOUNDARY_FORMATS.items(), ids=lambda p: str(p)
    )
    def test_boundary_formats_select_their_lane(self, fmt, dtype):
        for op in ("add", "sub", "mul"):
            assert lane_dtype(op, fmt) == dtype
        for op in ("div", "sqrt", "fma"):
            assert lane_dtype(op, fmt) == "uint64"


class TestPinnedLanes:
    """A narrow format gives the same bits and flags on every lane that
    holds it — its own lane and each wider one."""

    @pytest.mark.parametrize(
        "fmt,lane",
        [
            (fmt, lane)
            for fmt in (FP16, BF16, FP32)
            for lane in (np.uint16, np.uint32, np.uint64)
            if np.dtype(lane).itemsize >= np.dtype(lane_dtype("mul", fmt)).itemsize
        ],
        ids=lambda p: p.name if isinstance(p, FPFormat) else np.dtype(p).name,
    )
    def test_all_special_pairs(self, fmt, lane, monkeypatch):
        pin_lane(monkeypatch, fmt, lane)
        a, b = special_pairs(fmt)
        assert_bits_and_flags_match(fmt, a, b, RoundingMode.NEAREST_EVEN)

    @pytest.mark.parametrize(
        "lane", [np.uint16, np.uint32, np.uint64], ids=lambda l: np.dtype(l).name
    )
    def test_narrowest_supported_format(self, lane, monkeypatch, rng):
        # The vectorized floor (man_bits = 3) runs on every lane.
        fmt = next(f for f in LANE_BOUNDARY_FORMATS if f.name == "nano")
        pin_lane(monkeypatch, fmt, lane)
        a = random_words(fmt, 512, rng)
        b = random_words(fmt, 512, rng)
        for mode in RoundingMode:
            assert_bits_and_flags_match(fmt, a, b, mode)


class TestNarrowFlagSideband:
    """Flags are new for narrow formats too; pin them against scalar."""

    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_fp32_flags(self, mode, rng):
        a = random_words(FP32, 600, rng)
        b = random_words(FP32, 600, rng)
        assert_bits_and_flags_match(FP32, a, b, mode)

    def test_fp32_class_directed_flags(self):
        a, b = class_directed_words(FP32, per_pair=2, seed=3)
        assert_bits_and_flags_match(FP32, a, b, RoundingMode.NEAREST_EVEN)


class TestFormatGuard:
    def test_supports_vectorized(self):
        assert all(supports_vectorized(f) for f in (FP32, FP48, FP64))
        assert all(supports_vectorized(f) for f in BOUNDARY_FORMATS)
        assert not supports_vectorized(FPFormat(exp_bits=12, man_bits=52))
        assert not supports_vectorized(FPFormat(exp_bits=4, man_bits=60))
        assert not supports_vectorized(FPFormat(exp_bits=4, man_bits=2))

    def test_width_65_rejected(self):
        fp65 = FPFormat(exp_bits=12, man_bits=52, name="fp65")
        with pytest.raises(ValueError, match="width <= 64"):
            check_vectorized_format(fp65)

    def test_man_bits_over_59_rejected(self):
        # width 64, but the GRS-extended sum would overflow a limb.
        fat = FPFormat(exp_bits=3, man_bits=60, name="fat")
        assert fat.width == 64
        with pytest.raises(ValueError, match=f"fraction bits <= {MAX_MAN_BITS}"):
            check_vectorized_format(fat)

    def test_shared_message_across_entry_points(self):
        from repro.kernels.fast import dot_vectorized, functional_matmul_vectorized

        fp65 = FPFormat(exp_bits=12, man_bits=52, name="fp65")
        messages = set()
        for call in (
            lambda: vec_add(fp65, np.zeros(1, np.uint64), np.zeros(1, np.uint64)),
            lambda: vec_mul(fp65, np.zeros(1, np.uint64), np.zeros(1, np.uint64)),
            lambda: vec_sub(fp65, np.zeros(1, np.uint64), np.zeros(1, np.uint64)),
            lambda: functional_matmul_vectorized(
                fp65, np.zeros((2, 2), np.uint64), np.zeros((2, 2), np.uint64)
            ),
            lambda: dot_vectorized(
                fp65, np.zeros(2, np.uint64), np.zeros(2, np.uint64), 1
            ),
        ):
            with pytest.raises(ValueError) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1, messages
