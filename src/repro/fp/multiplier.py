"""Floating-point multiplier datapath (paper Figure 1b).

Stage 1 (denormalization)
    * the same denormalizer as the adder inserts the implied 1.

Stage 2 (fixed-point core)
    * mantissa multiplier (the MULT18x18 array + adder tree)
    * exponent adder followed by bias subtractor (pipeline-insertable)
    * sign XOR

Stage 3 (normalize / round)
    * a two-position shifter (no denormals means the product of two
      normalized significands lies in [1, 4), so at most one shift plus a
      possible rounding-carry shift — "at most two bits", paper §3)
    * exponent adjust subtractor
    * the same rounding module as the adder

Rounding is exact for both supported modes: the full double-width product
is formed before guard/round/sticky compression, as the embedded
multiplier array does in hardware.
"""

from __future__ import annotations

from functools import cache

from repro.fp.flags import CLEAR, INVALID, ZERO, FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode, extract_grs
from repro.fp.stages import Done, Stage, out_of_range, packer, rounder, run
from repro.fp.subunits import fixed_mul, sign_xor


@cache
def multiplier_stages(fmt: FPFormat, mode: RoundingMode) -> tuple[Stage, ...]:
    """The Figure 1b datapath as six stages over ``(a, b)``."""
    width, man_bits, man_mask = fmt.width, fmt.man_bits, fmt.man_mask
    exp_mask, exp_max, bias = fmt.exp_mask, fmt.exp_max, fmt.bias
    sig_bits, sign_shift = fmt.sig_bits, width - 1
    hidden = 1 << man_bits
    inf, nan = exp_max << man_bits, fmt.nan()
    prod_bits = 2 * sig_bits
    rnd = rounder(fmt, mode)

    def unpack(a, b):
        if (a | b) >> width:
            out_of_range(fmt, a, b)
        e1, f1 = (a >> man_bits) & exp_mask, a & man_mask
        e2, f2 = (b >> man_bits) & exp_mask, b & man_mask
        sign = sign_xor(a >> sign_shift, b >> sign_shift)
        if e1 == exp_max or e2 == exp_max:
            # NaN operand or 0 x Inf: invalid; else a signed Inf.
            if (e1 == exp_max and f1) or (e2 == exp_max and f2):
                return Done((nan, INVALID))
            if e1 == 0 or e2 == 0:
                return Done((nan, INVALID))
            return Done(((sign << sign_shift) | inf, CLEAR))
        if e1 == 0 or e2 == 0:  # zero operand (denormals already flushed)
            return Done((sign << sign_shift, ZERO))
        return e1, f1, e2, f2, sign

    def denorm(e1, f1, e2, f2, sign):
        return hidden | f1, hidden | f2, e1, e2, sign

    def multiply(m1, m2, e1, e2, sign):
        # 2 * sig_bits wide, in [2^(2wm), 2^(2wm+2)); the exponent adder
        # then the bias subtractor.
        return fixed_mul(m1, m2), e1 + e2 - bias, sign

    def normalize(product, exp, sign):
        if product >> (prod_bits - 1):  # product in [2, 4): one-position shift
            sig, grs = extract_grs(product, sig_bits, prod_bits)
            return sig, grs, exp + 1, sign
        sig, grs = extract_grs(product, sig_bits, prod_bits - 1)  # in [1, 2)
        return sig, grs, exp, sign

    def round_stage(sig, grs, exp, sign):
        # A rounding carry is the second shift position.
        return *rnd(sig, grs, exp), sign

    return (
        Stage("unpack", unpack),
        Stage("denorm", denorm, ("m1", "m2")),
        Stage("multiply", multiply, ("product", "exp")),
        Stage("normalize", normalize, ("sig", "grs", "exp")),
        Stage("round", round_stage, ("sig", "exp", "inexact")),
        Stage("pack", packer(fmt)),
    )


def fp_mul(
    fmt: FPFormat,
    a: int,
    b: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Multiply two words of format ``fmt``; returns ``(bits, flags)``."""
    return run(multiplier_stages(fmt, mode), a, b)


class FPMultiplier:
    """Combinational multiplier bound to a format and rounding mode."""

    def __init__(
        self,
        fmt: FPFormat,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        self.fmt = fmt
        self.mode = mode

    def mul(self, a: int, b: int) -> tuple[int, FPFlags]:
        return fp_mul(self.fmt, a, b, self.mode)

    def __call__(self, a: int, b: int) -> tuple[int, FPFlags]:
        return self.mul(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FPMultiplier({self.fmt.name}, {self.mode.value})"
