"""Fused multiply-add datapath (extension beyond the paper).

A fused MAC computes ``round(a*b + c)`` with a *single* rounding, unlike
the paper's PE which chains the multiplier into the adder (two
roundings).  Fusion was an obvious next step for the paper's PE design
(it removes the intermediate normalize/round stage and halves the
accumulation error), so the library ships one and the ablation benchmarks
compare chained vs fused PEs.

The datapath is integer, in five stages: unpack, the double-width
significand product, an align-add that brings the product and the
addend to a common scale, one normalize/round, and pack.  The sum is
held exactly before the single rounding, which is bit-identical to a
hardware FMA whose alignment datapath keeps ``3*sig_bits + 2`` bits plus
sticky; Python integers play the role of that wide datapath.  The
``Fraction`` oracle :func:`repro.fp.reference.ref_fma` computes the same
result independently, and the tests and the differential campaign pin
the two to each other.
"""

from __future__ import annotations

from functools import cache

from repro.fp.flags import CLEAR, INVALID, ZERO, FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode
from repro.fp.stages import Done, Stage, out_of_range, packer, rounder, run
from repro.fp.subunits import sign_xor


@cache
def fma_stages(fmt: FPFormat, mode: RoundingMode) -> tuple[Stage, ...]:
    """The fused ``a*b + c`` datapath as five stages over ``(a, b, c)``."""
    width, man_bits, man_mask = fmt.width, fmt.man_bits, fmt.man_mask
    exp_mask, exp_max, bias = fmt.exp_mask, fmt.exp_max, fmt.bias
    sign_shift = width - 1
    hidden = 1 << man_bits
    inf, nan = exp_max << man_bits, fmt.nan()
    rnd = rounder(fmt, mode)

    def unpack(a, b, c):
        if (a | b | c) >> width:
            out_of_range(fmt, a, b, c)
        e1, f1 = (a >> man_bits) & exp_mask, a & man_mask
        e2, f2 = (b >> man_bits) & exp_mask, b & man_mask
        e3, f3 = (c >> man_bits) & exp_mask, c & man_mask
        psign, csign = sign_xor(a >> sign_shift, b >> sign_shift), c >> sign_shift
        if e1 == exp_max or e2 == exp_max or e3 == exp_max:
            if (
                (e1 == exp_max and f1)
                or (e2 == exp_max and f2)
                or (e3 == exp_max and f3)
            ):
                return Done((nan, INVALID))  # NaN operand
            if e1 == exp_max or e2 == exp_max:  # an Inf product
                if e1 == 0 or e2 == 0 or (e3 == exp_max and csign != psign):
                    return Done((nan, INVALID))  # 0 x Inf, or Inf - Inf
                return Done(((psign << sign_shift) | inf, CLEAR))
            return Done(((csign << sign_shift) | inf, CLEAR))
        # Each operand as a signed-magnitude integer times 2^scale; biased
        # exponent 0 is zero (denormals flushed).
        return (
            psign,
            csign,
            hidden | f1 if e1 else 0,
            hidden | f2 if e2 else 0,
            hidden | f3 if e3 else 0,
            e1 + e2 - 2 * bias - 2 * man_bits,
            e3 - bias - man_bits,
        )

    def multiply(psign, csign, m1, m2, mc, pscale, cscale):
        return m1 * m2, psign, csign, mc, pscale, cscale

    def align_add(prod, psign, csign, mc, pscale, cscale):
        scale = min(pscale, cscale)
        p = prod << (pscale - scale)
        q = mc << (cscale - scale)
        total = (-p if psign else p) + (-q if csign else q)
        if total == 0:
            # IEEE zero-sign rules: two zero contributions keep a shared
            # sign; exact cancellation gives +0.
            if p == 0 and q == 0 and psign == csign:
                return Done((psign << sign_shift, ZERO))
            return Done((0, ZERO))
        return 1 if total < 0 else 0, abs(total), scale

    def normalize_round(sign, mag, scale):
        exp = scale + mag.bit_length() - 1
        # Keep sig_bits + two guard bits above the point; everything the
        # shift drops is sticky (cf. encode_fraction).
        shift = man_bits + 3 - mag.bit_length()
        if shift >= 0:
            t = mag << shift
            sticky = 0
        else:
            t = mag >> -shift
            sticky = 1 if mag & ((1 << -shift) - 1) else 0
        return *rnd(t >> 2, ((t & 0b11) << 1) | sticky, exp), sign

    return (
        Stage("unpack", unpack),
        Stage("multiply", multiply, ("prod",)),
        Stage("align_add", align_add),
        Stage("normalize_round", normalize_round, ("sig", "exp", "inexact")),
        Stage("pack", packer(fmt, bias)),
    )


def fp_fma(
    fmt: FPFormat,
    a: int,
    b: int,
    c: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Fused ``a*b + c`` with a single rounding; returns ``(bits, flags)``."""
    return run(fma_stages(fmt, mode), a, b, c)


class FPMac:
    """Combinational fused MAC bound to a format and rounding mode."""

    def __init__(
        self,
        fmt: FPFormat,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        self.fmt = fmt
        self.mode = mode

    def fma(self, a: int, b: int, c: int) -> tuple[int, FPFlags]:
        return fp_fma(self.fmt, a, b, c, self.mode)

    def __call__(self, a: int, b: int, c: int) -> tuple[int, FPFlags]:
        return self.fma(a, b, c)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FPMac({self.fmt.name}, {self.mode.value})"
