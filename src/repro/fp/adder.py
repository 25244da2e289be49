"""Floating-point adder/subtractor datapath (paper Figure 1a).

The implementation follows the standard three-stage algorithm the paper
uses — denormalization/pre-shifting, mantissa addition/subtraction, and
normalization/rounding — composed from the subunits in
:mod:`repro.fp.subunits`:

Stage 1 (denormalization / pre-shifting)
    * denormalizer (hidden bit via exponent-is-zero comparators)
    * exponent comparator + mantissa swapper
    * exponent subtractor (alignment distance)
    * alignment barrel shifter with sticky collection

Stage 2 (fixed-point add/sub)
    * mantissa adder/subtractor (carry-save sticky-borrow trick)
    * pre-normalizer (1-bit right shift on carry-out, exponent increment)

Stage 3 (normalize / round)
    * priority encoder + left shifter + exponent subtractor
    * rounding constant-adders (round-to-nearest-even or truncate)

Rounding is exact (correctly rounded) for both modes: the alignment keeps
three guard/round/sticky bits and the subtraction folds the residual of
the saturating shifter into a sticky borrow, which is sufficient because a
far-path subtraction normalizes by at most one position.

Denormals are flushed to zero on input and output; overflow saturates to
±Inf; NaN/Inf operands raise ``invalid``/propagate per IEEE conventions so
results stay interpretable even though the hardware spends no datapath on
them (paper §3).
"""

from __future__ import annotations

from functools import cache

from repro.fp.flags import (
    CLEAR,
    INEXACT,
    INVALID,
    OVERFLOW,
    UNDERFLOW,
    ZERO,
    FPFlags,
)
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode
from repro.fp.stages import Done, Stage, out_of_range, rounder, run
from repro.fp.subunits import (
    align_shift,
    exponent_compare,
    mantissa_compare,
    normalize_shift_amount,
    swap,
)

#: Number of guard/round/sticky bits kept through the datapath.
GRS_BITS = 3


@cache
def adder_stages(fmt: FPFormat, mode: RoundingMode) -> tuple[Stage, ...]:
    """The Figure 1a datapath as eight stages over ``(a, b, subtract)``;
    a true ``subtract`` flips ``b``'s sign bit before unpacking."""
    width, man_bits, man_mask = fmt.width, fmt.man_bits, fmt.man_mask
    exp_mask, exp_max = fmt.exp_mask, fmt.exp_max
    sign_shift = width - 1
    hidden = 1 << man_bits
    inf, nan = exp_max << man_bits, fmt.nan()
    wide = fmt.sig_bits + GRS_BITS  # significand + GRS working width
    rnd = rounder(fmt, mode)

    def unpack(a, b, subtract):
        if (a | b) >> width:
            out_of_range(fmt, a, b)
        if subtract:
            b ^= 1 << sign_shift
        s1, e1, f1 = a >> sign_shift, (a >> man_bits) & exp_mask, a & man_mask
        s2, e2, f2 = b >> sign_shift, (b >> man_bits) & exp_mask, b & man_mask
        if e1 == exp_max or e2 == exp_max:
            # NaN operand or (+Inf) + (-Inf): invalid; else the Inf wins.
            if (e1 == exp_max and f1) or (e2 == exp_max and f2):
                return Done((nan, INVALID))
            if e1 == e2 and s1 != s2:
                return Done((nan, INVALID))
            return Done((((s1 if e1 == exp_max else s2) << sign_shift) | inf, CLEAR))
        return s1, e1, f1, s2, e2, f2

    def denorm(s1, e1, f1, s2, e2, f2):
        # Biased exponent 0 means zero in this system.
        if e1 == 0 and e2 == 0:
            # IEEE: equal-signed zeros keep the sign; opposite-signed give +0.
            return Done(((s1 << sign_shift) if s1 == s2 else 0, ZERO))
        if e1 == 0:
            return Done(((s2 << sign_shift) | (e2 << man_bits) | f2, CLEAR))
        if e2 == 0:
            return Done(((s1 << sign_shift) | (e1 << man_bits) | f1, CLEAR))
        return hidden | f1, hidden | f2, s1, s2, e1, e2

    def swap_stage(m1, m2, s1, s2, e1, e2):
        swap_exp, diff = exponent_compare(e1, e2)
        if not swap_exp and e1 == e2 and mantissa_compare(m1, m2):
            swap_exp = True
        m1, m2 = swap(m1, m2, swap_exp)
        s1, s2 = swap(s1, s2, swap_exp)
        return m1, m2, s1, s2, e2 if swap_exp else e1, diff

    def align(m1, m2, s1, s2, exp, diff):
        small, sticky = align_shift(m2 << GRS_BITS, diff, wide)
        return m1 << GRS_BITS, small, sticky, s1, s2, exp

    def add_sub(big, small, sticky, s1, s2, exp):
        if s1 != s2:
            # Residual of the saturating shifter becomes a sticky borrow; the
            # post-normalization parity argument keeps RNE exact (module doc).
            total = big - small - sticky
            if total == 0:
                # Exact cancellation: +0 in both rounding modes.
                return Done((0, ZERO))
        else:
            total = big + small
            if total >> wide:  # carry out: pre-normalizer right shift
                sticky |= total & 1
                total >>= 1
                exp += 1
        return total, exp, sticky, s1

    def normalize(total, exp, sticky, s1):
        lsh = normalize_shift_amount(total, wide)
        if lsh > 0:
            total <<= lsh
            exp -= lsh
            if exp <= 0:
                # Result fell below the normal range: flush to zero.
                return Done((s1 << sign_shift, UNDERFLOW))
        return total, exp, sticky, s1

    def round_stage(total, exp, sticky, s1):
        sig, exp, inexact = rnd(total >> GRS_BITS, (total & 0b111) | sticky, exp)
        return sig, exp, inexact, s1

    def pack(sig, exp, inexact, s1):
        if exp >= exp_max:
            return Done(((s1 << sign_shift) | inf, OVERFLOW))
        word = (s1 << sign_shift) | (exp << man_bits) | (sig & man_mask)
        return Done((word, INEXACT if inexact else CLEAR))

    return (
        Stage("unpack", unpack),
        Stage("denorm", denorm, ("m1", "m2")),
        Stage("swap", swap_stage),
        Stage("align", align, ("big", "small", "sticky")),
        Stage("add_sub", add_sub, ("total", "exp", "sticky")),
        Stage("normalize", normalize, ("total", "exp")),
        Stage("round", round_stage, ("sig", "exp", "inexact")),
        Stage("pack", pack),
    )


def fp_add(
    fmt: FPFormat,
    a: int,
    b: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Add two words of format ``fmt``; returns ``(result bits, flags)``."""
    return run(adder_stages(fmt, mode), a, b, False)


def fp_sub(
    fmt: FPFormat,
    a: int,
    b: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Subtract ``b`` from ``a``: sign-flip feeding the same datapath."""
    return run(adder_stages(fmt, mode), a, b, True)


class FPAdder:
    """Combinational adder/subtractor bound to a format and rounding mode.

    This is the zero-latency functional model; :class:`repro.units.
    PipelinedFPAdder` runs the same datapath in a cycle-accurate pipeline
    with an area/frequency implementation report.
    """

    def __init__(
        self,
        fmt: FPFormat,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        self.fmt = fmt
        self.mode = mode

    def add(self, a: int, b: int) -> tuple[int, FPFlags]:
        return fp_add(self.fmt, a, b, self.mode)

    def sub(self, a: int, b: int) -> tuple[int, FPFlags]:
        return fp_sub(self.fmt, a, b, self.mode)

    def __call__(self, a: int, b: int, subtract: bool = False) -> tuple[int, FPFlags]:
        return self.sub(a, b) if subtract else self.add(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FPAdder({self.fmt.name}, {self.mode.value})"
