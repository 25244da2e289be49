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

from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode, round_significand
from repro.fp.subunits import (
    align_shift,
    denormalize,
    exponent_compare,
    mantissa_compare,
    normalize_shift_amount,
    swap,
)

#: Number of guard/round/sticky bits kept through the datapath.
GRS_BITS = 3


def _special_add(
    fmt: FPFormat,
    a: int,
    b: int,
) -> tuple[int, FPFlags] | None:
    """Resolve NaN/Inf operand cases; return None for the normal path."""
    a_nan, b_nan = fmt.is_nan(a), fmt.is_nan(b)
    if a_nan or b_nan:
        return fmt.nan(), FPFlags(invalid=True)
    a_inf, b_inf = fmt.is_inf(a), fmt.is_inf(b)
    if a_inf and b_inf:
        sa, _, _ = fmt.unpack(a)
        sb, _, _ = fmt.unpack(b)
        if sa != sb:  # (+Inf) + (-Inf)
            return fmt.nan(), FPFlags(invalid=True)
        return fmt.inf(sa), FPFlags()
    if a_inf:
        sa, _, _ = fmt.unpack(a)
        return fmt.inf(sa), FPFlags()
    if b_inf:
        sb, _, _ = fmt.unpack(b)
        return fmt.inf(sb), FPFlags()
    return None


def fp_add(
    fmt: FPFormat,
    a: int,
    b: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Add two words of format ``fmt``; returns ``(result bits, flags)``."""
    special = _special_add(fmt, a, b)
    if special is not None:
        return special

    s1, e1, f1 = fmt.unpack(a)
    s2, e2, f2 = fmt.unpack(b)

    # --- Stage 1: denormalize ------------------------------------------ #
    m1 = denormalize(fmt, e1, f1)
    m2 = denormalize(fmt, e2, f2)

    # Zero operands (biased exponent 0 means zero in this system).
    if e1 == 0 and e2 == 0:
        # IEEE: equal-signed zeros keep the sign; opposite-signed give +0.
        sign = s1 if s1 == s2 else 0
        return fmt.zero(sign), FPFlags(zero=True)
    if e1 == 0:
        return fmt.pack(s2, e2, f2), FPFlags()
    if e2 == 0:
        return fmt.pack(s1, e1, f1), FPFlags()

    # --- Stage 1: compare / swap / align -------------------------------- #
    swap_exp, diff = exponent_compare(e1, e2)
    if not swap_exp and e1 == e2 and mantissa_compare(m1, m2):
        swap_exp = True
    (m1, m2) = swap(m1, m2, swap_exp)
    (s1, s2) = swap(s1, s2, swap_exp)
    exp = e2 if swap_exp else e1

    wide = fmt.sig_bits + GRS_BITS  # significand + GRS working width
    big = m1 << GRS_BITS
    small, sticky = align_shift(m2 << GRS_BITS, diff, wide)

    # --- Stage 2: fixed-point add/subtract ------------------------------ #
    subtract = s1 != s2
    if subtract:
        # Residual of the saturating shifter becomes a sticky borrow; the
        # post-normalization parity argument keeps RNE exact (module doc).
        total = big - small - sticky
        if total == 0:
            # Exact cancellation: +0 in both rounding modes.
            return fmt.zero(0), FPFlags(zero=True)
    else:
        total = big + small
        if total >> wide:  # carry out: pre-normalizer right shift
            sticky |= total & 1
            total >>= 1
            exp += 1

    # --- Stage 3: normalize --------------------------------------------- #
    lsh = normalize_shift_amount(total, wide)
    if lsh > 0:
        total <<= lsh
        exp -= lsh
        if exp <= 0:
            # Result fell below the normal range: flush to zero.
            return fmt.zero(s1), FPFlags(underflow=True, inexact=True, zero=True)

    # --- Stage 3: round -------------------------------------------------- #
    grs = (total & 0b111) | sticky
    sig, inexact = round_significand(total >> GRS_BITS, grs, mode)
    if sig >> fmt.sig_bits:  # rounding carry: 1.11..1 -> 10.00..0
        sig >>= 1
        exp += 1

    if exp >= fmt.exp_max:
        return fmt.inf(s1), FPFlags(overflow=True, inexact=True)
    return fmt.pack(s1, exp, sig & fmt.man_mask), FPFlags(inexact=inexact)


def fp_sub(
    fmt: FPFormat,
    a: int,
    b: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Subtract ``b`` from ``a``: sign-flip feeding the same datapath."""
    sb, eb, fb = fmt.unpack(b)
    if fmt.is_nan(b):
        return fmt.nan(), FPFlags(invalid=True)
    return fp_add(fmt, a, fmt.pack(sb ^ 1, eb, fb), mode)


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
