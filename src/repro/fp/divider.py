"""Floating-point divider datapath (extension beyond the paper).

The paper's Table 3 comparator (Quixilica) ships a divider core; this
module extends the library with one built with the same methodology as
the paper's adder/multiplier:

Stage 1 (denormalization)
    * the shared denormalizer inserts the implied 1.

Stage 2 (fixed-point core)
    * a digit-recurrence mantissa divider (one subtract/compare row per
      quotient bit — the deeply pipelinable array that dominates area)
    * exponent subtractor + bias adder
    * sign XOR

Stage 3 (normalize / round)
    * the quotient of two normalized significands lies in (1/2, 2), so
      normalization is at most one position (plus a possible
      rounding-carry shift), like the multiplier
    * the shared rounding module; the recurrence remainder feeds the
      sticky bit, so both rounding modes are exact.

Special cases follow IEEE conventions within the denormal-free system:
x/0 raises ``div_by_zero`` (±Inf), 0/0 and Inf/Inf raise ``invalid``
(NaN), x/Inf gives signed zero.

The recurrence has two forms around the same other stages: closed form
(:func:`divider_stages`, one ``divmod``) and the row array
(:func:`divider_rows`, the structural core).
"""

from __future__ import annotations

from functools import cache

from repro.fp.flags import CLEAR, DIV_BY_ZERO, INVALID, ZERO, FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode
from repro.fp.stages import Done, Stage, out_of_range, packer, rounder, run
from repro.fp.subunits import sign_xor


@cache
def divider_stages(fmt: FPFormat, mode: RoundingMode) -> tuple[Stage, ...]:
    """The divider over ``(a, b)``: unpack, the recurrence in closed form
    (one integer division), normalize/round and pack."""
    width, man_bits, man_mask = fmt.width, fmt.man_bits, fmt.man_mask
    exp_mask, exp_max, bias = fmt.exp_mask, fmt.exp_max, fmt.bias
    sign_shift = width - 1
    hidden = 1 << man_bits
    inf, nan = exp_max << man_bits, fmt.nan()
    steps = man_bits + 3  # quotient bits after the integer one
    rnd = rounder(fmt, mode)

    def unpack(a, b):
        if (a | b) >> width:
            out_of_range(fmt, a, b)
        e1, f1 = (a >> man_bits) & exp_mask, a & man_mask
        e2, f2 = (b >> man_bits) & exp_mask, b & man_mask
        sign = sign_xor(a >> sign_shift, b >> sign_shift)
        if e1 == exp_max or e2 == exp_max or e1 == 0 or e2 == 0:
            if (e1 == exp_max and f1) or (e2 == exp_max and f2):
                return Done((nan, INVALID))  # NaN operand
            if e1 == e2:
                return Done((nan, INVALID))  # Inf/Inf or 0/0
            if e1 == exp_max or e2 == 0:  # Inf/y, or finite non-zero / 0
                flags = CLEAR if e1 == exp_max else DIV_BY_ZERO
                return Done(((sign << sign_shift) | inf, flags))
            return Done((sign << sign_shift, ZERO))  # x/Inf or 0/y
        rem = hidden | f1
        div = hidden | f2
        # The initial compare establishes the recurrence invariant rem < div
        # (two normalized significands satisfy rem < 2*div), producing the
        # integer quotient bit.
        q = 0
        if rem >= div:
            rem -= div
            q = 1
        return rem, div, q, e1 - e2 + bias, sign

    def recurrence(rem, div, q, exp, sign):
        # The array's ``steps`` rows at once: the same quotient bits and
        # final partial remainder as :func:`divider_rows`' row stages.
        bits, rem = divmod(rem << steps, div)
        return rem, div, (q << steps) | bits, exp, sign

    def normalize_round(rem, div, q, exp, sign):
        # q in (2^(wm+2), 2^(wm+4)): ratio in [1,2) gives wm+4 bits, ratio
        # in (1/2,1) gives wm+3 bits (one-position normalization); the
        # remainder collapses into the sticky bit.
        if q >> steps:  # ratio >= 1
            sig = q >> 3
            grs = (q & 0b110) | (1 if (q & 0b1) or rem else 0)
        else:
            exp -= 1
            sig = q >> 2
            grs = ((q & 0b11) << 1) | (1 if rem else 0)
        return *rnd(sig, grs, exp), sign

    return (
        Stage("unpack", unpack),
        Stage("recurrence", recurrence, ("rem", "q")),
        Stage("normalize_round", normalize_round, ("sig", "exp", "inexact")),
        Stage("pack", packer(fmt)),
    )


@cache
def divider_rows(fmt: FPFormat, mode: RoundingMode) -> tuple[Stage, ...]:
    """:func:`divider_stages` with its recurrence as the hardware array:
    restoring division, one quotient bit per ``row[i]`` stage."""
    unpack, _, normalize_round, pack = divider_stages(fmt, mode)

    def row(rem, div, q, exp, sign):
        rem <<= 1
        q <<= 1
        if rem >= div:
            rem -= div
            q |= 1
        return rem, div, q, exp, sign

    rows = (Stage(f"row[{i}]", row, ("rem", "q")) for i in range(fmt.man_bits + 3))
    return (unpack, *rows, normalize_round, pack)


def fp_div(
    fmt: FPFormat,
    a: int,
    b: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Divide ``a`` by ``b``; returns ``(result bits, flags)``."""
    return run(divider_stages(fmt, mode), a, b)


class FPDivider:
    """Combinational divider bound to a format and rounding mode."""

    def __init__(
        self,
        fmt: FPFormat,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        self.fmt = fmt
        self.mode = mode

    def div(self, a: int, b: int) -> tuple[int, FPFlags]:
        return fp_div(self.fmt, a, b, self.mode)

    def __call__(self, a: int, b: int) -> tuple[int, FPFlags]:
        return self.div(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FPDivider({self.fmt.name}, {self.mode.value})"
