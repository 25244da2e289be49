"""Floating-point square root datapath (extension beyond the paper).

Square root completes the classic FP library quartet.  Like the divider
it is a digit-recurrence unit — one result bit per row, quadratic area —
and it shares the denormalize / normalize / round infrastructure:

Stage 1: denormalizer + exponent halving (an even/odd select: the
    significand is pre-doubled when the unbiased exponent is odd so the
    remaining exponent divides exactly by two).
Stage 2: the square-root recurrence — one row per result bit, each a
    short subtract/compare against the partial result.
Stage 3: rounding (the result of a square root of a normal number is
    always in [1, 2), so no normalization shift is ever needed; overflow
    and underflow are impossible).

The recurrence remainder feeds the sticky bit, so both rounding modes
are exact; moreover a square root is never an exact tie (an odd
``q^2 = N`` parity argument), which the tests exercise.

Negative non-zero operands raise ``invalid`` (NaN); ``sqrt(±0) = ±0``;
``sqrt(+Inf) = +Inf``.

The recurrence has two forms around the same other stages: closed form
(:func:`sqrt_stages`, one ``math.isqrt``) and the row array
(:func:`sqrt_rows`, the structural core).
"""

from __future__ import annotations

import math
from functools import cache

from repro.fp.flags import CLEAR, INEXACT, INVALID, ZERO, FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode
from repro.fp.stages import Done, Stage, out_of_range, rounder, run

#: Guard bits produced beyond the significand (guard/round + sticky).
_EXTRA = 3


@cache
def sqrt_stages(fmt: FPFormat, mode: RoundingMode) -> tuple[Stage, ...]:
    """The square root over ``(a,)``: unpack, the recurrence in closed
    form (one integer square root) and round/pack."""
    width, man_bits, man_mask = fmt.width, fmt.man_bits, fmt.man_mask
    exp_mask, exp_max, bias = fmt.exp_mask, fmt.exp_max, fmt.bias
    sign_shift = width - 1
    hidden = 1 << man_bits
    nan = fmt.nan()
    # Scale so the integer square root carries sig_bits + _EXTRA bits:
    # q = sqrt(m_adj / 2^wm) * 2^t lies in [2^t, 2^(t+1)).
    t = man_bits + _EXTRA
    rnd = rounder(fmt, mode)

    def unpack(a):
        if a >> width:
            out_of_range(fmt, a)
        sign, e, f = a >> sign_shift, (a >> man_bits) & exp_mask, a & man_mask
        if e == 0:  # signed zero passes through (IEEE)
            return Done((sign << sign_shift, ZERO))
        if (e == exp_max and f) or sign:
            return Done((nan, INVALID))  # NaN or negative operand
        if e == exp_max:
            return Done((exp_max << man_bits, CLEAR))  # sqrt(+Inf)
        # value = u * 2^E with u = m / 2^wm in [1, 2) and E = e - bias.  Make
        # the exponent even by pre-doubling the significand when E is odd:
        # sqrt(value) = sqrt(u * 2^p) * 2^((E - p) / 2).
        e_unbiased = e - bias
        parity = e_unbiased % 2
        radicand = ((hidden | f) << parity) << (2 * t - man_bits)
        return radicand, 0, 0, (e_unbiased - parity) // 2

    def recurrence(radicand, q, r, half_exp):
        # All rows at once: the same result and remainder as
        # :func:`sqrt_recurrence` (the pinned row form).
        q = math.isqrt(radicand)
        return radicand, q, radicand - q * q, half_exp

    def round_pack(radicand, q, r, half_exp):
        # q in [2^t, 2^(t+1)): significand plus guard/round; the remainder
        # is sticky.  A normal input gives an exponent strictly inside the
        # normal range, so there is no overflow or underflow.
        grs = (q & 0b110) | (1 if (q & 1) or r else 0)
        sig, exp, inexact = rnd(q >> _EXTRA, grs, half_exp + bias)
        word = (exp << man_bits) | (sig & man_mask)
        return Done((word, INEXACT if inexact else CLEAR))

    return (
        Stage("unpack", unpack),
        Stage("recurrence", recurrence, ("q", "r")),
        Stage("round_pack", round_pack),
    )


def _sqrt_row(q: int, r: int, two: int) -> tuple[int, int]:
    """One recurrence row: bring down two radicand bits, try ``q:01``."""
    r = (r << 2) | two
    trial = (q << 2) | 1
    if r >= trial:
        return (q << 1) | 1, r - trial
    return q << 1, r


@cache
def sqrt_rows(fmt: FPFormat, mode: RoundingMode) -> tuple[Stage, ...]:
    """:func:`sqrt_stages` with its recurrence as the hardware array: two
    radicand bits per ``row[i]`` stage, one result bit each."""
    unpack, _, round_pack = sqrt_stages(fmt, mode)
    rows = fmt.man_bits + _EXTRA + 1  # result bits

    def make_row(index: int) -> Stage:
        shift = 2 * (rows - 1 - index)

        def row(radicand, q, r, half_exp):
            return radicand, *_sqrt_row(q, r, (radicand >> shift) & 0b11), half_exp

        return Stage(f"row[{index}]", row, ("q", "r"))

    return (unpack, *(make_row(i) for i in range(rows)), round_pack)


def fp_sqrt(
    fmt: FPFormat,
    a: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> tuple[int, FPFlags]:
    """Square root of ``a``; returns ``(result bits, flags)``."""
    return run(sqrt_stages(fmt, mode), a)


def sqrt_recurrence(radicand: int, result_bits: int) -> tuple[int, int]:
    """The hardware bit-serial square-root recurrence.

    Processes the radicand two bits per row, maintaining the invariant
    partial remainder; returns ``(q, remainder)`` identical to
    ``math.isqrt`` — the structural array runs the same rows and the test
    suite pins the equivalence.
    """
    q = r = 0
    for i in reversed(range(result_bits)):
        q, r = _sqrt_row(q, r, (radicand >> (2 * i)) & 0b11)
    return q, r


class FPSqrt:
    """Combinational square root bound to a format and rounding mode."""

    def __init__(
        self,
        fmt: FPFormat,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        self.fmt = fmt
        self.mode = mode

    def sqrt(self, a: int) -> tuple[int, FPFlags]:
        return fp_sqrt(self.fmt, a, self.mode)

    def __call__(self, a: int) -> tuple[int, FPFlags]:
        return self.sqrt(a)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FPSqrt({self.fmt.name}, {self.mode.value})"
