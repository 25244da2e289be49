"""One stage description per op: each datapath as a tuple of named stages.

Each op's module builds its tuple once per (format, rounding mode), with
the format's field constants bound, so no stage reads an
:class:`~repro.fp.format.FPFormat` property per call.  A stage is a plain
function named after the hardware block it models: its parameter names
are the signals it reads, and it returns the next stage's signals, in
that stage's parameter order, or a finished ``(bits, flags)`` as a
:class:`Done` (early: the special-operand sideband of paper §3).  One
description, two timings, as in ieee754fpu's ``StageChain``: :func:`run`
chains the stages (the scalar ``fp_*``), and the bundle adapter of
:mod:`repro.units.structural` registers them as micro-ops.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.fp.flags import CLEAR, INEXACT, OVERFLOW, UNDERFLOW, FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode, round_significand


class Done(tuple):
    """A finished ``(bits, flags)`` pair; the stage returning it ends the op."""

    __slots__ = ()


class Stage(NamedTuple):
    """One named block of a datapath.

    ``drives`` names the outputs the block computes; its other outputs
    ride along unchanged from its inputs (``None``: it drives them all).
    The scalar chain passes every output on; the bundle adapter merges
    only the driven ones, which are also the block's trace signals and
    fault sites.
    """

    name: str
    fn: Callable[..., tuple]
    drives: Optional[tuple[str, ...]] = None


def inputs_of(fn: Callable[..., tuple]) -> tuple[str, ...]:
    """The signals a stage function reads: its parameter names, in order."""
    code = fn.__code__
    return code.co_varnames[: code.co_argcount]


def run(stages: tuple[Stage, ...], *signals) -> tuple[int, FPFlags]:
    """Chain ``stages`` on the operand signals; return the ``(bits, flags)``
    of the first stage that finishes."""
    for stage in stages:
        signals = stage.fn(*signals)
        if signals.__class__ is Done:
            return signals
    raise RuntimeError(f"stage {stages[-1].name!r} returned no result")


def out_of_range(fmt: FPFormat, *words: int) -> None:
    """Raise the format's :class:`ValueError` for the first word outside it."""
    for word in words:
        fmt.unpack(word)


def rounder(
    fmt: FPFormat, mode: RoundingMode
) -> Callable[[int, int, int], tuple[int, int, bool]]:
    """The shared rounding module: ``(sig, grs, exp) -> (sig, exp,
    inexact)``, renormalizing a rounding carry (1.11..1 -> 10.00..0)."""
    sig_bits = fmt.sig_bits

    def rnd(sig: int, grs: int, exp: int) -> tuple[int, int, bool]:
        sig, inexact = round_significand(sig, grs, mode)
        if sig >> sig_bits:
            return sig >> 1, exp + 1, inexact
        return sig, exp, inexact

    return rnd


def packer(fmt: FPFormat, bias: int = 0) -> Callable[..., Done]:
    """The closing pack of the multiplier, divider and fused MAC: ``sig``
    at the biased exponent ``exp + bias``, saturated to Inf on overflow
    and flushed to zero below the normal range."""
    sign_shift = fmt.width - 1
    man_bits, man_mask, exp_max = fmt.man_bits, fmt.man_mask, fmt.exp_max
    inf = exp_max << man_bits

    def pack(sig: int, exp: int, inexact: bool, sign: int) -> Done:
        exp += bias
        if exp >= exp_max:
            return Done(((sign << sign_shift) | inf, OVERFLOW))
        if exp <= 0:
            return Done((sign << sign_shift, UNDERFLOW))
        word = (sign << sign_shift) | (exp << man_bits) | (sig & man_mask)
        return Done((word, INEXACT if inexact else CLEAR))

    return pack
