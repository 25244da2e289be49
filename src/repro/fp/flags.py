"""Exception flags carried stage-to-stage through the datapaths.

The hardware detects exceptions at every pipeline stage and forwards them
with the data (paper §3: "At every stage exceptions are detected and
carried forward into the next stage").  :class:`FPFlags` is the software
equivalent of that sideband bundle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FPFlags:
    """Sticky exception flags produced by one operation.

    Attributes
    ----------
    overflow:
        Result exceeded the largest finite magnitude; saturated to ±Inf.
    underflow:
        Non-zero exact result was flushed to zero (denormal-free system).
    inexact:
        Rounding discarded non-zero bits.
    invalid:
        NaN operand, Inf − Inf, 0 × Inf, 0/0 or Inf/Inf.
    zero:
        The result is (a signed) zero — the DONE-stage zero detect.
    div_by_zero:
        Finite non-zero dividend divided by zero (extension: the divider
        unit; always False for the paper's adder/multiplier).
    """

    overflow: bool = False
    underflow: bool = False
    inexact: bool = False
    invalid: bool = False
    zero: bool = False
    div_by_zero: bool = False

    def __or__(self, other: "FPFlags") -> "FPFlags":
        """Merge two flag bundles (sticky OR), as an accumulator would."""
        if not isinstance(other, FPFlags):
            return NotImplemented
        return FPFlags(
            overflow=self.overflow or other.overflow,
            underflow=self.underflow or other.underflow,
            inexact=self.inexact or other.inexact,
            invalid=self.invalid or other.invalid,
            zero=self.zero or other.zero,
            div_by_zero=self.div_by_zero or other.div_by_zero,
        )

    @property
    def any_exception(self) -> bool:
        """True when any non-informational flag is raised."""
        return (
            self.overflow
            or self.underflow
            or self.inexact
            or self.invalid
            or self.div_by_zero
        )

    def to_bits(self) -> int:
        """Pack into the 6-bit sideband word used by the RTL models."""
        return (
            (int(self.div_by_zero) << 5)
            | (int(self.overflow) << 4)
            | (int(self.underflow) << 3)
            | (int(self.inexact) << 2)
            | (int(self.invalid) << 1)
            | int(self.zero)
        )

    @classmethod
    def from_bits(cls, bits: int) -> "FPFlags":
        """Unpack the 6-bit sideband word."""
        if not 0 <= bits < 64:
            raise ValueError(f"flag word out of range: {bits}")
        return cls(
            div_by_zero=bool(bits & 0b100000),
            overflow=bool(bits & 0b010000),
            underflow=bool(bits & 0b001000),
            inexact=bool(bits & 0b000100),
            invalid=bool(bits & 0b000010),
            zero=bool(bits & 0b000001),
        )


#: Convenience constant: no exceptions.
CLEAR = FPFlags()

# The flag bundles the datapaths return, built once (FPFlags is frozen).
INEXACT = FPFlags(inexact=True)
INVALID = FPFlags(invalid=True)
ZERO = FPFlags(zero=True)
DIV_BY_ZERO = FPFlags(div_by_zero=True)
#: Saturated to Inf.
OVERFLOW = FPFlags(overflow=True, inexact=True)
#: Flushed to zero.
UNDERFLOW = FPFlags(underflow=True, inexact=True, zero=True)
