"""Parameterized floating-point format descriptions.

A format is a sign bit, ``exp_bits`` biased-exponent bits and ``man_bits``
stored fraction bits (the hidden leading one is *not* stored).  The paper
studies 32-, 48- and 64-bit precisions; 32 and 64 follow IEEE 754 single
and double layouts, while the 48-bit format uses a double-width exponent
(11 bits) with a 36-bit fraction, following the Belanovic–Leeser
parameterized-library convention the paper's Table 4 comparison is drawn
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FPFormat:
    """A floating-point bit layout.

    Parameters
    ----------
    exp_bits:
        Width of the biased exponent field ``e``.
    man_bits:
        Width of the stored fraction field ``m`` (excluding the hidden bit).
    name:
        Optional human-readable name; defaults to ``fp<width>``.

    The encoding is the usual ``[sign | exponent | fraction]`` packing with
    bias ``2**(exp_bits-1) - 1``.  Because the datapaths flush denormals,
    a biased exponent of zero always denotes (signed) zero.
    """

    exp_bits: int
    man_bits: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.exp_bits < 2:
            raise ValueError(f"exp_bits must be >= 2, got {self.exp_bits}")
        if self.man_bits < 1:
            raise ValueError(f"man_bits must be >= 1, got {self.man_bits}")
        if not self.name:
            object.__setattr__(self, "name", f"fp{self.width}")

    # ------------------------------------------------------------------ #
    # Derived geometry
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> int:
        """Total stored width in bits (sign + exponent + fraction)."""
        return 1 + self.exp_bits + self.man_bits

    @property
    def sig_bits(self) -> int:
        """Significand width including the hidden bit."""
        return self.man_bits + 1

    @property
    def bias(self) -> int:
        """Exponent bias."""
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def exp_max(self) -> int:
        """Largest biased exponent encoding (reserved for Inf/NaN)."""
        return (1 << self.exp_bits) - 1

    @property
    def emax(self) -> int:
        """Largest unbiased exponent of a finite normal number."""
        return self.exp_max - 1 - self.bias

    @property
    def emin(self) -> int:
        """Smallest unbiased exponent of a normal number.

        Biased exponent 0 denotes zero in this denormal-free system, so the
        smallest normal uses biased exponent 1.
        """
        return 1 - self.bias

    # ------------------------------------------------------------------ #
    # Field masks and extraction
    # ------------------------------------------------------------------ #
    @property
    def man_mask(self) -> int:
        return (1 << self.man_bits) - 1

    @property
    def exp_mask(self) -> int:
        return (1 << self.exp_bits) - 1

    @property
    def word_mask(self) -> int:
        return (1 << self.width) - 1

    def pack(self, sign: int, exp: int, man: int) -> int:
        """Pack fields into a word; fields must already be in range."""
        if sign not in (0, 1):
            raise ValueError(f"sign must be 0 or 1, got {sign}")
        if not 0 <= exp <= self.exp_mask:
            raise ValueError(f"biased exponent {exp} out of range for {self.name}")
        if not 0 <= man <= self.man_mask:
            raise ValueError(f"fraction {man} out of range for {self.name}")
        return (sign << (self.width - 1)) | (exp << self.man_bits) | man

    def unpack(self, bits: int) -> tuple[int, int, int]:
        """Split a word into ``(sign, biased exponent, fraction)``."""
        if not 0 <= bits <= self.word_mask:
            raise ValueError(f"bit pattern {bits:#x} out of range for {self.name}")
        sign = (bits >> (self.width - 1)) & 1
        exp = (bits >> self.man_bits) & self.exp_mask
        man = bits & self.man_mask
        return sign, exp, man

    # ------------------------------------------------------------------ #
    # Canonical encodings
    # ------------------------------------------------------------------ #
    def zero(self, sign: int = 0) -> int:
        return self.pack(sign, 0, 0)

    def inf(self, sign: int = 0) -> int:
        return self.pack(sign, self.exp_max, 0)

    def nan(self) -> int:
        """Canonical quiet NaN (sign 0, all-ones exponent, MSB of fraction)."""
        return self.pack(0, self.exp_max, 1 << (self.man_bits - 1))

    def max_finite(self, sign: int = 0) -> int:
        return self.pack(sign, self.exp_max - 1, self.man_mask)

    def min_normal(self, sign: int = 0) -> int:
        return self.pack(sign, 1, 0)

    def one(self, sign: int = 0) -> int:
        return self.pack(sign, self.bias, 0)

    # ------------------------------------------------------------------ #
    # Classification of raw words
    # ------------------------------------------------------------------ #
    def is_zero(self, bits: int) -> bool:
        """True when the word denotes zero.

        The denormalizer treats biased exponent 0 as zero regardless of the
        fraction bits (denormals are flushed), mirroring the hardware's
        exponent-is-zero comparator.
        """
        _, exp, _ = self.unpack(bits)
        return exp == 0

    def is_inf(self, bits: int) -> bool:
        _, exp, man = self.unpack(bits)
        return exp == self.exp_max and man == 0

    def is_nan(self, bits: int) -> bool:
        _, exp, man = self.unpack(bits)
        return exp == self.exp_max and man != 0

    def is_finite(self, bits: int) -> bool:
        _, exp, _ = self.unpack(bits)
        return exp != self.exp_max

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(1+{self.exp_bits}+{self.man_bits})"


#: IEEE 754 half precision layout (4-way packable sub-lane format).
FP16 = FPFormat(exp_bits=5, man_bits=10, name="fp16")

#: bfloat16: fp32's exponent range with a 7-bit fraction (4-way packable).
BF16 = FPFormat(exp_bits=8, man_bits=7, name="bf16")

#: IEEE 754 single precision layout (paper's "32-bit").
FP32 = FPFormat(exp_bits=8, man_bits=23, name="fp32")

#: 48-bit format: 11-bit exponent, 36-bit fraction (paper's "48-bit").
FP48 = FPFormat(exp_bits=11, man_bits=36, name="fp48")

#: IEEE 754 double precision layout (paper's "64-bit").
FP64 = FPFormat(exp_bits=11, man_bits=52, name="fp64")

#: The three precisions studied in the paper, in presentation order.
PAPER_FORMATS: tuple[FPFormat, ...] = (FP32, FP48, FP64)

#: First-class small formats (beyond the paper): half precision and
#: bfloat16, which run add/sub/mul on ``uint16`` lanes in
#: :mod:`repro.fp.vectorized`.
SMALL_FORMATS: tuple[FPFormat, ...] = (FP16, BF16)

#: Every named format the verification campaigns and the service know.
ALL_FORMATS: tuple[FPFormat, ...] = SMALL_FORMATS + PAPER_FORMATS

#: Each of :data:`ALL_FORMATS` by its name (``"fp32"``), in the same order.
FORMATS_BY_NAME: dict[str, FPFormat] = {f.name: f for f in ALL_FORMATS}
