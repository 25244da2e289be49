"""Bit-accurate parameterized floating-point arithmetic.

This subpackage is the numeric core of the reproduction: it implements the
floating-point adder/subtractor and multiplier datapaths of Govindu et al.
(IPPS 2004, Figure 1) at the bit level, for arbitrary exponent/mantissa
widths.  The three formats studied in the paper are exported as
:data:`FP32`, :data:`FP48` and :data:`FP64`.

Semantics follow the paper's Section 3:

* no denormal support — denormal inputs and results are flushed to zero;
* no NaN *handling* datapath — NaN/Inf operands are detected as exceptions
  and propagated (the library still produces canonical IEEE encodings so
  results remain interpretable);
* rounding is round-to-nearest-even or truncation (round-toward-zero);
* exceptions (overflow, underflow, invalid, inexact) are detected at every
  stage and carried forward, matching the hardware's per-stage flag chain.

Each datapath is written once, as a tuple of named stages
(:mod:`repro.fp.stages`) over the subunits of :mod:`repro.fp.subunits`: the
scalar ``fp_*`` functions chain the stages, and the structural cores of
:mod:`repro.units.structural` register the same functions.
"""

from repro.fp.adder import FPAdder, fp_add, fp_sub
from repro.fp.compare import Ordering, fp_compare, fp_eq, fp_le, fp_lt, fp_max, fp_min
from repro.fp.convert import fp_convert, is_lossless
from repro.fp.divider import FPDivider, fp_div
from repro.fp.flags import FPFlags
from repro.fp.format import FP32, FP48, FP64, FPFormat
from repro.fp.mac import FPMac, fp_fma
from repro.fp.multiplier import FPMultiplier, fp_mul
from repro.fp.rounding import RoundingMode
from repro.fp.sqrt import FPSqrt, fp_sqrt
from repro.fp.value import FPValue

__all__ = [
    "FP32",
    "FP48",
    "FP64",
    "FPAdder",
    "FPDivider",
    "FPFlags",
    "FPFormat",
    "FPMac",
    "FPMultiplier",
    "FPSqrt",
    "FPValue",
    "Ordering",
    "RoundingMode",
    "fp_add",
    "fp_compare",
    "fp_convert",
    "fp_div",
    "fp_eq",
    "fp_fma",
    "fp_le",
    "fp_lt",
    "fp_max",
    "fp_min",
    "fp_mul",
    "fp_sqrt",
    "fp_sub",
    "is_lossless",
]
