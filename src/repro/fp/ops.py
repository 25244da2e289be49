"""The op table: every floating-point operation, listed once.

Each row names an op's operand count and its three implementations —
the bit-accurate scalar datapath, the NumPy lane datapath and the exact
``Fraction`` oracle.  :func:`execute` picks between the first two by
batch size: like a deep pipeline, a ``vec_*`` call only pays off once
enough elements fill it, so below the committed :data:`CROSSOVER` of an
(op, format) the scalar datapath runs element by element instead.  The service batcher, the differential campaign,
the golden corpora and the coverage testbench all derive their op sets
from :data:`OP_TABLE`, so they cannot disagree on what an op is or how
many operands it takes (sqrt is the unary op, fma the ternary one).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.fp.adder import fp_add, fp_sub
from repro.fp.divider import fp_div
from repro.fp.format import BF16, FP16, FP32, FP48, FP64, FPFormat
from repro.fp.mac import fp_fma
from repro.fp.multiplier import fp_mul
from repro.fp.reference import (
    ref_add,
    ref_div,
    ref_fma,
    ref_mul,
    ref_sqrt,
    ref_sub,
)
from repro.fp.rounding import RoundingMode
from repro.fp.sqrt import fp_sqrt
from repro.fp.vectorized import (
    vec_add,
    vec_div,
    vec_fma,
    vec_mul,
    vec_sqrt,
    vec_sub,
)


class Op(NamedTuple):
    """One op: ``(fmt, *words, mode) -> (bits, flags)`` three ways."""

    arity: int
    scalar: Callable
    vectorized: Callable
    oracle: Callable


OP_TABLE: Dict[str, Op] = {
    "add": Op(2, fp_add, vec_add, ref_add),
    "sub": Op(2, fp_sub, vec_sub, ref_sub),
    "mul": Op(2, fp_mul, vec_mul, ref_mul),
    "div": Op(2, fp_div, vec_div, ref_div),
    "sqrt": Op(1, fp_sqrt, vec_sqrt, ref_sqrt),
    "fma": Op(3, fp_fma, vec_fma, ref_fma),
}

#: Op name -> operand count.
OP_ARITY: Dict[str, int] = {name: op.arity for name, op in OP_TABLE.items()}

#: Operand keys in issue order: an op of arity k takes the first k (the
#: staged cores' bundle keys and the service's request-body keys).
OPERANDS = ("a", "b", "c")

#: Op -> format -> the smallest batch size at which one ``vec_*`` call
#: beats the scalar loop (best-of-N process CPU, flags on): the
#: ``crossover.<op>.<fmt>`` rows of ``repro bench --lanes``, on a
#: power-of-two grid up to 256 (512 = no crossover on the grid).  A
#: literal, so importing it costs nothing.  A format missing from its
#: op's row always runs ``vec_*``.
CROSSOVER: Dict[str, Dict[FPFormat, int]] = {
    "add": {FP16: 32, BF16: 32, FP32: 32, FP48: 32, FP64: 32},
    "sub": {FP16: 32, BF16: 32, FP32: 32, FP48: 64, FP64: 32},
    "mul": {FP16: 16, BF16: 16, FP32: 16, FP48: 16, FP64: 16},
    "div": {FP16: 16, BF16: 16, FP32: 16, FP48: 32, FP64: 32},
    "sqrt": {FP16: 64, BF16: 64, FP32: 128, FP48: 256, FP64: 256},
    "fma": {FP16: 32, BF16: 32, FP32: 32, FP48: 16, FP64: 32},
}


def runs_scalar(op: str, fmt: FPFormat, n: int) -> bool:
    """True when :func:`execute` runs ``n`` elements of ``op`` on the
    scalar datapath (below the (op, format) :data:`CROSSOVER`)."""
    return n < CROSSOVER[op].get(fmt, 0)


def scalar_loop(
    fn: Callable, fmt: FPFormat, mode: RoundingMode, columns: Sequence
) -> Tuple[np.ndarray, np.ndarray]:
    """``fn`` (a scalar datapath) over operand columns, element by element,
    returned in the ``vec_*`` ``with_flags=True`` contract."""
    words = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    bits = []
    flags = []
    for operands in zip(*words):
        b, f = fn(fmt, *operands, mode)
        bits.append(b)
        flags.append(f.to_bits())
    return np.array(bits, dtype=np.uint64), np.array(flags, dtype=np.uint8)


def vector_call(
    fn: Callable, fmt: FPFormat, mode: RoundingMode, columns: Sequence
) -> Tuple[np.ndarray, np.ndarray]:
    """``fn`` (a ``vec_*`` datapath) over operand columns in one call."""
    arrays = [np.asarray(c, dtype=np.uint64) for c in columns]
    return fn(fmt, *arrays, mode, with_flags=True)


def execute(
    op: str,
    fmt: FPFormat,
    mode: RoundingMode,
    *columns: Sequence[int],
    scalar: Optional[Callable] = None,
    vectorized: Optional[Callable] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``op`` over equal-length operand columns, on the cheaper datapath.

    ``columns`` are the op's arity word sequences (lists, tuples or
    unsigned arrays).  Below the (op, format) :data:`CROSSOVER` every
    element runs through the scalar datapath; at or above it one
    ``vec_*`` call runs them all.  Either way the result is ``(bits,
    flags)``: ``uint64`` result words and ``uint8``
    :meth:`~repro.fp.flags.FPFlags.to_bits` words, bit-identical
    between the paths.  ``scalar``/``vectorized`` stand in for the
    table's functions (a caller that times them passes wrappers).
    """
    row = OP_TABLE[op]
    if runs_scalar(op, fmt, len(columns[0])):
        return scalar_loop(scalar or row.scalar, fmt, mode, columns)
    return vector_call(vectorized or row.vectorized, fmt, mode, columns)
