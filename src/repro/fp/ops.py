"""The op table: every floating-point operation, listed once.

Each row names an op's operand count and its three implementations —
the bit-accurate scalar datapath, the NumPy lane datapath and the exact
``Fraction`` oracle.  The service batcher, the differential campaign,
the golden corpora and the coverage testbench all derive their op sets
from :data:`OP_TABLE`, so they cannot disagree on what an op is or how
many operands it takes (sqrt is the unary op, fma the ternary one).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple

from repro.fp.adder import fp_add, fp_sub
from repro.fp.divider import fp_div
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
