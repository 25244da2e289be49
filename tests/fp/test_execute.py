"""``repro.fp.ops.execute``: both sides of every committed crossover.

At ``n = crossover - 1`` :func:`execute` must run the scalar datapath
and at ``n = crossover`` one ``vec_*`` call, and on both sides its bits
and flags must equal both a ``vec_*`` call and the scalar loop over the
same operands — for every op, format and rounding mode.
"""

import numpy as np
import pytest

from repro.fp.format import ALL_FORMATS
from repro.fp.ops import CROSSOVER, OP_TABLE, execute, runs_scalar
from repro.fp.rounding import RoundingMode
from repro.verify.testbench import OperandClass, OperandGenerator

CLASSES = list(OperandClass)


def test_every_op_and_format_has_a_crossover():
    assert set(CROSSOVER) == set(OP_TABLE)
    for op, row in CROSSOVER.items():
        assert set(row) == set(ALL_FORMATS), op
        assert all(n >= 1 for n in row.values()), op


def _columns(fmt, arity, n, seed):
    gen = OperandGenerator(fmt, seed)
    return [
        [gen.sample(CLASSES[(i * 7 + j * 3) % len(CLASSES)]) for i in range(n)]
        for j in range(arity)
    ]


@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("op", list(OP_TABLE))
def test_both_sides_of_the_crossover(op, fmt, mode):
    row = OP_TABLE[op]
    crossover = CROSSOVER[op][fmt]
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return row.vectorized(*args, **kwargs)

    for n, scalar_side in ((crossover - 1, True), (crossover, False)):
        assert runs_scalar(op, fmt, n) is scalar_side
        columns = _columns(fmt, row.arity, n, seed=n)
        calls.clear()
        bits, flags = execute(op, fmt, mode, *columns, vectorized=counted)
        assert calls == ([] if scalar_side else [n]), (op, fmt.name, n)
        assert bits.dtype == np.uint64 and flags.dtype == np.uint8

        want_bits, want_flags = row.vectorized(
            fmt, *(np.array(c, dtype=np.uint64) for c in columns), mode,
            with_flags=True,
        )
        assert np.array_equal(bits, want_bits), (op, fmt.name, n)
        assert np.array_equal(flags, want_flags), (op, fmt.name, n)
        for i, operands in enumerate(zip(*columns)):
            ref_bits, ref_flags = row.scalar(fmt, *operands, mode)
            assert (int(bits[i]), int(flags[i])) == (ref_bits, ref_flags.to_bits())

