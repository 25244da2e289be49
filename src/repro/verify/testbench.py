"""Coverage-directed random testbench for the FP datapaths.

:func:`run_testbench` exercises one operation over *every pair of operand
classes* with randomized members, checking each result bit-for-bit
against the exact rational oracle, and returns a :class:`CoverageReport`
with per-pair counts, the exception-flag histogram and any mismatches
(there must be none — the suite asserts it).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.ops import OP_TABLE
from repro.fp.rounding import RoundingMode


class OperandClass(enum.Enum):
    """Operand equivalence classes the testbench must cover."""

    POS_ZERO = "pos_zero"
    NEG_ZERO = "neg_zero"
    ONE = "one"
    MIN_NORMAL = "min_normal"
    MAX_FINITE = "max_finite"
    NEAR_UNDERFLOW = "near_underflow"
    NEAR_OVERFLOW = "near_overflow"
    RANDOM_NORMAL = "random_normal"
    TIE_PRONE = "tie_prone"
    DENORMAL_PATTERN = "denormal_pattern"
    POS_INF = "pos_inf"
    NEG_INF = "neg_inf"
    NAN = "nan"


#: Binary operation name -> (implementation, oracle).
OPERATIONS: dict[str, tuple[Callable, Callable]] = {
    name: (op.scalar, op.oracle)
    for name, op in OP_TABLE.items() if op.arity == 2
}

#: Unary operation name -> (implementation, oracle).
UNARY_OPERATIONS: dict[str, tuple[Callable, Callable]] = {
    name: (op.scalar, op.oracle)
    for name, op in OP_TABLE.items() if op.arity == 1
}


class OperandGenerator:
    """Draws random members of each operand class for a format."""

    def __init__(self, fmt: FPFormat, seed: int = 0) -> None:
        self.fmt = fmt
        self.rng = random.Random(seed)

    def sample(self, cls: OperandClass) -> int:
        fmt = self.fmt
        rng = self.rng
        if cls is OperandClass.POS_ZERO:
            return fmt.zero(0)
        if cls is OperandClass.NEG_ZERO:
            return fmt.zero(1)
        if cls is OperandClass.ONE:
            return fmt.one(rng.randint(0, 1))
        if cls is OperandClass.MIN_NORMAL:
            return fmt.pack(rng.randint(0, 1), 1, 0)
        if cls is OperandClass.MAX_FINITE:
            return fmt.max_finite(rng.randint(0, 1))
        if cls is OperandClass.NEAR_UNDERFLOW:
            # The upper bound clamps so tiny exponent fields (e.g. 2-bit
            # formats, where exp_max - 1 < 4) stay in range; for every
            # paper/small format the bounds — and therefore the rng
            # stream — are unchanged.
            return fmt.pack(
                rng.randint(0, 1),
                rng.randint(1, min(4, fmt.exp_max - 1)),
                rng.randrange(fmt.man_mask + 1),
            )
        if cls is OperandClass.NEAR_OVERFLOW:
            return fmt.pack(
                rng.randint(0, 1),
                rng.randint(max(1, fmt.exp_max - 4), fmt.exp_max - 1),
                rng.randrange(fmt.man_mask + 1),
            )
        if cls is OperandClass.RANDOM_NORMAL:
            return fmt.pack(
                rng.randint(0, 1),
                rng.randint(1, fmt.exp_max - 1),
                rng.randrange(fmt.man_mask + 1),
            )
        if cls is OperandClass.TIE_PRONE:
            # All-ones / single-bit mantissas near a shared exponent are
            # the patterns that exercise rounding ties and carries.
            man = rng.choice(
                [fmt.man_mask, 1, fmt.man_mask - 1, 1 << (fmt.man_bits - 1), 0]
            )
            # Clamp after the draw (not in the bounds) so the rng stream
            # is identical for formats whose bias +/- 2 already fits.
            exp = min(max(fmt.bias + rng.randint(-2, 2), 1), fmt.exp_max - 1)
            return fmt.pack(rng.randint(0, 1), exp, man)
        if cls is OperandClass.DENORMAL_PATTERN:
            return fmt.pack(
                rng.randint(0, 1), 0, rng.randrange(1, fmt.man_mask + 1)
            )
        if cls is OperandClass.POS_INF:
            return fmt.inf(0)
        if cls is OperandClass.NEG_INF:
            return fmt.inf(1)
        if cls is OperandClass.NAN:
            return fmt.pack(
                rng.randint(0, 1),
                fmt.exp_max,
                rng.randrange(1, fmt.man_mask + 1),
            )
        raise ValueError(f"unknown operand class {cls}")  # pragma: no cover


@dataclass
class Mismatch:
    """One disagreement between implementation and oracle."""

    op: str
    a: int
    b: int
    got: int
    expected: int
    mode: RoundingMode


@dataclass
class CoverageReport:
    """Outcome of one testbench run."""

    fmt: FPFormat
    op: str
    arity: int = 2
    cases: int = 0
    pair_counts: dict[tuple[OperandClass, ...], int] = field(
        default_factory=dict
    )
    flag_histogram: dict[str, int] = field(default_factory=dict)
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def covered_pairs(self) -> int:
        return sum(1 for v in self.pair_counts.values() if v > 0)

    @property
    def total_pairs(self) -> int:
        return len(OperandClass) ** self.arity

    @property
    def full_coverage(self) -> bool:
        return self.covered_pairs == self.total_pairs

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.mismatches)})"
        return (
            f"{self.op} on {self.fmt.name}: {self.cases} cases, "
            f"{self.covered_pairs}/{self.total_pairs} class pairs, "
            f"flags={dict(sorted(self.flag_histogram.items()))} -> {status}"
        )


def run_testbench(
    fmt: FPFormat,
    op: str = "add",
    samples_per_pair: int = 3,
    seed: int = 0,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> CoverageReport:
    """Sweep all operand-class tuples against the exact oracle."""
    if op in UNARY_OPERATIONS:
        return _run_unary(fmt, op, samples_per_pair, seed, mode)
    if op not in OPERATIONS:
        known = sorted(OPERATIONS) + sorted(UNARY_OPERATIONS)
        raise ValueError(f"unknown op {op!r}; known: {known}")
    impl, oracle = OPERATIONS[op]
    gen = OperandGenerator(fmt, seed)
    report = CoverageReport(fmt=fmt, op=op)
    for cls_a in OperandClass:
        for cls_b in OperandClass:
            report.pair_counts[(cls_a, cls_b)] = 0
            for _ in range(samples_per_pair):
                a = gen.sample(cls_a)
                b = gen.sample(cls_b)
                got_bits, got_flags = impl(fmt, a, b, mode)
                exp_bits, _ = oracle(fmt, a, b, mode)
                report.cases += 1
                report.pair_counts[(cls_a, cls_b)] += 1
                _record_flags(report, got_flags)
                if got_bits != exp_bits:
                    report.mismatches.append(
                        Mismatch(op, a, b, got_bits, exp_bits, mode)
                    )
    return report


def _record_flags(report: CoverageReport, flags: FPFlags) -> None:
    for name, raised in (
        ("overflow", flags.overflow),
        ("underflow", flags.underflow),
        ("inexact", flags.inexact),
        ("invalid", flags.invalid),
        ("zero", flags.zero),
        ("div_by_zero", flags.div_by_zero),
    ):
        if raised:
            report.flag_histogram[name] = report.flag_histogram.get(name, 0) + 1


def _run_unary(
    fmt: FPFormat,
    op: str,
    samples_per_pair: int,
    seed: int,
    mode: RoundingMode,
) -> CoverageReport:
    impl, oracle = UNARY_OPERATIONS[op]
    gen = OperandGenerator(fmt, seed)
    report = CoverageReport(fmt=fmt, op=op, arity=1)
    for cls_a in OperandClass:
        report.pair_counts[(cls_a,)] = 0
        for _ in range(samples_per_pair):
            a = gen.sample(cls_a)
            got_bits, got_flags = impl(fmt, a, mode)
            exp_bits, _ = oracle(fmt, a, mode)
            report.cases += 1
            report.pair_counts[(cls_a,)] += 1
            _record_flags(report, got_flags)
            if got_bits != exp_bits:
                report.mismatches.append(Mismatch(op, a, 0, got_bits, exp_bits, mode))
    return report
