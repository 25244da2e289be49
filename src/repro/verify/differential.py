"""Engine-driven differential verification of the vectorized datapaths.

The proof obligation for :mod:`repro.fp.vectorized` is *element-wise
bit-and-flag equality* with the scalar datapaths over millions of
coverage-directed operand pairs, plus a strided cross-check against the
exact rational oracles — the full equivalence chain::

    fp.reference (exact Fraction/isqrt oracles)
        == fp.adder / fp.multiplier / fp.divider / fp.sqrt / fp.mac
        == fp.vectorized (NumPy pipelines on uint16/32/64 lanes)

All six ops are covered: add/sub/mul/div binary, sqrt unary, fma
ternary (:data:`OP_ARITY` records the operand count per op; ``pairs``
counts operand *tuples* for the non-binary ops).

A campaign is sliced into :func:`diff_chunk` jobs — pure, picklable
functions of ``(fmt, op, mode, seed, pairs)`` — and fanned out through
:mod:`repro.engine`, so it parallelizes across cores and caches like any
other sweep: re-running a green campaign is a 100% hit-rate no-op.
Operands are drawn from :class:`repro.verify.testbench.OperandClass`
members cycled over every class tuple, so specials, tie-prone patterns
and range extremes are all hit within the first 169 pairs of every
chunk (13 samples for sqrt, the first 2197 triples for fma).

Run it from the CLI::

    repro verify --pairs 1000000 --parallel 8 --cache-dir .repro-cache
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.engine import Engine, Job, default_engine
from repro.fp.format import ALL_FORMATS, FPFormat
from repro.fp.ops import OP_ARITY, OP_TABLE
from repro.fp.rounding import RoundingMode
from repro.verify.testbench import OperandClass, OperandGenerator

#: Operations covered by the campaign: vectorized, scalar, oracle.
CAMPAIGN_OPS = ("add", "sub", "mul", "div", "sqrt", "fma")

# Per-role views of the op table, looked up at call time.
_VEC = {name: op.vectorized for name, op in OP_TABLE.items()}
_SCALAR = {name: op.scalar for name, op in OP_TABLE.items()}
_ORACLE = {name: op.oracle for name, op in OP_TABLE.items()}

#: Check every k-th pair against the Fraction oracle as well (the oracle
#: is orders of magnitude slower than the scalar datapath, so the full
#: sweep is scalar-vs-vectorized and the oracle samples the chain).
ORACLE_STRIDE = 101

#: At most this many concrete counterexamples are carried per chunk.
MAX_EXAMPLES = 10


@dataclass(frozen=True)
class DiffExample:
    """One concrete divergence, small enough to print in a failure."""

    op: str
    mode: str
    a: int
    b: int
    got_bits: int
    want_bits: int
    got_flags: int
    want_flags: int
    against: str  # "scalar" or "oracle"
    c: Optional[int] = None  # third operand (fma chunks only)


@dataclass(frozen=True)
class ChunkReport:
    """Outcome of one differential chunk (one engine job)."""

    fmt_name: str
    op: str
    mode: str
    seed: int
    pairs: int
    bit_mismatches: int
    flag_mismatches: int
    oracle_checked: int
    oracle_mismatches: int
    covered_class_pairs: int
    examples: tuple[DiffExample, ...] = ()

    @property
    def mismatches(self) -> int:
        return self.bit_mismatches + self.flag_mismatches + self.oracle_mismatches

    @property
    def passed(self) -> bool:
        return self.mismatches == 0


def diff_chunk(
    fmt: FPFormat,
    op: str,
    mode: RoundingMode,
    seed: int,
    pairs: int,
) -> ChunkReport:
    """Run one coverage-directed differential chunk.

    Pure function of its arguments (module-level, picklable) so it can be
    content-addressed, cached and dispatched to pool workers by the
    engine.
    """
    if op not in _VEC:
        raise ValueError(f"unknown campaign op {op!r}; known: {sorted(_VEC)}")
    arity = OP_ARITY[op]
    gen = OperandGenerator(fmt, seed)
    classes = list(OperandClass)
    n_cls = len(classes)
    a_words = np.empty(pairs, dtype=np.uint64)
    b_words = np.empty(pairs, dtype=np.uint64) if arity >= 2 else None
    c_words = np.empty(pairs, dtype=np.uint64) if arity >= 3 else None
    covered: set[int] = set()
    grid = n_cls**arity
    for i in range(pairs):
        pair_idx = i % grid
        covered.add(pair_idx)
        a_words[i] = gen.sample(classes[pair_idx % n_cls])
        if b_words is not None:
            b_words[i] = gen.sample(classes[(pair_idx // n_cls) % n_cls])
        if c_words is not None:
            c_words[i] = gen.sample(classes[pair_idx // (n_cls * n_cls)])

    if arity == 1:
        vec_bits, vec_flags = _VEC[op](fmt, a_words, mode, with_flags=True)
    elif arity == 2:
        vec_bits, vec_flags = _VEC[op](
            fmt, a_words, b_words, mode, with_flags=True
        )
    else:
        vec_bits, vec_flags = _VEC[op](
            fmt, a_words, b_words, c_words, mode, with_flags=True
        )

    scalar = _SCALAR[op]
    oracle = _ORACLE[op]
    bit_bad = 0
    flag_bad = 0
    oracle_checked = 0
    oracle_bad = 0
    examples: list[DiffExample] = []

    def note(operands, gb: int, wb: int, gf: int, wf: int, against: str):
        if len(examples) < MAX_EXAMPLES:
            a = operands[0]
            b = operands[1] if len(operands) > 1 else 0
            c = operands[2] if len(operands) > 2 else None
            examples.append(
                DiffExample(op, mode.value, a, b, gb, wb, gf, wf, against, c)
            )

    for i in range(pairs):
        operands = [int(a_words[i])]
        if b_words is not None:
            operands.append(int(b_words[i]))
        if c_words is not None:
            operands.append(int(c_words[i]))
        got_b = int(vec_bits[i])
        got_f = int(vec_flags[i])
        want_b, want_flags = scalar(fmt, *operands, mode)
        want_f = want_flags.to_bits()
        if got_b != want_b:
            bit_bad += 1
            note(operands, got_b, want_b, got_f, want_f, "scalar")
        elif got_f != want_f:
            flag_bad += 1
            note(operands, got_b, want_b, got_f, want_f, "scalar")
        if i % ORACLE_STRIDE == 0:
            oracle_checked += 1
            ref_b, ref_flags = oracle(fmt, *operands, mode)
            if ref_b != want_b or ref_flags != want_flags:
                oracle_bad += 1
                note(
                    operands, want_b, ref_b, want_f, ref_flags.to_bits(),
                    "oracle",
                )

    return ChunkReport(
        fmt_name=fmt.name,
        op=op,
        mode=mode.value,
        seed=seed,
        pairs=pairs,
        bit_mismatches=bit_bad,
        flag_mismatches=flag_bad,
        oracle_checked=oracle_checked,
        oracle_mismatches=oracle_bad,
        covered_class_pairs=len(covered),
        examples=tuple(examples),
    )


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of every chunk in a differential campaign."""

    chunks: tuple[ChunkReport, ...]

    @property
    def total_pairs(self) -> int:
        return sum(c.pairs for c in self.chunks)

    @property
    def total_mismatches(self) -> int:
        return sum(c.mismatches for c in self.chunks)

    @property
    def oracle_checked(self) -> int:
        return sum(c.oracle_checked for c in self.chunks)

    @property
    def passed(self) -> bool:
        return self.total_mismatches == 0

    def pairs_by_format(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.chunks:
            out[c.fmt_name] = out.get(c.fmt_name, 0) + c.pairs
        return out

    def examples(self) -> list[DiffExample]:
        out: list[DiffExample] = []
        for c in self.chunks:
            out.extend(c.examples)
        return out

    def summary(self) -> str:
        lines = ["differential campaign (vectorized vs scalar vs oracle)"]
        per_fmt: dict[str, list[ChunkReport]] = {}
        for c in self.chunks:
            per_fmt.setdefault(c.fmt_name, []).append(c)
        for name in sorted(per_fmt):
            chunks = per_fmt[name]
            pairs = sum(c.pairs for c in chunks)
            bad = sum(c.mismatches for c in chunks)
            checked = sum(c.oracle_checked for c in chunks)
            ops = sorted({c.op for c in chunks})
            modes = sorted({c.mode for c in chunks})
            status = "PASS" if bad == 0 else f"FAIL ({bad} mismatches)"
            lines.append(
                f"  {name}: {pairs} pairs over {'/'.join(ops)} "
                f"[{','.join(modes)}], {checked} oracle-checked -> {status}"
            )
        lines.append(
            f"  total: {self.total_pairs} pairs, "
            f"{self.total_mismatches} mismatches"
        )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()


def campaign_jobs(
    formats: Sequence[FPFormat] = ALL_FORMATS,
    ops: Iterable[str] = CAMPAIGN_OPS,
    modes: Iterable[RoundingMode] = tuple(RoundingMode),
    pairs_per_format: int = 1_000_000,
    chunk_pairs: int = 50_000,
    seed: int = 0,
) -> list[Job]:
    """Slice a campaign into engine jobs.

    ``pairs_per_format`` is distributed evenly across the (op, mode)
    grid, then split into chunks of at most ``chunk_pairs`` so the
    engine has enough parallel grain.  Chunk seeds are derived
    deterministically, so identical parameters always address identical
    cached results.
    """
    ops = tuple(ops)
    modes = tuple(modes)
    if not ops or not modes:
        raise ValueError("campaign needs at least one op and one mode")
    if pairs_per_format < 1 or chunk_pairs < 1:
        raise ValueError("pairs_per_format and chunk_pairs must be >= 1")
    per_cell = -(-pairs_per_format // (len(ops) * len(modes)))  # ceil
    jobs: list[Job] = []
    for fmt in formats:
        chunk_index = 0
        for op in ops:
            for mode in modes:
                remaining = per_cell
                while remaining > 0:
                    count = min(chunk_pairs, remaining)
                    remaining -= count
                    jobs.append(
                        Job.create(
                            f"verify.diff/{fmt.name}/{op}/{mode.value}"
                            f"/{chunk_index}",
                            diff_chunk,
                            fmt=fmt,
                            op=op,
                            mode=mode,
                            seed=seed + 0x9E3779B1 * chunk_index,
                            pairs=count,
                        )
                    )
                    chunk_index += 1
    return jobs


def run_campaign(
    formats: Sequence[FPFormat] = ALL_FORMATS,
    ops: Iterable[str] = CAMPAIGN_OPS,
    modes: Iterable[RoundingMode] = tuple(RoundingMode),
    pairs_per_format: int = 1_000_000,
    chunk_pairs: int = 50_000,
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> CampaignReport:
    """Run a full differential campaign through the engine."""
    eng = engine if engine is not None else default_engine()
    jobs = campaign_jobs(
        formats=formats,
        ops=ops,
        modes=modes,
        pairs_per_format=pairs_per_format,
        chunk_pairs=chunk_pairs,
        seed=seed,
    )
    chunks = eng.run(jobs)
    return CampaignReport(chunks=tuple(chunks))
