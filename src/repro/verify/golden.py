"""Golden-vector regression corpus: seed-pinned oracle outputs on disk.

The differential campaign regenerates its operands every run; the golden
corpus is the complement — a small, *checked-in* set of vectors whose
operands and exactly-rounded results (bits **and** flags, both rounding
modes) were produced once from the rational oracle and are replayed
through the scalar and vectorized datapaths on every test run.  If a
future refactor changes any rounding/flag behavior, the corpus diff
shows exactly which operand class pair moved.

Corpus files live in ``tests/vectors/<fmt>_<op>.json``; regenerate them
(only when semantics are *intended* to change) with::

    PYTHONPATH=src python -m repro.verify.golden tests/vectors
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable

from repro.fp.format import (
    FP32,
    FP48,
    FP64,
    FPFormat,
    PAPER_FORMATS,
    SMALL_FORMATS,
)
from repro.fp.ops import OP_ARITY, OP_TABLE, OPERANDS
from repro.fp.rounding import RoundingMode
from repro.verify.testbench import OperandClass, OperandGenerator

#: Pinned generator seed — corpus files are reproducible artifacts.
GOLDEN_SEED = 0xD1FF
#: Operand samples drawn per (class, class) pair.
SAMPLES_PER_PAIR = 2
#: Operations covered by the paper-format corpora.
GOLDEN_OPS = ("add", "mul", "div", "sqrt", "fma")
#: Operations covered by the small-format (fp16/bf16) corpora — the ops
#: that run on narrow lane dtypes, so every corpus replays a uint16 lane.
SMALL_GOLDEN_OPS = ("add", "sub", "mul")


def _directed_cases(fmt: FPFormat, op: str) -> list[tuple[str, tuple[int, ...]]]:
    """Hand-picked operand tuples every corpus must pin, per op.

    The div rows pin the exception-flag corners (``x/0`` raises
    ``div_by_zero``, ``0/0`` and ``Inf/Inf`` raise ``invalid``); the sqrt
    rows pin the parity datapath (odd/even exponents, exact squares, and
    the all-ones mantissa whose root can never be an exact tie); the fma
    rows pin exact cancellation and the 0*Inf invalid.
    """
    one = fmt.one()
    if fmt.width <= 16 and op in ("add", "sub", "mul"):
        # Small-format-only rows (the gate keeps every paper corpus
        # byte-identical): fp16/bf16 sit much closer to both range
        # edges — one max+max overflows to Inf, one min_normal^2 lands
        # deep under the flush threshold, and exponent-0 (denormal)
        # patterns behave as zeros — so the corpora pin those corners
        # explicitly.
        sub_max = fmt.pack(0, 0, fmt.man_mask)  # largest subnormal
        sub_min = fmt.pack(0, 0, 1)  # smallest subnormal
        two = fmt.pack(0, fmt.bias + 1, 0)
        if op == "add":
            return [
                ("subnormal_sum", (sub_max, sub_min)),
                ("subnormal_cancel", (fmt.pack(0, 0, 9), fmt.pack(1, 0, 9))),
                ("subnormal_promotes", (sub_max, fmt.min_normal(0))),
                ("overflow_to_inf", (fmt.max_finite(0), fmt.max_finite(0))),
            ]
        if op == "sub":
            return [
                ("subnormal_diff", (sub_max, sub_min)),
                ("subnormal_cancel", (fmt.pack(0, 0, 9), fmt.pack(0, 0, 9))),
                ("min_normal_step_down", (fmt.min_normal(0), sub_min)),
                ("overflow_to_inf", (fmt.max_finite(0), fmt.max_finite(1))),
            ]
        return [
            ("subnormal_times_two", (sub_max, two)),
            ("underflow_flush", (fmt.min_normal(0), fmt.min_normal(0))),
            ("underflow_to_zero", (sub_min, sub_min)),
            ("overflow_to_inf", (fmt.max_finite(0), fmt.max_finite(0))),
        ]
    if op == "div":
        return [
            ("x_div_zero", (one, fmt.zero(0))),
            ("x_div_neg_zero", (one, fmt.zero(1))),
            ("zero_div_zero", (fmt.zero(0), fmt.zero(0))),
            ("inf_div_inf", (fmt.inf(0), fmt.inf(1))),
            ("overflow", (fmt.max_finite(0), fmt.min_normal(0))),
            ("underflow", (fmt.min_normal(0), fmt.max_finite(0))),
        ]
    if op == "sqrt":
        return [
            ("even_exact_square", (fmt.pack(0, fmt.bias + 2, 0),)),  # 4.0
            ("odd_exponent", (fmt.pack(0, fmt.bias + 1, 0),)),  # 2.0
            ("odd_exponent_neg", (fmt.pack(0, fmt.bias - 1, 0),)),  # 0.5
            ("all_ones_even", (fmt.pack(0, fmt.bias, fmt.man_mask),)),
            ("all_ones_odd", (fmt.pack(0, fmt.bias + 1, fmt.man_mask),)),
            ("min_normal", (fmt.min_normal(0),)),
            ("max_finite", (fmt.max_finite(0),)),
            ("negative", (fmt.one(1),)),
            ("neg_zero", (fmt.zero(1),)),
        ]
    if op == "fma":
        return [
            ("exact_cancel", (one, one, fmt.one(1))),
            ("zero_times_inf", (fmt.zero(0), fmt.inf(0), one)),
            ("all_zero_neg", (fmt.zero(1), one, fmt.zero(1))),
            ("addend_dominates", (fmt.min_normal(0), fmt.min_normal(0), one)),
            ("product_dominates", (fmt.max_finite(0), one, fmt.min_normal(0))),
        ]
    return []


def generate_corpus(
    fmt: FPFormat,
    op: str,
    seed: int = GOLDEN_SEED,
    samples_per_pair: int = SAMPLES_PER_PAIR,
) -> dict:
    """Build one corpus document from the exact rational oracle."""
    if op not in OP_TABLE:
        raise ValueError(f"unknown golden op {op!r}; known: {sorted(OP_TABLE)}")
    oracle = OP_TABLE[op].oracle
    arity = OP_ARITY[op]
    gen = OperandGenerator(fmt, seed)
    classes = list(OperandClass)
    cases = []

    def emit(labels: list[str], operands: tuple[int, ...]) -> None:
        case: dict = {"classes": labels}
        for key, word in zip(OPERANDS, operands):
            case[key] = f"{word:#x}"
        for mode in RoundingMode:
            bits, flags = oracle(fmt, *operands, mode)
            case[mode.value] = {
                "bits": f"{bits:#x}",
                "flags": flags.to_bits(),
            }
        cases.append(case)

    if arity == 1:
        for cls_a in classes:
            for _ in range(samples_per_pair):
                emit([cls_a.value], (gen.sample(cls_a),))
    elif arity == 2:
        for cls_a in classes:
            for cls_b in classes:
                for _ in range(samples_per_pair):
                    a = gen.sample(cls_a)
                    b = gen.sample(cls_b)
                    emit([cls_a.value, cls_b.value], (a, b))
    else:
        # The 13^3 triple grid is too large to check in; cycle the third
        # operand's class across the pair grid so every class appears.
        n_cls = len(classes)
        for ia, cls_a in enumerate(classes):
            for ib, cls_b in enumerate(classes):
                cls_c = classes[(ia + ib) % n_cls]
                for _ in range(samples_per_pair):
                    a = gen.sample(cls_a)
                    b = gen.sample(cls_b)
                    c = gen.sample(cls_c)
                    emit([cls_a.value, cls_b.value, cls_c.value], (a, b, c))
    for label, operands in _directed_cases(fmt, op):
        emit([f"directed:{label}"], operands)
    return {
        "format": fmt.name,
        "exp_bits": fmt.exp_bits,
        "man_bits": fmt.man_bits,
        "op": op,
        "seed": seed,
        "samples_per_pair": samples_per_pair,
        "cases": cases,
    }


def corpus_filename(fmt: FPFormat, op: str) -> str:
    return f"{fmt.name}_{op}.json"


def load_corpus(path: str | Path) -> dict:
    """Load a corpus file, parsing hex words back to integers.

    Each parsed case carries an ``"operands"`` tuple (arity-aware: one
    word for sqrt, three for fma) alongside the legacy ``"a"``/``"b"``
    keys kept for the binary-op consumers.
    """
    doc = json.loads(Path(path).read_text())
    fmt = FPFormat(doc["exp_bits"], doc["man_bits"], doc["format"])
    cases = []
    for case in doc["cases"]:
        operands = tuple(
            int(case[key], 16) for key in OPERANDS if key in case
        )
        parsed = {
            "classes": tuple(case["classes"]),
            "operands": operands,
        }
        for key, word in zip(OPERANDS, operands):
            parsed[key] = word
        for mode in RoundingMode:
            entry = case[mode.value]
            parsed[mode.value] = (int(entry["bits"], 16), int(entry["flags"]))
        cases.append(parsed)
    return {
        "fmt": fmt,
        "op": doc["op"],
        "arity": OP_ARITY[doc["op"]],
        "seed": doc["seed"],
        "cases": cases,
    }


def write_corpora(
    outdir: str | Path,
    formats: Iterable[FPFormat] = (FP32, FP48, FP64),
    ops: Iterable[str] = GOLDEN_OPS,
) -> list[Path]:
    """Write every (format, op) corpus file under ``outdir``."""
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        for op in ops:
            doc = generate_corpus(fmt, op)
            path = root / corpus_filename(fmt, op)
            path.write_text(json.dumps(doc, indent=1) + "\n")
            written.append(path)
    return written


if __name__ == "__main__":  # pragma: no cover - regeneration utility
    target = sys.argv[1] if len(sys.argv) > 1 else "tests/vectors"
    for p in write_corpora(target, formats=PAPER_FORMATS):
        print(p)
    for p in write_corpora(target, formats=SMALL_FORMATS, ops=SMALL_GOLDEN_OPS):
        print(p)
