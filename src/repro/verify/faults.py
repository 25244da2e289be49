"""Fault injection: mutation coverage of the structural cores.

A verification flow is only as good as its sensitivity: if a randomly
injected datapath fault escapes the testbench, the testbench is too
weak.  This module wraps a structural core's micro-op list with
single-point fault injectors (stuck-at / bit-flip on one state field of
one micro-op) and measures how many injected faults the
golden-model comparison detects — classic mutation analysis, applied to
the RTL-vs-golden flow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.fp.format import FPFormat
from repro.fp.ops import OPERANDS
from repro.rtl.staged import MicroOp, State, int_signals, run_micro_ops


@dataclass(frozen=True)
class Fault:
    """A single-point fault: flip one bit of one field after one op."""

    op_index: int
    field: str
    bit: int

    def describe(self) -> str:
        return f"op[{self.op_index}].{self.field} ^= bit {self.bit}"


def inject(ops: Sequence[MicroOp], fault: Fault) -> list[MicroOp]:
    """Return a copy of ``ops`` with ``fault`` wired in."""
    if not 0 <= fault.op_index < len(ops):
        raise ValueError(f"op_index {fault.op_index} out of range")
    target = ops[fault.op_index]

    def faulty(state: State) -> State:
        out = target.fn(state)
        merged = dict(state)
        merged.update(out)
        if fault.field in merged and isinstance(merged[fault.field], int):
            out = dict(out)
            out[fault.field] = merged[fault.field] ^ (1 << fault.bit)
        return out

    mutated = list(ops)
    mutated[fault.op_index] = MicroOp(f"{target.name}!fault", faulty)
    return mutated


def _integer_fields(ops: Sequence[MicroOp], probe: State) -> list[tuple[int, str]]:
    """Discover (op_index, field) sites by running the chain once."""
    steps: list[State] = []
    run_micro_ops(ops, probe, lambda _name, updates: steps.append(updates))
    return [(i, key) for i, updates in enumerate(steps) for key in int_signals(updates)]


@dataclass
class MutationReport:
    """Outcome of a mutation campaign."""

    trials: int
    detected: int
    escaped: list[Fault]

    @property
    def coverage(self) -> float:
        return self.detected / self.trials if self.trials else 0.0


def mutation_campaign(
    fmt: FPFormat,
    ops: Sequence[MicroOp],
    golden: Callable[..., tuple],
    trials: int = 50,
    vectors_per_trial: int = 16,
    seed: int = 0,
    arity: int = 2,
    vectors: Callable[[random.Random], tuple[int, ...]] | None = None,
) -> MutationReport:
    """Inject ``trials`` random single-point faults; count detections.

    A fault is *detected* when any of the random operand vectors makes
    the faulty chain's packed result or flag sideband differ from the
    golden function.  Faults in dead corners (e.g. a bit that the
    rounding stage discards) can legitimately escape; the report lists
    the escapees for triage.

    ``arity`` sets how many operands the chain consumes (1 for the sqrt
    recurrence, 3 for the fused MAC); ``golden`` is called with that
    many bit patterns.  ``vectors`` overrides the operand generator —
    the default draws independent uniform normal words, which never hits
    low-observability corners like exact quotients or catastrophic
    cancellation, so recurrence- and wide-product chains should pass a
    corner-biased generator instead.  The two-operand probe and default
    vector stream are unchanged from the original binary campaign, so
    pinned seeds keep their coverage.
    """
    if not 1 <= arity <= len(OPERANDS):
        raise ValueError(f"arity must be 1..{len(OPERANDS)}, got {arity}")
    rng = random.Random(seed)
    probe_words = (
        fmt.pack(0, fmt.bias, fmt.man_mask // 3),
        fmt.pack(0, fmt.bias + 1, fmt.man_mask // 5),
        fmt.pack(0, fmt.bias - 1, fmt.man_mask // 7),
    )
    probe = dict(zip(OPERANDS[:arity], probe_words))
    sites = _integer_fields(ops, probe)
    if not sites:
        raise ValueError("no integer state fields found to fault")

    def run_chain(chain: Sequence[MicroOp], operands: tuple[int, ...]):
        state = run_micro_ops(chain, dict(zip(OPERANDS[:arity], operands)))
        return state["result"], state["flags"]

    def uniform_normals(r: random.Random) -> tuple[int, ...]:
        return tuple(
            fmt.pack(
                r.randint(0, 1),
                r.randint(1, fmt.exp_max - 1),
                r.randrange(fmt.man_mask + 1),
            )
            for _ in range(arity)
        )

    draw = vectors if vectors is not None else uniform_normals

    detected = 0
    escaped: list[Fault] = []
    for _ in range(trials):
        op_index, field = rng.choice(sites)
        fault = Fault(op_index=op_index, field=field, bit=rng.randrange(8))
        chain = inject(ops, fault)
        found = False
        for _ in range(vectors_per_trial):
            operands = draw(rng)
            try:
                mismatch = run_chain(chain, operands) != tuple(golden(*operands))
            except (ValueError, KeyError, OverflowError):
                # A corrupted bundle crashing a downstream stage is a
                # loud detection, not an escape.
                mismatch = True
            if mismatch:
                found = True
                break
        if found:
            detected += 1
        else:
            escaped.append(fault)
    return MutationReport(trials=trials, detected=detected, escaped=escaped)
