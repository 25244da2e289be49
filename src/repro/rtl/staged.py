"""Structural staged pipelines: micro-ops executed stage by stage.

:class:`PipelinedFunction` models a pipelined unit *behaviourally* (the
result is computed at issue and carried through a delay line).
:class:`StagedPipeline` models it *structurally*: the computation is an
ordered list of :class:`MicroOp` transfer functions over a state bundle,
partitioned into ``stages`` contiguous groups; each clock, every stage
applies its group to the bundle it latched and passes the result to the
next stage register.  This is the software analogue of the VHDL
generate-loop that emits one process per pipeline stage.

The test suite proves stream equivalence between the structural cores in
:mod:`repro.units.structural` and the behavioural/functional datapaths at
every legal stage count, which is the classic RTL-vs-golden-model
verification flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

State = dict[str, Any]


@dataclass(frozen=True)
class MicroOp:
    """One architectural step: a pure transfer function on the bundle.

    ``fn`` receives the current state dict and returns the *updates* to
    merge (hardware: the signals this block drives).  Micro-ops must not
    mutate their input.
    """

    name: str
    fn: Callable[[State], State]


def run_micro_ops(
    ops: Sequence[MicroOp],
    state: State,
    record: Optional[Callable[[str, State], None]] = None,
) -> State:
    """Apply ``ops`` in order to ``state``; return the final bundle.

    Each micro-op sees the bundle its predecessors left, and its updates
    are merged over a copy of it, so ``state`` itself is never mutated.
    ``record``, if given, receives ``(name, updates)`` after every
    micro-op, in order — the waveform of one operation.
    """
    for op in ops:
        updates = op.fn(state)
        if record is not None:
            record(op.name, updates)
        state = {**state, **updates}
    return state


def int_signals(updates: State) -> dict[str, int]:
    """A micro-op's integer-valued updates: its datapath signals, which
    are also its fault sites (booleans excluded)."""
    return {
        key: value
        for key, value in updates.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def partition_micro_ops(
    ops: Sequence[MicroOp], stages: int
) -> list[list[MicroOp]]:
    """Split micro-ops into ``stages`` contiguous, balanced groups.

    ``stages`` beyond ``len(ops)`` produce trailing empty groups — pure
    registers, exactly like over-pipelining the real datapath.
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    groups: list[list[MicroOp]] = [[] for _ in range(stages)]
    n = len(ops)
    effective = min(stages, n)
    base = n // effective
    extra = n % effective
    idx = 0
    for g in range(effective):
        take = base + (1 if g < extra else 0)
        groups[g] = list(ops[idx : idx + take])
        idx += take
    return groups


class StagedPipeline:
    """A structural pipeline over a micro-op list.

    Each stage register holds a state bundle (or a bubble).  A clock
    applies stage ``i``'s micro-ops to register ``i-1``'s bundle and
    latches the result into register ``i`` — a textbook synchronous
    pipeline with initiation interval 1 and latency ``stages``.
    """

    def __init__(
        self,
        ops: Sequence[MicroOp],
        stages: int,
        name: str = "staged",
    ) -> None:
        self.name = name
        self.stages = stages
        self.groups = partition_micro_ops(ops, stages)
        self._regs: list[Optional[State]] = [None] * stages
        self.cycles = 0
        self.issued = 0
        self.completed = 0
        self._mid_cycle = False

    def begin_cycle(self) -> tuple[Optional[State], bool]:
        """Phase 1: the completing bundle leaves; internal stages shift.

        Splitting the cycle lets issue logic observe this edge's
        writeback before deciding what to feed stage 0 (write-before-read
        accumulators), mirroring
        :meth:`repro.rtl.pipeline.PipelinedFunction.begin_cycle`.
        """
        if self._mid_cycle:
            raise RuntimeError(f"{self.name}: begin_cycle without end_cycle")
        self._mid_cycle = True
        self.cycles += 1
        out = self._regs[-1]
        # Shift from the back so each stage consumes the previous edge's
        # value (two-phase semantics without copying the whole array).
        for i in range(self.stages - 1, 0, -1):
            prev = self._regs[i - 1]
            self._regs[i] = (
                None if prev is None else run_micro_ops(self.groups[i], prev)
            )
        if out is None:
            return None, False
        self.completed += 1
        return out, True

    def end_cycle(self, inputs: Optional[State]) -> None:
        """Phase 2: issue a new bundle (or a bubble) into stage 0."""
        if not self._mid_cycle:
            raise RuntimeError(f"{self.name}: end_cycle without begin_cycle")
        self._mid_cycle = False
        if inputs is None:
            self._regs[0] = None
            return
        self._regs[0] = run_micro_ops(self.groups[0], dict(inputs))
        self.issued += 1

    def step(self, inputs: Optional[State]) -> tuple[Optional[State], bool]:
        """Advance one clock; returns ``(output bundle, done)``."""
        out = self.begin_cycle()
        self.end_cycle(inputs)
        return out

    @property
    def in_flight(self) -> int:
        return sum(1 for r in self._regs if r is not None)

    def drain(self) -> list[State]:
        """Clock bubbles until empty; return the remaining bundles."""
        results = []
        for _ in range(self.stages):
            out, done = self.step(None)
            if done:
                results.append(out)
        return results

    def reset(self) -> None:
        self._regs = [None] * self.stages
        self.cycles = self.issued = self.completed = 0
        self._mid_cycle = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "/".join(str(len(g)) for g in self.groups)
        return f"StagedPipeline({self.name!r}, stages={self.stages}, ops={sizes})"
