"""Structural (stage-by-stage) FP cores on the staged-pipeline substrate.

Unlike :class:`~repro.units.explorer.PipelinedFPAdder` — whose pipeline is
behavioural (result computed at issue, carried through a delay line) —
the cores here actually *compute across the stages*: the datapath is an
ordered list of micro-ops (unpack, denormalize, swap, align, add,
normalize, round, pack / the divider's one-bit recurrence rows), grouped
into the requested number of pipeline stages, with a state bundle latched
between groups.  This is the closest software analogue of the generated
VHDL, and the test suite proves stream equivalence against the
behavioural models at every stage count — the RTL-vs-golden-model
verification flow.

The micro-ops are the stage functions the scalar ``fp_*`` chain
(:mod:`repro.fp.stages`; div and sqrt in their row form), registered by
one bundle adapter, :func:`micro_ops`.

Special operands ride a ``bypass`` field through the pipe (a stage's
early ``(bits, flags)``, carried forward), mirroring the paper's "at
every stage exceptions are detected and carried forward" sideband.

:data:`MICRO_OPS` keys one list per :data:`repro.fp.ops.OP_TABLE` op.
The same lists are the library's waveform view: :func:`trace_datapath`
runs one operation and records the signals each micro-op drove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from repro.fp.adder import adder_stages
from repro.fp.divider import divider_rows
from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.mac import fma_stages
from repro.fp.multiplier import multiplier_stages
from repro.fp.ops import OP_ARITY, OPERANDS
from repro.fp.rounding import RoundingMode
from repro.fp.sqrt import sqrt_rows
from repro.fp.stages import Done, Stage, inputs_of
from repro.rtl.staged import (
    MicroOp,
    StagedPipeline,
    State,
    int_signals,
    run_micro_ops,
)


def _micro_op(stage: Stage, outputs: Optional[tuple[str, ...]]) -> MicroOp:
    """One stage as a bundle micro-op; ``outputs`` names its returned
    signals (the next stage's inputs), ``None`` for the closing stage.

    An input missing from the bundle reads as ``None`` (the adder's
    optional ``subtract``).  A stage's early ``(bits, flags)`` becomes the
    ``bypass`` sideband, which later stages pass through and the closing
    stage emits as ``result``/``flags``.
    """
    fn, inputs = stage.fn, inputs_of(stage.fn)
    slots: list[tuple[str, int]] = []
    if outputs is not None:
        driven = stage.drives or outputs
        missing = set(driven) - set(outputs)
        if missing:
            raise ValueError(f"stage {stage.name!r} drives no {sorted(missing)}")
        slots = [(name, outputs.index(name)) for name in driven]

    def micro_op(st: State) -> State:
        done = st.get("bypass")
        if done is None:
            out = fn(*map(st.get, inputs))
            if out.__class__ is not Done:
                return {name: out[i] for name, i in slots}
            if outputs is not None:
                return {"bypass": out}
            done = out
        elif outputs is not None:
            return {}
        return {"result": done[0], "flags": done[1]}

    return MicroOp(stage.name, micro_op)


def micro_ops(stages: Sequence[Stage]) -> list[MicroOp]:
    """The bundle adapter: a stage tuple as a micro-op list."""
    outputs = [inputs_of(stage.fn) for stage in stages[1:]] + [None]
    return [_micro_op(stage, out) for stage, out in zip(stages, outputs)]


def _adapted(build: Callable[[FPFormat, RoundingMode], tuple[Stage, ...]]):
    def micro_op_builder(fmt: FPFormat, mode: RoundingMode) -> list[MicroOp]:
        return micro_ops(build(fmt, mode))

    micro_op_builder.__doc__ = f"The micro-ops of :func:`{build.__name__}`."
    return micro_op_builder


adder_micro_ops = _adapted(adder_stages)
multiplier_micro_ops = _adapted(multiplier_stages)
divider_micro_ops = _adapted(divider_rows)
sqrt_micro_ops = _adapted(sqrt_rows)
fma_micro_ops = _adapted(fma_stages)


# --------------------------------------------------------------------- #
# One table, one core class, one trace recorder
# --------------------------------------------------------------------- #
MicroOpBuilder = Callable[[FPFormat, RoundingMode], list[MicroOp]]

#: Every :data:`repro.fp.ops.OP_TABLE` op as ``(micro-op builder, fields
#: seeded into each bundle)``: subtraction is the adder's list with its
#: ``subtract`` input set.
MICRO_OPS: dict[str, tuple[MicroOpBuilder, State]] = {
    "add": (adder_micro_ops, {}),
    "sub": (adder_micro_ops, {"subtract": True}),
    "mul": (multiplier_micro_ops, {}),
    "div": (divider_micro_ops, {}),
    "sqrt": (sqrt_micro_ops, {}),
    "fma": (fma_micro_ops, {}),
}


def _bundle(operands: Sequence[str], words: Sequence[int], seed: State) -> State:
    """The state bundle one issue starts from."""
    if len(words) != len(operands):
        raise ValueError(f"expected {len(operands)} operand(s), got {len(words)}")
    return {**seed, **dict(zip(operands, words))}


class _StructuralCore:
    """A staged pipeline over one micro-op list.

    Issued words land on the bundle keys ``operands``, in order, over the
    fields of ``seed``.  ``keywords`` names the extra bundle inputs the
    micro-ops read (the adder's ``subtract``); any other keyword is a
    :class:`ValueError`, not a silently ignored bundle field.
    """

    keywords: tuple[str, ...] = ()

    def __init__(
        self,
        fmt: FPFormat,
        stages: int,
        micro_ops: list[MicroOp],
        operands: tuple[str, ...],
        name: str,
        seed: Optional[State] = None,
    ) -> None:
        self.fmt = fmt
        self.stages = stages
        self.micro_ops = micro_ops
        self.operands = operands
        self._seed = seed or {}
        self.pipe = StagedPipeline(micro_ops, stages, name=name)

    def step(
        self, *words: Optional[int], **extra
    ) -> tuple[Optional[tuple[int, FPFlags]], bool]:
        """Clock one cycle; issue ``words`` if given, else a bubble."""
        if all(w is None for w in words):
            bundle = None
        elif None in words:
            raise ValueError("issue all operands or none")
        else:
            bundle = self._issue(words, extra)
        out, done = self.pipe.step(bundle)
        if not done:
            return None, False
        return (out["result"], out["flags"]), True

    def compute(self, *words: int, **extra) -> tuple[int, FPFlags]:
        """Single-shot: run the micro-op list on one issue."""
        state = run_micro_ops(self.micro_ops, self._issue(words, extra))
        return state["result"], state["flags"]

    def _issue(self, words: Sequence[int], extra: State) -> State:
        """The bundle of one issue: operands, seed fields and keywords."""
        for name in extra:
            if name not in self.keywords:
                raise ValueError(
                    f"{type(self).__name__} takes no keyword {name!r} "
                    f"(accepts: {', '.join(self.keywords) or 'none'})"
                )
        return {**_bundle(self.operands, words, self._seed), **extra}

    @property
    def latency(self) -> int:
        return self.stages


class _OpCore(_StructuralCore):
    """The structural core of the :data:`MICRO_OPS` op named ``op``."""

    op: str

    def __init__(
        self,
        fmt: FPFormat,
        stages: int,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        build, seed = MICRO_OPS[self.op]
        super().__init__(
            fmt,
            stages,
            build(fmt, mode),
            OPERANDS[: OP_ARITY[self.op]],
            f"sfp{self.op}_{fmt.name}",
            seed,
        )


class StructuralFPAdder(_OpCore):
    """Stage-by-stage FP adder/subtractor (see module docstring);
    ``subtract=True`` on an issue subtracts."""

    op = "add"
    keywords = ("subtract",)


class StructuralFPMultiplier(_OpCore):
    """Stage-by-stage FP multiplier."""

    op = "mul"


class StructuralFPDivider(_OpCore):
    """Stage-by-stage FP divider with a real one-bit recurrence."""

    op = "div"


class StructuralFPSqrt(_OpCore):
    """Stage-by-stage FP square root with a two-bits-per-row recurrence."""

    op = "sqrt"


class StructuralFPMac(_OpCore):
    """Stage-by-stage fused MAC: ``a*b + c`` with a single rounding."""

    op = "fma"


@dataclass
class StageTrace:
    """One micro-op's recorded signals, in the order it drove them."""

    name: str
    signals: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:#x}" for k, v in self.signals.items())
        return f"{self.name}: {inner}"


@dataclass
class DatapathTrace:
    """Everything one operation did, micro-op by micro-op."""

    op: str
    fmt: FPFormat
    stages: list[StageTrace] = field(default_factory=list)
    result: int = 0
    flags: FPFlags = field(default_factory=FPFlags)
    special: Optional[str] = None  # the micro-op that set ``bypass``

    def find(self, stage: str, signal: str) -> int:
        for s in self.stages:
            if s.name == stage and signal in s.signals:
                return s.signals[signal]
        raise KeyError(f"no signal {signal!r} in stage {stage!r}")

    def render(self) -> str:
        lines = [f"{self.op} ({self.fmt.name})"]
        if self.special:
            lines.append(f"  special case: {self.special}")
        for s in self.stages:
            lines.append(f"  {s}")
        lines.append(f"  result = {self.result:#x}  flags = {self.flags}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def trace_datapath(
    op: str,
    fmt: FPFormat,
    *words: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> DatapathTrace:
    """The waveform view: run ``op``'s micro-op list once on ``words``.

    Every micro-op that did work becomes a stage holding its integer
    signals.  The result is the micro-op list's own, which the test suite
    pins to the scalar datapaths on every golden-corpus row.
    """
    build, seed = MICRO_OPS[op]
    trace = DatapathTrace(op=op, fmt=fmt)

    def record(name: str, updates: State) -> None:
        if updates:
            trace.stages.append(StageTrace(name, int_signals(updates)))
        if updates.get("bypass") is not None:
            trace.special = name

    state = run_micro_ops(
        build(fmt, mode), _bundle(OPERANDS[: OP_ARITY[op]], words, seed), record
    )
    trace.result, trace.flags = state["result"], state["flags"]
    return trace


fp_add_trace = partial(trace_datapath, "add")
fp_mul_trace = partial(trace_datapath, "mul")
