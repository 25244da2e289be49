"""The generated units and their pipeline-depth design-space exploration
(the engine behind Fig 2 and Tables 1-2).

For a given format and unit kind the explorer sweeps every pipeline depth
and identifies the three implementations the paper tabulates:

* **min** — the architectural minimum: one register level per major
  module of Figure 1 (4 for the adder; 6 for the multiplier, whose
  embedded-multiplier core is itself pipelined), i.e. the "implementation
  with least pipeline stages" the methodology starts from;
* **opt** — the depth with the highest frequency/area ratio (MHz/slice);
* **max** — the shallowest depth that reaches the peak clock rate
  (pipelining past it "yields no improvements in throughput").

The sweep and the generated cores share one unit table, :class:`UnitKind`:
one row per unit naming its :data:`repro.fp.ops.OP_TABLE` op, its datapath
builder and its minimum depth.  :class:`PipelinedCore` is the one
behavioural core built from a row, at one depth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine import Engine, Job, default_engine
from repro.fabric.device import SpeedGrade
from repro.fabric.netlist import (
    Datapath,
    adder_datapath,
    divider_datapath,
    multiplier_datapath,
    sqrt_datapath,
)
from repro.fabric.synthesis import ImplementationReport, sweep_stages, synthesize
from repro.fabric.toolchain import Objective
from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.ops import OP_ARITY, OP_TABLE
from repro.fp.rounding import RoundingMode
from repro.rtl.pipeline import PipelinedFunction

#: Architectural minimum register levels (see module docstring).
MIN_STAGES_ADDER = 4
MIN_STAGES_MULTIPLIER = 6
#: The recurrence units register at least their module boundaries plus a
#: handful of row groups even in their shallowest builds.
MIN_STAGES_RECURRENCE = 8


class UnitKind(enum.Enum):
    """A generated unit, one row each: ``(value, op, datapath, min_stages)``.

    ``op`` names the unit's :data:`repro.fp.ops.OP_TABLE` row,
    ``datapath(fmt)`` builds its :mod:`repro.fabric.netlist` datapath and
    ``min_stages`` is its architectural minimum depth.
    """

    ADDER = ("adder", "add", adder_datapath, MIN_STAGES_ADDER)
    MULTIPLIER = ("multiplier", "mul", multiplier_datapath, MIN_STAGES_MULTIPLIER)
    # library extensions
    DIVIDER = ("divider", "div", divider_datapath, MIN_STAGES_RECURRENCE)
    SQRT = ("sqrt", "sqrt", sqrt_datapath, MIN_STAGES_RECURRENCE)

    def __new__(
        cls,
        value: str,
        op: str,
        datapath: Callable[[FPFormat], Datapath],
        min_stages: int,
    ) -> "UnitKind":
        member = object.__new__(cls)
        member._value_ = value
        member.op = op
        member.datapath = datapath
        member.min_stages = min_stages
        return member


#: Unit kind by its value, the spelling requests and job keys use.
KINDS_BY_NAME: dict[str, UnitKind] = {k.value: k for k in UnitKind}


class PipelinedCore:
    """A generated core: a latency-``stages`` pipeline of bit-exact results
    (with the exception sideband and DONE flag) plus its implementation
    report.  The pipe runs the ``kind`` row's ``OP_TABLE`` scalar, the
    report synthesizes the row's datapath; subclasses only name ``kind``.

    Parameters
    ----------
    fmt:
        Floating-point format.
    stages:
        Pipeline register levels (= result latency in cycles).
    mode:
        Rounding mode.
    objective / grade:
        Tool settings forwarded to the synthesis model.

    Use :meth:`step`-style clocking (or ``pipe`` directly), or the
    convenience :meth:`compute` for un-timed evaluation.
    """

    kind: UnitKind

    def __init__(
        self,
        fmt: FPFormat,
        stages: int,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
        objective: Objective = Objective.BALANCED,
        grade: SpeedGrade = SpeedGrade.MINUS_7,
    ) -> None:
        if stages < 1:
            raise ValueError(f"stages must be >= 1, got {stages}")
        self.fmt = fmt
        self.stages = stages
        self.mode = mode
        self.arity = OP_ARITY[self.kind.op]
        self.report: ImplementationReport = synthesize(
            self.kind.datapath(fmt), stages, objective=objective, grade=grade
        )
        self.pipe: PipelinedFunction = PipelinedFunction(
            self._evaluate,
            latency=stages,
            name=f"fp{self.kind.op}_{fmt.name}_s{stages}",
        )

    def _evaluate(self, op: str, *words: int) -> tuple[int, FPFlags]:
        return OP_TABLE[op].scalar(self.fmt, *words, self.mode)

    def _issue(self, words: tuple[int, ...], subtract: bool) -> tuple:
        """The pipe operands of one issue: the op name, then the words."""
        if len(words) != self.arity:
            raise ValueError(f"expected {self.arity} operand(s), got {len(words)}")
        if not subtract:
            return (self.kind.op, *words)
        if self.kind is not UnitKind.ADDER:
            raise ValueError(f"only the adder subtracts, not the {self.kind.value}")
        return ("sub", *words)

    # ------------------------------------------------------------------ #
    # Timed interface
    # ------------------------------------------------------------------ #
    def step(
        self, *words: Optional[int], subtract: bool = False
    ) -> tuple[Optional[tuple[int, FPFlags]], bool]:
        """Clock one cycle; issue ``words`` if given, else a bubble.

        Returns ``(result, done)`` where ``result`` is the
        ``(bits, flags)`` pair that completed this cycle, if any.
        """
        if all(w is None for w in words):
            return self.pipe.step(None)
        if None in words:
            raise ValueError("issue all operands or none")
        return self.pipe.step(self._issue(words, subtract))

    @property
    def latency(self) -> int:
        return self.stages

    @property
    def clock_mhz(self) -> float:
        return self.report.clock_mhz

    @property
    def slices(self) -> int:
        return self.report.slices

    # ------------------------------------------------------------------ #
    # Un-timed convenience
    # ------------------------------------------------------------------ #
    def compute(self, *words: int, subtract: bool = False) -> tuple[int, FPFlags]:
        """Evaluate combinationally (no pipeline bookkeeping)."""
        return self._evaluate(*self._issue(words, subtract))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.fmt.name}, stages={self.stages}, "
            f"{self.report.clock_mhz:.0f} MHz, {self.report.slices} slices)"
        )


class PipelinedFPAdder(PipelinedCore):
    """The FP adder/subtractor (paper Figure 1a); ``subtract=True`` on
    :meth:`step`/:meth:`compute` issues ``sub``."""

    kind = UnitKind.ADDER


class PipelinedFPMultiplier(PipelinedCore):
    """The FP multiplier (paper Figure 1b)."""

    kind = UnitKind.MULTIPLIER


class PipelinedFPDivider(PipelinedCore):
    """The FP divider (library extension).

    Division is the area outlier: the digit-recurrence array grows
    quadratically with the significand width, so dividers dwarf the
    adder/multiplier and are typically instantiated once per kernel (not
    per PE).
    """

    kind = UnitKind.DIVIDER


class PipelinedFPSqrt(PipelinedCore):
    """The FP square root (library extension).

    Like the divider, a digit-recurrence array: deep pipelines come
    naturally (one row per result bit) at quadratic area cost.
    """

    kind = UnitKind.SQRT


@dataclass(frozen=True)
class DesignPoint:
    """One labelled implementation in the design space."""

    label: str  # "min" | "opt" | "max"
    report: ImplementationReport

    @property
    def stages(self) -> int:
        return self.report.stages


@dataclass(frozen=True)
class DesignSpace:
    """The full stage sweep for one (format, unit kind) pair."""

    fmt: FPFormat
    kind: UnitKind
    reports: tuple[ImplementationReport, ...]

    def at(self, stages: int) -> ImplementationReport:
        """The implementation with exactly ``stages`` register levels."""
        for r in self.reports:
            if r.stages == stages:
                return r
        raise KeyError(f"no implementation with {stages} stages in sweep")

    @property
    def minimum(self) -> DesignPoint:
        return DesignPoint("min", self.at(self.kind.min_stages))

    @property
    def optimal(self) -> DesignPoint:
        best = max(self.reports, key=lambda r: (r.freq_per_area, -r.stages))
        return DesignPoint("opt", best)

    @property
    def maximum(self) -> DesignPoint:
        peak = self.peak_clock_mhz
        first = min(r.stages for r in self.reports if r.clock_mhz >= peak - 1e-9)
        return DesignPoint("max", self.at(first))

    @property
    def peak_clock_mhz(self) -> float:
        return max(r.clock_mhz for r in self.reports)

    def cheapest_at_least(self, clock_mhz: float) -> ImplementationReport:
        """Best MHz/slice among implementations meeting a clock floor.

        This is the paper's kernel-driven selection rule: "if the overall
        architecture's operating frequency is less than the optimal
        frequency for the floating-point unit then floating-point units
        with the best frequency/area metric considering a lower frequency
        have to be chosen."
        """
        ok = [r for r in self.reports if r.clock_mhz >= clock_mhz]
        if not ok:
            raise ValueError(
                f"no {self.fmt.name} {self.kind.value} implementation "
                f"reaches the requested {clock_mhz:g} MHz; the sweep's "
                f"peak_clock_mhz is {self.peak_clock_mhz:.1f} MHz"
            )
        return min(ok, key=lambda r: (r.slices, r.stages))

    def table_rows(self) -> list[DesignPoint]:
        """The min/max/opt triple in the paper's column order."""
        return [self.minimum, self.maximum, self.optimal]


def _run_sweep(
    fmt: FPFormat,
    kind: UnitKind,
    objective: Objective,
    grade: SpeedGrade,
    max_stages: int,
) -> tuple[ImplementationReport, ...]:
    """Engine job body: the raw stage sweep for one (format, unit) pair."""
    dp = kind.datapath(fmt)
    return tuple(
        sweep_stages(dp, max_stages=max_stages, objective=objective, grade=grade)
    )


def sweep_job(
    fmt: FPFormat,
    kind: UnitKind,
    objective: Objective = Objective.BALANCED,
    grade: SpeedGrade = SpeedGrade.MINUS_7,
    max_stages: int | None = None,
) -> Job:
    """The content-addressed engine job for one design-space sweep.

    ``max_stages`` is resolved to its concrete default *before* hashing,
    so ``explore(fmt, kind)`` and ``explore(fmt, kind, max_stages=<same
    default>)`` share one cache entry.
    """
    if max_stages is None:
        max_stages = kind.datapath(fmt).sweep_depth
    return Job.create(
        f"fabric.sweep_stages.{kind.value}",
        _run_sweep,
        fmt=fmt,
        kind=kind,
        objective=objective,
        grade=grade,
        max_stages=max_stages,
    )


def explore(
    fmt: FPFormat,
    kind: UnitKind,
    objective: Objective = Objective.BALANCED,
    grade: SpeedGrade = SpeedGrade.MINUS_7,
    max_stages: int | None = None,
    engine: Engine | None = None,
) -> DesignSpace:
    """Sweep all pipeline depths for one unit; see :class:`DesignSpace`.

    The sweep runs through the evaluation engine (default: the shared
    in-process engine), so repeated explorations of the same design
    space — Table 1 and Figure 2a both sweep the adders — are computed
    once and reused, in memory and, when a cache directory is
    configured, across runs.
    """
    job = sweep_job(fmt, kind, objective=objective, grade=grade, max_stages=max_stages)
    reports = (engine if engine is not None else default_engine()).evaluate(job)
    return DesignSpace(fmt=fmt, kind=kind, reports=tuple(reports))
