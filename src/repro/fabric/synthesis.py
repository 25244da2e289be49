"""The end-to-end "synthesis" flow for FP datapaths.

:func:`synthesize` plays the role of ISE synthesis + place & route: it
takes a :class:`~repro.fabric.netlist.Datapath`, a pipeline depth, a tool
objective and a speed grade, places the registers optimally
(:mod:`repro.fabric.retiming`) and returns an
:class:`ImplementationReport` with the quantities the paper tabulates —
pipeline stages, slices, LUTs, flip-flops, clock rate, and the
throughput/area figure of merit (MHz/slice).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric import area, timing
from repro.fabric.device import SpeedGrade
from repro.fabric.netlist import Datapath
from repro.fabric.retiming import PartitionResult, partition_chain
from repro.fabric.toolchain import Objective
from repro.fp.format import FPFormat

#: Fabric global-clock ceiling for the reference (-7) grade.
FABRIC_CLOCK_CEILING_MHZ = 300.0


@dataclass(frozen=True)
class ImplementationReport:
    """One implementation point of one unit — a row of Tables 1/2.

    ``clock_mhz`` is the post-P&R clock rate; ``freq_per_area`` is the
    paper's throughput/area metric in MHz/slice.  ``latency_cycles``
    equals ``stages`` (initiation interval is always 1).
    """

    unit: str
    fmt: FPFormat
    stages: int
    slices: int
    luts: int
    flipflops: int
    clock_mhz: float
    mult18: int
    objective: Objective
    grade: SpeedGrade
    critical_path_ns: float

    @property
    def freq_per_area(self) -> float:
        """Throughput per unit area (MHz/slice), the paper's metric."""
        return self.clock_mhz / self.slices

    @property
    def latency_cycles(self) -> int:
        return self.stages

    @property
    def latency_ns(self) -> float:
        return self.stages * 1000.0 / self.clock_mhz

    @property
    def throughput_mops(self) -> float:
        """Results per microsecond at full issue (II = 1)."""
        return self.clock_mhz

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.unit}: {self.stages} stages, {self.slices} slices, "
            f"{self.clock_mhz:.1f} MHz, {self.freq_per_area:.3f} MHz/slice"
        )


def synthesize(
    datapath: Datapath,
    stages: int,
    objective: Objective = Objective.BALANCED,
    grade: SpeedGrade = SpeedGrade.MINUS_7,
    ff_sharing: float | None = None,
) -> ImplementationReport:
    """Implement ``datapath`` with ``stages`` register levels.

    ``ff_sharing`` overrides the fraction of pipeline-register bits that
    cost fresh slices (default: :data:`repro.fabric.area.
    FF_SHARING_FACTOR`); the register-cost ablation sweeps it.
    """
    partition: PartitionResult = partition_chain(datapath.quanta, stages)

    critical = partition.critical_path_ns * grade.delay_scale * objective.delay_scale
    clock = timing.achievable_mhz(
        critical, FABRIC_CLOCK_CEILING_MHZ / grade.delay_scale
    )

    if ff_sharing is None:
        ff_sharing = area.FF_SHARING_FACTOR
    if not 0.0 <= ff_sharing <= 1.0:
        raise ValueError(f"ff_sharing must be in [0, 1], got {ff_sharing}")
    comb_slices = datapath.comb_slices * objective.area_scale
    reg_slices = partition.register_bits / 2 * ff_sharing
    slices = max(1, round(comb_slices + reg_slices))

    return ImplementationReport(
        unit=datapath.name,
        fmt=datapath.fmt,
        stages=stages,
        slices=slices,
        luts=area.slices_to_luts(comb_slices),
        flipflops=partition.register_bits,
        clock_mhz=clock,
        mult18=datapath.mult18,
        objective=objective,
        grade=grade,
        critical_path_ns=critical,
    )


def sweep_stages(
    datapath: Datapath,
    max_stages: int | None = None,
    objective: Objective = Objective.BALANCED,
    grade: SpeedGrade = SpeedGrade.MINUS_7,
) -> list[ImplementationReport]:
    """Implement every pipeline depth from 1 to ``max_stages``.

    ``max_stages`` defaults to the datapath's ``sweep_depth``, a few
    levels past the natural maximum.
    """
    if max_stages is None:
        max_stages = datapath.sweep_depth
    return [
        synthesize(datapath, s, objective=objective, grade=grade)
        for s in range(1, max_stages + 1)
    ]
