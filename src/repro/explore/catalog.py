"""Materialized design catalogs and cached frontier computation.

Two catalog domains, one contract each:

* **units** — every pipeline depth of every (unit kind, format) pair,
  annotated with the paper's merit metrics (clock, area, MHz/slice,
  latency) plus the power-model extensions (mW, nJ/op, MOPS/W — the
  FPMax-style GFLOPS/W axis).
* **kernel** — the Section-5 (pipelining config, block size) grid with
  its energy/latency/slices/GFLOPS metrics.

Both are produced by *pure engine jobs* (``explore.frontier.units``,
``explore.frontier.kernel``): the job body recomputes the sweep from
the datapath models and returns the records together with their Pareto
frontier, so the whole catalog+frontier is one content-addressed cache
entry.  The job key includes the engine's ``CACHE_VERSION``, which is
bumped whenever the underlying models change — frontier invalidation
rides the engine's existing mechanism, no second cache to manage.

The streaming ``/v1/explore`` endpoint deliberately does *not* use the
monolithic frontier job for its point lines: it materializes the grid
pair-by-pair through :func:`repro.units.explorer.sweep_job` on the
serving engine, so each sweep lands (and streams) as its own cache
entry shared with ``/v1/unit`` and the experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.engine import Job
from repro.explore.frontier import pareto_indices
from repro.fabric.device import SpeedGrade
from repro.fabric.synthesis import ImplementationReport
from repro.fabric.toolchain import Objective
from repro.fp.format import ALL_FORMATS, FPFormat
from repro.power import xpower
from repro.units.explorer import UnitKind
from repro.units import explorer as _explorer

#: Default kernel grid: the paper's fixed problem size and block sizes
#: (Figure 6), over the FP32 kernel configs.
KERNEL_N = 16
KERNEL_BLOCK_SIZES = (2, 4, 8, 16)


@dataclass(frozen=True)
class UnitRecord:
    """One implementation point of the unit catalog, fully annotated."""

    kind: str
    format: str
    stages: int
    slices: int
    luts: int
    flipflops: int
    mult18: int
    clock_mhz: float
    latency_ns: float
    throughput_mops: float
    mhz_per_slice: float
    power_mw: float
    energy_per_op_nj: float
    mops_per_watt: float

    @property
    def id(self) -> str:
        return f"{self.kind}/{self.format}/s{self.stages}"


@dataclass(frozen=True)
class KernelRecord:
    """One (pipelining config, block size) point of the kernel catalog."""

    config: str
    block_size: int
    pipeline_latency: int
    pes: int
    frequency_mhz: float
    cycles: int
    slices: int
    energy_nj: float
    latency_us: float
    gflops: float

    @property
    def id(self) -> str:
        return f"{self.config}/b{self.block_size}"


#: Metric tables: name -> (sense, extractor).  The frontier is computed
#: over *every* metric in the table, and recommendation constraints may
#: only reference table metrics — together those two facts make the
#: frontier-restricted constrained argmax provably optimal (any
#: dominating point is feasible whenever the dominated one is).
UNIT_METRICS: Dict[str, Tuple[str, Callable[[UnitRecord], float]]] = {
    "stages": ("min", lambda r: float(r.stages)),
    "slices": ("min", lambda r: float(r.slices)),
    "clock_mhz": ("max", lambda r: r.clock_mhz),
    "latency_ns": ("min", lambda r: r.latency_ns),
    "throughput_mops": ("max", lambda r: r.throughput_mops),
    "mhz_per_slice": ("max", lambda r: r.mhz_per_slice),
    "power_mw": ("min", lambda r: r.power_mw),
    "energy_per_op_nj": ("min", lambda r: r.energy_per_op_nj),
    "mops_per_watt": ("max", lambda r: r.mops_per_watt),
}

KERNEL_METRICS: Dict[str, Tuple[str, Callable[[KernelRecord], float]]] = {
    "block_size": ("max", lambda r: float(r.block_size)),
    "slices": ("min", lambda r: float(r.slices)),
    "energy_nj": ("min", lambda r: r.energy_nj),
    "latency_us": ("min", lambda r: r.latency_us),
    "gflops": ("max", lambda r: r.gflops),
}


@dataclass(frozen=True)
class Frontier:
    """A materialized catalog with its Pareto frontier."""

    space: str  # "units" | "kernel"
    records: tuple
    frontier: Tuple[int, ...]  # indices into ``records``
    metrics: Tuple[str, ...]  # metric names, table order

    @property
    def frontier_records(self) -> tuple:
        return tuple(self.records[i] for i in self.frontier)


def metric_table(space: str):
    if space == "units":
        return UNIT_METRICS
    if space == "kernel":
        return KERNEL_METRICS
    raise ValueError(f"unknown space {space!r} (known: units, kernel)")


def objective_vectors(space: str, records: Sequence[object]) -> list:
    table = metric_table(space)
    return [[fn(r) for (_s, fn) in table.values()] for r in records]


def metric_senses(space: str) -> Tuple[str, ...]:
    return tuple(sense for (sense, _fn) in metric_table(space).values())


def compute_frontier(space: str, records: Sequence[object]) -> Frontier:
    """Pareto frontier of ``records`` over the space's full metric table."""
    idx = pareto_indices(objective_vectors(space, records), metric_senses(space))
    return Frontier(
        space=space,
        records=tuple(records),
        frontier=idx,
        metrics=tuple(metric_table(space)),
    )


# ---------------------------------------------------------------------- #
# unit domain
# ---------------------------------------------------------------------- #
def unit_record(kind: UnitKind, fmt: FPFormat, report: ImplementationReport) -> UnitRecord:
    """Annotate one implementation report with the catalog metrics.

    Power is the paper's unit-level accounting (clock + signal + logic
    at default activity) evaluated *at the implementation's own clock*;
    energy per op is then power/throughput, which at II = 1 collapses
    to mW/MHz = nJ.
    """
    power_mw = xpower.estimate_power(report, frequency_mhz=report.clock_mhz).total_mw
    return UnitRecord(
        kind=kind.value,
        format=fmt.name,
        stages=report.stages,
        slices=report.slices,
        luts=report.luts,
        flipflops=report.flipflops,
        mult18=report.mult18,
        clock_mhz=report.clock_mhz,
        latency_ns=report.latency_ns,
        throughput_mops=report.throughput_mops,
        mhz_per_slice=report.freq_per_area,
        power_mw=power_mw,
        energy_per_op_nj=power_mw / report.clock_mhz,
        mops_per_watt=report.throughput_mops / (power_mw / 1000.0),
    )


def resolve_grid(
    kinds: Optional[Sequence[UnitKind]] = None,
    formats: Optional[Sequence[FPFormat]] = None,
) -> Tuple[Tuple[UnitKind, ...], Tuple[FPFormat, ...]]:
    """The (kinds, formats) axes, defaulted to the full grid."""
    return (
        tuple(kinds) if kinds else tuple(UnitKind),
        tuple(formats) if formats else tuple(ALL_FORMATS),
    )


def _unit_frontier(
    kinds: Tuple[UnitKind, ...],
    formats: Tuple[FPFormat, ...],
    objective: Objective,
    grade: SpeedGrade,
) -> Frontier:
    """Engine job body: sweep the grid, annotate, take the frontier.

    Self-contained on purpose — it calls the raw sweep primitive rather
    than nesting engine jobs, so the whole catalog+frontier is a single
    content-addressed entry and a warm query is one memo hit.
    """
    records = []
    for kind in kinds:
        for fmt in formats:
            max_stages = kind.datapath(fmt).sweep_depth
            reports = _explorer._run_sweep(fmt, kind, objective, grade, max_stages)
            records.extend(unit_record(kind, fmt, r) for r in reports)
    return compute_frontier("units", records)


def unit_frontier_job(
    kinds: Optional[Sequence[UnitKind]] = None,
    formats: Optional[Sequence[FPFormat]] = None,
    objective: Objective = Objective.BALANCED,
    grade: SpeedGrade = SpeedGrade.MINUS_7,
) -> Job:
    """The content-addressed job for one unit-catalog frontier."""
    kinds, formats = resolve_grid(kinds, formats)
    return Job.create(
        "explore.frontier.units",
        _unit_frontier,
        kinds=kinds,
        formats=formats,
        objective=objective,
        grade=grade,
    )


# ---------------------------------------------------------------------- #
# kernel domain
# ---------------------------------------------------------------------- #
def kernel_record(design) -> KernelRecord:
    est = design.estimate
    return KernelRecord(
        config=design.config.label,
        block_size=design.block_size,
        pipeline_latency=est.pipeline_latency,
        pes=est.pes,
        frequency_mhz=est.frequency_mhz,
        cycles=est.cycles,
        slices=est.slices,
        energy_nj=est.energy_nj,
        latency_us=est.latency_us,
        gflops=est.gflops,
    )


def _kernel_frontier(
    n: int, block_sizes: Tuple[int, ...], fmt: FPFormat
) -> Frontier:
    """Engine job body: the Section-5 grid with its frontier.

    Uses the established in-library pattern of evaluating nested grids
    through the default engine (``kernel_configs`` already does), so
    the underlying sweep entries stay shared with Figures 5/6.
    """
    from repro.kernels.design_space import enumerate_designs

    designs = enumerate_designs(n, block_sizes, fmt)
    return compute_frontier("kernel", [kernel_record(d) for d in designs])


def kernel_frontier_job(
    n: int = KERNEL_N,
    block_sizes: Sequence[int] = KERNEL_BLOCK_SIZES,
    fmt: Optional[FPFormat] = None,
) -> Job:
    """The content-addressed job for one kernel-grid frontier."""
    from repro.fp.format import FP32

    block_sizes = tuple(block_sizes)
    for b in block_sizes:
        if n % b:
            raise ValueError(f"block size {b} does not divide n={n}")
    return Job.create(
        "explore.frontier.kernel",
        _kernel_frontier,
        n=n,
        block_sizes=block_sizes,
        fmt=fmt if fmt is not None else FP32,
    )


# ---------------------------------------------------------------------- #
# wire payloads (shared verbatim by service, CLI and direct calls)
# ---------------------------------------------------------------------- #
def record_payload(record) -> dict:
    """The JSON object for one catalog record, rounded deterministically."""
    if isinstance(record, UnitRecord):
        return {
            "id": record.id,
            "kind": record.kind,
            "format": record.format,
            "stages": record.stages,
            "slices": record.slices,
            "luts": record.luts,
            "flipflops": record.flipflops,
            "mult18": record.mult18,
            "clock_mhz": round(record.clock_mhz, 2),
            "latency_ns": round(record.latency_ns, 2),
            "throughput_mops": round(record.throughput_mops, 2),
            "mhz_per_slice": round(record.mhz_per_slice, 4),
            "power_mw": round(record.power_mw, 2),
            "energy_per_op_nj": round(record.energy_per_op_nj, 4),
            "mops_per_watt": round(record.mops_per_watt, 1),
        }
    return {
        "id": record.id,
        "config": record.config,
        "block_size": record.block_size,
        "pipeline_latency": record.pipeline_latency,
        "pes": record.pes,
        "frequency_mhz": round(record.frequency_mhz, 2),
        "cycles": record.cycles,
        "slices": record.slices,
        "energy_nj": round(record.energy_nj, 2),
        "latency_us": round(record.latency_us, 4),
        "gflops": round(record.gflops, 4),
    }


def frontier_payload(frontier: Frontier) -> dict:
    """The NDJSON trailer / summary object for a computed frontier."""
    return {
        "type": "frontier",
        "space": frontier.space,
        "objectives": list(frontier.metrics),
        "designs": len(frontier.records),
        "frontier": [frontier.records[i].id for i in frontier.frontier],
    }


def payload_bytes(payload: dict) -> bytes:
    """The canonical wire encoding (identical across all surfaces)."""
    return json.dumps(payload, separators=(",", ":")).encode()


class ExploreStream:
    """The NDJSON lines of one unit-grid exploration, shared verbatim by
    ``repro explore`` and ``GET /v1/explore``: one point line per
    implementation as each (kind, format) sweep lands, then one
    frontier trailer over every point seen."""

    def __init__(self) -> None:
        self.records: list = []

    def points(self, kind: UnitKind, fmt: FPFormat, space, source: str) -> list:
        """Point lines for one sweep; ``source`` is how it resolved."""
        lines = []
        for report in space.reports:
            record = unit_record(kind, fmt, report)
            self.records.append(record)
            lines.append(payload_bytes(
                {"type": "point", "source": source, **record_payload(record)}
            ) + b"\n")
        return lines

    def trailer(self) -> Tuple[Frontier, bytes]:
        """The frontier over every point so far, and its trailer line."""
        front = compute_frontier("units", self.records)
        return front, payload_bytes(frontier_payload(front)) + b"\n"
