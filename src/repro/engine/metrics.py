"""Observability: per-job records and the post-run summary report.

Every job the engine touches leaves a :class:`JobRecord` — how it was
satisfied (disk hit, in-process memo, computed), on which backend, how
long it took, how many retries it needed.  :class:`EngineMetrics`
counts each outcome once, in the ``repro_engine_jobs_total{status}``
:class:`~repro.obs.metrics.Counter` that the service's ``/metrics``
serves as-is, and renders the summary printed to stderr after
``repro all``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.obs.metrics import Counter

#: How a job was satisfied.
STATUS_HIT = "hit"  # persistent cache
STATUS_MEMO = "memo"  # in-process memo
STATUS_COMPUTED = "computed"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class JobRecord:
    """One engine decision about one job."""

    name: str
    key: str
    status: str  # STATUS_*
    wall_s: float = 0.0
    retries: int = 0
    backend: str = "-"
    #: Trace the job was evaluated under ("" when untraced), so a slow
    #: sweep's engine records can be joined back to its request trace.
    trace_id: str = ""


@dataclass
class EngineMetrics:
    """Counters and per-job timings for one engine lifetime."""

    records: List[JobRecord] = field(default_factory=list)
    started_unix: float = field(default_factory=time.time)
    jobs_total: Counter = field(
        default_factory=lambda: Counter(
            "repro_engine_jobs_total",
            "Characterisation engine jobs by resolution.",
            ("status",),
        )
    )

    def record(self, record: JobRecord) -> None:
        self.records.append(record)
        self.jobs_total.inc((record.status,))

    # ----------------------------------------------------------------- #
    # counters
    # ----------------------------------------------------------------- #
    @property
    def jobs(self) -> int:
        return self.jobs_total.total

    @property
    def cache_hits(self) -> int:
        return self.jobs_total.value((STATUS_HIT,))

    @property
    def memo_hits(self) -> int:
        return self.jobs_total.value((STATUS_MEMO,))

    @property
    def computed(self) -> int:
        return self.jobs_total.value((STATUS_COMPUTED,))

    @property
    def failed(self) -> int:
        return self.jobs_total.value((STATUS_FAILED,))

    @property
    def last_status(self) -> str:
        """How the most recent job was satisfied (memo before any job)."""
        return self.records[-1].status if self.records else STATUS_MEMO

    @property
    def misses(self) -> int:
        return self.computed + self.failed

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from cache or memo (0 when idle)."""
        jobs = self.jobs
        return (self.cache_hits + self.memo_hits) / jobs if jobs else 0.0

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    def slowest(self, n: int = 3) -> Tuple[JobRecord, ...]:
        return tuple(
            sorted(self.records, key=lambda r: r.wall_s, reverse=True)[:n]
        )

    # ----------------------------------------------------------------- #
    # report
    # ----------------------------------------------------------------- #
    def summary(self) -> str:
        """Multi-line human-readable run report."""
        head = (
            f"engine: {self.jobs} job(s), {self.total_wall_s:.2f}s compute"
            f" | cache: {self.cache_hits} hit(s), {self.memo_hits} memo,"
            f" {self.misses} miss(es) ({self.hit_rate:.0%} hit rate)"
        )
        if self.retries:
            head += f" | retries: {self.retries}"
        if self.failed:
            head += f" | FAILED: {self.failed}"
        lines = [head]
        for r in self.slowest():
            if r.status == STATUS_COMPUTED and r.wall_s > 0:
                lines.append(
                    f"  {r.name}: {r.wall_s:.3f}s ({r.backend})"
                )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()
