"""Live service metrics: the instruments behind ``/metrics``.

:class:`Telemetry` is the service's registry of
:mod:`repro.obs.metrics` instruments — request, batch, stage and
admission telemetry, mutated from the event loop and the batch-executor
thread without locks — plus the characterisation engine's own job
counter, served as-is rather than mirrored.

Rendering follows the Prometheus text exposition format at ``/metrics``
(every instrument, in declaration order) and a JSON snapshot at
``/healthz``; quantiles (p50/p99) come from the same histogram buckets,
so the numbers agree between the two views.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.engine.metrics import EngineMetrics
from repro.obs.metrics import Counter, Gauge, Histogram

#: Request latency buckets (seconds) — sub-millisecond to 10 s.
LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: Batch-size buckets (requests per vectorized call).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
#: Pipeline-stage buckets (seconds) — stages live in the tens of
#: microseconds to low milliseconds, below the request buckets' floor.
STAGE_BUCKETS_S = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.5, 1.0,
)


class Telemetry:
    """The service's metric registry.

    One instance per server; handlers and the batcher mutate it
    directly.  ``render()`` produces the ``/metrics`` exposition,
    ``snapshot()`` the ``/healthz`` JSON body.
    """

    def __init__(
        self, version: str = "", engine: Optional[EngineMetrics] = None
    ) -> None:
        self.version = version
        self.started_unix = time.time()
        self.started_monotonic = time.monotonic()
        self.requests_total = Counter(
            "repro_requests_total",
            "Requests by route and status code.",
            ("route", "status"),
        )
        self.request_latency_s = Histogram(
            "repro_request_latency_seconds",
            "Server-side request latency (admit to response ready).",
            LATENCY_BUCKETS_S,
        )
        self.batch_size = Histogram(
            "repro_batch_size",
            "FP op requests coalesced per vectorized call.",
            BATCH_BUCKETS,
        )
        self.stage_latency_s = Histogram(
            "repro_stage_latency_seconds",
            "Per-request pipeline stage latency, by span name.",
            STAGE_BUCKETS_S,
            label_names=("stage",),
        )
        self.batches_total = Counter(
            "repro_batches_total",
            "Executed vectorized batches by lane.",
            ("op", "format", "mode"),
        )
        self.queue_depth = Gauge(
            "repro_queue_depth", "Admitted requests currently in flight."
        )
        self.shed_total = Counter(
            "repro_shed_total", "Requests rejected with 429 (queue full)."
        )
        self.timeout_total = Counter(
            "repro_timeout_total", "Requests that hit the per-request deadline."
        )
        self.spot_checks_total = Counter(
            "repro_spot_checks_total",
            "Sampled scalar cross-checks executed against batches.",
        )
        #: The engine's metrics; ``/metrics`` serves its job counter.
        self.engine = EngineMetrics() if engine is None else engine
        self.explore_points_total = Counter(
            "repro_explore_points_total",
            "Design points streamed by /v1/explore.",
        )

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    def snapshot(self) -> dict:
        """The ``/healthz`` payload (minus the status field)."""
        p99, p99_saturated = self.request_latency_s.quantile_estimate(0.99)
        return {
            "version": self.version,
            "uptime_s": round(self.uptime_s, 3),
            "requests": self.requests_total.total,
            "in_flight": self.queue_depth.value,
            "queue_depth_max": self.queue_depth.max_seen,
            "batches": self.batches_total.total,
            "mean_batch_size": round(self.batch_size.mean, 3),
            "shed": self.shed_total.total,
            "timeouts": self.timeout_total.total,
            "latency_p50_ms": round(self.request_latency_s.quantile(0.5) * 1e3, 3),
            "latency_p99_ms": round(p99 * 1e3, 3),
            "latency_p99_saturated": p99_saturated,
            "engine_hit_rate": round(self.engine.hit_rate, 4),
        }

    def stage_summary(self) -> dict:
        """Mean/p99 per pipeline stage (the bench's stage breakdown)."""
        stages: dict = {}
        for labels, sub in self.stage_latency_s.series():
            if sub.count == 0:
                # Children are pre-resolved at server startup; a stage
                # with no observations (tracing off) is absent, not 0.
                continue
            p99, saturated = sub.quantile_estimate(0.99)
            stages[labels[0]] = {
                "count": sub.count,
                "mean_ms": round(sub.mean * 1e3, 6),
                "p99_ms": round(p99 * 1e3, 6),
                "p99_saturated": saturated,
            }
        return stages

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Prometheus text exposition of every instrument, in
        declaration order."""
        out: list[str] = []
        for value in vars(self).values():
            if isinstance(value, EngineMetrics):
                value = value.jobs_total
            if isinstance(value, (Counter, Gauge, Histogram)):
                value.render(out)
        out.append("# HELP repro_uptime_seconds Seconds since server start.")
        out.append("# TYPE repro_uptime_seconds gauge")
        out.append(f"repro_uptime_seconds {self.uptime_s:.3f}")
        out.append(
            "# HELP repro_engine_hit_rate Cache/memo fraction of engine jobs."
        )
        out.append("# TYPE repro_engine_hit_rate gauge")
        out.append(f"repro_engine_hit_rate {self.engine.hit_rate:.4f}")
        return "\n".join(out) + "\n"
