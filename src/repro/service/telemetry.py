"""Live service metrics: counters, gauges and bucketed histograms.

Everything here is mutated from the event loop and the batch-executor
thread without locks — "lock-free-ish": each mutation is a single
integer add on a dict slot, atomic under the GIL, and readers tolerate
being a request behind.  That keeps the hot path at ~1µs per
observation, which matters because every request observes latency and
every batch observes its size.

Rendering follows the Prometheus text exposition format at ``/metrics``
(counters, gauges, cumulative histogram buckets) and a JSON snapshot at
``/healthz``; quantiles (p50/p99) are interpolated from the histogram
buckets the same way a Prometheus ``histogram_quantile`` would, so the
numbers agree between the two views.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple

Labels = Tuple[str, ...]

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


class Counter:
    """Monotonic counter with optional labels."""

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: Dict[Labels, int] = {}

    def inc(self, labels: Labels = (), n: int = 1) -> None:
        self._series[labels] = self._series.get(labels, 0) + n

    def value(self, labels: Labels = ()) -> int:
        return self._series.get(labels, 0)

    @property
    def total(self) -> int:
        return sum(self._series.values())

    def series(self) -> Iterable[Tuple[Labels, int]]:
        return sorted(self._series.items())


class Gauge:
    """Point-in-time value, tracking its high-water mark."""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.max_seen = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_seen:
            self.max_seen = value


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    ``buckets`` are inclusive upper bounds; an implicit +Inf bucket
    catches the tail.  ``quantile_estimate`` linearly interpolates
    inside the winning (non-empty) bucket, which is exactly the
    estimate Prometheus makes — good to a bucket width, plenty for
    p50/p99 health reporting.  When the requested rank falls in the
    +Inf overflow bucket the estimate *saturates*: the true quantile is
    somewhere above the largest finite bound, so the estimate returns
    that bound with ``saturated=True`` instead of clamping silently.

    ``observe`` optionally carries a ``trace_id``: the histogram keeps
    an exemplar-style record of its largest observation per
    ``exemplar_window_s`` window, so ``/metrics`` can point a human at
    the exact trace behind the current worst latency.
    """

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float],
        exemplar_window_s: float = 60.0,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram {name} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # + the +Inf bucket
        self.total = 0.0
        self.count = 0
        self.exemplar_window_s = exemplar_window_s
        self._exemplar: Optional[Tuple[float, str]] = None  # (value, trace_id)
        self._exemplar_t0 = time.monotonic()

    def observe(self, value: float, trace_id: Optional[str] = None) -> None:
        # bisect_left finds the first bound >= value — the inclusive
        # upper bucket — in C, which beats a Python scan even for the
        # short bucket lists used here.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if trace_id is not None:
            now = time.monotonic()
            if now - self._exemplar_t0 > self.exemplar_window_s:
                self._exemplar = None
                self._exemplar_t0 = now
            if self._exemplar is None or value > self._exemplar[0]:
                self._exemplar = (value, trace_id)

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` identical observations in one update.

        Batch-wide spans (``batch.dispatch``, ``scatter``) apply to
        every member of a flush; folding them in with a single weighted
        update keeps the per-request tracing cost flat in batch size.
        """
        self.counts[bisect_left(self.bounds, value)] += n
        self.count += n
        self.total += value * n

    @property
    def exemplar(self) -> Optional[Tuple[float, str]]:
        """``(value, trace_id)`` of the window's max, if any."""
        if (
            self._exemplar is not None
            and time.monotonic() - self._exemplar_t0 > self.exemplar_window_s
        ):
            return None
        return self._exemplar

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile_estimate(self, q: float) -> Tuple[float, bool]:
        """``(estimate, saturated)`` for the ``q``-quantile.

        ``saturated`` is True when the rank lands in the +Inf overflow
        bucket: the returned value is the largest finite bound — a
        *floor* on the true quantile, not an estimate of it.  Empty
        leading buckets are skipped so a rank at the very bottom of the
        distribution (q → 0) interpolates inside the first bucket that
        actually holds observations rather than reporting the empty
        bucket's edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0, False
        rank = q * self.count
        cumulative = 0
        for i, upper in enumerate(self.bounds):
            prev_cumulative = cumulative
            cumulative += self.counts[i]
            if cumulative >= rank and self.counts[i] > 0:
                lower = self.bounds[i - 1] if i else 0.0
                frac = (rank - prev_cumulative) / self.counts[i]
                return lower + (upper - lower) * min(max(frac, 0.0), 1.0), False
        return self.bounds[-1], True  # rank in the +Inf overflow bucket

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); 0.0 when empty."""
        return self.quantile_estimate(q)[0]


class LabeledHistogram:
    """A histogram per label set (e.g. one per pipeline stage)."""

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float],
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._series: Dict[Labels, Histogram] = {}

    def child(self, labels: Labels) -> Histogram:
        """The sub-histogram for ``labels`` (created on first use).

        Hot callers should resolve their child once and call
        ``observe`` on it directly — that skips the dict lookup.
        """
        sub = self._series.get(labels)
        if sub is None:
            sub = Histogram(self.name, self.help, self.buckets)
            self._series[labels] = sub
        return sub

    def observe(self, labels: Labels, value: float) -> None:
        self.child(labels).observe(value)

    def series(self) -> Iterable[Tuple[Labels, Histogram]]:
        return sorted(self._series.items())


class Telemetry:
    """The service's metric registry.

    One instance per server; handlers and the batcher mutate it
    directly.  ``render()`` produces the ``/metrics`` exposition,
    ``snapshot()`` the ``/healthz`` JSON body.
    """

    def __init__(self, version: str = "") -> None:
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
        self.stage_latency_s = LabeledHistogram(
            "repro_stage_latency_seconds",
            "Per-request pipeline stage latency, by span name.",
            ("stage",),
            STAGE_BUCKETS_S,
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
        self.engine_jobs = Counter(
            "repro_engine_jobs_total",
            "Characterisation engine jobs by resolution.",
            ("status",),
        )
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

    def engine_hit_rate(self) -> float:
        """Cache/memo fraction of engine jobs (EngineMetrics-style)."""
        total = self.engine_jobs.total
        if not total:
            return 0.0
        served = self.engine_jobs.value(("hit",)) + self.engine_jobs.value(("memo",))
        return served / total

    def record_engine(self, status: str) -> None:
        self.engine_jobs.inc((status,))

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
            "engine_hit_rate": round(self.engine_hit_rate(), 4),
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
        """Prometheus text exposition of every instrument."""
        out: list[str] = []

        def counter(c: Counter) -> None:
            out.append(f"# HELP {c.name} {c.help}")
            out.append(f"# TYPE {c.name} counter")
            if not c.label_names:
                out.append(f"{c.name} {c.total}")
                return
            if not c._series:
                out.append(f"{c.name} 0")
            for labels, value in c.series():
                pairs = ",".join(
                    f'{k}="{v}"' for k, v in zip(c.label_names, labels)
                )
                out.append(f"{c.name}{{{pairs}}} {value}")

        def gauge(g: Gauge) -> None:
            out.append(f"# HELP {g.name} {g.help}")
            out.append(f"# TYPE {g.name} gauge")
            out.append(f"{g.name} {g.value}")
            # The high-water mark is its own metric family and needs its
            # own HELP/TYPE lines (exposition-format conformance).
            out.append(f"# HELP {g.name}_max High-water mark of {g.name}.")
            out.append(f"# TYPE {g.name}_max gauge")
            out.append(f"{g.name}_max {g.max_seen}")

        def histogram(h: Histogram) -> None:
            out.append(f"# HELP {h.name} {h.help}")
            out.append(f"# TYPE {h.name} histogram")
            cumulative = 0
            for i, upper in enumerate(h.bounds):
                cumulative += h.counts[i]
                bound = f"{upper:g}"
                out.append(f'{h.name}_bucket{{le="{bound}"}} {cumulative}')
            cumulative += h.counts[-1]
            out.append(f'{h.name}_bucket{{le="+Inf"}} {cumulative}')
            out.append(f"{h.name}_sum {h.total:g}")
            out.append(f"{h.name}_count {h.count}")
            exemplar = h.exemplar
            if exemplar is not None:
                # Exemplar-style attribution: the window's largest
                # observation, labelled with the trace that caused it.
                value, trace_id = exemplar
                out.append(
                    f"# HELP {h.name}_slowest Largest observation in the "
                    "current exemplar window, by trace ID."
                )
                out.append(f"# TYPE {h.name}_slowest gauge")
                out.append(
                    f'{h.name}_slowest{{trace_id="{trace_id}"}} {value:g}'
                )

        def labeled_histogram(h: LabeledHistogram) -> None:
            out.append(f"# HELP {h.name} {h.help}")
            out.append(f"# TYPE {h.name} histogram")
            for labels, sub in h.series():
                pairs = ",".join(
                    f'{k}="{v}"' for k, v in zip(h.label_names, labels)
                )
                cumulative = 0
                for i, upper in enumerate(sub.bounds):
                    cumulative += sub.counts[i]
                    out.append(
                        f'{h.name}_bucket{{{pairs},le="{upper:g}"}} {cumulative}'
                    )
                cumulative += sub.counts[-1]
                out.append(f'{h.name}_bucket{{{pairs},le="+Inf"}} {cumulative}')
                out.append(f"{h.name}_sum{{{pairs}}} {sub.total:g}")
                out.append(f"{h.name}_count{{{pairs}}} {sub.count}")

        counter(self.requests_total)
        histogram(self.request_latency_s)
        histogram(self.batch_size)
        labeled_histogram(self.stage_latency_s)
        counter(self.batches_total)
        gauge(self.queue_depth)
        counter(self.shed_total)
        counter(self.timeout_total)
        counter(self.spot_checks_total)
        counter(self.engine_jobs)
        counter(self.explore_points_total)
        out.append("# HELP repro_uptime_seconds Seconds since server start.")
        out.append("# TYPE repro_uptime_seconds gauge")
        out.append(f"repro_uptime_seconds {self.uptime_s:.3f}")
        out.append(
            "# HELP repro_engine_hit_rate Cache/memo fraction of engine jobs."
        )
        out.append("# TYPE repro_engine_hit_rate gauge")
        out.append(f"repro_engine_hit_rate {self.engine_hit_rate():.4f}")
        return "\n".join(out) + "\n"


def _finite(x: float) -> bool:  # pragma: no cover - helper for callers
    return math.isfinite(x)
