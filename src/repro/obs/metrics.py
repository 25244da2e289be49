"""Metric instruments: counters, gauges and bucketed histograms.

The one instrument implementation shared by the engine (job outcomes)
and the service (request, batch and stage telemetry).  Everything here
is mutated without locks — "lock-free-ish": each mutation is a single
integer add on a dict slot or attribute, atomic under the GIL, and
readers tolerate being an update behind.  That keeps the hot path at
~1µs per observation, which matters because every request observes
latency and every batch observes its size.

Each instrument renders itself in the Prometheus text exposition
format (counters, gauges, cumulative histogram buckets).  Quantiles
(p50/p99) are interpolated from the histogram buckets the same way a
Prometheus ``histogram_quantile`` would, so the numbers agree between
``/metrics`` and any JSON view built on :meth:`Histogram.quantile`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Labels = Tuple[str, ...]


def _pairs(label_names: Labels, labels: Labels) -> str:
    return ",".join(f'{k}="{v}"' for k, v in zip(label_names, labels))


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

    def render(self, out: List[str]) -> None:
        out.append(f"# HELP {self.name} {self.help}")
        out.append(f"# TYPE {self.name} counter")
        if not self.label_names:
            out.append(f"{self.name} {self.total}")
            return
        if not self._series:
            out.append(f"{self.name} 0")
        for labels, value in self.series():
            out.append(f"{self.name}{{{_pairs(self.label_names, labels)}}} {value}")


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

    def render(self, out: List[str]) -> None:
        out.append(f"# HELP {self.name} {self.help}")
        out.append(f"# TYPE {self.name} gauge")
        out.append(f"{self.name} {self.value}")
        # The high-water mark is its own metric family and needs its
        # own HELP/TYPE lines (exposition-format conformance).
        out.append(f"# HELP {self.name}_max High-water mark of {self.name}.")
        out.append(f"# TYPE {self.name}_max gauge")
        out.append(f"{self.name}_max {self.max_seen}")


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

    With ``label_names`` the histogram is a family of children, one per
    label set (e.g. one per pipeline stage): observe through
    :meth:`child`, and the exposition labels every child's samples.

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
        label_names: Sequence[str] = (),
        exemplar_window_s: float = 60.0,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram {name} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # + the +Inf bucket
        self.total = 0.0
        self.count = 0
        self.exemplar_window_s = exemplar_window_s
        self._exemplar: Optional[Tuple[float, str]] = None  # (value, trace_id)
        self._exemplar_t0 = time.monotonic()
        self._series: Dict[Labels, Histogram] = {}

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

    def child(self, labels: Labels) -> "Histogram":
        """The sub-histogram for ``labels`` (created on first use).

        Hot callers should resolve their child once and call
        ``observe`` on it directly — that skips the dict lookup.
        """
        sub = self._series.get(labels)
        if sub is None:
            sub = Histogram(self.name, self.help, self.bounds)
            self._series[labels] = sub
        return sub

    def series(self) -> Iterable[Tuple[Labels, "Histogram"]]:
        """``(labels, histogram)`` per child; just ``((), self)`` when
        the histogram has no labels."""
        if not self.label_names:
            return [((), self)]
        return sorted(self._series.items())

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

    def render(self, out: List[str]) -> None:
        name = self.name
        out.append(f"# HELP {name} {self.help}")
        out.append(f"# TYPE {name} histogram")
        for labels, h in self.series():
            pairs = _pairs(self.label_names, labels)
            le = f"{pairs}," if pairs else ""
            tail = f"{{{pairs}}}" if pairs else ""
            cumulative = 0
            for i, upper in enumerate(h.bounds):
                cumulative += h.counts[i]
                out.append(f'{name}_bucket{{{le}le="{upper:g}"}} {cumulative}')
            cumulative += h.counts[-1]
            out.append(f'{name}_bucket{{{le}le="+Inf"}} {cumulative}')
            out.append(f"{name}_sum{tail} {h.total:g}")
            out.append(f"{name}_count{tail} {h.count}")
        exemplar = self.exemplar
        if exemplar is not None:
            # Exemplar-style attribution: the window's largest
            # observation, labelled with the trace that caused it.
            value, trace_id = exemplar
            out.append(
                f"# HELP {name}_slowest Largest observation in the "
                "current exemplar window, by trace ID."
            )
            out.append(f"# TYPE {name}_slowest gauge")
            out.append(f'{name}_slowest{{trace_id="{trace_id}"}} {value:g}')
