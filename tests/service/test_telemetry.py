"""Telemetry instruments: counters, gauges, histograms, exposition."""

import re

import pytest

from repro.engine.metrics import STATUS_HIT, EngineMetrics, JobRecord
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.service.telemetry import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS_S,
    STAGE_BUCKETS_S,
    Telemetry,
)


class TestCounter:
    def test_unlabeled(self):
        c = Counter("c", "help")
        c.inc()
        c.inc(n=4)
        assert c.value() == 5
        assert c.total == 5

    def test_labeled_series(self):
        c = Counter("c", "help", ("route", "status"))
        c.inc(("/a", "200"))
        c.inc(("/a", "200"))
        c.inc(("/b", "429"))
        assert c.value(("/a", "200")) == 2
        assert c.value(("/b", "429")) == 1
        assert c.value(("/c", "200")) == 0
        assert c.total == 3
        assert list(c.series()) == [
            (("/a", "200"), 2),
            (("/b", "429"), 1),
        ]


class TestGauge:
    def test_tracks_high_water_mark(self):
        g = Gauge("g", "help")
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.value == 2
        assert g.max_seen == 7


class TestHistogram:
    def test_bucketing_and_mean(self):
        h = Histogram("h", "help", (1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # last is the +Inf bucket
        assert h.count == 4
        assert h.mean == pytest.approx(105.0 / 4)

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("h", "help", (10.0, 20.0))
        for _ in range(10):
            h.observe(15.0)  # all mass in the (10, 20] bucket
        # Median rank falls halfway through the bucket: 10 + 0.5 * 10.
        assert h.quantile(0.5) == pytest.approx(15.0)

    def test_quantile_tail_clamps_to_last_bound(self):
        h = Histogram("h", "help", (1.0,))
        h.observe(50.0)
        assert h.quantile(0.99) == 1.0

    def test_quantile_empty_and_range(self):
        h = Histogram("h", "help", (1.0,))
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", (2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", "help", (1.0, 1.0))

    def test_batch_buckets_cover_default_max_batch(self):
        assert 64.0 in BATCH_BUCKETS


class TestQuantileSaturation:
    """Regression: estimates at the bucket-range edges must not lie.

    The old interpolation clamped overflow ranks to the last finite
    bound with no indication, and a rank at the bottom could land on an
    empty leading bucket's edge.  Both edges now carry an explicit
    saturation flag / skip empty buckets.
    """

    def test_overflow_rank_saturates(self):
        h = Histogram("h", "help", (1.0, 2.0))
        h.observe(50.0)  # all mass in +Inf
        estimate, saturated = h.quantile_estimate(0.99)
        assert estimate == 2.0  # the largest finite bound, as a floor
        assert saturated is True

    def test_mixed_mass_saturates_only_in_overflow(self):
        h = Histogram("h", "help", (1.0, 2.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(50.0)
        p50, sat50 = h.quantile_estimate(0.5)
        assert sat50 is False and 0.0 < p50 <= 1.0
        p999, sat999 = h.quantile_estimate(0.999)
        assert sat999 is True and p999 == 2.0

    def test_underflow_rank_skips_empty_leading_buckets(self):
        h = Histogram("h", "help", (1.0, 2.0, 4.0))
        h.observe(3.0)  # only the (2, 4] bucket holds mass
        estimate, saturated = h.quantile_estimate(0.0)
        assert saturated is False
        # Interpolates inside the occupied bucket, not the empty edge.
        assert 2.0 <= estimate <= 4.0

    def test_quantile_is_estimate_value(self):
        h = Histogram("h", "help", (1.0,))
        h.observe(0.5)
        assert h.quantile(0.5) == h.quantile_estimate(0.5)[0]

    def test_snapshot_carries_saturation_flag(self):
        t = Telemetry()
        t.request_latency_s.observe(99.0)  # beyond the last bucket (10 s)
        snap = t.snapshot()
        assert snap["latency_p99_saturated"] is True
        assert snap["latency_p99_ms"] == pytest.approx(10_000.0)


class TestExemplar:
    def test_keeps_window_max_with_trace_id(self):
        h = Histogram("h", "help", (1.0,))
        h.observe(0.2, trace_id="t-slow")
        h.observe(0.1, trace_id="t-fast")
        assert h.exemplar == (0.2, "t-slow")

    def test_untraced_observations_leave_no_exemplar(self):
        h = Histogram("h", "help", (1.0,))
        h.observe(0.2)
        assert h.exemplar is None

    def test_window_expiry_resets_max(self):
        h = Histogram("h", "help", (1.0,), exemplar_window_s=0.0)
        h.observe(0.9, trace_id="t-old")
        # Window length zero: the next traced observation starts a new
        # window, so a smaller value may take over.
        h.observe(0.1, trace_id="t-new")
        assert h.exemplar is None or h.exemplar[1] == "t-new"

    def test_render_emits_slowest_gauge(self):
        t = Telemetry()
        t.request_latency_s.observe(0.25, trace_id="abc-1")
        text = t.render()
        assert "# TYPE repro_request_latency_seconds_slowest gauge" in text
        assert ('repro_request_latency_seconds_slowest{trace_id="abc-1"} 0.25'
                in text)

    def test_render_omits_slowest_family_without_exemplar(self):
        t = Telemetry()
        t.request_latency_s.observe(0.25)
        assert "_slowest" not in t.render()


class TestLabeledHistogram:
    def test_child_identity_and_observe(self):
        h = Histogram("h", "help", (1.0, 2.0), label_names=("stage",))
        child = h.child(("admit",))
        assert h.child(("admit",)) is child
        h.child(("admit",)).observe(0.5)
        child.observe(1.5)
        assert child.count == 2

    def test_render_labels_every_sample(self):
        t = Telemetry()
        t.stage_latency_s.child(("scatter",)).observe(0.0002)
        text = t.render()
        assert "# TYPE repro_stage_latency_seconds histogram" in text
        assert ('repro_stage_latency_seconds_bucket{stage="scatter",le="+Inf"} 1'
                in text)
        assert 'repro_stage_latency_seconds_count{stage="scatter"} 1' in text

    def test_stage_summary_shape(self):
        t = Telemetry()
        for _ in range(4):
            t.stage_latency_s.child(("batch.linger",)).observe(0.001)
        t.stage_latency_s.child(("scatter",))  # pre-resolved, unobserved
        summary = t.stage_summary()
        assert set(summary) == {"batch.linger"}
        row = summary["batch.linger"]
        assert row["count"] == 4
        assert row["mean_ms"] == pytest.approx(1.0, rel=1e-6)
        assert row["p99_saturated"] is False

    def test_stage_buckets_cover_microsecond_stages(self):
        assert STAGE_BUCKETS_S[0] <= 0.0001  # linger waits live here


class TestTelemetry:
    def test_snapshot_shape(self):
        t = Telemetry(version="9.9.9")
        t.requests_total.inc(("/v1/op/mul", "200"))
        t.request_latency_s.observe(0.002)
        t.batch_size.observe(4)
        t.batches_total.inc(("mul", "fp32", "rne"))
        snap = t.snapshot()
        assert snap["version"] == "9.9.9"
        assert snap["requests"] == 1
        assert snap["batches"] == 1
        assert snap["mean_batch_size"] == 4.0
        assert snap["latency_p50_ms"] > 0
        assert snap["uptime_s"] >= 0

    def test_engine_hit_rate(self):
        engine = EngineMetrics()
        t = Telemetry(engine=engine)
        assert t.snapshot()["engine_hit_rate"] == 0.0
        for status in ("computed", "hit", "memo", "failed"):
            engine.record(JobRecord("job", "key", status))
        assert t.snapshot()["engine_hit_rate"] == pytest.approx(0.5)

    def test_prometheus_exposition(self):
        """One observation per instrument pins the whole exposition."""
        t = Telemetry(version="1.0.0")
        t.requests_total.inc(("/healthz", "200"))
        t.request_latency_s.observe(0.003, trace_id="t-1")
        t.batch_size.observe(4)
        t.stage_latency_s.child(("scatter",)).observe(0.0002)
        t.batches_total.inc(("mul", "fp32", "rne"))
        t.queue_depth.set(3)
        t.shed_total.inc()
        t.timeout_total.inc()
        t.spot_checks_total.inc()
        t.engine.record(JobRecord("job", "key", STATUS_HIT))
        t.explore_points_total.inc(n=2)
        text = re.sub(r"(?m)^(repro_uptime_seconds) \S+$", r"\1 *", t.render())

        def buckets(name, bounds, observed, labels=""):
            counts = [(f"{b:g}", int(b >= observed)) for b in bounds] + [("+Inf", 1)]
            return "\n".join(f'{name}_bucket{{{labels}le="{le}"}} {n}' for le, n in counts)

        assert text == f"""\
# HELP repro_requests_total Requests by route and status code.
# TYPE repro_requests_total counter
repro_requests_total{{route="/healthz",status="200"}} 1
# HELP repro_request_latency_seconds Server-side request latency (admit to response ready).
# TYPE repro_request_latency_seconds histogram
{buckets("repro_request_latency_seconds", LATENCY_BUCKETS_S, 0.003)}
repro_request_latency_seconds_sum 0.003
repro_request_latency_seconds_count 1
# HELP repro_request_latency_seconds_slowest Largest observation in the current exemplar window, by trace ID.
# TYPE repro_request_latency_seconds_slowest gauge
repro_request_latency_seconds_slowest{{trace_id="t-1"}} 0.003
# HELP repro_batch_size FP op requests coalesced per vectorized call.
# TYPE repro_batch_size histogram
{buckets("repro_batch_size", BATCH_BUCKETS, 4)}
repro_batch_size_sum 4
repro_batch_size_count 1
# HELP repro_stage_latency_seconds Per-request pipeline stage latency, by span name.
# TYPE repro_stage_latency_seconds histogram
{buckets("repro_stage_latency_seconds", STAGE_BUCKETS_S, 0.0002, 'stage="scatter",')}
repro_stage_latency_seconds_sum{{stage="scatter"}} 0.0002
repro_stage_latency_seconds_count{{stage="scatter"}} 1
# HELP repro_batches_total Executed vectorized batches by lane.
# TYPE repro_batches_total counter
repro_batches_total{{op="mul",format="fp32",mode="rne"}} 1
# HELP repro_queue_depth Admitted requests currently in flight.
# TYPE repro_queue_depth gauge
repro_queue_depth 3
# HELP repro_queue_depth_max High-water mark of repro_queue_depth.
# TYPE repro_queue_depth_max gauge
repro_queue_depth_max 3
# HELP repro_shed_total Requests rejected with 429 (queue full).
# TYPE repro_shed_total counter
repro_shed_total 1
# HELP repro_timeout_total Requests that hit the per-request deadline.
# TYPE repro_timeout_total counter
repro_timeout_total 1
# HELP repro_spot_checks_total Sampled scalar cross-checks executed against batches.
# TYPE repro_spot_checks_total counter
repro_spot_checks_total 1
# HELP repro_engine_jobs_total Characterisation engine jobs by resolution.
# TYPE repro_engine_jobs_total counter
repro_engine_jobs_total{{status="hit"}} 1
# HELP repro_explore_points_total Design points streamed by /v1/explore.
# TYPE repro_explore_points_total counter
repro_explore_points_total 2
# HELP repro_uptime_seconds Seconds since server start.
# TYPE repro_uptime_seconds gauge
repro_uptime_seconds *
# HELP repro_engine_hit_rate Cache/memo fraction of engine jobs.
# TYPE repro_engine_hit_rate gauge
repro_engine_hit_rate 1.0000
"""

    def test_histogram_buckets_are_cumulative(self):
        t = Telemetry()
        t.batch_size.observe(1)
        t.batch_size.observe(3)
        t.batch_size.observe(3)
        text = t.render()
        assert 'repro_batch_size_bucket{le="1"} 1' in text
        assert 'repro_batch_size_bucket{le="4"} 3' in text
        assert 'repro_batch_size_bucket{le="+Inf"} 3' in text

