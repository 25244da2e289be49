"""Serving-layer perf gates: micro-batching must pay for itself.

The gated quantity is self-relative and socket-free: the same request
lifecycle (``ReproService.dispatch_op`` — admit → batch → vectorized
execute → scatter) driven by 64 concurrent closed-loop workers, once
with ``max_batch=64`` and once with ``max_batch=1``.  Identical
machinery on both sides, so the ratio isolates exactly what coalescing
requests into vectorized datapath calls buys, independent of host speed
or loopback quality.  The size-adaptive crossover is disabled for the
gate: otherwise the one-request batches run the scalar datapath, and the
ratio would move with the scalar datapath's speed instead.  Full-stack
HTTP numbers are recorded for the snapshot but not gated — they measure
the wire, not the batcher.

The tracing-overhead gate is self-relative the same way: the identical
batched workload with trace sampling at the default 1.0 vs 0.0.  It
compares **process CPU time**, not wall clock: tracing's cost is extra
Python work this process does per request, which CPU time measures
directly, while wall clock on a busy single-core CI host mixes in
whatever else the machine was doing during the run.  Even CPU time
drifts by minutes-scale factors on shared hosts (frequency scaling,
steal), and that contamination is strictly *additive* — it inflates
whichever run it lands on, it never makes code run faster than its
intrinsic cost.  So the gate runs several back-to-back pairs with the
order flipped each time and judges the **cleanest pair** (the highest
traced/untraced ratio): that pair is the best available estimate of
intrinsic overhead, while a real regression several times the gate
cannot produce a clean-looking pair by luck.
"""

import time

from repro.bench import dispatch_rps, row_values, service_bench
from repro.fp.ops import CROSSOVER
from repro.obs.trace import REQUEST_STAGES

#: The issue's gate: batched dispatch at the service's default batching
#: policy must beat the batch-size-1 configuration by at least 5x on
#: 64-way concurrent fp32 multiplies.
MIN_BATCHED_SPEEDUP = 5.0
CONCURRENCY = 64
REQUESTS = 4096

#: Tracing at the default sample rate (1.0) may cost at most 10% of
#: untraced throughput on the batched dispatch path.
MAX_TRACING_OVERHEAD = 0.10


def test_batched_dispatch_beats_sequential(show_once, monkeypatch):
    for op in CROSSOVER:  # every batch runs vec_*, whatever its size
        monkeypatch.setitem(CROSSOVER, op, {})
    batched_rps, mean_batch, stages = dispatch_rps(
        64, concurrency=CONCURRENCY, requests=REQUESTS
    )
    solo_rps, _, _ = dispatch_rps(
        1, concurrency=CONCURRENCY, requests=REQUESTS
    )
    speedup = batched_rps / solo_rps
    show_once(
        "bench.service",
        f"service dispatch @ {CONCURRENCY}-way fp32 mul: "
        f"batched {batched_rps:.0f} req/s (mean batch {mean_batch:.1f}) "
        f"vs batch=1 {solo_rps:.0f} req/s -> {speedup:.1f}x",
    )
    assert mean_batch > CONCURRENCY / 2, (
        f"batches are not coalescing (mean {mean_batch:.1f})"
    )
    assert speedup >= MIN_BATCHED_SPEEDUP, (
        f"batched dispatch only {speedup:.1f}x over sequential "
        f"(gate: {MIN_BATCHED_SPEEDUP}x)"
    )
    # The traced run must also have recorded a per-stage breakdown.
    for stage in REQUEST_STAGES:
        assert stage in stages, f"stage {stage!r} missing from breakdown"
        assert stages[stage]["count"] > 0


def _cpu_seconds(trace_sample: float, seed: int) -> float:
    """Process-CPU seconds consumed by one dispatch run.

    CPU time (``time.process_time``) charges this process for exactly
    the work it did — including the tracing instrumentation under test
    — and charges it nothing for the co-tenants of a noisy CI core,
    which wall clock cannot distinguish from real overhead.
    """
    c0 = time.process_time()
    dispatch_rps(
        64, concurrency=CONCURRENCY, requests=REQUESTS, seed=seed,
        trace_sample=trace_sample,
    )
    return time.process_time() - c0


def test_tracing_overhead_within_gate(show_once):
    """Default-on tracing costs <= 10% of untraced dispatch CPU.

    Five back-to-back pairs, order flipped each time so warm-up and
    ramp effects cancel; the gated quantity is the *cleanest pair's*
    untraced/traced CPU ratio.  Host noise only ever inflates a run's
    CPU time, so the cleanest pair is the best estimate of tracing's
    intrinsic cost, and a regression materially past the gate cannot
    fake a clean pair (both runs of a pair would have to be hit by
    opposite, perfectly-sized noise at once, five times in a row).
    """
    best_ratio = 0.0
    best_pair = (0.0, 0.0)
    for attempt in range(5):
        if attempt % 2 == 0:
            traced = _cpu_seconds(1.0, seed=attempt)
            untraced = _cpu_seconds(0.0, seed=attempt)
        else:
            untraced = _cpu_seconds(0.0, seed=attempt)
            traced = _cpu_seconds(1.0, seed=attempt)
        if untraced / traced > best_ratio:
            best_ratio = untraced / traced
            best_pair = (traced, untraced)
    show_once(
        "bench.service.tracing",
        f"tracing overhead @ {CONCURRENCY}-way fp32 mul (cpu-time, "
        f"cleanest of 5 pairs): traced {REQUESTS / best_pair[0]:.0f} req/s "
        f"vs untraced {REQUESTS / best_pair[1]:.0f} req/s "
        f"-> {best_ratio:.3f}x",
    )
    assert best_ratio >= 1.0 - MAX_TRACING_OVERHEAD, (
        f"tracing costs {(1.0 - best_ratio):.1%} of untraced CPU "
        f"(gate: {MAX_TRACING_OVERHEAD:.0%})"
    )


def test_untraced_run_records_no_stages():
    """trace_sample=0.0 really disables span recording end to end."""
    _, _, stages = dispatch_rps(
        8, concurrency=8, requests=64, trace_sample=0.0
    )
    assert stages == {}


def test_service_snapshot_roundtrip(show_once):
    """The `repro bench --service` snapshot carries both measurements."""
    snapshot = service_bench(
        concurrency=32, requests=1024, http_requests=512, http_concurrency=32
    )
    assert set(snapshot) == {"schema", "suite", "config", "context", "rows"}
    assert snapshot["schema"] == "repro-bench/2"
    assert snapshot["suite"] == "service"
    values = row_values(snapshot)
    assert values["dispatch.batched_rps"] > values["dispatch.batch1_rps"] > 0
    for stage in REQUEST_STAGES:
        count = values[f"stage.{stage}.count"]
        mean_ms = values[f"stage.{stage}.mean_ms"]
        assert count > 0 and values[f"stage.{stage}.p99_ms"] >= mean_ms >= 0.0
    assert values["tracing.untraced_rps"] > 0
    assert values["tracing.traced_cpu_rps"] > 0
    assert values["tracing.untraced_cpu_rps"] > 0
    assert values.get("http.statuses.200", 0) == 512
    assert values["http.errors"] == 0
    show_once(
        "bench.service.http",
        f"http loopback {snapshot['config']['http_concurrency']}-way: "
        f"{values['http.achieved_rps']:.0f} req/s "
        f"(p50 {values['http.p50_ms']:.2f} ms, "
        f"p99 {values['http.p99_ms']:.2f} ms)",
    )
