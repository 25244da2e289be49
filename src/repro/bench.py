"""Kernel micro-benchmarks as data: the ``repro bench`` snapshot.

The benchmark suite under ``benchmarks/`` gates relative performance in
CI, but its numbers die in the job log.  This module runs the kernel
micro-benchmarks — stepped vs wavefront-batched array simulation at
small sizes, batched-only scaling at Fig 5/6-style sizes — and emits one
machine-readable JSON snapshot, so the repo's perf trajectory can
accumulate over time (``repro bench --json BENCH_kernel.json``).

Timings are wall-clock and machine-dependent by design; the *speedups*
are the portable quantity, and the batched-vs-stepped ratio at n = 32 is
the one the benchmark suite asserts (>= 10x).
"""

from __future__ import annotations

import contextlib
import json
import platform
import random
import sys
import time
from typing import Callable

from repro.fp.format import FP32, FPFormat
from repro.fp.rounding import RoundingMode
from repro.kernels.batched import make_matmul_array

#: Snapshot schema identifier; bump when the JSON layout changes.
SCHEMA = "repro-bench/1"

#: Stepped-vs-batched comparison sizes (stepped is O(n^3) scalar ops,
#: so these stay small) and batched-only scaling sizes.
DEFAULT_SIZES = (16, 32)
DEFAULT_SCAN_SIZES = (64, 128, 256)

#: Element count for the narrow-vs-uint64 lane comparison.  Large on
#: purpose: at 2^20 elements both lanes are far past NumPy dispatch
#: overhead and the ratio is stable on noisy hosts, which is what the
#: benchmark suite gates.
DEFAULT_LANES_N = 1 << 20
#: Ops that run on narrow lanes, benchmarked per narrow-lane format.
LANE_BENCH_OPS = ("add", "sub", "mul")


def _best_of(
    fn: Callable[[], object],
    repeats: int,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Best ``clock`` time of ``repeats`` runs (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def _rand_matrix(fmt: FPFormat, n: int, rng: random.Random) -> list[list[int]]:
    return [[rng.randrange(fmt.word_mask + 1) for _ in range(n)] for _ in range(n)]


def kernel_bench(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    scan_sizes: tuple[int, ...] = DEFAULT_SCAN_SIZES,
    fmt: FPFormat = FP32,
    mul_latency: int = 3,
    add_latency: int = 5,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Run the kernel micro-benchmarks; return the snapshot dict.

    For each n in ``sizes`` all three backends run on the same matrices
    (stepped/batched results cross-checked bit-for-bit against each
    other and the fused backend against its functional twin, so a
    benchmark run doubles as an equivalence check); for each n in
    ``scan_sizes`` only the batched simulator runs.
    """
    import numpy as np

    from repro.kernels.fast import functional_matmul_fma

    rng = random.Random(seed)
    benchmarks: list[dict] = []
    speedups: dict[str, float] = {}
    for n in sizes:
        a = _rand_matrix(fmt, n, rng)
        b = _rand_matrix(fmt, n, rng)
        stepped = make_matmul_array(fmt, n, mul_latency, add_latency,
                                    mode=mode, backend="stepped")
        batched = make_matmul_array(fmt, n, mul_latency, add_latency,
                                    mode=mode, backend="batched")
        fused = make_matmul_array(fmt, n, mul_latency, add_latency,
                                  mode=mode, backend="fma")
        runs = {}
        t_stepped = _best_of(lambda: runs.__setitem__("s", stepped.run(a, b)), 1)
        t_batched = _best_of(lambda: runs.__setitem__("b", batched.run(a, b)),
                             repeats)
        t_fused = _best_of(lambda: runs.__setitem__("f", fused.run(a, b)),
                           repeats)
        if runs["s"] != runs["b"]:
            raise AssertionError(
                f"batched run diverged from stepped at n={n} ({fmt.name})"
            )
        # The fused backend rounds once per MAC, so it cannot match the
        # chained runs; its reference is the functional fused twin.
        want_fused = functional_matmul_fma(
            fmt, np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64),
            mode,
        )
        if runs["f"].c != want_fused.tolist():
            raise AssertionError(
                f"fma run diverged from fused functional twin at n={n} "
                f"({fmt.name})"
            )
        benchmarks.append({"name": f"matmul.stepped.{fmt.name}.n{n}",
                           "seconds": t_stepped})
        benchmarks.append({"name": f"matmul.batched.{fmt.name}.n{n}",
                           "seconds": t_batched})
        benchmarks.append({"name": f"matmul.fma.{fmt.name}.n{n}",
                           "seconds": t_fused})
        speedups[f"batched_vs_stepped.{fmt.name}.n{n}"] = t_stepped / t_batched
        speedups[f"fma_vs_batched.{fmt.name}.n{n}"] = t_batched / t_fused
    for n in scan_sizes:
        a = _rand_matrix(fmt, n, rng)
        b = _rand_matrix(fmt, n, rng)
        batched = make_matmul_array(fmt, n, mul_latency, add_latency,
                                    mode=mode, backend="batched")
        t = _best_of(lambda: batched.run(a, b), 1)
        benchmarks.append({"name": f"matmul.batched.{fmt.name}.n{n}",
                           "seconds": t})
    return {
        "schema": SCHEMA,
        "suite": "kernel",
        "config": {
            "fmt": fmt.name,
            "mul_latency": mul_latency,
            "add_latency": add_latency,
            "mode": mode.value,
            "sizes": list(sizes),
            "scan_sizes": list(scan_sizes),
            "repeats": repeats,
            "seed": seed,
        },
        "context": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "benchmarks": benchmarks,
        "speedups": speedups,
    }


@contextlib.contextmanager
def _uint64_lanes():
    """Run every format on ``uint64`` lanes while the block is open.

    Substitutes the vectorized module's one lane-selection function, as
    a test fake would, so the baseline times the very same ``vec_*``
    code on the widest lane.
    """
    import numpy as np

    from repro.fp import vectorized

    native = vectorized._lane_dtype
    vectorized._lane_dtype = lambda fmt: np.uint64
    try:
        yield
    finally:
        vectorized._lane_dtype = native


def lanes_bench(
    n: int = DEFAULT_LANES_N,
    ops: tuple[str, ...] = LANE_BENCH_OPS,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Benchmark the narrow lane dtypes; return the snapshot dict.

    For every format whose add/sub/mul run on a narrow lane (fp16/bf16
    on ``uint16``, fp32 on ``uint32``) and every op, times ``vec_{op}``
    on its native lane and again with the lane pinned to ``uint64``,
    over the same ``n`` random operand pairs — flags on, the full
    service contract — and records the ratio as
    ``lane_vs_uint64.{op}.{fmt}``.  Timings are best-of-``repeats``
    process CPU time.  Every timed pair is also cross-checked
    element-wise (bits and flags), so a benchmark run doubles as an
    equivalence check exactly like :func:`kernel_bench`.
    """
    import numpy as np

    from repro.fp import vectorized
    from repro.fp.format import ALL_FORMATS

    rng = np.random.default_rng(seed)
    benchmarks: list[dict] = []
    speedups: dict[str, float] = {}
    lanes: list[dict] = []
    for fmt in ALL_FORMATS:
        dtype = vectorized.lane_dtype("mul", fmt)
        if dtype == "uint64":
            continue
        lanes.append({"fmt": fmt.name, "dtype": dtype})
        a = rng.integers(0, fmt.word_mask + 1, size=n, dtype=np.uint64)
        b = rng.integers(0, fmt.word_mask + 1, size=n, dtype=np.uint64)
        for op in ops:
            fn = getattr(vectorized, f"vec_{op}")

            def call():
                return fn(fmt, a, b, mode, with_flags=True)

            got_bits, got_flags = call()
            with _uint64_lanes():
                want_bits, want_flags = call()
                t_wide = _best_of(call, repeats, time.process_time)
            if not (
                np.array_equal(got_bits, want_bits)
                and np.array_equal(got_flags, want_flags)
            ):
                bad = int(np.flatnonzero(
                    (got_bits != want_bits) | (got_flags != want_flags)
                )[0])
                raise AssertionError(
                    f"{op}/{fmt.name} on {dtype} lanes diverged from "
                    f"uint64 lanes at element {bad}: a={int(a[bad]):#x} "
                    f"b={int(b[bad]):#x}"
                )
            t_native = _best_of(call, repeats, time.process_time)
            benchmarks.append({
                "name": f"uint64.{op}.{fmt.name}.n{n}",
                "seconds": t_wide,
            })
            benchmarks.append({
                "name": f"{dtype}.{op}.{fmt.name}.n{n}",
                "seconds": t_native,
            })
            speedups[f"lane_vs_uint64.{op}.{fmt.name}"] = t_wide / t_native
    return {
        "schema": SCHEMA,
        "suite": "lanes",
        "config": {
            "n": n,
            "ops": list(ops),
            "mode": mode.value,
            "repeats": repeats,
            "seed": seed,
            "lanes": lanes,
        },
        "context": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "benchmarks": benchmarks,
        "speedups": speedups,
    }


def render_lanes(snapshot: dict) -> str:
    """Human-readable summary of a lanes snapshot (with ns/element)."""
    cfg = snapshot["config"]
    lanes = ", ".join(f"{l['fmt']} {l['dtype']}" for l in cfg["lanes"])
    lines = [f"lanes bench (n={cfg['n']}, {cfg['mode']}; lanes: {lanes})"]
    for entry in snapshot["benchmarks"]:
        lines.append(
            f"  {entry['name']:<28} {entry['seconds'] * 1000.0:>10.2f} ms"
            f" {entry['seconds'] * 1e9 / cfg['n']:>8.1f} ns/elem"
        )
    for name, ratio in snapshot["speedups"].items():
        lines.append(f"  {name:<36} {ratio:>9.2f}x")
    return "\n".join(lines)


def dispatch_rps(
    max_batch: int,
    *,
    concurrency: int = 64,
    requests: int = 4096,
    seed: int = 0,
    trace_sample: float = 1.0,
) -> tuple[float, float, dict]:
    """Requests/s of the in-process dispatch path at one batch policy.

    Drives :meth:`repro.service.server.ReproService.dispatch_op` — the
    exact coroutine the HTTP handler awaits: admit → batch → vectorized
    execute → scatter — with ``concurrency`` closed-loop workers, no
    sockets.  Self-relative by construction: the same path at
    ``max_batch=1`` is the unbatched baseline, so the ratio isolates
    what micro-batching buys.  ``trace_sample`` sets the tracing rate
    (0.0 measures the untraced fast path for the overhead gate).
    Returns ``(rps, mean_batch_size, stage_summary)`` where the stage
    summary is :meth:`Telemetry.stage_summary` — per-stage mean/p99
    from the spans the run recorded (empty when tracing is off).
    """
    import asyncio

    from repro.service import ReproService, ServiceConfig

    config = ServiceConfig(
        max_batch=max_batch,
        linger_ms=2.0,
        queue_depth=max(256, 4 * concurrency),
        trace_sample=trace_sample,
    )

    async def _run() -> tuple[float, float, dict]:
        service = ReproService(config)
        rng = random.Random(seed)
        words = [rng.randrange(FP32.word_mask + 1) for _ in range(4096)]
        mode = RoundingMode.NEAREST_EVEN
        statuses: dict[int, int] = {}
        per_worker = [
            requests // concurrency
            + (1 if i < requests % concurrency else 0)
            for i in range(concurrency)
        ]

        async def worker(index: int, quota: int) -> None:
            pos = index
            for _ in range(quota):
                status, _body, _ctype, _extra = await service.dispatch_op(
                    "mul",
                    FP32,
                    mode,
                    words[pos % 4096],
                    words[(pos * 131 + 1) % 4096],
                )
                statuses[status] = statuses.get(status, 0) + 1
                pos += concurrency
        t0 = time.perf_counter()
        await asyncio.gather(
            *(worker(i, quota) for i, quota in enumerate(per_worker))
        )
        duration = time.perf_counter() - t0
        mean_batch = service.telemetry.batch_size.mean
        stages = service.telemetry.stage_summary()
        await service.batcher.close()
        service.compute_pool.shutdown(wait=False)
        service.sweep_pool.shutdown(wait=False)
        if statuses.get(200, 0) != requests:
            raise AssertionError(
                f"dispatch bench expected {requests} 200s, got {statuses}"
            )
        return requests / duration, mean_batch, stages

    return asyncio.run(_run())


def service_bench(
    *,
    concurrency: int = 64,
    requests: int = 4096,
    max_batch: int = 64,
    http_requests: int = 2048,
    http_concurrency: int = 64,
    seed: int = 0,
) -> dict:
    """Benchmark the serving layer; return the snapshot dict.

    Two measurements: the gated one — batched vs unbatched dispatch on
    the in-process request lifecycle (machine-independent because it is
    self-relative) — and an informational full-stack number, a loopback
    HTTP loadgen run against a live server (wall-clock, machine- and
    loopback-dependent, recorded for trajectory only).
    """
    from repro.service import ServiceConfig, ServiceThread, run_load_blocking

    batched_rps, mean_batch, stages = dispatch_rps(
        max_batch, concurrency=concurrency, requests=requests, seed=seed
    )
    solo_rps, _, _ = dispatch_rps(
        1, concurrency=concurrency, requests=requests, seed=seed
    )
    # Tracing overhead: the same batched workload with sampling off.
    # The batched_rps run above traces every request, so the pair bounds
    # what default-on tracing costs (the 10% gate lives in benchmarks/).
    # The overhead ratio is computed on process CPU time — tracing's
    # cost is extra Python work per request, which CPU time measures
    # directly and a loaded host's wall clock does not.
    c0 = time.process_time()
    untraced_rps, _, _ = dispatch_rps(
        max_batch, concurrency=concurrency, requests=requests, seed=seed,
        trace_sample=0.0,
    )
    untraced_cpu_rps = requests / (time.process_time() - c0)
    c0 = time.process_time()
    dispatch_rps(
        max_batch, concurrency=concurrency, requests=requests, seed=seed
    )
    traced_cpu_rps = requests / (time.process_time() - c0)

    config = ServiceConfig(port=0, max_batch=max_batch,
                           queue_depth=max(256, 4 * http_concurrency))
    with ServiceThread(config) as server:
        report = run_load_blocking(
            config.host,
            server.port,
            concurrency=http_concurrency,
            requests=http_requests,
            seed=seed,
        )

    return {
        "schema": SCHEMA,
        "suite": "service",
        "config": {
            "op": "mul",
            "fmt": FP32.name,
            "mode": RoundingMode.NEAREST_EVEN.value,
            "concurrency": concurrency,
            "requests": requests,
            "max_batch": max_batch,
            "http_concurrency": http_concurrency,
            "http_requests": http_requests,
            "seed": seed,
        },
        "context": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "dispatch": {
            "batched_rps": round(batched_rps, 1),
            "batch1_rps": round(solo_rps, 1),
            "mean_batch_size": round(mean_batch, 2),
        },
        "stages": stages,
        "tracing": {
            "traced_rps": round(batched_rps, 1),
            "untraced_rps": round(untraced_rps, 1),
            "traced_cpu_rps": round(traced_cpu_rps, 1),
            "untraced_cpu_rps": round(untraced_cpu_rps, 1),
            "overhead_ratio": round(traced_cpu_rps / untraced_cpu_rps, 4),
        },
        "http": report.to_json(),
        "speedups": {
            f"dispatch.batch{max_batch}_vs_batch1.fp32.mul":
                batched_rps / solo_rps,
        },
    }


def render_service(snapshot: dict) -> str:
    """Human-readable summary of a service snapshot."""
    cfg = snapshot["config"]
    dispatch = snapshot["dispatch"]
    http = snapshot["http"]
    lines = [
        f"service bench ({cfg['concurrency']}-way {cfg['op']}/{cfg['fmt']}"
        f"/{cfg['mode']}, max_batch={cfg['max_batch']})",
        f"  dispatch batched                 {dispatch['batched_rps']:>10.0f} req/s"
        f" (mean batch {dispatch['mean_batch_size']:.1f})",
        f"  dispatch batch=1                 {dispatch['batch1_rps']:>10.0f} req/s",
        f"  {'http loopback ' + str(cfg['http_concurrency']) + '-way':<33}"
        f"{http['achieved_rps']:>10.0f} req/s"
        f" (p50 {http['p50_ms']:.2f} ms, p99 {http['p99_ms']:.2f} ms)",
    ]
    for stage, row in snapshot.get("stages", {}).items():
        lines.append(
            f"  stage {stage:<27}"
            f"{row['mean_ms']:>10.3f} ms mean, p99 {row['p99_ms']:.3f} ms"
        )
    tracing = snapshot.get("tracing")
    if tracing:
        lines.append(
            f"  tracing on vs off (cpu-time)     {tracing['overhead_ratio']:>9.2f}x"
            f" ({tracing['traced_cpu_rps']:.0f} vs "
            f"{tracing['untraced_cpu_rps']:.0f} req/s)"
        )
    for name, ratio in snapshot["speedups"].items():
        lines.append(f"  {name:<32} {ratio:>9.1f}x")
    return "\n".join(lines)


#: The Table-2-style recommendation query the explore bench times: the
#: best efficiency point under area and clock floors over the full grid.
EXPLORE_BENCH_QUERY = {
    "objective": "mops_per_watt",
    "constraints": {"max_slices": 1000, "min_clock_mhz": 200},
}


def explore_bench(repeats: int = 3) -> dict:
    """Benchmark cold vs warm frontier computation; return the snapshot.

    Cold: a fresh :class:`~repro.engine.Engine` evaluates the full
    unit-grid frontier job (every pipeline depth of every kind x format
    pair, annotated and frontier-extracted).  Warm: the same engine
    answers again from its memo — the regime a running ``repro serve``
    instance is in after its first ``/v1/recommend``.  The portable
    quantity is the warm-vs-cold ratio; the benchmark suite gates it at
    >= 20x.
    """
    from repro.engine import Engine
    from repro.explore.catalog import unit_frontier_job
    from repro.explore.recommend import recommend

    job = unit_frontier_job()

    engine = Engine()
    t0 = time.perf_counter()
    frontier = engine.evaluate(job)
    t_frontier_cold = time.perf_counter() - t0
    t_frontier_warm = _best_of(lambda: engine.evaluate(job), repeats)

    cold_engine = Engine()
    t0 = time.perf_counter()
    payload = recommend(EXPLORE_BENCH_QUERY, engine=cold_engine)
    t_recommend_cold = time.perf_counter() - t0
    t_recommend_warm = _best_of(
        lambda: recommend(EXPLORE_BENCH_QUERY, engine=cold_engine), repeats
    )

    return {
        "schema": SCHEMA,
        "suite": "explore",
        "config": {
            "query": EXPLORE_BENCH_QUERY,
            "repeats": repeats,
        },
        "context": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "grid": {
            "designs": len(frontier.records),
            "frontier": len(frontier.frontier),
            "best": payload["best"]["id"],
        },
        "benchmarks": [
            {"name": "frontier.units.cold", "seconds": t_frontier_cold},
            {"name": "frontier.units.warm", "seconds": t_frontier_warm},
            {"name": "recommend.units.cold", "seconds": t_recommend_cold},
            {"name": "recommend.units.warm", "seconds": t_recommend_warm},
        ],
        "speedups": {
            "frontier.warm_vs_cold.units": t_frontier_cold / t_frontier_warm,
            "recommend.warm_vs_cold.units": t_recommend_cold / t_recommend_warm,
        },
    }


def render_explore(snapshot: dict) -> str:
    """Human-readable summary of an explore snapshot."""
    grid = snapshot["grid"]
    lines = [
        f"explore bench ({grid['designs']} designs, "
        f"{grid['frontier']} on the frontier; best: {grid['best']})"
    ]
    for entry in snapshot["benchmarks"]:
        lines.append(
            f"  {entry['name']:<32} {entry['seconds'] * 1000.0:>10.3f} ms"
        )
    for name, ratio in snapshot["speedups"].items():
        lines.append(f"  {name:<32} {ratio:>9.1f}x")
    return "\n".join(lines)


def render(snapshot: dict) -> str:
    """Human-readable summary of a snapshot (stdout companion to JSON)."""
    lines = [f"kernel bench ({snapshot['config']['fmt']}, "
             f"PL={snapshot['config']['mul_latency'] + snapshot['config']['add_latency']})"]
    for entry in snapshot["benchmarks"]:
        lines.append(f"  {entry['name']:<32} {entry['seconds'] * 1000.0:>10.2f} ms")
    for name, ratio in snapshot["speedups"].items():
        lines.append(f"  {name:<32} {ratio:>9.1f}x")
    return "\n".join(lines)


def write_snapshot(snapshot: dict, path: str) -> None:
    """Write one snapshot as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
