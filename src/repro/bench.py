"""Performance suites as data: the ``repro bench`` snapshot.

The benchmark suite under ``benchmarks/`` gates relative performance in
CI, but its numbers die in the job log.  This module runs four suites
and emits each as one machine-readable JSON snapshot, so the repo's perf
trajectory can accumulate over time:

* **kernel** — stepped vs wavefront-batched vs fused array simulation at
  small sizes, batched-only scaling at Fig 5/6-style sizes;
* **lanes** — every narrow-lane add/sub/mul against the same code pinned
  to ``uint64`` lanes, and the scalar-vs-``vec_*`` crossover batch size
  of every op and format;
* **service** — batched vs unbatched in-process dispatch, tracing on vs
  off, the per-stage span breakdown and a loopback HTTP run;
* **explore** — cold vs warm frontier computation and recommendation.

Every suite shares one snapshot shape::

    {"schema": "repro-bench/2", "suite", "config", "context",
     "rows": [{"name", "unit", "value"}, ...]}

``config`` holds the suite's inputs, ``context`` the interpreter and
host, and each measurement is one row.  Units: ``s`` (best-of-N process
CPU time), ``x`` (a ratio), ``1/s`` (a rate), ``count``, ``ms`` (the
service's latency means and percentiles, whose row names end in
``_ms``) and ``id`` (a design ID, the one non-numeric value).  Timings
are machine-dependent by design; the ratios are the portable quantity
the benchmark suite gates.
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
SCHEMA = "repro-bench/2"

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
#: Batch sizes the crossover sweep tries: powers of two up to 256.
CROSSOVER_GRID = tuple(1 << k for k in range(9))


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best process CPU time of ``repeats`` runs (min filters host noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def _row(name: str, unit: str, value) -> dict:
    return {"name": name, "unit": unit, "value": value}


def _context() -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
    }


def _snapshot(suite: str, config: dict, rows: list[dict]) -> dict:
    return {
        "schema": SCHEMA,
        "suite": suite,
        "config": config,
        "context": _context(),
        "rows": rows,
    }


def row_values(snapshot: dict) -> dict:
    """``{row name: value}`` for one snapshot."""
    return {row["name"]: row["value"] for row in snapshot["rows"]}


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
    rows: list[dict] = []
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
        rows += [
            _row(f"matmul.stepped.{fmt.name}.n{n}", "s", t_stepped),
            _row(f"matmul.batched.{fmt.name}.n{n}", "s", t_batched),
            _row(f"matmul.fma.{fmt.name}.n{n}", "s", t_fused),
            _row(f"batched_vs_stepped.{fmt.name}.n{n}", "x",
                 t_stepped / t_batched),
            _row(f"fma_vs_batched.{fmt.name}.n{n}", "x", t_batched / t_fused),
        ]
    for n in scan_sizes:
        a = _rand_matrix(fmt, n, rng)
        b = _rand_matrix(fmt, n, rng)
        batched = make_matmul_array(fmt, n, mul_latency, add_latency,
                                    mode=mode, backend="batched")
        rows.append(_row(f"matmul.batched.{fmt.name}.n{n}", "s",
                         _best_of(lambda: batched.run(a, b), 1)))
    return _snapshot("kernel", {
        "fmt": fmt.name,
        "mul_latency": mul_latency,
        "add_latency": add_latency,
        "mode": mode.value,
        "sizes": list(sizes),
        "scan_sizes": list(scan_sizes),
        "repeats": repeats,
        "seed": seed,
    }, rows)


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
    ``lane_vs_uint64.{op}.{fmt}``.  Every timed pair is also
    cross-checked element-wise (bits and flags), so a benchmark run
    doubles as an equivalence check exactly like :func:`kernel_bench`.

    The crossover sweep then records, for every op and format, the
    smallest ``n`` on :data:`CROSSOVER_GRID` at which one ``vec_*`` call
    beats the scalar loop over the same ``n`` random operand tuples
    (both with flags, as :func:`repro.fp.ops.execute` runs them) as
    ``crossover.{op}.{fmt}``; twice the largest grid size when ``vec_*``
    never wins on the grid.  :data:`repro.fp.ops.CROSSOVER` is set from
    these rows.
    """
    import numpy as np

    from repro.fp import vectorized
    from repro.fp.format import ALL_FORMATS
    from repro.fp.ops import OP_TABLE, scalar_loop, vector_call

    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    for fmt in ALL_FORMATS:
        dtype = vectorized.lane_dtype("mul", fmt)
        if dtype == "uint64":
            continue
        a = rng.integers(0, fmt.word_mask + 1, size=n, dtype=np.uint64)
        b = rng.integers(0, fmt.word_mask + 1, size=n, dtype=np.uint64)
        for op in ops:
            fn = getattr(vectorized, f"vec_{op}")

            def call():
                return fn(fmt, a, b, mode, with_flags=True)

            got_bits, got_flags = call()
            with _uint64_lanes():
                want_bits, want_flags = call()
                t_wide = _best_of(call, repeats)
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
            t_native = _best_of(call, repeats)
            rows += [
                _row(f"uint64.{op}.{fmt.name}.n{n}", "s", t_wide),
                _row(f"{dtype}.{op}.{fmt.name}.n{n}", "s", t_native),
                _row(f"lane_vs_uint64.{op}.{fmt.name}", "x", t_wide / t_native),
            ]
    for op, row in OP_TABLE.items():
        for fmt in ALL_FORMATS:
            crossover = 2 * CROSSOVER_GRID[-1]
            for size in CROSSOVER_GRID:
                columns = [
                    rng.integers(0, fmt.word_mask, size=size, dtype=np.uint64,
                                 endpoint=True)
                    for _ in range(row.arity)
                ]
                t_scalar = _best_of(
                    lambda: scalar_loop(row.scalar, fmt, mode, columns), repeats
                )
                t_vector = _best_of(
                    lambda: vector_call(row.vectorized, fmt, mode, columns),
                    repeats,
                )
                if t_vector < t_scalar:
                    crossover = size
                    break
            rows.append(_row(f"crossover.{op}.{fmt.name}", "count", crossover))
    return _snapshot("lanes", {
        "n": n,
        "ops": list(ops),
        "crossover_grid": list(CROSSOVER_GRID),
        "mode": mode.value,
        "repeats": repeats,
        "seed": seed,
    }, rows)


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

    Three dispatch runs on the in-process request lifecycle — unbatched,
    batched and traced, batched and untraced — give the gated
    batched-vs-unbatched ratio (self-relative, so machine-independent)
    and the tracing overhead.  Tracing's cost is extra Python work per
    request, so that ratio compares the two batched runs' process CPU
    time, which a loaded host's wall clock would blur (the 10% gate
    lives in ``benchmarks/``).  A loopback HTTP loadgen run against a
    live server adds the full-stack numbers, recorded for trajectory
    only.  Rates and latencies are wall clock: queueing and linger are
    part of what they measure.
    """
    from repro.service import ServiceConfig, ServiceThread, run_load_blocking

    def run(batch: int, trace_sample: float = 1.0):
        c0 = time.process_time()
        rps, mean_batch, stages = dispatch_rps(
            batch, concurrency=concurrency, requests=requests, seed=seed,
            trace_sample=trace_sample,
        )
        return rps, mean_batch, stages, time.process_time() - c0

    solo_rps, _, _, _ = run(1)
    batched_rps, mean_batch, stages, traced_cpu = run(max_batch)
    untraced_rps, _, _, untraced_cpu = run(max_batch, trace_sample=0.0)

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

    rows = [
        _row("dispatch.batched_rps", "1/s", batched_rps),
        _row("dispatch.batch1_rps", "1/s", solo_rps),
        _row("dispatch.mean_batch_size", "count", mean_batch),
        _row(f"dispatch.batch{max_batch}_vs_batch1.fp32.mul", "x",
             batched_rps / solo_rps),
    ]
    for stage, summary in stages.items():
        rows += [
            _row(f"stage.{stage}.count", "count", summary["count"]),
            _row(f"stage.{stage}.mean_ms", "ms", summary["mean_ms"]),
            _row(f"stage.{stage}.p99_ms", "ms", summary["p99_ms"]),
            _row(f"stage.{stage}.p99_saturated", "count",
                 int(summary["p99_saturated"])),
        ]
    rows += [
        _row("tracing.untraced_rps", "1/s", untraced_rps),
        _row("tracing.traced_cpu_rps", "1/s", requests / traced_cpu),
        _row("tracing.untraced_cpu_rps", "1/s", requests / untraced_cpu),
        _row("tracing.overhead_ratio", "x", untraced_cpu / traced_cpu),
        _row("http.achieved_rps", "1/s", report.achieved_rps),
        _row("http.p50_ms", "ms", report.p50_ms),
        _row("http.p99_ms", "ms", report.p99_ms),
        _row("http.errors", "count", report.errors),
    ]
    rows += [
        _row(f"http.statuses.{code}", "count", n)
        for code, n in sorted(report.statuses.items())
    ]
    return _snapshot("service", {
        "op": "mul",
        "fmt": FP32.name,
        "mode": RoundingMode.NEAREST_EVEN.value,
        "concurrency": concurrency,
        "requests": requests,
        "max_batch": max_batch,
        "http_concurrency": http_concurrency,
        "http_requests": http_requests,
        "seed": seed,
    }, rows)


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
    t_frontier_cold = _best_of(lambda: engine.evaluate(job), 1)
    t_frontier_warm = _best_of(lambda: engine.evaluate(job), repeats)
    frontier = engine.evaluate(job)

    recommend_engine = Engine()

    def query():
        return recommend(EXPLORE_BENCH_QUERY, engine=recommend_engine)

    t_recommend_cold = _best_of(query, 1)
    t_recommend_warm = _best_of(query, repeats)

    return _snapshot("explore", {
        "query": EXPLORE_BENCH_QUERY,
        "repeats": repeats,
    }, [
        _row("frontier.units.cold", "s", t_frontier_cold),
        _row("frontier.units.warm", "s", t_frontier_warm),
        _row("recommend.units.cold", "s", t_recommend_cold),
        _row("recommend.units.warm", "s", t_recommend_warm),
        _row("frontier.warm_vs_cold.units", "x",
             t_frontier_cold / t_frontier_warm),
        _row("recommend.warm_vs_cold.units", "x",
             t_recommend_cold / t_recommend_warm),
        _row("grid.designs", "count", len(frontier.records)),
        _row("grid.frontier", "count", len(frontier.frontier)),
        _row("grid.best", "id", query()["best"]["id"]),
    ])


#: How :func:`render` prints a value of each unit.
_SHOW = {
    "s": lambda v: f"{v * 1e3:12.3f} ms",
    "ms": lambda v: f"{v:12.3f} ms",
    "x": lambda v: f"{v:12.2f} x",
    "1/s": lambda v: f"{v:12.0f} /s",
    "count": lambda v: f"{v:12g}",
    "id": lambda v: f"{v:>12}",
}


def render(snapshot: dict) -> str:
    """Human-readable summary of a snapshot (stdout companion to JSON)."""
    config = ", ".join(
        f"{key}={json.dumps(value, separators=(',', ':'))}"
        for key, value in snapshot["config"].items()
    )
    lines = [f"{snapshot['suite']} bench ({config})"]
    for row in snapshot["rows"]:
        lines.append(f"  {row['name']:<40}{_SHOW[row['unit']](row['value'])}")
    return "\n".join(lines)


def write_snapshot(snapshot: dict, path: str) -> None:
    """Write one snapshot as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
