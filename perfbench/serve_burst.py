"""serve-burst: 128 in-process callers on ``ReproService.dispatch_op``.

No sockets: 128 closed-loop coroutines on one event loop drive the
service's request lifecycle (admit -> batch -> vectorized execute ->
scatter) directly, with the default ``ServiceConfig`` (queue depth 256,
so nothing should shed).  The lane mix is skewed over ops x all five
formats x both modes, measured from the program's own datapath traffic
(``lane_mix.py``): hot lanes fill batches, tail lanes wait out the
linger.  Batching amortisation, per-element datapath cost and scatter
dominate; HTTP is skipped entirely.  The lane weights are fixed; the
seed draws the lane sequence and the operands.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from functools import partial
from typing import List, Tuple

import numpy as np

import common
from common import Outcome, Patch, Timings, mean, median, us

CALLERS = 128
#: Requests generated per second of run time (well above the 10k/s the
#: service completes on one vCPU).
POOL_PER_S = 18_000
#: Timed rounds (one request from every caller) per set-up sample: cold
#: ones each on a fresh service, warm ones on the service just measured.
COLD_ROUNDS = 3
WARM_ROUNDS = 20
#: Times are in reference-host seconds (see ``common.HostClock``); the
#: clock runs while :func:`run` does.  Wall times too scale by the
#: slices' CPU time: the batch thread shares the slices' CPU, so their
#: wall time would hold its work and follow the program.
CLOCK = common.HostClock()


def lane_table():
    """Every (op, format, mode) lane with its share of the traffic
    (``lane_mix.MIX``, measured from the program's own datapath calls)."""
    from repro.fp.format import ALL_FORMATS
    from repro.fp.rounding import RoundingMode

    import lane_mix

    formats = {fmt.name: fmt for fmt in ALL_FORMATS}
    lanes, weights = lane_mix.lane_weights()
    order = [(op, formats[fmt], RoundingMode(mode)) for op, fmt, mode in lanes]
    return order, np.array(weights)


class Pool:
    """Seeded requests: ``lanes[i]`` and ``operands[i]`` of request i."""

    def __init__(self, seed: int, count: int) -> None:
        from repro.service.batcher import OP_ARITY

        self.table, weights = lane_table()
        rng = np.random.default_rng(seed)
        lanes = rng.choice(len(self.table), size=count, p=weights)
        masks = np.array([fmt.word_mask for _, fmt, _ in self.table], dtype=np.uint64)
        words = rng.integers(
            0, 2**64 - 1, size=(count, 3), dtype=np.uint64, endpoint=True
        ) & masks[lanes][:, None]
        arity = [OP_ARITY[op] for op, _, _ in self.table]
        self.lanes = lanes.tolist()
        self.operands = [
            tuple(row[: arity[k]]) for row, k in zip(words.tolist(), self.lanes)
        ]
        self.next = 0

    def take(self) -> int:
        i = self.next
        if i >= len(self.lanes):
            raise RuntimeError("request pool exhausted; raise POOL_PER_S")
        self.next = i + 1
        return i

    def request(self, i: int):
        op, fmt, mode = self.table[self.lanes[i]]
        return op, fmt, mode, self.operands[i]


class Log:
    """Replies by request index, in completion order."""

    def __init__(self) -> None:
        self.index: List[int] = []
        self.replies: List[tuple] = []
        self.latency_s: List[float] = []

    def add(self, i: int, reply: tuple, latency_s: float) -> None:
        self.index.append(i)
        self.replies.append(reply)
        self.latency_s.append(latency_s)

    def extend(self, other: "Log") -> None:
        self.index += other.index
        self.replies += other.replies
        self.latency_s += other.latency_s


def make_service(**overrides):
    from repro.service.config import ServiceConfig
    from repro.service.server import ReproService

    return ReproService(ServiceConfig(**overrides))


async def close_service(service) -> None:
    await service.shutdown()
    service.compute_pool.shutdown(wait=True)
    service.sweep_pool.shutdown(wait=True)


async def call(service, pool: Pool, log: Log) -> None:
    i = pool.take()
    op, fmt, mode, operands = pool.request(i)
    t0 = CLOCK.wall()
    reply = await service.dispatch_op(op, fmt, mode, *operands)
    log.add(i, reply, CLOCK.wall() - t0)


async def closed_loop(service, pool: Pool, log: Log, seconds: float) -> Tuple[float, float]:
    """``CALLERS`` closed-loop callers for ``seconds``: (wall, cpu), and
    the latencies the window adds to ``log``, in reference-host seconds
    by the window's calibration slices."""
    deadline = time.perf_counter() + seconds

    async def caller() -> None:
        while time.perf_counter() < deadline:
            await call(service, pool, log)

    first, mark = len(log.latency_s), CLOCK.mark()
    cpu0, t0 = CLOCK.cpu(), CLOCK.wall()
    await asyncio.gather(*(caller() for _ in range(CALLERS)))
    wall, cpu = CLOCK.wall() - t0, CLOCK.cpu() - cpu0
    # A zero-length (untimed) window may see too few slices to scale by.
    scale = CLOCK.factor(mark) if len(log.latency_s) > first else 1.0
    log.latency_s[first:] = [t * scale for t in log.latency_s[first:]]
    return wall * scale, cpu * scale


async def one_round(service, pool: Pool, log: Log) -> float:
    """One concurrent request from each caller; seconds until all answered."""
    t0 = CLOCK.wall()
    await asyncio.gather(*(call(service, pool, log) for _ in range(CALLERS)))
    return CLOCK.wall() - t0


def scaled(samples: List[tuple]) -> List[float]:
    """``(raw seconds, clock marks around it)`` samples in reference-host
    seconds, each by the slices nearest it; called at the end of the
    run, so that a sample near its start or end has slices on one side."""
    return [seconds * CLOCK.factor(*marks) for seconds, marks in samples]


async def warm_up(service, pool: Pool, log: Log) -> None:
    """Untimed: two rounds, so lane workers and datapaths exist."""
    for _ in range(2):
        await one_round(service, pool, log)


def check(pool: Pool, log: Log, out: Outcome) -> None:
    """Every reply is a 200 whose (bits, flags) equal the scalar datapath."""
    from repro.service.batcher import OPS

    for i, (status, body, _, _) in zip(log.index, log.replies):
        op, fmt, mode, operands = pool.request(i)
        out.attempted += 1
        where = f"{op}/{fmt.name}/{mode.value} ({' '.join(f'{w:#x}' for w in operands)})"
        if status != 200:
            if status == 429:
                out.shed += 1
            out.fail(f"status {status}: {where}: {body[:120]!r}")
            continue
        doc = json.loads(body)
        want_bits, want_flags = OPS[op][0](fmt, *operands, mode)
        if int(doc["bits"], 16) != want_bits or doc["flags"] != want_flags.to_bits():
            out.fail(
                f"{where}: served {doc['bits']}/{doc['flags']}, scalar "
                f"{want_bits:#x}/{want_flags.to_bits()}"
            )


def end_to_end(log: Log, wall: float, cpu: float, out: Outcome) -> None:
    done = sum(1 for reply in log.replies if reply[0] == 200)
    out.put("throughput_per_s", done / wall, "1/s", done)
    common.latency_metrics(out, log.latency_s)
    out.put("cpu_us_per_op", us(cpu) / max(done, 1), "us", done)


async def window(pool: Pool, seconds: float, check_log: Log, **config):
    """A fresh service, warmed up, then one closed-loop window."""
    service = make_service(**config)
    try:
        await warm_up(service, pool, check_log)
        log = Log()
        wall, cpu = await closed_loop(service, pool, log, seconds)
        return log, wall, cpu
    finally:
        await close_service(service)


# ---------------------------------------------------------------------- #
# traced-run wrappers
# ---------------------------------------------------------------------- #
def wrap_batcher(patch: Patch, calls: List[tuple], spot: Timings) -> None:
    """Time every vectorized/packed call and every spot check the
    batcher makes, without touching its code."""
    from repro.service import batcher

    for op, (scalar_fn, vec_fn, arity) in list(batcher.OPS.items()):
        patch.setitem(
            batcher.OPS, op,
            (
                common.timed(scalar_fn, spot, op, CLOCK.wall),
                common.timed_vec(op, vec_fn, calls, CLOCK.wall),
                arity,
            ),
        )
    packed = batcher.packed_call
    timed_packed = {
        op: common.timed_vec(op, partial(packed, op), calls, CLOCK.wall) for op in batcher.OPS
    }
    patch.set(
        batcher, "packed_call",
        lambda op, fmt, *args, **kwargs: timed_packed[op](fmt, *args, **kwargs),
    )


def layers(
    service, before: dict, calls: List[tuple], spot: Timings, admitted: int, out: Outcome
) -> None:
    telemetry = service.telemetry
    out.put("admission.shed", telemetry.shed_total.total, "count", admitted)
    out.put("admission.inflight_max", telemetry.queue_depth.max_seen, "count", admitted)
    hist = {labels[0]: h for labels, h in telemetry.stage_latency_s.series()}
    hist["batch_size"] = telemetry.batch_size

    def delta_mean(name: str) -> Tuple[float, int]:
        h = hist[name]
        total0, count0 = before[name]
        count = h.count - count0
        return ((h.total - total0) / count if count else 0.0), count

    size, batches = delta_mean("batch_size")
    out.put("batcher.batch_size_mean", size, "count", batches)
    linger, n = delta_mean("batch.linger")
    out.put("batcher.linger_ms_mean", common.ms(linger), "ms", n)
    dispatch, n = delta_mean("batch.dispatch")
    out.put("batcher.dispatch_us_mean", us(dispatch), "us", n)
    scatter, n = delta_mean("scatter")
    out.put("batcher.scatter_us_mean", us(scatter), "us", n)

    checks = [t for times in spot.samples.values() for t in times]
    out.put("batcher.spot_check_us", us(mean(checks)), "us", len(checks))
    for op, times in spot.samples.items():
        out.put(f"scalar.us_per_op.{op}", us(mean(times)), "us", len(times))

    common.vector_metrics(calls, out)


def snapshot(service) -> dict:
    telemetry = service.telemetry
    snap = {labels[0]: (h.total, h.count) for labels, h in telemetry.stage_latency_s.series()}
    snap["batch_size"] = (telemetry.batch_size.total, telemetry.batch_size.count)
    return snap


async def traced_window(pool: Pool, seconds: float, check_log: Log, out: Outcome):
    """A window with the timing wrappers on; per-layer metrics from it."""
    service = make_service()
    calls: List[tuple] = []
    spot = Timings()
    try:
        await warm_up(service, pool, check_log)
        before = snapshot(service)
        log = Log()
        with Patch() as patch:
            wrap_batcher(patch, calls, spot)
            wall, cpu = await closed_loop(service, pool, log, seconds)
        layers(service, before, calls, spot, len(log.replies), out)
        return log, wall, cpu
    finally:
        await close_service(service)


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #
async def run_async(seed: int, seconds: float, trace: bool, out: Outcome) -> None:
    rounds = common.SETUP_REPEATS * (COLD_ROUNDS + WARM_ROUNDS + 2) + 12
    pool = Pool(seed, int(POOL_PER_S * (seconds + 2)) + CALLERS * rounds)
    checked = Log()  # every reply that is not part of a timed window

    if trace:
        base, base_wall, base_cpu = await window(pool, 0.3 * seconds, checked)
        log, wall, cpu = await traced_window(pool, 0.4 * seconds, checked, out)
        untraced, u_wall, u_cpu = await window(pool, 0.3 * seconds, checked, trace_sample=0.0)
        reference, no_tracing = Outcome(), Outcome()
        end_to_end(base, base_wall, base_cpu, reference)
        end_to_end(untraced, u_wall, u_cpu, no_tracing)
        out.put(
            "obs.tracing_cpu_ratio",
            reference.metrics["cpu_us_per_op"].value / no_tracing.metrics["cpu_us_per_op"].value,
            "ratio",
        )
        checked.extend(base)
        checked.extend(untraced)
    else:
        # Untimed: the process's first service pays one-off costs that
        # no later (cold or warm) service sees.
        await window(pool, 0.0, checked)
        # SETUP_REPEATS rounds on fresh services, so set-up, cold and
        # warm samples spread over the run.
        setups, cold, warm = [], [], []
        log, wall, cpu = Log(), 0.0, 0.0
        for _ in range(common.SETUP_REPEATS):
            setups.append(common.setup_sample("serve-burst", CLOCK))
            for _ in range(COLD_ROUNDS):
                mark, t0 = CLOCK.mark(), CLOCK.wall()
                service = make_service()
                try:
                    await one_round(service, pool, checked)
                    cold.append((CLOCK.wall() - t0, (mark, CLOCK.mark())))
                finally:
                    await close_service(service)
            service = make_service()
            try:
                await warm_up(service, pool, checked)
                w, c = await closed_loop(service, pool, log, seconds / common.SETUP_REPEATS)
                wall, cpu = wall + w, cpu + c
                for _ in range(WARM_ROUNDS):
                    mark = CLOCK.mark()
                    took = await one_round(service, pool, checked)
                    warm.append((took, (mark, CLOCK.mark())))
            finally:
                await close_service(service)
        common.setup_metric(setups, out, CLOCK)
        out.put("cold_s", median(scaled(cold)), "s", len(cold))
        out.put("warm_s", median(scaled(warm)), "s", len(warm))

    end_to_end(log, wall, cpu, out)
    if trace:
        common.overhead_metrics(out, reference)
    check(pool, log, out)
    check(pool, checked, out)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    # The event loop and the batch thread share one interpreter lock.  On
    # one CPU its hand-offs never cross CPUs; left to the OS, their
    # placement moved throughput by 13% (quartile spread) between runs,
    # and with the loop and the batch thread pinned to separate CPUs it
    # varied more still.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with CLOCK:
        asyncio.run(run_async(seed, seconds, trace, out))
    out.put("rss_peak_mb", common.self_hwm_mib(), "MiB")
    return out
