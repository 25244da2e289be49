"""serve-light: ``repro serve`` over loopback, 2 keep-alive connections.

The server runs as a subprocess with its default ``ServiceConfig``; the
client is this process, one event loop, two closed-loop connections.
The mix is every ``/v1/op/*`` op over fp16/fp32/fp64 in both rounding
modes, plus about 1 in 16 warm ``POST /v1/recommend``.  Batches never
exceed 2 here, so every request pays HTTP parse and serialize, the
2 ms linger, one spot check and the fixed per-call datapath cost: the
latency regime, in which batching cannot hide a per-request cost.

CPU time and peak RSS are read from the *server* process, not the
client.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import common
from common import Outcome, Timings, mean, median, ms, quantile, us

CONNECTIONS = 2
RECOMMEND_EVERY = 16
REQUEST_TIMEOUT_S = 10.0
#: Requests generated per run; more than a 60 s window can use.
POOL = 60_000
RECOMMEND_QUERY = {
    "kinds": ["adder", "multiplier"],
    "formats": ["fp32", "fp64"],
    "objective": "mops_per_watt",
    "constraints": {"min_clock_mhz": 150},
}
_OPERAND_KEYS = ("a", "b", "c")


@dataclass
class Request:
    payload: bytes
    op: Optional[str] = None  # None: a /v1/recommend request
    fmt: object = None
    mode: object = None
    operands: Tuple[int, ...] = ()

    def describe(self) -> str:
        if self.op is None:
            return "POST /v1/recommend"
        words = " ".join(f"{w:#x}" for w in self.operands)
        return f"{self.op}/{self.fmt.name}/{self.mode.value} ({words})"


@dataclass
class Reply:
    request: Request
    status: Optional[int]  # None: transport error or timeout
    body: bytes
    latency_s: float


def _post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def recommend_request() -> Request:
    return Request(_post("/v1/recommend", json.dumps(RECOMMEND_QUERY).encode()))


def op_request(op: str, fmt, mode, operands: Tuple[int, ...]) -> Request:
    words = ",".join(f'"{k}":"{w:#x}"' for k, w in zip(_OPERAND_KEYS, operands))
    body = f'{{{words},"format":"{fmt.name}","mode":"{mode.value}"}}'.encode()
    return Request(_post(f"/v1/op/{op}", body), op, fmt, mode, operands)


def lanes():
    from repro.fp.format import FP16, FP32, FP64
    from repro.fp.rounding import RoundingMode
    from repro.service.batcher import OP_ARITY

    return [
        (op, fmt, mode, OP_ARITY[op])
        for op in OP_ARITY
        for fmt in (FP16, FP32, FP64)
        for mode in RoundingMode
    ]


def make_requests(seed: int, count: int) -> List[Request]:
    """The seeded request mix: uniform over lanes, 1 in 16 recommend."""
    rng = random.Random(seed)
    table = lanes()
    out = []
    for _ in range(count):
        if rng.randrange(RECOMMEND_EVERY) == 0:
            out.append(recommend_request())
            continue
        op, fmt, mode, arity = table[rng.randrange(len(table))]
        operands = tuple(rng.randrange(fmt.word_mask + 1) for _ in range(arity))
        out.append(op_request(op, fmt, mode, operands))
    return out


def warmup_requests(seed: int) -> List[Request]:
    """Two requests per lane and one recommend: every lane worker and
    datapath is exercised before the timed window."""
    rng = random.Random(seed ^ 0x5EED)
    out = [recommend_request()]
    for op, fmt, mode, arity in lanes() * 2:
        operands = tuple(rng.randrange(fmt.word_mask + 1) for _ in range(arity))
        out.append(op_request(op, fmt, mode, operands))
    return out


# ---------------------------------------------------------------------- #
# HTTP client
# ---------------------------------------------------------------------- #
async def _read_reply(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head[:-4].split(b"\r\n")[1:]:
        if line[:15].lower() == b"content-length:":
            length = int(line[15:])
    body = await reader.readexactly(length) if length else b""
    return status, body


async def drive(port: int, requests: List[Request], deadline: float) -> List[Reply]:
    """Closed loop over ``CONNECTIONS`` keep-alive connections until
    ``deadline`` (or the requests run out); every reply is kept."""
    replies: List[Reply] = []
    pending = iter(requests)
    clock = time.perf_counter

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while clock() < deadline:
                request = next(pending, None)
                if request is None:
                    return
                t0 = clock()
                try:
                    writer.write(request.payload)
                    status, body = await asyncio.wait_for(
                        _read_reply(reader), REQUEST_TIMEOUT_S
                    )
                except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError):
                    replies.append(Reply(request, None, b"", clock() - t0))
                    return
                replies.append(Reply(request, status, body, clock() - t0))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return replies


def call(port: int, payload: bytes) -> Tuple[int, bytes, float]:
    """One blocking request on its own connection: (status, body, seconds)."""
    t0 = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(payload)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed the connection")
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed the connection mid-body")
            body += chunk
    return int(head.split(b" ", 2)[1]), body, time.perf_counter() - t0


def get(port: int, path: str) -> bytes:
    status, body, _ = call(
        port, f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
    )
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body


_PROM_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def scrape(port: int) -> Dict[str, float]:
    """``/metrics`` as ``{"name{labels}": value}``."""
    out = {}
    for line in get(port, "/metrics").decode().splitlines():
        match = _PROM_LINE.match(line)
        if match:
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out


# ---------------------------------------------------------------------- #
# server lifecycle
# ---------------------------------------------------------------------- #
def cpu_split() -> Tuple[Optional[set], Optional[set]]:
    """(server CPUs, client CPUs): one CPU each when two are available,
    so the server and the load never compete for one CPU and the OS
    cannot place them differently from run to run."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class Server:
    """``repro serve --port 0`` as a subprocess of this process."""

    def __init__(self) -> None:
        server_cpus, _ = cpu_split()
        self.log = open(os.path.join(common.WORK, "serve-light.stderr"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            preexec_fn=(
                (lambda: os.sched_setaffinity(0, server_cpus)) if server_cpus else None
            ),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=common.child_env(),
            cwd=common.ROOT,
        )
        try:
            line = common.read_line(self.proc, 60.0)
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"unexpected server banner {line!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> int:
        try:
            return common.stop(self.proc)
        finally:
            self.proc.stdout.close()
            self.log.close()


def start_server() -> Tuple[Server, float, float, bytes]:
    """A listening server after its cold ``/v1/recommend``:
    ``(server, setup seconds, cold recommend seconds, recommend body)``."""
    t0 = time.perf_counter()
    server = Server()
    try:
        status, body, cold_s = call(server.port, recommend_request().payload)
        if status != 200:
            raise RuntimeError(f"cold /v1/recommend answered {status}: {body[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, cold_s, body


# ---------------------------------------------------------------------- #
# timed windows
# ---------------------------------------------------------------------- #
class Window:
    """Timed traffic, possibly over several servers: the replies, wall
    and server CPU seconds, and the summed ``/metrics`` deltas."""

    def __init__(self) -> None:
        self.replies: List[Reply] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.deltas: Dict[str, float] = {}

    def extend(self, server: Server, requests: List[Request], seconds: float) -> None:
        """Drive ``server`` for ``seconds`` with the next unused requests."""
        before = scrape(server.port)
        cpu0 = common.proc_cpu_s(server.pid)
        t0 = time.perf_counter()
        replies = asyncio.run(drive(server.port, requests, t0 + seconds))
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += common.proc_cpu_s(server.pid) - cpu0
        for key, value in scrape(server.port).items():
            self.deltas[key] = self.deltas.get(key, 0.0) + value - before.get(key, 0.0)
        self.replies += replies
        del requests[: len(replies)]

    def ok(self) -> List[Reply]:
        return [r for r in self.replies if r.status is not None and 200 <= r.status < 300]

    def delta(self, key: str) -> float:
        return self.deltas.get(key, 0.0)


def end_to_end(w: Window, out: Outcome) -> None:
    done = len(w.ok())
    out.put("throughput_per_s", done / w.wall_s, "1/s", done)
    common.latency_metrics(out, [r.latency_s for r in w.replies])
    out.put("cpu_us_per_op", us(w.cpu_s) / max(done, 1), "us", done)


def check(replies: List[Reply], cold_body: bytes, out: Outcome, timings: Timings) -> None:
    """Every op reply equals the scalar datapath; every recommend equals
    the cold answer byte for byte; any non-2xx reply is a failure."""
    from repro.service.batcher import OPS

    clock = time.perf_counter
    for reply in replies:
        request = reply.request
        out.attempted += 1
        if reply.status is None:
            out.fail(f"transport error or timeout: {request.describe()}")
            continue
        if not 200 <= reply.status < 300:
            out.fail(f"HTTP {reply.status}: {request.describe()}")
            continue
        if request.op is None:
            if reply.body != cold_body:
                out.fail("warm /v1/recommend differs from the cold answer")
            continue
        doc = json.loads(reply.body)
        t0 = clock()
        want_bits, want_flags = OPS[request.op][0](
            request.fmt, *request.operands, request.mode
        )
        timings.add(request.op, clock() - t0)
        if int(doc["bits"], 16) != want_bits or doc["flags"] != want_flags.to_bits():
            out.fail(
                f"{request.describe()}: served {doc['bits']}/{doc['flags']}, "
                f"scalar {want_bits:#x}/{want_flags.to_bits()}"
            )


# ---------------------------------------------------------------------- #
# traced-run probes
# ---------------------------------------------------------------------- #
def probe_http(replies: List[Reply], out: Outcome) -> Tuple[float, float]:
    """Time ``read_request`` on the requests sent and ``build_response``
    on the bodies received: mean seconds of each."""
    from repro.service.http import build_response, read_request

    sample = replies[:4000]

    async def parse_all() -> List[float]:
        times = []
        for reply in sample:
            reader = asyncio.StreamReader()
            reader.feed_data(reply.request.payload)
            reader.feed_eof()
            t0 = time.perf_counter()
            await read_request(reader)
            times.append(time.perf_counter() - t0)
        return times

    parse = asyncio.run(parse_all())
    build = []
    for reply in sample:
        t0 = time.perf_counter()
        build_response(
            reply.status, reply.body, "application/json",
            (("X-Repro-Trace-Id", "00000000000000000000000000000000"),),
        )
        build.append(time.perf_counter() - t0)
    out.put("http.read_request_us", us(mean(parse)), "us", len(parse))
    out.put("http.build_response_us", us(mean(build)), "us", len(build))
    return mean(parse), mean(build)


def probe_vectorized(replies: List[Reply], batch: int, out: Outcome) -> None:
    """Replay the served ops through ``execute_batch`` in batches of the
    server's mean batch size (the per-call cost it paid)."""
    from repro.service.batcher import execute_batch

    by_lane: Dict[tuple, List[Tuple[int, ...]]] = {}
    for reply in replies:
        r = reply.request
        if r.op is not None:
            by_lane.setdefault((r.op, r.fmt, r.mode), []).append(r.operands)
    calls = []
    for (op, fmt, mode), operands in by_lane.items():
        for i in range(0, len(operands), batch):
            chunk = operands[i : i + batch]
            t0 = time.perf_counter()
            execute_batch(op, fmt, mode, chunk, spot_check=False)
            calls.append((op, fmt.name, len(chunk), time.perf_counter() - t0))
    common.vector_metrics(calls, out)


def layers(w: Window, inflight_max: int, http_s: Tuple[float, float], out: Outcome) -> None:
    admitted = len(w.replies)
    out.put("admission.shed", w.delta("repro_shed_total"), "count", admitted)
    out.put("admission.inflight_max", inflight_max, "count", admitted)

    def stage_mean(stage: str) -> Tuple[float, int]:
        key = f'{{stage="{stage}"}}'
        count = w.delta(f"repro_stage_latency_seconds_count{key}")
        total = w.delta(f"repro_stage_latency_seconds_sum{key}")
        return (total / count if count else 0.0), int(count)

    batches = w.delta("repro_batch_size_count")
    out.put(
        "batcher.batch_size_mean",
        w.delta("repro_batch_size_sum") / batches if batches else 0.0,
        "count",
        int(batches),
    )
    admission, _ = stage_mean("admission.wait")
    linger, n_linger = stage_mean("batch.linger")
    dispatch, n_dispatch = stage_mean("batch.dispatch")
    scatter, n_scatter = stage_mean("scatter")
    out.put("batcher.linger_ms_mean", ms(linger), "ms", n_linger)
    out.put("batcher.dispatch_us_mean", us(dispatch), "us", n_dispatch)
    out.put("batcher.scatter_us_mean", us(scatter), "us", n_scatter)

    jobs = {
        status: w.delta(f'repro_engine_jobs_total{{status="{status}"}}')
        for status in ("computed", "hit", "memo", "failed")
    }
    total_jobs = sum(jobs.values())
    out.put(
        "engine.hit_ratio",
        (jobs["hit"] + jobs["memo"]) / total_jobs if total_jobs else 0.0,
        "ratio",
        int(total_jobs),
    )
    recs = [r.latency_s for r in w.replies if r.request.op is None]
    out.put("explore.recommend_ms", ms(mean(recs)), "ms", len(recs))

    p50 = quantile([r.latency_s for r in w.replies], 0.5)
    explained = sum(http_s) + admission + linger + dispatch + scatter
    out.put("serve.residual_ratio", (p50 - explained) / p50, "ratio", len(w.replies))


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Untraced: ``SETUP_REPEATS`` rounds, each spawning two fresh
    servers (each spawn is one set-up sample and one cold recommend) and
    driving the second for an equal share of ``seconds``, so set-up and
    cold samples spread over the run.  Traced: one round, an untraced
    reference window, then the traced window."""
    out = Outcome()
    _, client_cpus = cpu_split()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    requests = make_requests(seed, POOL)
    rounds = 1 if trace else common.SETUP_REPEATS
    share = seconds / rounds
    setups, colds, hwms = [], [], []
    base, measured = Window(), Window()
    cold_body = None
    inflight_max = 0
    for r in range(rounds):
        # Each round's first server is only a set-up and cold sample; the
        # second also carries the round's traffic.
        for spawn in range(2):
            server, setup_s, cold_s, body = start_server()
            setups.append(setup_s)
            colds.append(cold_s)
            if cold_body is None:
                cold_body = body
            elif body != cold_body:
                out.fail("cold /v1/recommend answers differ between servers")
            if spawn == 0:
                code = server.stop()
                if code != 0:
                    out.fail(f"repro serve exited {code} after SIGTERM")
        try:
            # Untimed warm-up: every lane worker and datapath runs once.
            warm = asyncio.run(drive(server.port, warmup_requests(seed + r), float("inf")))
            check(warm, cold_body, out, Timings())
            if trace:
                base.extend(server, requests, 0.4 * share)
                measured.extend(server, requests, 0.6 * share)
            else:
                measured.extend(server, requests, share)
            hwms.append(common.proc_hwm_mib(server.pid))
            health = json.loads(get(server.port, "/healthz"))
            inflight_max = max(inflight_max, health["queue_depth_max"])
        finally:
            code = server.stop()
        if code != 0:
            out.fail(f"repro serve exited {code} after SIGTERM")

    timings = Timings()
    check(base.replies, cold_body, out, Timings())
    check(measured.replies, cold_body, out, timings)
    out.shed = int(base.delta("repro_shed_total") + measured.delta("repro_shed_total"))
    common.setup_metric(setups, out)
    out.put("cold_s", median(colds), "s", len(colds))
    end_to_end(measured, out)
    recs = [r.latency_s for r in measured.replies if r.request.op is None]
    out.put("warm_s", median(recs), "s", len(recs))
    out.put("rss_peak_mb", median(hwms), "MiB", len(hwms))
    if trace:
        http_s = probe_http(measured.replies, out)
        batches = measured.delta("repro_batch_size_count")
        batch = max(1, round(measured.delta("repro_batch_size_sum") / batches))
        probe_vectorized(measured.replies, batch, out)
        layers(measured, inflight_max, http_s, out)
        reference = Outcome()
        end_to_end(base, reference)
        common.overhead_metrics(out, reference)
        checks = [t for op_times in timings.samples.values() for t in op_times]
        out.put("batcher.spot_check_us", us(mean(checks)), "us", len(checks))
        for op, times in timings.samples.items():
            out.put(f"scalar.us_per_op.{op}", us(mean(times)), "us", len(times))
    return out
