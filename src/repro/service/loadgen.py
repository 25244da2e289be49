"""Closed-loop concurrent load generator (``repro loadgen``).

``concurrency`` workers each hold one keep-alive connection and issue
requests back-to-back — a *closed loop*: a worker's next request departs
only when its previous response lands, so offered load adapts to what
the server sustains and the achieved rate **is** the throughput
measurement.  Operands are drawn from a seeded RNG per worker, so runs
are reproducible.

Status codes are tallied rather than treated as failures: a ``429``
from admission control is the server working as designed (the burst
tests drive the queue past capacity on purpose).  Transport errors
count separately as ``errors``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fp.format import FP32, FPFormat
from repro.fp.ops import OPERANDS
from repro.fp.rounding import RoundingMode
from repro.service.batcher import OP_ARITY


@dataclass
class LoadReport:
    """What one load run achieved."""

    requests: int
    duration_s: float
    concurrency: int
    op: str
    format: str
    mode: str
    statuses: Dict[int, int] = field(default_factory=dict)
    errors: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    #: Requests that sent an explicit X-Repro-Trace-Id and saw the
    #: server echo exactly that ID back (0 when trace_ids is off).
    trace_echoed: int = 0
    trace_ids: bool = False

    @property
    def achieved_rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def ok(self) -> int:
        return sum(n for code, n in self.statuses.items() if 200 <= code < 300)

    @property
    def shed(self) -> int:
        return self.statuses.get(429, 0)

    def to_json(self) -> dict:
        return {
            "schema": "repro-loadgen/1",
            "requests": self.requests,
            "duration_s": round(self.duration_s, 4),
            "achieved_rps": round(self.achieved_rps, 1),
            "concurrency": self.concurrency,
            "op": self.op,
            "format": self.format,
            "mode": self.mode,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "errors": self.errors,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "trace_ids": self.trace_ids,
            "trace_echoed": self.trace_echoed,
        }

    def render(self) -> str:
        statuses = " ".join(
            f"{code}:{n}" for code, n in sorted(self.statuses.items())
        )
        text = (
            f"loadgen: {self.requests} requests in {self.duration_s:.2f}s "
            f"({self.achieved_rps:.0f} req/s, {self.concurrency}-way "
            f"{self.op}/{self.format}/{self.mode})\n"
            f"  statuses: {statuses or '-'} | errors: {self.errors}\n"
            f"  latency: p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms"
        )
        if self.trace_ids:
            text += f"\n  trace ids echoed: {self.trace_echoed}/{self.requests}"
        return text


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Optional[bytes]]:
    """Read one response; returns ``(status, echoed trace ID or None)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    trace_id = None
    for line in head[:-4].split(b"\r\n")[1:]:
        lowered = line[:17].lower()
        if lowered[:15] == b"content-length:":
            length = int(line[15:])
        elif lowered == b"x-repro-trace-id:":
            trace_id = line[17:].strip()
    if length:
        await reader.readexactly(length)
    return status, trace_id


def _request_bytes(
    op: str,
    fmt: FPFormat,
    mode: str,
    *operands: int,
    trace_id: Optional[str] = None,
) -> bytes:
    words = ",".join(
        f'"{key}":"{word:#x}"'
        for key, word in zip(OPERANDS, operands)
    )
    body = (
        f'{{{words},"format":"{fmt.name}","mode":"{mode}"}}'
    ).encode()
    trace_header = (
        f"X-Repro-Trace-Id: {trace_id}\r\n" if trace_id is not None else ""
    )
    return (
        f"POST /v1/op/{op} HTTP/1.1\r\nHost: loadgen\r\n"
        f"Content-Type: application/json\r\n{trace_header}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def run_load(
    host: str,
    port: int,
    *,
    concurrency: int = 16,
    requests: int = 1000,
    op: str = "mul",
    fmt: FPFormat = FP32,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    seed: int = 0,
    timeout_s: float = 120.0,
    trace_ids: bool = False,
) -> LoadReport:
    """Drive the server and measure achieved throughput and latency.

    With ``trace_ids`` each request carries an explicit (seeded,
    unique) ``X-Repro-Trace-Id`` header and the report counts how many
    responses echoed it back verbatim — the propagation contract the
    CI smoke asserts end to end.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    statuses: Dict[int, int] = {}
    latencies: List[float] = []
    errors = 0
    trace_echoed = 0
    per_worker = [
        requests // concurrency + (1 if i < requests % concurrency else 0)
        for i in range(concurrency)
    ]

    arity = OP_ARITY.get(op, 2)

    async def worker(index: int, quota: int) -> None:
        nonlocal errors, trace_echoed
        rng = random.Random((seed << 8) ^ index)
        word_max = fmt.word_mask
        reader = writer = None
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for seq in range(quota):
                sent_id = (
                    f"lg{seed:x}.{index:x}.{seq:x}" if trace_ids else None
                )
                payload = _request_bytes(
                    op,
                    fmt,
                    mode.value,
                    *(rng.randrange(word_max + 1) for _ in range(arity)),
                    trace_id=sent_id,
                )
                t0 = time.perf_counter()
                writer.write(payload)
                await writer.drain()
                status, echoed = await _read_response(reader)
                latencies.append(time.perf_counter() - t0)
                statuses[status] = statuses.get(status, 0) + 1
                if sent_id is not None and echoed == sent_id.encode():
                    trace_echoed += 1
        except (OSError, asyncio.IncompleteReadError, ValueError):
            errors += 1
        finally:
            if writer is not None:
                writer.close()

    t0 = time.perf_counter()
    await asyncio.wait_for(
        asyncio.gather(
            *(worker(i, quota) for i, quota in enumerate(per_worker))
        ),
        timeout_s,
    )
    duration = time.perf_counter() - t0

    report = LoadReport(
        requests=sum(statuses.values()),
        duration_s=duration,
        concurrency=concurrency,
        op=op,
        format=fmt.name,
        mode=mode.value,
        statuses=statuses,
        errors=errors,
        trace_echoed=trace_echoed,
        trace_ids=trace_ids,
    )
    if latencies:
        ordered = sorted(latencies)
        report.p50_ms = ordered[len(ordered) // 2] * 1e3
        report.p99_ms = ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)] * 1e3
    return report


def run_load_blocking(host: str, port: int, **kwargs) -> LoadReport:
    """Synchronous wrapper: run the load on a private event loop."""
    return asyncio.run(run_load(host, port, **kwargs))


def write_report(report: LoadReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
