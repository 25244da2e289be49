"""The asyncio HTTP server: wiring, lifecycle, graceful drain.

:class:`ReproService` owns every serving component — admission
controller, micro-batcher, telemetry, the characterisation engine and
its worker threads — and exposes the request lifecycle as
:meth:`ReproService.dispatch_op` (admit → batch → vectorized execute →
scatter), which both the HTTP connection handler and the in-process
service benchmark drive.

Lifecycle: ``repro serve`` runs :func:`serve`, which installs
SIGTERM/SIGINT handlers and, on signal, performs a graceful drain:
stop accepting, answer new requests on live connections with ``503``,
wait up to ``drain_timeout_s`` for everything admitted to finish, then
exit 0.  The CI smoke job asserts exactly this contract.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import monotonic
from typing import Optional, Set

from repro import __version__
from repro.engine import Engine, ResultCache
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode
from repro.obs.trace import Tracer
from repro.service.admission import (
    ADMIT_DRAINING,
    ADMIT_OK,
    AdmissionController,
)
from repro.service.batcher import BatchIntegrityError, MicroBatcher
from repro.service.config import ServiceConfig
from repro.service.handlers import Handlers, Reply, StreamReply, _error_reply
from repro.service.http import (
    LAST_CHUNK,
    REASONS,
    ProtocolError,
    build_response,
    build_stream_head,
    encode_chunk,
    json_body,
    read_request,
)
from repro.service.telemetry import Telemetry

#: The last NDJSON line of a stream cut short by a sweep deadline: the
#: body a non-streamed 504 carries, tagged ``"type": "error"``.
STREAM_TIMEOUT_LINE = json_body({
    "type": "error",
    "error": REASONS[504],
    "detail": "request deadline exceeded",
}) + b"\n"


def route_label(path: str) -> str:
    """Low-cardinality route family for the request counter."""
    if path.startswith("/v1/op/"):
        return path  # op names are a closed set
    if path.startswith("/v1/experiment/"):
        return "/v1/experiment/*"
    if path.startswith("/v1/trace/"):
        return "/v1/trace/*"  # trace IDs are unbounded
    return path


class ReproService:
    """One configured server instance (not yet listening)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        cache = ResultCache(config.cache_dir) if config.cache_dir else None
        self.engine = Engine(cache=cache)
        self.telemetry = Telemetry(version=__version__, engine=self.engine.metrics)
        self.admission = AdmissionController(config.queue_depth, self.telemetry)
        #: Single-threaded pool for batch execution: vectorized calls
        #: run off the event loop so accept/parse continues during a
        #: 300µs+ wide-format batch.
        self.compute_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-batch"
        )
        #: Separate single thread for multi-second characterisation
        #: sweeps, so they can never starve op batches.
        self.sweep_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-sweep"
        )
        self.batcher = MicroBatcher(
            config, self.telemetry, self.compute_pool, self.admission
        )
        # Stage latencies fold into telemetry at the point each stage
        # is recorded (admission folds its wait, the batcher folds
        # linger per member and dispatch/scatter as one weighted
        # observation per flush) — there is no trace-finish pass over
        # the span list, which keeps tracing overhead flat.
        self.tracer = Tracer(
            sample=config.trace_sample,
            capacity=config.trace_buffer,
            log_stream=sys.stderr if config.log_json else None,
        )
        self.handlers = Handlers(self)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._stopping = False

    # ------------------------------------------------------------------ #
    # the request lifecycle (also driven directly by the benchmark)
    # ------------------------------------------------------------------ #
    async def dispatch_op(
        self,
        op: str,
        fmt: FPFormat,
        mode: RoundingMode,
        *operands: int,
        trace=None,
    ) -> Reply:
        """admit → batch → vectorized execute → scatter → reply.

        ``trace`` is the request's span sink; callers without one (the
        in-process benchmark) get a tracer-owned trace so the bench
        path measures exactly what serving measures.
        """
        own_trace = trace is None
        if own_trace:
            trace = self.tracer.start(route=f"/v1/op/{op}")
        t0 = monotonic()
        # record=False: for admitted requests the batcher synthesizes
        # the admission.wait span at flush time; rejections still
        # record theirs here (their trace must say why).
        verdict = self.admission.admit(trace, record=False)
        if verdict is not ADMIT_OK:
            if verdict is ADMIT_DRAINING:
                reply = _error_reply(503, "server is draining")
            else:
                reply = _error_reply(
                    429,
                    self.admission.full_detail,
                    (("Retry-After", str(self.admission.retry_after_s)),),
                )
            if own_trace:
                self.tracer.finish(trace, status=reply[0])
            return reply
        try:
            bits, flags = await asyncio.wait_for(
                self.batcher.submit(op, fmt, mode, *operands, trace=trace),
                self.config.request_timeout_s,
            )
            body = b'{"bits":"0x%x","flags":%d}' % (bits, flags)
            reply = (200, body, "application/json", ())
        except asyncio.TimeoutError:
            self.telemetry.timeout_total.inc()
            reply = _error_reply(
                504,
                f"request missed its {self.config.request_timeout_s}s deadline",
            )
        except BatchIntegrityError as exc:
            reply = _error_reply(500, f"batch integrity check failed: {exc}")
        except Exception as exc:  # noqa: BLE001 - the batch raised
            reply = _error_reply(500, f"internal error: {exc}")
        finally:
            self.admission.release()
        self.telemetry.request_latency_s.observe(
            monotonic() - t0, trace_id=trace.trace_id
        )
        if own_trace:
            self.tracer.finish(trace, status=reply[0])
        return reply

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        build_response(
                            exc.status,
                            b'{"error":"protocol"}',
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                route = route_label(request.path)
                trace = self.tracer.start(
                    request.headers.get("x-repro-trace-id"), route=route
                )
                request.trace = trace
                reply = await self._safe_handle(request)
                if isinstance(reply, StreamReply):
                    done = await self._write_stream(
                        reply, request, route, trace, writer
                    )
                    if not done:
                        break
                    continue
                status, body, content_type, extra = reply
                keep_alive = request.keep_alive and not self._stopping
                writer.write(
                    build_response(
                        status,
                        body,
                        content_type,
                        # The trace ID is echoed on every response —
                        # sampled or not — so callers can always
                        # correlate, and sampled ones can fetch the
                        # span tree from /v1/trace/{id}.
                        extra + (("X-Repro-Trace-Id", trace.trace_id),),
                        keep_alive=keep_alive,
                    )
                )
                await writer.drain()
                self.tracer.finish(trace, status=status)
                self.telemetry.requests_total.inc((route, str(status)))
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown cancelled us mid-read; fall through to close
        finally:
            writer.close()

    async def _write_stream(
        self, reply: StreamReply, request, route: str, trace, writer
    ) -> bool:
        """Write one chunked streaming response; True to keep the
        connection alive for the next request.

        Each yielded NDJSON line becomes its own chunk with an explicit
        drain, so a slow client exerts backpressure on the producer
        instead of ballooning the write buffer, and a disconnect
        surfaces here as a connection error.  The generator is always
        closed — its ``finally`` blocks (admission release) run whether
        the stream completed, the client hung up mid-body, or shutdown
        cancelled us.
        """
        keep_alive = request.keep_alive and not self._stopping
        writer.write(
            build_stream_head(
                reply.status,
                reply.content_type,
                reply.extra + (("X-Repro-Trace-Id", trace.trace_id),),
                keep_alive=keep_alive,
            )
        )
        completed = False
        status = reply.status
        try:
            try:
                async for chunk in reply.chunks:
                    writer.write(encode_chunk(chunk))
                    await writer.drain()
            except asyncio.TimeoutError:
                # The head already said 200, so a sweep past its deadline
                # is reported in-band: one error line, then a proper end.
                status = 504
                self.telemetry.timeout_total.inc()
                writer.write(encode_chunk(STREAM_TIMEOUT_LINE))
            writer.write(LAST_CHUNK)
            await writer.drain()
            completed = True
        finally:
            await reply.chunks.aclose()
            self.tracer.finish(trace, status=status)
            self.telemetry.requests_total.inc((route, str(status)))
        return completed and keep_alive

    async def _safe_handle(self, request) -> Reply:
        try:
            return await self.handlers.handle(request)
        except ProtocolError as exc:
            extra = (
                (("Retry-After", str(self.admission.retry_after_s)),)
                if exc.status == 429
                else ()
            )
            return _error_reply(exc.status, str(exc), extra)
        except asyncio.TimeoutError:
            self.telemetry.timeout_total.inc()
            return _error_reply(504, "request deadline exceeded")
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return _error_reply(500, f"internal error: {exc}")

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    async def shutdown(self) -> bool:
        """Graceful drain; returns True when no work was abandoned."""
        self._stopping = True
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await self.admission.wait_drained(self.config.drain_timeout_s)
        # Connections finish writing their final responses and close
        # (keep-alive is withdrawn once stopping); give them a beat, then
        # cancel idle ones blocked in read.
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=0.5)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.batcher.close()
        self.compute_pool.shutdown(wait=False)
        self.sweep_pool.shutdown(wait=False)
        return drained


async def _serve_async(config: ServiceConfig) -> int:
    service = ReproService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    # Parsed by the CI smoke job and the benchmarks: keep the format.
    print(
        f"repro-serve {__version__} listening on "
        f"http://{config.host}:{service.port}",
        flush=True,
    )
    await stop.wait()
    print("repro-serve: draining", file=sys.stderr, flush=True)
    drained = await service.shutdown()
    if not drained:
        print(
            "repro-serve: drain timeout; abandoned in-flight work",
            file=sys.stderr,
            flush=True,
        )
        return 1
    return 0


def serve(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    return asyncio.run(_serve_async(config))


class ServiceThread:
    """A server running on a background thread (tests and benchmarks).

    Starts the service on its own event loop, exposes the bound port,
    and performs the same graceful shutdown as the signal path on
    :meth:`stop`.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: Optional[ReproService] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start in 30s")
        if self._error is not None:
            raise RuntimeError("service thread failed") from self._error
        return self

    async def _main(self) -> None:
        self.service = ReproService(self.config)
        try:
            await self.service.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.port = self.service.port
        self._ready.set()
        await self._stop.wait()
        await self.service.shutdown()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
