"""Endpoint implementations and routing.

Request lifecycle: **accept → admit → batch → vectorized execute →
scatter** (see ``docs/ARCHITECTURE.md``).  The handlers split into two
tiers:

* **hot** — ``POST /v1/op/{add,sub,mul,div,sqrt,fma}``: parse, admit,
  hand to the micro-batcher, await the scattered ``(bits, flags)``,
  respond.  These are the requests the batching layer exists for.
  Operand keys follow the op's arity: ``a`` alone for the unary sqrt,
  ``a``/``b`` for the binary ops, ``a``/``b``/``c`` for fma.
* **slow** — ``GET /v1/unit``, ``GET /v1/kernel/matmul``,
  ``GET /v1/experiment/{name}``: unit characterisation sweeps, analytic
  kernel schedules and full experiment artifacts.  Sweeps and
  experiments evaluate on a dedicated thread through the server's
  :class:`repro.engine.Engine`, so repeat queries are in-process memo or
  disk-cache hits; results are serialized by one lock (the engine is
  single-threaded by design).

Plus the operational pair: ``GET /healthz`` (JSON liveness + version)
and ``GET /metrics`` (Prometheus text exposition).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import monotonic
from typing import AsyncIterator, Dict, Optional, Tuple

from repro.experiments import REGISTRY, experiment_job
from repro.explore import catalog as explore_catalog
from repro.explore.recommend import (
    QueryError,
    UnsatisfiableError,
    recommend as recommend_query,
    _resolve_formats,
    _resolve_kinds,
)
from repro.obs.trace import NULL_TRACE
from repro.service.admission import ADMIT_DRAINING, ADMIT_OK
from repro.fp.format import FORMATS_BY_NAME, FPFormat
from repro.fp.ops import OPERANDS
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import check_vectorized_format
from repro.kernels.batched import array_cycles, hazard_count
from repro.service.batcher import OP_ARITY, OPS
from repro.service.http import (
    ProtocolError,
    Request,
    build_response,
    error_body,
    json_body,
)
from repro.units.explorer import KINDS_BY_NAME, explore

#: (status, body, content-type, extra headers) — what a handler returns.
Reply = Tuple[int, bytes, str, Tuple[Tuple[str, str], ...]]


@dataclass
class StreamReply:
    """A chunked streaming response: the server writes one chunk per
    yielded bytes value and the terminating zero-length chunk after the
    iterator is exhausted.  Produced by ``/v1/explore``; the generator
    owns the request's admission slot and releases it in its
    ``finally``, which the server guarantees runs by always closing the
    iterator."""

    status: int
    content_type: str
    chunks: AsyncIterator[bytes]
    extra: Tuple[Tuple[str, str], ...] = field(default=())

_MODES = {m.value: m for m in RoundingMode}
_CUSTOM_FORMATS: Dict[Tuple[int, int], FPFormat] = {}


def resolve_format(spec: object) -> FPFormat:
    """A format from its request spelling: name or explicit geometry."""
    if isinstance(spec, str):
        fmt = FORMATS_BY_NAME.get(spec)
        if fmt is None:
            raise ProtocolError(
                400,
                f"unknown format {spec!r} (named formats: "
                f"{', '.join(FORMATS_BY_NAME)}; or pass "
                '{"exp_bits": E, "man_bits": M})',
            )
        return fmt
    if isinstance(spec, dict):
        try:
            key = (int(spec["exp_bits"]), int(spec["man_bits"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                400, "custom format needs integer exp_bits and man_bits"
            ) from exc
        fmt = _CUSTOM_FORMATS.get(key)
        if fmt is None:
            try:
                fmt = FPFormat(*key)
                check_vectorized_format(fmt)
            except ValueError as exc:
                raise ProtocolError(400, str(exc)) from exc
            _CUSTOM_FORMATS[key] = fmt
        return fmt
    raise ProtocolError(400, "format must be a name or a geometry object")


def resolve_mode(spec: object) -> RoundingMode:
    mode = _MODES.get(spec if isinstance(spec, str) else "")
    if mode is None:
        raise ProtocolError(
            400, f"unknown rounding mode {spec!r} (known: {', '.join(_MODES)})"
        )
    return mode


def parse_word(fmt: FPFormat, value: object, name: str) -> int:
    """An operand word from its request spelling: int or 0x-string."""
    if isinstance(value, bool):
        raise ProtocolError(400, f"operand {name!r} must be an integer word")
    if isinstance(value, int):
        word = value
    elif isinstance(value, str):
        try:
            word = int(value, 0)
        except ValueError as exc:
            raise ProtocolError(
                400, f"operand {name!r} is not a valid integer: {value!r}"
            ) from exc
    else:
        raise ProtocolError(400, f"operand {name!r} must be an integer word")
    if not 0 <= word <= fmt.word_mask:
        raise ProtocolError(
            400,
            f"operand {name!r} ({word:#x}) outside {fmt.name} "
            f"({fmt.width} bits)",
        )
    return word


def _json_reply(status: int, payload: dict, extra=()) -> Reply:
    return status, json_body(payload), "application/json", tuple(extra)


def _error_reply(status: int, message: str, extra=()) -> Reply:
    return status, error_body(status, message), "application/json", tuple(extra)


class Handlers:
    """Routing table bound to one server instance."""

    def __init__(self, service) -> None:
        self.service = service
        self._sweep_lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def handle(self, request: Request) -> Reply:
        path = request.path
        if path.startswith("/v1/op/"):
            if request.method != "POST":
                return _error_reply(405, "op endpoints are POST")
            return await self.handle_op(path[len("/v1/op/"):], request)
        if path == "/healthz":
            return self.handle_healthz(request)
        if path == "/metrics":
            return self.handle_metrics(request)
        if path == "/v1/batch-stats":
            if request.method != "GET":
                return _error_reply(405, "/v1/batch-stats is GET")
            return self.handle_batch_stats(request)
        if path.startswith("/v1/trace/"):
            if request.method != "GET":
                return _error_reply(405, "trace endpoints are GET")
            return self.handle_trace(path[len("/v1/trace/"):])
        if path == "/v1/debug/traces":
            if request.method != "GET":
                return _error_reply(405, "/v1/debug/traces is GET")
            return self.handle_debug_traces(request)
        if path == "/v1/unit":
            if request.method != "GET":
                return _error_reply(405, "/v1/unit is GET")
            return await self.handle_unit(request)
        if path == "/v1/explore":
            if request.method != "GET":
                return _error_reply(405, "/v1/explore is GET")
            return await self.handle_explore(request)
        if path == "/v1/recommend":
            if request.method != "POST":
                return _error_reply(405, "/v1/recommend is POST")
            return await self.handle_recommend(request)
        if path == "/v1/kernel/matmul":
            if request.method != "GET":
                return _error_reply(405, "/v1/kernel/matmul is GET")
            return self.handle_kernel_matmul(request)
        if path.startswith("/v1/experiment/"):
            if request.method != "GET":
                return _error_reply(405, "experiment endpoints are GET")
            return await self.handle_experiment(
                path[len("/v1/experiment/"):], request
            )
        return _error_reply(404, f"no route for {path}")

    # ------------------------------------------------------------------ #
    # hot path: FP ops
    # ------------------------------------------------------------------ #
    async def handle_op(self, op: str, request: Request) -> Reply:
        if op not in OPS:
            return _error_reply(
                404, f"unknown op {op!r} (known: {', '.join(OPS)})"
            )
        doc = request.json()
        fmt = resolve_format(doc.get("format", "fp32"))
        mode = resolve_mode(doc.get("mode", RoundingMode.NEAREST_EVEN.value))
        # Arity comes from the op table: sqrt is unary ('a' only), fma
        # ternary ('a','b','c').  Reject both missing *and* surplus
        # operands precisely — a unary op posted with 'b' is a caller
        # bug the error message should name, not a silent ignore.
        arity = OP_ARITY[op]
        keys = OPERANDS[:arity]
        wants = " and ".join(f"'{k}'" for k in keys)
        missing = [k for k in keys if k not in doc]
        if missing:
            raise ProtocolError(
                400,
                f"op {op!r} takes {arity} operand"
                f"{'s' if arity != 1 else ''} ({wants}); missing "
                + ", ".join(f"'{k}'" for k in missing),
            )
        surplus = [k for k in OPERANDS if k in doc and k not in keys]
        if surplus:
            raise ProtocolError(
                400,
                f"op {op!r} takes {arity} operand"
                f"{'s' if arity != 1 else ''} ({wants}); unexpected "
                + ", ".join(f"'{k}'" for k in surplus),
            )
        operands = tuple(parse_word(fmt, doc[k], k) for k in keys)
        return await self.service.dispatch_op(
            op, fmt, mode, *operands, trace=request.trace
        )

    # ------------------------------------------------------------------ #
    # operational endpoints
    # ------------------------------------------------------------------ #
    def handle_healthz(self, request: Request) -> Reply:
        service = self.service
        payload = {
            "status": "draining" if service.admission.draining else "ok",
            **service.telemetry.snapshot(),
        }
        return _json_reply(200, payload)

    def handle_metrics(self, request: Request) -> Reply:
        text = self.service.telemetry.render().encode()
        return 200, text, "text/plain; version=0.0.4", ()

    def handle_batch_stats(self, request: Request) -> Reply:
        """Per-lane batching view: one row per executed (op, format,
        mode) lane with its batch count."""
        telemetry = self.service.telemetry
        lanes = []
        for labels, batches in telemetry.batches_total.series():
            op, fmt_name, mode = labels
            lanes.append(
                {
                    "op": op,
                    "format": fmt_name,
                    "mode": mode,
                    "batches": batches,
                }
            )
        return _json_reply(
            200,
            {
                "lanes": lanes,
                "batches": telemetry.batches_total.total,
                "mean_batch_size": round(telemetry.batch_size.mean, 3),
            },
        )

    # ------------------------------------------------------------------ #
    # tracing endpoints
    # ------------------------------------------------------------------ #
    def handle_trace(self, trace_id: str) -> Reply:
        """One finished trace's span tree, by ID."""
        doc = self.service.tracer.get(trace_id)
        if doc is None:
            return _error_reply(
                404,
                f"unknown trace {trace_id!r} (never seen, sampled out, "
                "or evicted from the ring buffer)",
            )
        return _json_reply(200, doc)

    def handle_debug_traces(self, request: Request) -> Reply:
        """Tracer stats plus the N slowest buffered traces.

        ``?slowest=N`` bounds the list (default 10);
        ``?export=chrome`` returns those traces as a Chrome
        trace-event JSON object instead (load in ``chrome://tracing``
        or Perfetto).
        """
        from repro.obs.chrome import chrome_trace

        query = request.query
        try:
            n = int(query.get("slowest", "10"))
        except ValueError:
            return _error_reply(400, "slowest must be an integer")
        if n < 0:
            return _error_reply(400, "slowest must be >= 0")
        traces = self.service.tracer.slowest(n)
        if query.get("export") == "chrome":
            return _json_reply(
                200, chrome_trace(t.to_dict() for t in traces)
            )
        return _json_reply(
            200,
            {
                **self.service.tracer.stats(),
                "traces": [t.summary() for t in traces],
            },
        )

    # ------------------------------------------------------------------ #
    # slow path: characterisation and experiments
    # ------------------------------------------------------------------ #
    async def handle_unit(self, request: Request) -> Reply:
        query = request.query
        kind = KINDS_BY_NAME.get(query.get("kind", "adder"))
        if kind is None:
            return _error_reply(
                400, f"unknown unit kind (known: {', '.join(KINDS_BY_NAME)})"
            )
        try:
            fmt = resolve_format(query.get("format", "fp32"))
        except ProtocolError as exc:
            return _error_reply(exc.status, str(exc))
        space, _ = await self._run_sweep(
            lambda: explore(fmt, kind, engine=self.service.engine),
            request.trace,
        )
        points = [
            {
                "label": point.label,
                "stages": point.report.stages,
                "slices": point.report.slices,
                "luts": point.report.luts,
                "flipflops": point.report.flipflops,
                "mult18": point.report.mult18,
                "clock_mhz": round(point.report.clock_mhz, 2),
                "mhz_per_slice": round(point.report.freq_per_area, 4),
                "latency_ns": round(point.report.latency_ns, 2),
            }
            for point in space.table_rows()
        ]
        return _json_reply(
            200,
            {
                "kind": kind.value,
                "format": fmt.name,
                "peak_clock_mhz": round(space.peak_clock_mhz, 2),
                "points": points,
            },
        )

    def handle_kernel_matmul(self, request: Request) -> Reply:
        query = request.query

        def _int(name: str, default: int, floor: int) -> int:
            raw = query.get(name)
            if raw is None:
                return default
            try:
                value = int(raw, 0)
            except ValueError as exc:
                raise ProtocolError(400, f"{name} must be an integer") from exc
            if value < floor:
                raise ProtocolError(400, f"{name} must be >= {floor}")
            return value

        n = _int("n", 64, 1)
        mul_latency = _int("mul_latency", 3, 1)
        add_latency = _int("add_latency", 5, 1)
        padded = query.get("pad", "1") not in ("0", "false", "no")
        pl = mul_latency + add_latency
        spacing = max(n, pl) if padded else n
        cycles = array_cycles(n, pl, spacing)
        issued = n * n * n
        return _json_reply(
            200,
            {
                "n": n,
                "pipeline_latency": pl,
                "pad_schedule": padded,
                "hazard_spacing": spacing,
                "cycles": cycles,
                "issued_macs": issued,
                "hazards": hazard_count(n, pl, spacing),
                "pe_utilization": round(issued / (n * cycles), 6),
            },
        )

    async def handle_experiment(
        self, name: str, request: Optional[Request] = None
    ) -> Reply:
        if name not in REGISTRY:
            return _error_reply(
                404,
                f"unknown experiment {name!r} (known: {', '.join(REGISTRY)})",
            )
        engine = self.service.engine
        result, source = await self._run_sweep(
            lambda: engine.evaluate(experiment_job(name)),
            None if request is None else request.trace,
        )
        return _json_reply(
            200,
            {
                "name": name,
                "source": source,  # hit | memo | computed
                "rendered": str(result),
            },
        )

    # ------------------------------------------------------------------ #
    # exploration: streaming sweeps and constrained recommendation
    # ------------------------------------------------------------------ #
    async def handle_explore(self, request: Request):
        """``GET /v1/explore`` — chunked NDJSON stream of the unit grid.

        One ``{"type": "point", ...}`` line per implementation, written
        as each (kind, format) sweep lands on the engine (warm sweeps
        burst straight from cache; the ``source`` field says which), and
        one ``{"type": "frontier", ...}`` trailer naming the Pareto-
        optimal point IDs over the full metric table.
        """
        query = request.query
        try:
            kinds = _resolve_kinds(
                [k for k in query["kinds"].split(",") if k]
                if "kinds" in query else None
            )
            formats = _resolve_formats(
                [f for f in query["formats"].split(",") if f]
                if "formats" in query else None
            )
        except QueryError as exc:
            return _error_reply(400, str(exc))
        service = self.service
        trace = request.trace
        span_trace = trace if trace is not None else NULL_TRACE
        # The stream holds its admission slot for its whole lifetime:
        # admitted here (so shedding/draining answer with a proper
        # status before any body bytes), released by the generator.
        self._admit(trace)

        async def stream() -> AsyncIterator[bytes]:
            try:
                lines = explore_catalog.ExploreStream()
                for kind in kinds:
                    for fmt in formats:
                        t0 = monotonic()
                        space, source = await self._run_sweep_admitted(
                            lambda k=kind, f=fmt: explore(
                                f, k, engine=service.engine
                            ),
                            trace,
                        )
                        span_trace.add(
                            "explore.sweep",
                            t0,
                            monotonic(),
                            tags={
                                "kind": kind.value,
                                "format": fmt.name,
                                "source": source,
                            },
                        )
                        for line in lines.points(kind, fmt, space, source):
                            yield line
                        service.telemetry.explore_points_total.inc(
                            n=len(space.reports)
                        )
                t0 = monotonic()
                front, trailer = lines.trailer()
                span_trace.add(
                    "frontier.compute",
                    t0,
                    monotonic(),
                    tags={
                        "designs": len(lines.records),
                        "frontier": len(front.frontier),
                    },
                )
                yield trailer
            finally:
                service.admission.release()

        return StreamReply(200, "application/x-ndjson", stream())

    async def handle_recommend(self, request: Request) -> Reply:
        """``POST /v1/recommend`` — the constrained optimum, as JSON.

        The body is a query object (space, objective, constraints,
        grid axes); the answer is byte-identical to ``repro recommend``
        and a direct :func:`repro.explore.recommend` call.  Malformed
        and unsatisfiable queries get 400s naming the offending bound.
        """
        doc = request.json()
        trace = request.trace
        span_trace = trace if trace is not None else NULL_TRACE
        engine = self.service.engine
        try:
            payload, source = await self._run_sweep(
                lambda: recommend_query(
                    doc, engine=engine, trace=span_trace
                ),
                trace,
            )
        except (QueryError, UnsatisfiableError) as exc:
            raise ProtocolError(400, str(exc)) from exc
        return (
            200,
            explore_catalog.payload_bytes(payload),
            "application/json",
            (("X-Repro-Source", source),),
        )

    async def _run_sweep(self, fn, trace=None):
        """Evaluate a sweep on the slow-path thread, engine-serialized.

        Sweeps occupy an admission slot like any other request — a
        drain waits for them, and a full queue sheds them — but are
        serialized on their own thread so they can never starve op
        batches.  Returns ``(result, source)``: ``source`` is how the
        engine resolved the evaluation's last job (hit | memo |
        computed), which the sweep pool's single thread makes exact.
        ``trace`` propagates to the engine, whose ``cache.lookup`` /
        ``execute`` spans land in the request's trace.
        """
        self._admit(trace)
        try:
            return await self._run_sweep_admitted(fn, trace)
        finally:
            self.service.admission.release()

    def _admit(self, trace) -> None:
        """Claim an admission slot, or raise the 503/429 saying why not."""
        verdict = self.service.admission.admit(trace)
        if verdict is ADMIT_DRAINING:
            raise ProtocolError(503, "server is draining")
        if verdict is not ADMIT_OK:
            raise ProtocolError(429, self.service.admission.full_detail)

    async def _run_sweep_admitted(self, fn, trace=None):
        """Evaluate ``fn`` on the sweep thread for a request holding a slot.

        Past ``sweep_timeout_s`` (or if the request is cancelled) the
        request gives up, and a job still queued on the sweep thread is
        dropped.  A job already running cannot be stopped: it takes a
        slot of its own until it finishes, so ``/healthz`` ``in_flight``
        and a drain still count the work that occupies the thread.
        """
        service = self.service
        async with self._sweep_lock:
            # The sweep lock also serializes the engine's active trace:
            # exactly one sweep evaluates at a time, so binding the
            # trace for the duration of this evaluation is race-free.
            def evaluate():
                with service.engine.tracing(trace):
                    return fn()

            loop = asyncio.get_running_loop()
            job = service.sweep_pool.submit(evaluate)
            try:
                result = await asyncio.wait_for(
                    asyncio.wrap_future(job), service.config.sweep_timeout_s
                )
            except BaseException:
                if not job.cancel() and not job.done():
                    service.admission.hold()

                    def release(_):
                        if not loop.is_closed():
                            loop.call_soon_threadsafe(service.admission.release)

                    job.add_done_callback(release)
                raise
            return result, service.engine.metrics.last_status
