"""Micro-batching: coalesce concurrent scalar op requests into one call.

Concurrent requests for the *same* (op, format, rounding mode) lane are
queued and flushed together.  A flushed batch runs through
:func:`repro.fp.ops.execute`, which picks the datapath by batch size: a
``vec_*`` call costs 100µs-1.7ms of fixed NumPy dispatch whether it
runs 1 element or 64, so below the committed (op, format) crossover the
batch runs element by element on the scalar datapath, and at or above
it as one vectorized call.  The flush policy:

* a batch flushes as soon as ``max_batch`` requests are waiting;
* a non-full batch lingers for stragglers only while another admitted
  request could still join it: once every admitted request is already
  queued in some lane, it flushes at once;
* ``linger_ms`` caps the wait, so a lone request never waits longer
  (a batcher built without an admission controller cannot tell who
  could join, and always lingers to the cap);
* a burst larger than ``max_batch`` splits into consecutive full
  batches (the lane worker just keeps draining);
* requests for different formats or rounding modes **never** share a
  batch — lanes are keyed by the exact datapath configuration.

Each request gets its own result element and its own element of the
flag sideband, so responses are bit- and flag-identical to scalar
:func:`~repro.fp.adder.fp_add` / :func:`~repro.fp.multiplier.fp_mul`
calls on the same operands — one neighbour's overflow cannot leak into
another's flags.  As an integrity guard, every vectorized batch
optionally replays one sampled element through the scalar datapath and
fails the whole batch on any mismatch (cost amortized across the
batch, like the bit cross-checks in ``repro.bench``); a batch that ran
on the scalar datapath is its own reference and skips the check.

Batch execution runs on a dedicated single worker thread
(``run_in_executor``) so a 300µs+ wide-format batch never blocks the
event loop's accept/parse work.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.fp.format import FPFormat
from repro.fp.ops import OP_ARITY, OP_TABLE, execute, runs_scalar
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import lane_dtype
from repro.obs.trace import NULL_TRACE, Span
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.telemetry import Telemetry

#: Servable op name -> (scalar reference, vectorized implementation,
#: operand count), from :data:`repro.fp.ops.OP_TABLE`.  Batches read it
#: at call time; the arity travels with the row so every layer —
#: handler validation, submit, batch execution — agrees on how many
#: operand columns a lane carries (:data:`OP_ARITY` is the same count).
OPS = {
    name: (op.scalar, op.vectorized, op.arity)
    for name, op in OP_TABLE.items()
}

#: Lane identity: exact datapath configuration.  Formats hash by
#: geometry (``name`` is compare=False), so only bit-identical datapaths
#: can ever share a batch.
LaneKey = Tuple[str, FPFormat, RoundingMode]

#: Shared tag dict for flush-synthesized ``admission.wait`` spans (the
#: admitted hot path defers its span to the flush — one constant dict
#: for every member instead of one allocation per request).  Treated as
#: immutable by every reader.
_OK_ADMIT_TAGS = {"verdict": "ok"}


class BatchIntegrityError(Exception):
    """A batch's sampled element disagreed with the scalar datapath."""


def packed_call(op: str, fmt: FPFormat, *args, **kwargs):
    # Never called here: perfbench/serve_burst.py patches this name in
    # its traced runs; drop it once that script stops reading it.
    return OPS[op][1](fmt, *args, **kwargs)


def execute_batch(
    op: str,
    fmt: FPFormat,
    mode: RoundingMode,
    requests: List[Tuple[int, ...]],
    spot_check: bool = True,
) -> List[Tuple[int, int]]:
    """Run one homogeneous batch through :func:`repro.fp.ops.execute`.

    ``requests`` is one operand tuple per request (arity words each).
    Returns one ``(bits, flags)`` pair per request, in request order.
    Runs on the executor thread; everything it touches is local.
    """
    scalar_fn, vec_fn, _ = OPS[op]
    n = len(requests)
    bits, flags = execute(
        op, fmt, mode, *zip(*requests), scalar=scalar_fn, vectorized=vec_fn
    )
    if spot_check and not runs_scalar(op, fmt, n):
        # One sampled element per batch, replayed through the scalar
        # datapath: a cheap, always-on differential probe whose cost the
        # batch amortizes.  Rotate the sample with the batch size so
        # repeated identical batches don't pin one index forever.
        i = n // 2
        want_bits, want_flags = scalar_fn(fmt, *requests[i], mode)
        if int(bits[i]) != want_bits or int(flags[i]) != want_flags.to_bits():
            operands = " ".join(f"{w:#x}" for w in requests[i])
            raise BatchIntegrityError(
                f"{op}/{fmt.name}/{mode.value}: batch element {i} "
                f"({operands}) got "
                f"{int(bits[i]):#x}/{int(flags[i]):#04x}, scalar says "
                f"{want_bits:#x}/{want_flags.to_bits():#04x}"
            )
    return list(zip(bits.tolist(), flags.tolist()))


#: One queued request: operand words, result future, trace, and the
#: monotonic enqueue timestamp the flush turns into a ``batch.linger``
#: span (a raw float in the tuple instead of an open Span keeps the
#: per-request submit path allocation-free).
_QueueItem = Tuple[Tuple[int, ...], asyncio.Future, object, float]

#: Put on a lingering lane's queue to wake it once no admitted request
#: could still join: the lane re-checks and flushes.  Lane workers skip
#: it wherever they take items.
_WAKE = None


@dataclass
class _Lane:
    queue: "asyncio.Queue[_QueueItem]"
    worker: asyncio.Task = field(repr=False, default=None)  # type: ignore[assignment]


class MicroBatcher:
    """Per-lane queues plus one coalescing worker task per lane.

    With an ``admission`` controller, a lane lingers only while some
    admitted request is not yet queued in any lane (it could still
    join); the batcher registers itself as the controller's release
    listener, so a release that leaves nobody outside the lanes flushes
    the lingering ones.
    """

    def __init__(
        self,
        config: ServiceConfig,
        telemetry: Optional[Telemetry] = None,
        executor: Optional[Executor] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.executor = executor
        self.admission = admission
        self._lanes: Dict[LaneKey, _Lane] = {}
        self._closed = False
        #: Requests queued in a lane or in a batch still lingering.
        self._queued = 0
        #: Queues of the lanes waiting out a linger right now.
        self._lingering: Set[asyncio.Queue] = set()
        if admission is not None:
            admission.on_release = self._wake
        # Stage latency folds in at the flush, not at trace finish.
        # Lingers differ per member so each sampled member observes its
        # own; admission waits on the admitted path are structurally
        # zero (shed-don't-queue) and dispatch/scatter spans are shared
        # across a flush's members, so those three land as ONE weighted
        # observation per flush (weight = sampled members).
        if telemetry is not None:
            stage = telemetry.stage_latency_s
            self._stage_wait = stage.child(("admission.wait",))
            self._stage_linger = stage.child(("batch.linger",))
            self._stage_dispatch = stage.child(("batch.dispatch",))
            self._stage_scatter = stage.child(("scatter",))
        else:
            self._stage_wait = self._stage_linger = None
            self._stage_dispatch = self._stage_scatter = None

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        op: str,
        fmt: FPFormat,
        mode: RoundingMode,
        *operands: int,
        trace=None,
    ) -> Tuple[int, int]:
        """Queue one request; resolves to its ``(bits, flags)``.

        ``operands`` must match the op's arity exactly — one word for
        sqrt, two for the binary ops, three for fma.  Admission control
        (and the per-request deadline) live with the caller; the batcher
        itself never rejects for load.  ``trace`` (a
        :class:`repro.obs.trace.Trace`) receives the request's
        ``admission.wait`` / ``batch.linger`` / ``batch.dispatch`` /
        ``scatter`` spans, all recorded at flush time.
        """
        if op not in OPS:
            raise KeyError(f"unknown op {op!r}; known: {', '.join(OPS)}")
        arity = OP_ARITY[op]
        if len(operands) != arity:
            raise ValueError(
                f"op {op!r} takes exactly {arity} operand"
                f"{'s' if arity != 1 else ''}, got {len(operands)}"
            )
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        lane = self._lanes.get((op, fmt, mode))
        if lane is None:
            lane = _Lane(queue=asyncio.Queue())
            lane.worker = loop.create_task(
                self._run_lane((op, fmt, mode), lane.queue)
            )
            self._lanes[(op, fmt, mode)] = lane
        future: asyncio.Future = loop.create_future()
        if trace is None:
            trace = NULL_TRACE
        lane.queue.put_nowait((operands, future, trace, time.perf_counter()))
        self._queued += 1
        self._wake()
        return await future

    def _could_join(self) -> bool:
        """True while some admitted request is queued in no lane yet."""
        return self.admission is None or self.admission.in_flight > self._queued

    def _wake(self) -> None:
        """Flush every lingering lane once no admitted request could join."""
        if self._lingering and not self._could_join():
            for queue in self._lingering:
                queue.put_nowait(_WAKE)
            self._lingering.clear()

    # ------------------------------------------------------------------ #
    # lane worker
    # ------------------------------------------------------------------ #
    async def _run_lane(self, key: LaneKey, queue: asyncio.Queue) -> None:
        op, fmt, mode = key
        max_batch = self.config.max_batch
        linger_s = self.config.linger_s
        loop = asyncio.get_running_loop()
        while True:
            first = await queue.get()
            if first is _WAKE:
                continue  # its linger already ended
            batch = [first]
            # Drain whatever is already waiting — no timers involved.
            _drain(queue, batch, max_batch)
            # Linger for stragglers that could still come, re-draining
            # after each arrival.
            if len(batch) < max_batch and linger_s > 0:
                deadline = loop.time() + linger_s
                while len(batch) < max_batch and self._could_join():
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    self._lingering.add(queue)
                    try:
                        item = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                    finally:
                        self._lingering.discard(queue)
                    if item is not _WAKE:
                        batch.append(item)
                    _drain(queue, batch, max_batch)
            self._queued -= len(batch)
            await self._flush(op, fmt, mode, batch)

    async def _flush(
        self,
        op: str,
        fmt: FPFormat,
        mode: RoundingMode,
        batch: List[_QueueItem],
    ) -> None:
        requests = [operands for operands, _, _, _ in batch]
        scalar = runs_scalar(op, fmt, len(batch))
        if self.telemetry is not None:
            self.telemetry.batch_size.observe(len(batch))
            self.telemetry.batches_total.inc((op, fmt.name, mode.value))
            if self.config.spot_check and not scalar:
                self.telemetry.spot_checks_total.inc()
        # Per-member span work happens once, after execution: each
        # sampled member's admission.wait (structurally zero — the
        # admitted path defers it here) and batch.linger spans are
        # synthesized from its enqueue timestamp as bare tuples, and
        # appended together with the shared batch-wide spans in ONE
        # Trace.extend call.  Unsampled members pay one attribute check.
        t_dispatch = time.perf_counter()
        sampled = sum(1 for _, _, trace, _ in batch if trace.sampled)
        # The dispatch span is batch-wide: when any member is sampled,
        # ONE Span object is shared across every sampled member trace.
        dispatch_span = None
        if sampled:
            dispatch_span = Span(
                "batch.dispatch",
                t_dispatch,
                tags={
                    "lane": f"{op}/{fmt.name}/{mode.value}",
                    "batch_size": len(batch),
                    "dtype": lane_dtype(op, fmt),
                    "path": "scalar" if scalar else "vector",
                },
            )
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self.executor,
                execute_batch,
                op,
                fmt,
                mode,
                requests,
                self.config.spot_check,
            )
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            if dispatch_span is not None:
                dispatch_span.finish(tags={"error": type(exc).__name__})
            linger_h = self._stage_linger
            for _, future, trace, t_enq in batch:
                if trace.sampled:
                    trace.extend((
                        ("admission.wait", t_enq, t_enq, -1, _OK_ADMIT_TAGS),
                        ("batch.linger", t_enq, t_dispatch, -1, None),
                        dispatch_span,
                    ))
                    if linger_h is not None:
                        linger_h.observe(t_dispatch - t_enq)
                if not future.done():
                    future.set_exception(exc)
            if sampled and self._stage_wait is not None:
                self._stage_wait.observe_n(0.0, sampled)
                self._stage_dispatch.observe_n(
                    dispatch_span.duration_s, sampled
                )
            return
        if dispatch_span is None:
            # Fully unsampled batch: pure scatter, no tracing work.
            for (_, future, _, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
            return
        dispatch_span.finish()
        scatter_span = Span("scatter", time.perf_counter())
        linger_h = self._stage_linger
        for (_, future, trace, t_enq), result in zip(batch, results):
            if trace.sampled:
                trace.extend((
                    ("admission.wait", t_enq, t_enq, -1, _OK_ADMIT_TAGS),
                    ("batch.linger", t_enq, t_dispatch, -1, None),
                    dispatch_span,
                    scatter_span,
                ))
                if linger_h is not None:
                    linger_h.observe(t_dispatch - t_enq)
            # A future may already be cancelled by the caller's
            # per-request deadline; its slot was still computed (the
            # batch was in flight), we just have nobody to tell.
            if not future.done():
                future.set_result(result)
        scatter_span.finish()
        if self._stage_wait is not None:
            self._stage_wait.observe_n(0.0, sampled)
            self._stage_dispatch.observe_n(dispatch_span.duration_s, sampled)
            self._stage_scatter.observe_n(scatter_span.duration_s, sampled)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    async def close(self) -> None:
        """Cancel lane workers.  Call after admission has drained."""
        self._closed = True
        workers = [lane.worker for lane in self._lanes.values() if lane.worker]
        for worker in workers:
            worker.cancel()
        for worker in workers:
            try:
                await worker
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._lanes.clear()


def _drain(queue: asyncio.Queue, batch: List[_QueueItem], max_batch: int) -> None:
    """Move waiting items into ``batch`` (up to ``max_batch``), skipping
    wake-ups."""
    while len(batch) < max_batch and not queue.empty():
        item = queue.get_nowait()
        if item is not _WAKE:
            batch.append(item)
