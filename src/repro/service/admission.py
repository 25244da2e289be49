"""Admission control: bounded in-flight work, backpressure, drain.

The server admits at most ``queue_depth`` requests at a time — queued in
a batcher lane or executing.  Beyond that it *sheds* load: the HTTP
layer answers ``429 Too Many Requests`` with a ``Retry-After`` hint
instead of queueing unboundedly, so a burst past capacity degrades into
fast, explicit rejections rather than collapsing tail latency for
everyone (the paper's fixed-issue-rate pipelines refuse tokens the same
way: backpressure at the input, never silent loss in flight).

Draining (SIGTERM) flips admission into reject-everything mode
(``503``), while everything already admitted runs to completion;
:meth:`AdmissionController.wait_drained` resolves once the last admitted
request releases its slot.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.service.telemetry import Telemetry

#: Admission verdicts.
ADMIT_OK = "ok"
ADMIT_FULL = "full"
ADMIT_DRAINING = "draining"


class AdmissionController:
    """Counting semaphore with shed-don't-queue semantics."""

    def __init__(self, limit: int, telemetry: Optional[Telemetry] = None) -> None:
        if limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {limit}")
        self.limit = limit
        self.telemetry = telemetry
        self.in_flight = 0
        self.draining = False
        #: Called after every release (the micro-batcher listens, to
        #: flush lanes nobody else can join any more).
        self.on_release: Optional[Callable[[], None]] = None
        self._idle: Optional[asyncio.Event] = None  # created lazily in-loop
        # Pre-resolved stage histogram so sampled admissions fold their
        # wait straight in, without a per-label lookup per request.
        self._stage_wait = (
            telemetry.stage_latency_s.child(("admission.wait",))
            if telemetry is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def admit(self, trace=None, record: bool = True) -> str:
        """Try to claim a slot; returns an ``ADMIT_*`` verdict.

        Callers that receive :data:`ADMIT_OK` own a slot and must call
        :meth:`release` exactly once (use ``try/finally``).  When a
        sampled ``trace`` is passed, the decision is recorded as a
        zero-duration ``admission.wait`` span tagged with the verdict
        and the queue occupancy it saw — shed-don't-queue means there
        is nothing to wait *in*, and the span exists so a 429'd
        request's trace says *why*.  The batcher path passes
        ``record=False``: an OK verdict's span is synthesized at flush
        time from the member's enqueue timestamp instead, so the hot
        path records nothing here.  Rejections are always recorded.
        """
        if self.draining:
            verdict = ADMIT_DRAINING
        elif self.in_flight >= self.limit:
            if self.telemetry is not None:
                self.telemetry.shed_total.inc()
            verdict = ADMIT_FULL
        else:
            self.in_flight += 1
            if self.telemetry is not None:
                self.telemetry.queue_depth.set(self.in_flight)
            verdict = ADMIT_OK
        if (
            (record or verdict is not ADMIT_OK)
            and trace is not None
            and trace.sampled
        ):
            t_now = time.perf_counter()
            trace.add(
                "admission.wait", t_now, t_now,
                tags={"verdict": verdict, "in_flight": self.in_flight},
            )
            if self._stage_wait is not None:
                self._stage_wait.observe(0.0)
        return verdict

    def hold(self) -> None:
        """Claim a slot past the limit and any drain, for work already
        running that must stay counted; pair with :meth:`release`."""
        self.in_flight += 1
        if self.telemetry is not None:
            self.telemetry.queue_depth.set(self.in_flight)

    def release(self) -> None:
        """Return a slot claimed by a successful :meth:`admit`."""
        assert self.in_flight > 0, "release without matching admit"
        self.in_flight -= 1
        if self.telemetry is not None:
            self.telemetry.queue_depth.set(self.in_flight)
        if self.draining and self.in_flight == 0 and self._idle is not None:
            self._idle.set()
        if self.on_release is not None:
            self.on_release()

    @property
    def full_detail(self) -> str:
        """The 429 body's detail, naming the limit a shed request hit."""
        return (
            f"queue full: {self.limit} requests in flight, the queue_depth "
            "limit; retry later"
        )

    @property
    def retry_after_s(self) -> int:
        """Client back-off hint for the ``Retry-After`` header.

        The queue turns over in well under a second for any realistic
        configuration, so a constant 1 s is an honest, conservative hint
        (RFC 7231 allows only integral seconds).
        """
        return 1

    # ------------------------------------------------------------------ #
    # drain
    # ------------------------------------------------------------------ #
    def begin_drain(self) -> None:
        """Stop admitting; already-admitted requests keep their slots."""
        self.draining = True

    async def wait_drained(self, timeout_s: float) -> bool:
        """Wait for in-flight work to finish; True when fully drained."""
        if not self.draining:
            self.begin_drain()
        if self.in_flight == 0:
            return True
        if self._idle is None:
            self._idle = asyncio.Event()
        if self.in_flight == 0:  # re-check after the await point above
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
            return True
        except asyncio.TimeoutError:
            return self.in_flight == 0
