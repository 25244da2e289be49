"""The Engine: cache -> executor -> metrics orchestration.

:meth:`Engine.run` takes jobs in a caller-chosen order and returns
results *in that order*, whatever the completion order on the parallel
backend — experiment output stays deterministic under ``--parallel N``.

Resolution order per job:

1. **in-process memo** — same engine, same key, same process: free;
2. **persistent cache** — a disk hit skips execution entirely;
3. **executor** — serial or process-pool, with retry and (on the
   parallel backend) timeout + fallback-to-serial;
4. successful computations are written back to memo and disk cache.

Failures are strict by default: a job that exhausts its retries raises
:class:`~repro.engine.executor.JobFailure` after all sibling jobs have
settled, so one bad experiment cannot silently truncate a sweep.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.cache import ResultCache
from repro.engine.executor import (
    ExecutionOutcome,
    JobFailure,
    ParallelExecutor,
    SerialExecutor,
)
from repro.engine.job import Job
from repro.engine.metrics import (
    STATUS_COMPUTED,
    STATUS_FAILED,
    STATUS_HIT,
    STATUS_MEMO,
    EngineMetrics,
    JobRecord,
)
from repro.obs.trace import NULL_TRACE


class Engine:
    """Parallel, cached, observable evaluator for :class:`Job` batches."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        timeout_s: float | None = None,
        retries: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.metrics = EngineMetrics()
        self._memo: Dict[str, Any] = {}
        self._active_trace = None

    # ----------------------------------------------------------------- #
    # execution
    # ----------------------------------------------------------------- #
    def _executor(self, pending: int):
        if self.workers > 1 and pending > 1:
            return ParallelExecutor(
                workers=self.workers, timeout_s=self.timeout_s,
                retries=self.retries,
            )
        return SerialExecutor(retries=self.retries)

    @contextmanager
    def tracing(self, trace):
        """Bind ``trace`` as the span sink for runs inside the block.

        The engine is single-threaded by design (callers serialize
        sweeps), so a plain attribute is race-free; the previous trace
        is restored on exit so nested scopes compose.
        """
        previous = self._active_trace
        self._active_trace = trace
        try:
            yield
        finally:
            self._active_trace = previous

    def run(self, jobs: Sequence[Job], trace=None) -> List[Any]:
        """Evaluate ``jobs``; results are returned in submission order.

        ``trace`` (or the :meth:`tracing`-bound one) receives one
        ``cache.lookup`` span per job (outcome memo/hit/miss) and one
        ``execute`` span per computed job.  Serial execute spans lay
        out consecutively on the trace timeline; parallel ones share
        the executor-start anchor since their true overlap lives in
        worker processes.
        """
        if trace is None:
            trace = self._active_trace
        if trace is None:
            trace = NULL_TRACE
        trace_id = trace.trace_id if trace.sampled else ""
        results: Dict[int, Any] = {}
        pending: List[tuple[int, Job]] = []
        first_of: Dict[str, int] = {}  # key -> first pending index
        duplicates: List[tuple[int, Job]] = []

        for index, job in enumerate(jobs):
            t_lookup = time.perf_counter()
            if job.key in self._memo:
                results[index] = self._memo[job.key]
                self.metrics.record(
                    JobRecord(job.name, job.key, STATUS_MEMO, trace_id=trace_id)
                )
                trace.add(
                    "cache.lookup", t_lookup, time.perf_counter(),
                    tags={"job": job.name, "outcome": STATUS_MEMO},
                )
                continue
            if self.cache is not None:
                hit, cached = self.cache.get(job)
                if hit:
                    results[index] = cached
                    self._memo[job.key] = cached
                    self.metrics.record(
                        JobRecord(job.name, job.key, STATUS_HIT, trace_id=trace_id)
                    )
                    trace.add(
                        "cache.lookup", t_lookup, time.perf_counter(),
                        tags={"job": job.name, "outcome": STATUS_HIT},
                    )
                    continue
            trace.add(
                "cache.lookup", t_lookup, time.perf_counter(),
                tags={"job": job.name, "outcome": "miss"},
            )
            if job.key in first_of:
                # Same key submitted twice in one batch: evaluate once,
                # share the result.
                duplicates.append((index, job))
                continue
            first_of[job.key] = index
            pending.append((index, job))

        failures: List[ExecutionOutcome] = []
        if pending:
            cursor = time.perf_counter()
            for outcome in self._executor(len(pending)).run(pending):
                job = outcome.job
                span_t0 = cursor
                span_t1 = cursor + outcome.wall_s
                if outcome.backend == "serial":
                    cursor = span_t1
                status = STATUS_COMPUTED if outcome.ok else STATUS_FAILED
                trace.add(
                    "execute", span_t0, span_t1,
                    tags={
                        "job": job.name,
                        "backend": outcome.backend,
                        "attempts": outcome.retries + 1,
                        "status": status,
                    },
                )
                if not outcome.ok:
                    failures.append(outcome)
                    self.metrics.record(
                        JobRecord(
                            job.name, job.key, STATUS_FAILED,
                            wall_s=outcome.wall_s, retries=outcome.retries,
                            backend=outcome.backend, trace_id=trace_id,
                        )
                    )
                    continue
                results[outcome.index] = outcome.result
                self._memo[job.key] = outcome.result
                if self.cache is not None:
                    self.cache.put(job, outcome.result, wall_s=outcome.wall_s)
                self.metrics.record(
                    JobRecord(
                        job.name, job.key, STATUS_COMPUTED,
                        wall_s=outcome.wall_s, retries=outcome.retries,
                        backend=outcome.backend, trace_id=trace_id,
                    )
                )

        for index, job in duplicates:
            source = first_of[job.key]
            if source in results:
                results[index] = results[source]
                self.metrics.record(
                    JobRecord(job.name, job.key, STATUS_MEMO, trace_id=trace_id)
                )
            else:
                self.metrics.record(
                    JobRecord(job.name, job.key, STATUS_FAILED, trace_id=trace_id)
                )

        if self.cache is not None:
            # Batched hit/miss counters persist even for short runs.
            self.cache.flush_activity()

        if failures:
            worst = failures[0]
            raise JobFailure(worst.job, worst.retries + 1, worst.error)

        return [results[i] for i in range(len(jobs))]

    def evaluate(self, job: Job, trace=None) -> Any:
        """Evaluate a single job (memo/cache-aware)."""
        return self.run([job], trace=trace)[0]
