"""repro.obs — stdlib-only tracing, metrics and structured logging.

The observability layer for the serving/engine stack: per-request span
trees with monotonic clocks (:mod:`repro.obs.trace`), Chrome
trace-event export (:mod:`repro.obs.chrome`), the counter / gauge /
histogram instruments the engine and the service share
(:mod:`repro.obs.metrics`) and NDJSON structured logs
(:mod:`repro.obs.logs`).  No third-party dependencies; safe to
import from any layer.
"""

from repro.obs.chrome import chrome_trace
from repro.obs.trace import (
    MAX_SPANS_PER_TRACE,
    NULL_SPAN,
    NULL_TRACE,
    NullTrace,
    REQUEST_STAGES,
    Span,
    Trace,
    Tracer,
    render_trace,
)

__all__ = [
    "MAX_SPANS_PER_TRACE",
    "NULL_SPAN",
    "NULL_TRACE",
    "NullTrace",
    "REQUEST_STAGES",
    "Span",
    "Trace",
    "Tracer",
    "chrome_trace",
    "render_trace",
]
