"""repro.service — async micro-batching evaluation service.

The serving front door for the reproduction: a stdlib-only asyncio HTTP
server (``repro serve``) that exposes the FP evaluation surface and
keeps it fast and observable under load.  Concurrent scalar op requests
are coalesced into batches; a batch past its op's crossover runs as one
vectorized datapath call (amortizing the fixed NumPy dispatch cost
exactly the way the paper's pipelined units amortize issue overhead
across a burst of operands) and a smaller one on the scalar datapath,
with bounded admission, per-request deadlines, graceful drain, and live
metrics.

Layering::

    config.py     ServiceConfig: every knob, env-overridable, validated
    telemetry.py  the /healthz + /metrics registry: repro.obs.metrics
                  instruments plus the engine's own job counter
    admission.py  bounded in-flight work, 429 backpressure, drain
    batcher.py    per-lane micro-batching onto fp.ops.execute
    http.py       minimal HTTP/1.1 wire layer over asyncio streams
    handlers.py   endpoint implementations and routing
    server.py     ReproService wiring, lifecycle, SIGTERM drain
    loadgen.py    closed-loop load generator (``repro loadgen``)

Endpoints::

    POST /v1/op/{add,sub,mul}   batched FP ops, bit-exact vs scalar
    GET  /v1/unit               pipeline-depth characterisation (cached)
    GET  /v1/explore            chunked NDJSON design-point stream + frontier
    POST /v1/recommend          constrained Pareto-optimal recommendation
    GET  /v1/kernel/matmul      analytic array-schedule closed forms
    GET  /v1/experiment/{name}  experiment artifacts via the engine cache
    GET  /healthz               liveness + version + key gauges (JSON)
    GET  /metrics               Prometheus text exposition
"""

from repro.service.admission import AdmissionController
from repro.service.batcher import BatchIntegrityError, MicroBatcher, execute_batch
from repro.service.config import ServiceConfig
from repro.service.loadgen import LoadReport, run_load, run_load_blocking
from repro.service.server import ReproService, ServiceThread, serve
from repro.service.telemetry import Telemetry

__all__ = [
    "AdmissionController",
    "BatchIntegrityError",
    "LoadReport",
    "MicroBatcher",
    "ReproService",
    "ServiceConfig",
    "ServiceThread",
    "Telemetry",
    "execute_batch",
    "run_load",
    "run_load_blocking",
    "serve",
]
