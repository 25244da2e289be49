"""repro.explore — design-space exploration as a product surface.

The paper's real deliverable is a *tradeoff*: frequency, area, power and
energy per operation as joint functions of pipeline depth, precision and
block size.  This package turns the repo's exploration machinery into a
first-class subsystem with one shared frontier implementation and one
cached catalog, consumed by three equivalent surfaces:

* ``GET /v1/explore`` — chunked NDJSON stream of annotated design
  points as each sweep lands, frontier trailer last;
* ``POST /v1/recommend`` — constrained optimum plus the alternatives it
  beat, with precise 400s for malformed or unsatisfiable constraints;
* ``repro explore`` / ``repro recommend`` — offline CLI twins printing
  byte-identical payloads.

Layering::

    frontier.py   sense-aware dominance, Pareto fronts, argbest
    catalog.py    annotated unit/kernel catalogs + cached frontier jobs
    recommend.py  constraint parsing, frontier-restricted selection
"""

from repro.explore.frontier import argbest, dominates, pareto_front, pareto_indices
from repro.explore.catalog import (
    Frontier,
    KernelRecord,
    UnitRecord,
    compute_frontier,
    frontier_payload,
    kernel_frontier_job,
    metric_table,
    payload_bytes,
    record_payload,
    resolve_grid,
    unit_frontier_job,
    unit_record,
)
from repro.explore.recommend import (
    QueryError,
    UnsatisfiableError,
    recommend,
)

__all__ = [
    "Frontier",
    "KernelRecord",
    "QueryError",
    "UnitRecord",
    "UnsatisfiableError",
    "argbest",
    "compute_frontier",
    "dominates",
    "frontier_payload",
    "kernel_frontier_job",
    "metric_table",
    "pareto_front",
    "pareto_indices",
    "payload_bytes",
    "recommend",
    "record_payload",
    "resolve_grid",
    "unit_frontier_job",
    "unit_record",
]
