"""Constrained design recommendation over cached Pareto frontiers.

Answers queries of the form "max MOPS/W with slices ≤ 1000 and clock ≥
200 MHz": evaluate (or reuse) the catalog frontier, filter it by the
constraints, optimize the objective over what survives, and return the
winner plus the runner-up alternatives it beat.

Correctness argument, spelled out because the service's acceptance test
leans on it: the frontier is computed over the *entire* metric table of
the space, and constraints are only accepted when their direction
agrees with a metric's frontier sense (``max_*`` bounds on minimized
metrics, ``min_*`` bounds on maximized ones).  Under those two rules a
point that dominates a feasible point is itself feasible and no worse
on the objective — so the constrained optimum over the frontier equals
the constrained optimum over the whole grid, and no enumerated design
can dominate a recommendation.

Error surface: :class:`QueryError` for malformed queries (unknown
space/metric/constraint spelling — the message names the offender and
the legal vocabulary) and :class:`UnsatisfiableError` when the grid
cannot meet the bounds — the message names each violated bound together
with the grid-wide achievable extreme, which is exactly what a caller
needs to relax.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.engine import CACHE_VERSION, Engine, default_engine
from repro.explore import catalog as _catalog
from repro.explore.frontier import argbest
from repro.fp.format import FORMATS_BY_NAME, FPFormat
from repro.obs.trace import NULL_TRACE
from repro.units.explorer import KINDS_BY_NAME, UnitKind

#: Alternatives returned alongside the winner.
MAX_ALTERNATIVES = 5

#: Default objective per space — the FPMax-style efficiency axis for
#: units, the paper's Section-5 energy objective for kernels.
DEFAULT_OBJECTIVE = {"units": "mops_per_watt", "kernel": "energy_nj"}


class QueryError(ValueError):
    """Malformed recommendation query; message names the offender."""


class UnsatisfiableError(ValueError):
    """No enumerated design satisfies the constraints.

    ``violations`` carries ``(constraint, bound, achievable)`` triples
    for every individually-unsatisfiable bound.
    """

    def __init__(self, message: str, violations=()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


def parse_constraints(
    space: str, raw: object
) -> Dict[str, Tuple[str, str, float]]:
    """Validate ``{"max_slices": 1000, ...}`` into metric-bound form.

    Returns ``{key: (direction, metric, bound)}`` where direction is
    ``max``/``min``.  Rejects unknown metrics, misaligned directions and
    non-numeric bounds with messages that name the legal spelling.
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise QueryError("constraints must be an object of <bound>: <number>")
    table = _catalog.metric_table(space)
    out: Dict[str, Tuple[str, str, float]] = {}
    for key, value in raw.items():
        direction, sep, metric = str(key).partition("_")
        if direction not in ("max", "min") or not sep or metric not in table:
            known = ", ".join(
                f"{'max' if sense == 'min' else 'min'}_{name}"
                for name, (sense, _fn) in table.items()
            )
            raise QueryError(
                f"unknown constraint {key!r} (known bounds for "
                f"space {space!r}: {known})"
            )
        sense = table[metric][0]
        aligned = (direction == "max") == (sense == "min")
        if not aligned:
            want = "max" if sense == "min" else "min"
            raise QueryError(
                f"constraint {key!r} conflicts with the frontier sense of "
                f"{metric} ({sense}imized); use {want}_{metric}"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QueryError(f"constraint {key!r} needs a numeric bound")
        out[str(key)] = (direction, metric, float(value))
    return out


def _admits(
    record, table, constraints: Dict[str, Tuple[str, str, float]]
) -> bool:
    for direction, metric, bound in constraints.values():
        value = table[metric][1](record)
        if direction == "max" and value > bound:
            return False
        if direction == "min" and value < bound:
            return False
    return True


def _check_satisfiable(
    records, table, constraints: Dict[str, Tuple[str, str, float]]
) -> None:
    """Raise :class:`UnsatisfiableError` naming every violated bound."""
    violations = []
    for key, (direction, metric, bound) in constraints.items():
        values = [table[metric][1](r) for r in records]
        achievable = min(values) if direction == "max" else max(values)
        individually_ok = (
            achievable <= bound if direction == "max" else achievable >= bound
        )
        if not individually_ok:
            violations.append((key, bound, achievable))
    if violations:
        detail = "; ".join(
            f"{key}={bound:g} but the grid's best is {achievable:g}"
            for key, bound, achievable in violations
        )
        raise UnsatisfiableError(
            f"no design satisfies the constraints: {detail}", violations
        )
    raise UnsatisfiableError(
        "no design satisfies the constraints: each bound is individually "
        "achievable but no single design meets all "
        f"{len(constraints)} of them jointly"
    )


def _resolve_kinds(raw: object) -> Tuple[UnitKind, ...]:
    if raw is None:
        return tuple(UnitKind)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise QueryError(
            f"kinds must be a non-empty list among {', '.join(KINDS_BY_NAME)}"
        )
    unknown = [k for k in raw if k not in KINDS_BY_NAME]
    if unknown:
        raise QueryError(
            f"unknown unit kinds: {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(KINDS_BY_NAME)})"
        )
    return tuple(KINDS_BY_NAME[k] for k in raw)


def _resolve_formats(raw: object) -> Tuple[FPFormat, ...]:
    if raw is None:
        return tuple(FORMATS_BY_NAME.values())
    if not isinstance(raw, (list, tuple)) or not raw:
        raise QueryError(
            f"formats must be a non-empty list among {', '.join(FORMATS_BY_NAME)}"
        )
    unknown = [f for f in raw if f not in FORMATS_BY_NAME]
    if unknown:
        raise QueryError(
            f"unknown formats: {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(FORMATS_BY_NAME)})"
        )
    return tuple(FORMATS_BY_NAME[f] for f in raw)


def frontier_for_query(query: dict, engine: Optional[Engine] = None):
    """Evaluate (or reuse) the catalog frontier a query addresses."""
    space = query.get("space", "units")
    if space == "units":
        job = _catalog.unit_frontier_job(
            kinds=_resolve_kinds(query.get("kinds")),
            formats=_resolve_formats(query.get("formats")),
        )
    elif space == "kernel":
        n = query.get("n", _catalog.KERNEL_N)
        block_sizes = query.get("block_sizes", list(_catalog.KERNEL_BLOCK_SIZES))
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise QueryError("n must be an integer >= 1")
        if (
            not isinstance(block_sizes, (list, tuple))
            or not block_sizes
            or any(not isinstance(b, int) or isinstance(b, bool) or b < 1
                   for b in block_sizes)
        ):
            raise QueryError("block_sizes must be a non-empty list of ints >= 1")
        fmt = query.get("format", "fp32")
        if fmt not in FORMATS_BY_NAME:
            raise QueryError(
                f"unknown format {fmt!r} (known: {', '.join(FORMATS_BY_NAME)})"
            )
        try:
            job = _catalog.kernel_frontier_job(
                n=n, block_sizes=tuple(block_sizes), fmt=FORMATS_BY_NAME[fmt]
            )
        except ValueError as exc:
            raise QueryError(str(exc)) from exc
    else:
        raise QueryError(f"unknown space {space!r} (known: units, kernel)")
    return (engine if engine is not None else default_engine()).evaluate(job)


def select(
    frontier: "_catalog.Frontier",
    objective: str,
    constraints: Dict[str, Tuple[str, str, float]],
) -> dict:
    """Constrained argmax over a frontier; the recommendation payload."""
    table = _catalog.metric_table(frontier.space)
    if objective not in table:
        raise QueryError(
            f"unknown objective {objective!r} for space "
            f"{frontier.space!r} (known: {', '.join(table)})"
        )
    sense, extract = table[objective]
    candidates = [
        i for i in frontier.frontier
        if _admits(frontier.records[i], table, constraints)
    ]
    if not candidates:
        _check_satisfiable(frontier.records, table, constraints)
    # Deterministic selection: objective first, then area, then the
    # record id — so service, CLI and direct calls agree byte-for-byte.
    records = frontier.records
    best_pos = argbest(
        [extract(records[i]) for i in candidates],
        sense,
        tiebreaks=(
            [float(records[i].slices) for i in candidates],
            [records[i].id for i in candidates],
        ),
    )
    order = sorted(
        range(len(candidates)),
        key=lambda p: (
            (1.0 if sense == "min" else -1.0)
            * extract(records[candidates[p]]),
            float(records[candidates[p]].slices),
            records[candidates[p]].id,
        ),
    )
    best = records[candidates[best_pos]]
    alternatives = [
        records[candidates[p]] for p in order if p != best_pos
    ][:MAX_ALTERNATIVES]
    return {
        "space": frontier.space,
        "objective": objective,
        "sense": sense,
        "constraints": {
            key: bound for key, (_d, _m, bound) in constraints.items()
        },
        "grid": {
            "designs": len(records),
            "frontier": len(frontier.frontier),
            "feasible_frontier": len(candidates),
        },
        "best": {
            **_catalog.record_payload(best),
            "objective_value": round(extract(best), 6),
        },
        "alternatives": [
            {
                **_catalog.record_payload(r),
                "objective_value": round(extract(r), 6),
            }
            for r in alternatives
        ],
        "model_version": CACHE_VERSION,
    }


def recommend(
    query: dict, engine: Optional[Engine] = None, trace=NULL_TRACE
) -> dict:
    """Answer one recommendation query; the shared service/CLI core.

    ``trace`` receives the ``frontier.compute`` and ``recommend.select``
    spans when the caller passes a request trace; the default null trace
    drops them.
    """
    from time import monotonic

    if not isinstance(query, dict):
        raise QueryError("query must be a JSON object")
    space = query.get("space", "units")
    if space not in DEFAULT_OBJECTIVE:
        raise QueryError(
            f"unknown space {space!r} (known: {', '.join(DEFAULT_OBJECTIVE)})"
        )
    table = _catalog.metric_table(space)
    constraints = parse_constraints(space, query.get("constraints"))
    objective = query.get("objective", DEFAULT_OBJECTIVE[space])
    if objective not in table:
        raise QueryError(
            f"unknown objective {objective!r} for space {space!r} "
            f"(known: {', '.join(table)})"
        )
    t0 = monotonic()
    frontier = frontier_for_query(query, engine=engine)
    trace.add(
        "frontier.compute",
        t0,
        monotonic(),
        tags={
            "space": frontier.space,
            "designs": len(frontier.records),
            "frontier": len(frontier.frontier),
        },
    )
    t0 = monotonic()
    payload = select(frontier, objective, constraints)
    trace.add(
        "recommend.select",
        t0,
        monotonic(),
        tags={
            "objective": objective,
            "feasible": payload["grid"]["feasible_frontier"],
        },
    )
    return payload

