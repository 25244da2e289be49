"""Benchmarks for the exploration service: cold sweep vs warm frontier.

``pytest benchmarks/test_bench_explore.py --benchmark-only`` times the
frontier job and the recommendation query in both regimes; the plain
test at the bottom enforces the ISSUE's acceptance gate — a warm
recommendation (frontier memoized on the engine) at least 20x faster
than the cold sweep-and-select.  Locally the ratio is >500x, so the
gate has wide headroom on noisy CI boxes.
"""

from __future__ import annotations

import time

from repro.bench import EXPLORE_BENCH_QUERY, explore_bench, row_values
from repro.engine import Engine
from repro.explore.catalog import unit_frontier_job
from repro.explore.recommend import recommend


def test_cold_frontier(benchmark):
    benchmark.pedantic(
        lambda: Engine().evaluate(unit_frontier_job()), rounds=3, warmup_rounds=0
    )


def test_warm_recommend(benchmark):
    engine = Engine()
    engine.evaluate(unit_frontier_job())  # prime the memo
    benchmark.pedantic(
        lambda: recommend(dict(EXPLORE_BENCH_QUERY), engine=engine),
        rounds=10,
        warmup_rounds=1,
    )


def test_warm_recommend_at_least_20x_faster_than_cold():
    engine = Engine()

    t0 = time.perf_counter()
    cold = recommend(dict(EXPLORE_BENCH_QUERY), engine=engine)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = recommend(dict(EXPLORE_BENCH_QUERY), engine=engine)
    warm_s = time.perf_counter() - t0

    assert warm == cold  # same frontier, same answer, bit-for-bit
    assert warm_s < cold_s / 20, (
        f"warm recommend not >=20x faster: cold={cold_s:.4f}s warm={warm_s:.4f}s"
    )


def test_explore_bench_snapshot_reports_the_gate():
    snapshot = explore_bench(repeats=3)
    assert set(snapshot) == {"schema", "suite", "config", "context", "rows"}
    assert snapshot["suite"] == "explore"
    values = row_values(snapshot)
    assert values["frontier.warm_vs_cold.units"] >= 20
    assert values["recommend.warm_vs_cold.units"] >= 20
    timings = {row["name"] for row in snapshot["rows"] if row["unit"] == "s"}
    assert timings == {
        "frontier.units.cold",
        "frontier.units.warm",
        "recommend.units.cold",
        "recommend.units.warm",
    }
