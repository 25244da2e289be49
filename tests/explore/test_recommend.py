"""Tests for constrained recommendation over cached frontiers.

The load-bearing property: a recommendation is provably on the Pareto
frontier — no enumerated design in the queried grid may dominate it
over the full metric table — and it satisfies every constraint.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import CACHE_VERSION, Engine
from repro.explore.catalog import (
    metric_table,
    metric_senses,
    objective_vectors,
    payload_bytes,
    unit_frontier_job,
)
from repro.explore.frontier import dominates
from repro.explore.recommend import (
    QueryError,
    UnsatisfiableError,
    recommend,
)

GRID = {"kinds": ["adder"], "formats": ["fp16"]}


@pytest.fixture(scope="module")
def engine():
    # One shared in-process engine: the frontier job is computed once
    # and every subsequent query in the module is a memo hit.
    return Engine()


@pytest.fixture(scope="module")
def adder_fp16(engine):
    from repro.fp.format import FP16
    from repro.units.explorer import UnitKind

    return engine.evaluate(
        unit_frontier_job(kinds=(UnitKind.ADDER,), formats=(FP16,))
    )


def record_by_id(frontier, rid):
    for r in frontier.records:
        if r.id == rid:
            return r
    raise AssertionError(f"recommended id {rid!r} not in the grid")


class TestRecommendProperty:
    def queries(self, frontier):
        slices = sorted(r.slices for r in frontier.records)
        clocks = sorted(r.clock_mhz for r in frontier.records)
        mid_slices = slices[len(slices) // 2]
        mid_clock = clocks[len(clocks) // 2]
        yield {**GRID}
        yield {**GRID, "objective": "clock_mhz"}
        yield {**GRID, "objective": "slices"}
        yield {**GRID, "objective": "latency_ns"}
        yield {**GRID, "objective": "energy_per_op_nj",
               "constraints": {"min_clock_mhz": mid_clock}}
        yield {**GRID, "objective": "mops_per_watt",
               "constraints": {"max_slices": mid_slices}}
        yield {**GRID, "objective": "clock_mhz",
               "constraints": {"max_slices": mid_slices,
                               "min_throughput_mops": clocks[0]}}

    def test_recommendation_is_never_dominated(self, engine, adder_fp16):
        senses = metric_senses("units")
        vectors = objective_vectors("units", adder_fp16.records)
        frontier_ids = {adder_fp16.records[i].id for i in adder_fp16.frontier}
        for query in self.queries(adder_fp16):
            payload = recommend(query, engine=engine)
            best = record_by_id(adder_fp16, payload["best"]["id"])
            best_vec = [fn(best) for (_s, fn) in metric_table("units").values()]
            dominators = [
                r.id
                for r, vec in zip(adder_fp16.records, vectors)
                if dominates(vec, best_vec, senses)
            ]
            assert not dominators, (
                f"{query}: {payload['best']['id']} dominated by {dominators}"
            )
            assert payload["best"]["id"] in frontier_ids

    def test_constraints_hold_on_best_and_alternatives(self, engine, adder_fp16):
        slices = sorted(r.slices for r in adder_fp16.records)
        bound = slices[len(slices) // 2]
        payload = recommend(
            {**GRID, "constraints": {"max_slices": bound}}, engine=engine
        )
        for point in [payload["best"], *payload["alternatives"]]:
            assert point["slices"] <= bound
        assert payload["constraints"] == {"max_slices": float(bound)}

    def test_objective_ordering_and_caps(self, engine, adder_fp16):
        payload = recommend({**GRID, "objective": "slices"}, engine=engine)
        assert payload["sense"] == "min"
        values = [payload["best"]["objective_value"]] + [
            a["objective_value"] for a in payload["alternatives"]
        ]
        assert values == sorted(values)
        assert len(payload["alternatives"]) <= 5
        assert payload["best"]["id"] not in {
            a["id"] for a in payload["alternatives"]
        }

    def test_payload_shape(self, engine, adder_fp16):
        payload = recommend(dict(GRID), engine=engine)
        assert payload["space"] == "units"
        assert payload["objective"] == "mops_per_watt"
        assert payload["model_version"] == CACHE_VERSION
        grid = payload["grid"]
        assert grid["designs"] == len(adder_fp16.records)
        assert grid["frontier"] == len(adder_fp16.frontier)
        assert 1 <= grid["feasible_frontier"] <= grid["frontier"]

    def test_repeated_queries_byte_identical(self, engine):
        query = {**GRID, "constraints": {"max_slices": 10_000}}
        first = payload_bytes(recommend(query, engine=engine))
        second = payload_bytes(recommend(query, engine=engine))
        assert first == second

    def test_kernel_space(self, engine):
        payload = recommend(
            {"space": "kernel", "constraints": {"max_slices": 50_000}},
            engine=engine,
        )
        assert payload["space"] == "kernel"
        assert payload["objective"] == "energy_nj"
        assert payload["sense"] == "min"
        assert "/b" in payload["best"]["id"]
        assert payload["best"]["slices"] <= 50_000


class TestUnsatisfiable:
    def test_impossible_bound_names_the_achievable_extreme(self, engine):
        with pytest.raises(UnsatisfiableError) as err:
            recommend(
                {**GRID, "constraints": {"min_clock_mhz": 9000}}, engine=engine
            )
        message = str(err.value)
        assert "min_clock_mhz=9000" in message
        assert "grid's best is" in message
        assert err.value.violations
        key, bound, achievable = err.value.violations[0]
        assert key == "min_clock_mhz"
        assert bound == 9000
        assert achievable < 9000

    def test_joint_infeasibility_message(self, engine, adder_fp16):
        # Cheapest-area and fastest-clock bounds that no single design
        # meets at once (in a depth sweep the cheapest point is the
        # slowest, so exact extremes are individually achievable only).
        min_slices = min(r.slices for r in adder_fp16.records)
        max_clock = max(r.clock_mhz for r in adder_fp16.records)
        if any(
            r.slices <= min_slices and r.clock_mhz >= max_clock
            for r in adder_fp16.records
        ):
            pytest.skip("grid has a single simultaneously-optimal design")
        with pytest.raises(UnsatisfiableError, match="jointly"):
            recommend(
                {
                    **GRID,
                    "constraints": {
                        "max_slices": min_slices,
                        "min_clock_mhz": max_clock,
                    },
                },
                engine=engine,
            )


class TestQueryErrors:
    def test_unknown_space(self, engine):
        with pytest.raises(QueryError, match="unknown space 'widgets'"):
            recommend({"space": "widgets"}, engine=engine)

    def test_unknown_objective(self, engine):
        with pytest.raises(QueryError, match="unknown objective 'speed'"):
            recommend({**GRID, "objective": "speed"}, engine=engine)

    def test_unknown_constraint_lists_vocabulary(self, engine):
        with pytest.raises(QueryError) as err:
            recommend({**GRID, "constraints": {"max_beauty": 1}}, engine=engine)
        message = str(err.value)
        assert "unknown constraint 'max_beauty'" in message
        assert "max_slices" in message and "min_clock_mhz" in message

    def test_misaligned_direction_names_the_fix(self, engine):
        with pytest.raises(QueryError, match="use max_slices"):
            recommend({**GRID, "constraints": {"min_slices": 100}}, engine=engine)
        with pytest.raises(QueryError, match="use min_clock_mhz"):
            recommend(
                {**GRID, "constraints": {"max_clock_mhz": 100}}, engine=engine
            )

    def test_non_numeric_bound(self, engine):
        with pytest.raises(QueryError, match="numeric bound"):
            recommend(
                {**GRID, "constraints": {"max_slices": "many"}}, engine=engine
            )
        with pytest.raises(QueryError, match="numeric bound"):
            recommend(
                {**GRID, "constraints": {"max_slices": True}}, engine=engine
            )

    def test_constraints_must_be_object(self, engine):
        with pytest.raises(QueryError, match="must be an object"):
            recommend({**GRID, "constraints": [1, 2]}, engine=engine)

    def test_unknown_kind_and_format(self, engine):
        with pytest.raises(QueryError, match="unknown unit kinds"):
            recommend({"kinds": ["blender"]}, engine=engine)
        with pytest.raises(QueryError, match="unknown formats"):
            recommend({"formats": ["fp12"]}, engine=engine)

    def test_kernel_grid_validation(self, engine):
        with pytest.raises(QueryError, match="does not divide"):
            recommend(
                {"space": "kernel", "n": 16, "block_sizes": [3]}, engine=engine
            )
        with pytest.raises(QueryError, match="n must be"):
            recommend({"space": "kernel", "n": 0}, engine=engine)

    def test_query_must_be_object(self, engine):
        with pytest.raises(QueryError, match="JSON object"):
            recommend(["not", "a", "query"], engine=engine)


class TestCliBitIdentity:
    def test_cli_twin_prints_identical_payload(self, engine):
        query = {
            **GRID,
            "objective": "mops_per_watt",
            "constraints": {"max_slices": 10_000, "min_clock_mhz": 100},
        }
        direct = payload_bytes(recommend(query, engine=engine)) + b"\n"
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "recommend",
                "--kinds", "adder",
                "--formats", "fp16",
                "--objective", "mops_per_watt",
                "--constrain", "max_slices=10000",
                "--constrain", "min_clock_mhz=100",
            ],
            capture_output=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == direct

    def test_explore_cli_matches_stream(self):
        # `repro explore` and GET /v1/explore emit the same NDJSON bytes;
        # both sides start cold, so every point reports `computed`.
        from repro.service import ServiceConfig, ServiceThread
        from tests.service.helpers import request

        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "explore",
                "--kinds", "adder",
                "--formats", "fp16",
            ],
            capture_output=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        with ServiceThread(ServiceConfig(port=0)) as thread:
            status, body, _ = request(
                thread, "GET", "/v1/explore?kinds=adder&formats=fp16"
            )
        assert status == 200
        assert proc.stdout == body
        assert b'"source":"computed"' in body

    def test_cli_rejects_bad_constraint(self):
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "recommend",
                "--kinds", "adder",
                "--formats", "fp16",
                "--constrain", "min_slices=100",
            ],
            capture_output=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert b"use max_slices" in proc.stderr
