"""End-to-end trace propagation over a live socket.

A real server on an ephemeral loopback port; every test talks actual
HTTP.  The contract under test: each request gets a trace ID (inbound
``X-Repro-Trace-Id`` honored, always echoed back), the full span tree
is readable at ``/v1/trace/{id}`` after the response, and the
``/v1/debug/traces`` listing and Chrome export cover what the buffer
holds.
"""

import json

from repro.fp.format import FORMATS_BY_NAME
from repro.obs.trace import REQUEST_STAGES
from repro.service import ServiceConfig, ServiceThread, run_load_blocking
from tests.service.helpers import request


def post_mul(server, fmt="fp32", trace_id=None, a="0x3f800000",
             b="0x40000000"):
    headers = {"X-Repro-Trace-Id": trace_id} if trace_id else {}
    return request(
        server, "POST", "/v1/op/mul",
        {"a": a, "b": b, "format": fmt, "mode": "rne"},
        headers=headers,
    )


class TestHeaderEcho:
    def test_every_response_carries_a_trace_id(self, server):
        status, _, headers = post_mul(server)
        assert status == 200
        assert headers.get("X-Repro-Trace-Id")

    def test_inbound_id_is_echoed_verbatim(self, server):
        status, _, headers = post_mul(server, trace_id="my-request.1")
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == "my-request.1"

    def test_malformed_inbound_id_is_replaced_not_rejected(self, server):
        status, _, headers = post_mul(server, trace_id="bad id with spaces")
        assert status == 200
        echoed = headers["X-Repro-Trace-Id"]
        assert echoed and echoed != "bad id with spaces"

    def test_error_responses_are_traced_too(self, server):
        status, _, headers = request(server, "GET", "/nope")
        assert status == 404
        tid = headers["X-Repro-Trace-Id"]
        _, data, _ = request(server, "GET", f"/v1/trace/{tid}")
        assert json.loads(data)["status"] == 404


class TestSpanTree:
    def test_op_request_records_the_full_pipeline(self, server):
        tid = "pipeline-check.1"
        status, _, _ = post_mul(server, trace_id=tid)
        assert status == 200
        status, data, _ = request(server, "GET", f"/v1/trace/{tid}")
        assert status == 200
        doc = json.loads(data)
        assert doc["trace_id"] == tid
        assert doc["route"] == "/v1/op/mul"
        assert doc["status"] == 200
        names = [s["name"] for s in doc["spans"]]
        for stage in REQUEST_STAGES:
            assert stage in names, f"{stage} missing from {names}"
        # Pipeline order is preserved in the span list.
        indices = [names.index(stage) for stage in REQUEST_STAGES]
        assert indices == sorted(indices)
        for span in doc["spans"]:
            assert span["duration_ms"] >= 0.0
            assert span["start_ms"] >= 0.0

    def test_dispatch_span_describes_the_lane(self, server):
        tid = "lane-check.fp32"
        post_mul(server, trace_id=tid)
        _, data, _ = request(server, "GET", f"/v1/trace/{tid}")
        doc = json.loads(data)
        dispatch = next(
            s for s in doc["spans"] if s["name"] == "batch.dispatch"
        )
        assert dispatch["tags"]["lane"] == "mul/fp32/rne"
        assert dispatch["tags"]["batch_size"] >= 1
        assert dispatch["tags"]["dtype"] == "uint32"
        admission = next(
            s for s in doc["spans"] if s["name"] == "admission.wait"
        )
        assert admission["tags"]["verdict"] == "ok"

    def test_fp16_lane_is_tagged_with_uint16(self, server):
        tid = "lane-check.fp16"
        status, _, _ = post_mul(server, fmt="fp16", trace_id=tid,
                                a="0x3c00", b="0x4000")
        assert status == 200
        _, data, _ = request(server, "GET", f"/v1/trace/{tid}")
        dispatch = next(
            s for s in json.loads(data)["spans"]
            if s["name"] == "batch.dispatch"
        )
        assert dispatch["tags"]["lane"] == "mul/fp16/rne"
        assert dispatch["tags"]["dtype"] == "uint16"

    def test_sweep_request_records_engine_spans(self, server):
        tid = "sweep-check.1"
        status, _, _ = request(
            server, "GET", "/v1/unit?kind=adder&format=fp32",
            headers={"X-Repro-Trace-Id": tid},
        )
        assert status == 200
        _, data, _ = request(server, "GET", f"/v1/trace/{tid}")
        doc = json.loads(data)
        names = [s["name"] for s in doc["spans"]]
        assert "admission.wait" in names
        assert "cache.lookup" in names
        lookup = next(s for s in doc["spans"] if s["name"] == "cache.lookup")
        assert lookup["tags"]["outcome"] in ("miss", "hit", "memo")
        if lookup["tags"]["outcome"] == "miss":
            assert "execute" in names

    def test_unknown_trace_is_404(self, server):
        status, data, _ = request(server, "GET", "/v1/trace/never-seen")
        assert status == 404
        assert "never-seen" in json.loads(data)["error"] \
            or "never-seen" in json.loads(data).get("detail", "")


class TestDebugListing:
    def test_listing_has_stats_and_summaries(self, server):
        post_mul(server, trace_id="listing-check.1")
        status, data, _ = request(server, "GET", "/v1/debug/traces?slowest=5")
        assert status == 200
        doc = json.loads(data)
        assert doc["capacity"] == 512
        assert doc["buffered"] >= 1
        assert doc["finished"] >= 1
        assert doc["spans_dropped"] == 0
        assert len(doc["traces"]) <= 5
        for summary in doc["traces"]:
            assert summary["trace_id"]
            assert summary["duration_ms"] >= 0
            assert summary["spans"] >= 0

    def test_chrome_export_over_http(self, server):
        post_mul(server, trace_id="chrome-check.1")
        status, data, _ = request(
            server, "GET", "/v1/debug/traces?slowest=3&export=chrome"
        )
        assert status == 200
        doc = json.loads(data)
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}
        names = {e["name"] for e in doc["traceEvents"]}
        assert "thread_name" in names


class TestLoadgenPropagation:
    def test_loadgen_trace_ids_are_echoed(self, server):
        report = run_load_blocking(
            "127.0.0.1", server.port, concurrency=4, requests=40,
            fmt=FORMATS_BY_NAME["fp32"], seed=7, trace_ids=True,
        )
        assert report.requests == 40
        assert report.errors == 0
        assert report.trace_ids is True
        assert report.trace_echoed == 40
        doc = report.to_json()
        assert doc["trace_ids"] is True
        assert doc["trace_echoed"] == 40
        assert "trace ids echoed: 40/40" in report.render()

    def test_loadgen_without_trace_ids_counts_zero(self, server):
        report = run_load_blocking(
            "127.0.0.1", server.port, concurrency=2, requests=10, seed=7,
        )
        assert report.trace_ids is False
        assert report.trace_echoed == 0
        assert "trace ids echoed" not in report.render()


class TestSamplingDisabled:
    def test_unsampled_request_still_echoes_but_buffers_nothing(self):
        config = ServiceConfig(port=0, linger_ms=0.5, trace_sample=0.0)
        with ServiceThread(config) as thread:
            status, _, headers = post_mul(thread, trace_id="unsampled.1")
            assert status == 200
            assert headers["X-Repro-Trace-Id"] == "unsampled.1"
            status, _, _ = request(thread, "GET", "/v1/trace/unsampled.1")
            assert status == 404
            _, data, _ = request(thread, "GET", "/v1/debug/traces")
            doc = json.loads(data)
            assert doc["buffered"] == 0
            assert doc["sampled_out"] >= 1

    def test_tiny_trace_buffer_evicts(self):
        config = ServiceConfig(port=0, linger_ms=0.5, trace_buffer=2)
        with ServiceThread(config) as thread:
            for i in range(4):
                post_mul(thread, trace_id=f"evict-check.{i}")
            _, data, _ = request(thread, "GET", "/v1/debug/traces")
            doc = json.loads(data)
            assert doc["capacity"] == 2
            assert doc["buffered"] == 2
            assert doc["evicted"] >= 2
            status, _, _ = request(thread, "GET", "/v1/trace/evict-check.0")
            assert status == 404


class TestTraceCli:
    """`repro trace` against the live server."""

    def test_render_one_trace_by_id(self, server, capsys):
        from repro.cli import main as cli_main

        tid = "cli-check.render"
        post_mul(server, trace_id=tid)
        rc = cli_main(["trace", "--port", str(server.port), "--id", tid])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"trace {tid}" in out
        for stage in REQUEST_STAGES:
            assert stage in out
        assert "lane=mul/fp32/rne" in out

    def test_listing_shows_buffer_stats(self, server, capsys):
        from repro.cli import main as cli_main

        post_mul(server, trace_id="cli-check.listing")
        rc = cli_main(["trace", "--port", str(server.port), "--slowest", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "buffered" in out
        assert out.count("ms") >= 1

    def test_chrome_export_writes_valid_json(self, server, tmp_path, capsys):
        from repro.cli import main as cli_main

        post_mul(server, trace_id="cli-check.chrome")
        out_file = tmp_path / "trace.json"
        rc = cli_main(["trace", "--port", str(server.port),
                       "--chrome", str(out_file)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_chrome_export_of_single_trace(self, server, tmp_path):
        from repro.cli import main as cli_main

        tid = "cli-check.chrome-one"
        post_mul(server, trace_id=tid)
        out_file = tmp_path / "one.json"
        rc = cli_main(["trace", "--port", str(server.port), "--id", tid,
                       "--chrome", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert "batch.dispatch" in names

    def test_unknown_trace_id_fails(self, server, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["trace", "--port", str(server.port),
                       "--id", "never-seen"])
        assert rc == 1
        assert "404" in capsys.readouterr().err

    def test_unreachable_server_fails(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["trace", "--host", "127.0.0.1", "--port", "1"])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_loadgen_cli_trace_ids_flag(self, server, capsys):
        from repro.cli import main as cli_main

        rc = cli_main([
            "loadgen", "--port", str(server.port), "--requests", "12",
            "--concurrency", "2", "--trace-ids",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace ids echoed: 12/12" in out
