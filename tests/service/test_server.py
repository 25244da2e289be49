"""Live-server tests: golden-vector replay, backpressure, drain.

A real :class:`~repro.service.server.ServiceThread` listens on an
ephemeral loopback port; tests talk to it over actual HTTP.  The golden
corpus replay is the serving layer's version of the differential
campaign: every committed vector, replayed through the full accept →
admit → batch → execute → scatter path, must come back bit- and
flag-identical to the pinned oracle outputs.
"""

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import __version__
from repro.fp.adder import fp_sub
from repro.fp.format import BF16, FP16, FP32, FP48, FP64
from repro.fp.rounding import RoundingMode
from repro.service import ServiceConfig, ServiceThread, run_load_blocking
from repro.service.batcher import OPS
from repro.verify.golden import corpus_filename, load_corpus
from tests.service.helpers import request

VECTOR_DIR = os.path.join(os.path.dirname(__file__), "..", "vectors")
RNE = RoundingMode.NEAREST_EVEN


def _wait_for(predicate, timeout_s=5.0):
    """Poll ``predicate`` until true (fails the test after ``timeout_s``)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _gate_sweeps(monkeypatch):
    """Make every sweep block inside its own evaluation until ``gate``
    is set; ``started`` is set once one is running."""
    from repro.service import handlers

    started, gate = threading.Event(), threading.Event()
    explore = handlers.explore

    def gated(*args, **kwargs):
        started.set()
        gate.wait()
        return explore(*args, **kwargs)

    monkeypatch.setattr(handlers, "explore", gated)
    return started, gate


class Client:
    """Keep-alive client: many requests over one connection."""

    def __init__(self, server):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )

    def post_op(self, op, fmt_name, mode, *operands):
        doc = {"format": fmt_name, "mode": mode}
        for key, word in zip(("a", "b", "c"), operands):
            doc[key] = f"{word:#x}"
        body = json.dumps(doc).encode()
        self.conn.request("POST", f"/v1/op/{op}", body=body,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        doc = json.loads(resp.read())
        assert resp.status == 200, doc
        return int(doc["bits"], 16), doc["flags"]

    def close(self):
        self.conn.close()


class TestOperational:
    def test_healthz_reports_version(self, server):
        status, data, _ = request(server, "GET", "/healthz")
        doc = json.loads(data)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["version"] == __version__
        assert doc["uptime_s"] >= 0

    def test_metrics_exposition_is_populated(self, server):
        client = Client(server)
        try:
            client.post_op("mul", "fp32", "rne", 0x3F800000, 0x40000000)
        finally:
            client.close()
        status, data, headers = request(server, "GET", "/metrics")
        text = data.decode()
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert re.search(
            r'repro_requests_total\{route="/v1/op/mul",status="200"\} \d+',
            text,
        )
        assert "repro_batch_size_count" in text
        assert "repro_request_latency_seconds_bucket" in text

    def test_batch_stats_counts_each_lane(self, server):
        client = Client(server)
        try:
            client.post_op("mul", "fp16", "rne", 0x3E00, 0x4000)
        finally:
            client.close()
        status, data, _ = request(server, "GET", "/v1/batch-stats")
        assert status == 200
        doc = json.loads(data)
        lanes = {(l["op"], l["format"], l["mode"]): l for l in doc["lanes"]}
        assert lanes[("mul", "fp16", "rne")]["batches"] >= 1
        assert doc["batches"] >= 1

    def test_batch_stats_is_get_only(self, server):
        status, _, _ = request(server, "POST", "/v1/batch-stats", {})
        assert status == 405

    def test_timed_out_sweep_still_counts_its_engine_job(self):
        # A sweep past sweep_timeout_s answers 504, but the engine still
        # finishes the job: /metrics must count it all the same.
        with ServiceThread(ServiceConfig(port=0, sweep_timeout_s=0.001)) as thread:
            status, _, _ = request(thread, "GET", "/v1/unit?kind=divider&format=fp64")
            assert status == 504
            thread.service.sweep_pool.submit(lambda: None).result()
            _, data, _ = request(thread, "GET", "/metrics")
            counts = re.findall(r"(?m)^repro_engine_jobs_total\S* (\d+)$", data.decode())
            assert sum(map(int, counts)) == thread.service.engine.metrics.jobs >= 1

    def test_abandoned_sweep_keeps_its_admission_slot(self, monkeypatch):
        # The 504 gives up on the sweep, but a job already running on
        # the sweep thread cannot be stopped: it must stay counted in
        # /healthz in_flight until it finishes.
        started, gate = _gate_sweeps(monkeypatch)
        with ServiceThread(ServiceConfig(port=0, sweep_timeout_s=0.25)) as thread:
            thread.service.sweep_pool.submit(lambda: None).result()
            try:
                status, _, _ = request(
                    thread, "GET", "/v1/unit?kind=adder&format=fp16"
                )
                assert status == 504
                assert started.is_set()
                assert thread.service.admission.in_flight == 1
                _, data, _ = request(thread, "GET", "/healthz")
                assert json.loads(data)["in_flight"] == 1
            finally:
                gate.set()
            thread.service.sweep_pool.submit(lambda: None).result()
            _wait_for(lambda: thread.service.admission.in_flight == 0)
            _, data, _ = request(thread, "GET", "/healthz")
            assert json.loads(data)["in_flight"] == 0

    def test_abandoned_explore_sweep_keeps_its_admission_slot(self, monkeypatch):
        started, gate = _gate_sweeps(monkeypatch)
        with ServiceThread(ServiceConfig(port=0, sweep_timeout_s=0.25)) as thread:
            thread.service.sweep_pool.submit(lambda: None).result()
            telemetry = thread.service.telemetry
            try:
                # The stream's head is already out when its first sweep
                # times out, so the 504 arrives as an in-band error line
                # and the chunked body still ends properly.
                status, data, _ = request(
                    thread, "GET", "/v1/explore?kinds=adder&formats=fp16"
                )
                assert status == 200
                assert [json.loads(line) for line in data.splitlines()] == [{
                    "type": "error",
                    "error": "Gateway Timeout",
                    "detail": "request deadline exceeded",
                }]
                assert started.is_set()
                assert telemetry.timeout_total.total == 1
                _wait_for(lambda: telemetry.requests_total.value(
                    ("/v1/explore", "504")) == 1)
                assert telemetry.requests_total.value(("/v1/explore", "200")) == 0
                _wait_for(lambda: thread.service.admission.in_flight == 1)
            finally:
                gate.set()
            thread.service.sweep_pool.submit(lambda: None).result()
            _wait_for(lambda: thread.service.admission.in_flight == 0)

    def test_abandoned_queued_sweep_is_dropped(self):
        # A sweep that times out while still queued behind other work
        # never runs: it holds no slot and adds no engine job.
        with ServiceThread(ServiceConfig(port=0, sweep_timeout_s=0.01)) as thread:
            jobs = thread.service.engine.metrics.jobs
            gate = threading.Event()
            thread.service.sweep_pool.submit(gate.wait)
            try:
                status, _, _ = request(
                    thread, "GET", "/v1/unit?kind=adder&format=fp16"
                )
                assert status == 504
                assert thread.service.admission.in_flight == 0
            finally:
                gate.set()
            thread.service.sweep_pool.submit(lambda: None).result()
            assert thread.service.engine.metrics.jobs == jobs

    def test_version_header_consistency_with_cli(self, server):
        # Satellite 1: /healthz and `repro --version` report one string.
        from repro.cli import main as cli_main
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert cli_main(["--version"]) == 0
        _, data, _ = request(server, "GET", "/healthz")
        assert buffer.getvalue().strip() == json.loads(data)["version"]


class TestGoldenReplay:
    """Replay the committed oracle vectors through the live server."""

    def replay(self, server, fmt, op, stride=1):
        doc = load_corpus(os.path.join(VECTOR_DIR, corpus_filename(fmt, op)))
        client = Client(server)
        try:
            for case in doc["cases"][::stride]:
                for mode in ("rne", "rtz"):
                    want_bits, want_flags = case[mode]
                    got_bits, got_flags = client.post_op(
                        op, fmt.name, mode, *case["operands"]
                    )
                    operands = " ".join(
                        f"{w:#x}" for w in case["operands"]
                    )
                    assert (got_bits, got_flags) == (want_bits, want_flags), (
                        f"{op}/{fmt.name}/{mode} {operands}: served "
                        f"{got_bits:#x}/{got_flags:#04x}, golden "
                        f"{want_bits:#x}/{want_flags:#04x}"
                    )
        finally:
            client.close()

    def test_fp32_add_full_corpus(self, server):
        self.replay(server, FP32, "add")

    def test_fp32_mul_full_corpus(self, server):
        self.replay(server, FP32, "mul")

    def test_fp32_div_full_corpus(self, server):
        self.replay(server, FP32, "div")

    def test_fp32_sqrt_full_corpus(self, server):
        self.replay(server, FP32, "sqrt")

    def test_fp32_fma_slices(self, server):
        self.replay(server, FP32, "fma", stride=5)

    @pytest.mark.parametrize("fmt", [FP48, FP64], ids=["fp48", "fp64"])
    @pytest.mark.parametrize("op", ["add", "mul", "div", "sqrt", "fma"])
    def test_wide_format_slices(self, server, fmt, op):
        self.replay(server, fmt, op, stride=7)

    @pytest.mark.parametrize("fmt", [FP16, BF16], ids=["fp16", "bf16"])
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_small_format_corpora(self, server, fmt, op):
        # Served by name on the uint16 lanes.
        self.replay(server, fmt, op, stride=3)

    def test_small_format_random_burst_matches_scalar(self, server):
        # Random words, not just corpus rows, on the uint16 lanes.
        rng = random.Random(0x51AB)
        client = Client(server)
        try:
            for fmt in (FP16, BF16):
                for op in ("add", "sub", "mul"):
                    for _ in range(8):
                        a = rng.randrange(fmt.word_mask + 1)
                        b = rng.randrange(fmt.word_mask + 1)
                        want_bits, want_flags = OPS[op][0](fmt, a, b, RNE)
                        assert client.post_op(op, fmt.name, "rne", a, b) == (
                            want_bits, want_flags.to_bits(),
                        ), (op, fmt.name, hex(a), hex(b))
        finally:
            client.close()

    def test_sub_matches_scalar_datapath(self, server):
        # No golden sub corpus: reuse the add corpus operands and
        # compare the served difference against the scalar fp_sub.
        doc = load_corpus(os.path.join(VECTOR_DIR, corpus_filename(FP32, "add")))
        client = Client(server)
        try:
            for case in doc["cases"][::5]:
                for mode_name, mode in (("rne", None), ("rtz", None)):
                    from repro.fp.rounding import RoundingMode

                    rmode = {m.value: m for m in RoundingMode}[mode_name]
                    want_bits, want_flags = fp_sub(
                        FP32, case["a"], case["b"], rmode
                    )
                    got = client.post_op(
                        "sub", "fp32", mode_name, case["a"], case["b"]
                    )
                    assert got == (want_bits, want_flags.to_bits())
        finally:
            client.close()

    def test_custom_geometry_format(self, server):
        from repro.fp.format import FPFormat
        from repro.fp.multiplier import fp_mul
        from repro.fp.rounding import RoundingMode

        fmt = FPFormat(8, 10)
        a, b = 0x1C200, 0x1E000
        want_bits, want_flags = fp_mul(fmt, a, b, RoundingMode.NEAREST_EVEN)
        body = {"a": a, "b": b, "mode": "rne",
                "format": {"exp_bits": 8, "man_bits": 10}}
        status, data, _ = request(server, "POST", "/v1/op/mul", body)
        doc = json.loads(data)
        assert status == 200
        assert int(doc["bits"], 16) == want_bits
        assert doc["flags"] == want_flags.to_bits()


class TestRequestValidation:
    @pytest.mark.parametrize(
        "method, path, body, want",
        [
            ("GET", "/nope", None, 404),
            ("POST", "/v1/op/mod", {"a": 1, "b": 2}, 404),
            ("GET", "/v1/op/mul", None, 405),
            ("POST", "/v1/op/mul", {"a": 1}, 400),  # missing operand
            ("POST", "/v1/op/mul", {"a": 1, "b": 2, "format": "fp31"}, 400),
            ("POST", "/v1/op/mul", {"a": 1, "b": 2, "mode": "up"}, 400),
            ("POST", "/v1/op/mul",
             {"a": 0x1_0000_0000, "b": 2, "format": "fp32"}, 400),
            ("POST", "/v1/unit", None, 405),
            ("GET", "/v1/experiment/nope", None, 404),
        ],
    )
    def test_status_codes(self, server, method, path, body, want):
        status, data, _ = request(server, method, path, body)
        assert status == want
        doc = json.loads(data)
        assert "error" in doc

    @pytest.mark.parametrize(
        "op, body, fragment",
        [
            # Unary op posted with a binary body: precise 400, not 500.
            ("sqrt", {"a": 1, "b": 2}, "unexpected 'b'"),
            ("sqrt", {"b": 2}, "missing 'a'"),
            # Binary op posted with unary / ternary bodies.
            ("div", {"a": 1}, "missing 'b'"),
            ("div", {"a": 1, "b": 2, "c": 3}, "unexpected 'c'"),
            # Ternary op posted with a binary body.
            ("fma", {"a": 1, "b": 2}, "missing 'c'"),
        ],
    )
    def test_arity_mismatch_is_precise_400(self, server, op, body, fragment):
        status, data, _ = request(server, "POST", f"/v1/op/{op}", body)
        doc = json.loads(data)
        assert status == 400, doc
        assert f"op '{op}' takes" in doc["detail"]
        assert fragment in doc["detail"]

    def test_malformed_json_body(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/v1/op/mul", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"malformed JSON" in resp.read()
        finally:
            conn.close()


class TestSlowEndpoints:
    def test_kernel_matmul_closed_forms(self, server):
        status, data, _ = request(
            server, "GET",
            "/v1/kernel/matmul?n=16&mul_latency=3&add_latency=5",
        )
        from repro.kernels.batched import array_cycles

        doc = json.loads(data)
        assert status == 200
        assert doc["cycles"] == array_cycles(16, 8, 16)
        assert doc["issued_macs"] == 16 ** 3
        assert doc["hazards"] == 0
        assert 0 < doc["pe_utilization"] <= 1

    def test_unit_sweep_and_engine_cache_metrics(self, server):
        status, data, _ = request(
            server, "GET", "/v1/unit?kind=adder&format=fp32"
        )
        doc = json.loads(data)
        assert status == 200
        assert doc["kind"] == "adder" and doc["format"] == "fp32"
        assert len(doc["points"]) == 3  # min / max / per-MHz-optimal rows
        assert doc["peak_clock_mhz"] > 0
        # Second hit is served from the engine memo; telemetry shows it.
        status, data2, _ = request(
            server, "GET", "/v1/unit?kind=adder&format=fp32"
        )
        assert json.loads(data2) == doc
        _, health, _ = request(server, "GET", "/healthz")
        assert json.loads(health)["engine_hit_rate"] > 0

    def test_experiment_endpoint(self, server):
        status, data, _ = request(server, "GET", "/v1/experiment/table3")
        doc = json.loads(data)
        assert status == 200
        assert doc["name"] == "table3"
        assert doc["source"] in ("computed", "memo", "hit")
        assert "Table 3" in doc["rendered"]
        # Replay: the engine memo answers without recomputing.
        status, data, _ = request(server, "GET", "/v1/experiment/table3")
        assert json.loads(data)["source"] in ("memo", "hit")


class TestBackpressure:
    def test_burst_past_capacity_sheds_429_with_retry_after(self):
        # Two admission slots, long linger: concurrent burst must split
        # into a few admitted requests and fast 429s, never errors.
        config = ServiceConfig(
            port=0, queue_depth=2, linger_ms=300, max_batch=64
        )
        with ServiceThread(config) as thread:
            outcomes = []
            lock = threading.Lock()

            def fire():
                status, _, headers = request(
                    thread, "POST", "/v1/op/mul",
                    {"a": "0x3f800000", "b": "0x40000000", "format": "fp32"},
                )
                with lock:
                    outcomes.append((status, headers.get("Retry-After")))

            workers = [threading.Thread(target=fire) for _ in range(12)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            statuses = [s for s, _ in outcomes]
            assert len(statuses) == 12
            assert set(statuses) <= {200, 429}
            assert statuses.count(200) >= 1, "nothing was admitted"
            assert statuses.count(429) >= 1, "nothing was shed"
            for status, retry_after in outcomes:
                if status == 429:
                    assert retry_after == "1"
            # The shed counter saw every 429.
            _, health, _ = request(thread, "GET", "/healthz")
            assert json.loads(health)["shed"] == statuses.count(429)

    def test_draining_server_answers_503(self):
        config = ServiceConfig(port=0, linger_ms=0.5)
        with ServiceThread(config) as thread:
            thread.service.admission.begin_drain()
            status, data, _ = request(
                thread, "POST", "/v1/op/mul",
                {"a": 1, "b": 2, "format": "fp32"},
            )
            assert status == 503
            _, health, _ = request(thread, "GET", "/healthz")
            assert json.loads(health)["status"] == "draining"


class TestLoadgen:
    def test_loadgen_against_live_server(self, tmp_path):
        config = ServiceConfig(port=0, queue_depth=256)
        with ServiceThread(config) as thread:
            report = run_load_blocking(
                "127.0.0.1", thread.port, concurrency=8, requests=160, seed=3
            )
        assert report.requests == 160
        assert report.ok == 160
        assert report.errors == 0
        assert report.shed == 0
        assert report.achieved_rps > 0
        assert report.p99_ms >= report.p50_ms > 0
        from repro.service.loadgen import write_report

        out = tmp_path / "load.json"
        write_report(report, str(out))
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-loadgen/1"
        assert doc["statuses"] == {"200": 160}


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)$", line)
            assert match, f"unexpected startup line: {line!r}"
            assert f"repro-serve {__version__}" in line
            port = int(match.group(1))
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            stderr = proc.stderr.read()
            assert rc == 0, stderr
            assert "draining" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
