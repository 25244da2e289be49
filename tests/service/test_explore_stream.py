"""Wire-format tests for the streaming exploration endpoints.

`/v1/explore` speaks chunked NDJSON over a live socket: these tests
parse the chunked transfer coding by hand (frame boundaries, final
chunk), replay the stream warm from the cache, kill a client
mid-stream and check the server stays healthy, and pin the
`/v1/recommend` payload bit-identical to the direct library call.
"""

import http.client
import json
import socket

import pytest

from repro.explore.catalog import payload_bytes
from repro.explore.recommend import recommend
from tests.service.helpers import request

EXPLORE_PATH = "/v1/explore?kinds=adder&formats=fp16"
RECOMMEND_QUERY = {
    "kinds": ["adder"],
    "formats": ["fp16"],
    "objective": "mops_per_watt",
    "constraints": {"max_slices": 10_000, "min_clock_mhz": 100},
}


def read_raw_response(sock):
    """Read until the peer closes; split head from body."""
    blob = b""
    while True:
        piece = sock.recv(65536)
        if not piece:
            break
        blob += piece
    head, _sep, body = blob.partition(b"\r\n\r\n")
    return head.decode("latin-1"), body


def dechunk(body):
    """Parse a chunked body into the list of chunk payloads."""
    chunks = []
    offset = 0
    while True:
        eol = body.index(b"\r\n", offset)
        size = int(body[offset:eol], 16)
        offset = eol + 2
        if size == 0:
            assert body[offset:offset + 2] == b"\r\n", "missing final CRLF"
            assert body[offset + 2:] == b"", "trailing bytes after last chunk"
            return chunks
        chunk = body[offset:offset + size]
        assert len(chunk) == size, "truncated chunk"
        assert body[offset + size:offset + size + 2] == b"\r\n", \
            "chunk missing CRLF terminator"
        chunks.append(chunk)
        offset += size + 2


def parse_stream_lines(data):
    lines = data.decode().splitlines()
    docs = [json.loads(line) for line in lines]
    points, trailers = [], []
    for doc in docs:
        (points if doc["type"] == "point" else trailers).append(doc)
    return points, trailers


class TestExploreStream:
    def test_raw_socket_chunk_framing(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=60
        ) as sock:
            sock.sendall(
                f"GET {EXPLORE_PATH} HTTP/1.1\r\n"
                "Host: t\r\nConnection: close\r\n\r\n".encode()
            )
            head, body = read_raw_response(sock)
        status_line, *header_lines = head.split("\r\n")
        assert " 200 " in status_line
        headers = {
            k.lower(): v
            for k, v in (line.split(": ", 1) for line in header_lines)
        }
        assert headers["transfer-encoding"] == "chunked"
        assert headers["content-type"] == "application/x-ndjson"
        assert "content-length" not in headers
        assert headers["x-repro-trace-id"]

        chunks = dechunk(body)
        # One chunk per NDJSON line: every frame is a complete document.
        assert len(chunks) >= 2
        for chunk in chunks:
            assert chunk.endswith(b"\n")
            json.loads(chunk)

        points, trailers = parse_stream_lines(b"".join(chunks))
        assert len(trailers) == 1
        trailer = trailers[0]
        assert trailer["type"] == "frontier"
        assert trailer["space"] == "units"
        assert trailer["designs"] == len(points)
        ids = {p["id"] for p in points}
        assert set(trailer["frontier"]) <= ids
        for point in points:
            assert point["kind"] == "adder"
            assert point["format"] == "fp16"
            assert point["source"] in ("computed", "memo", "hit")

    def test_warm_stream_replays_from_cache(self, server):
        # The raw-socket test already materialized this sweep on the
        # serving engine; a second pass must be a pure cache burst.
        status, cold, _ = request(server, "GET", EXPLORE_PATH)
        assert status == 200
        status, warm, _ = request(server, "GET", EXPLORE_PATH)
        assert status == 200
        points, _trailers = parse_stream_lines(warm)
        assert points
        assert all(p["source"] in ("memo", "hit") for p in points)
        # Identical designs modulo the provenance field.
        strip = lambda blob: [
            {k: v for k, v in doc.items() if k != "source"}
            for doc in map(json.loads, blob.decode().splitlines())
        ]
        assert strip(warm) == strip(cold)

    def test_keep_alive_survives_chunked_body(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("GET", EXPLORE_PATH)
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            # Same connection, next request: the stream must have left
            # the framing in a reusable state.
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
        finally:
            conn.close()

    def test_bad_grid_parameters_are_400(self, server):
        status, data, _ = request(
            server, "GET", "/v1/explore?kinds=blender"
        )
        assert status == 400
        assert "unknown unit kinds" in json.loads(data)["detail"]

    def test_mid_stream_disconnect_leaves_server_healthy(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=60
        ) as sock:
            sock.sendall(
                f"GET {EXPLORE_PATH} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
            )
            # Read just the head and the first frames, then vanish.
            got = b""
            while b"\r\n\r\n" not in got:
                got += sock.recv(4096)
        for _ in range(3):
            status, data, _ = request(server, "GET", "/healthz")
            assert status == 200
            assert json.loads(data)["status"] == "ok"
        status, body, _ = request(server, "GET", EXPLORE_PATH)
        assert status == 200
        points, trailers = parse_stream_lines(body)
        assert points and trailers


class TestRecommendEndpoint:
    def test_round_trip_matches_direct_call_bitwise(self, server):
        status, data, headers = request(
            server, "POST", "/v1/recommend", RECOMMEND_QUERY
        )
        assert status == 200, data
        assert headers["Content-Type"] == "application/json"
        assert headers["X-Repro-Source"] in ("computed", "memo", "hit")
        direct = payload_bytes(recommend(dict(RECOMMEND_QUERY)))
        assert data == direct

    def test_recommendation_is_on_streamed_frontier(self, server):
        status, stream, _ = request(server, "GET", EXPLORE_PATH)
        assert status == 200
        _points, trailers = parse_stream_lines(stream)
        status, data, _ = request(
            server, "POST", "/v1/recommend", RECOMMEND_QUERY
        )
        assert status == 200
        doc = json.loads(data)
        assert doc["best"]["id"] in trailers[0]["frontier"]
        assert doc["best"]["slices"] <= RECOMMEND_QUERY["constraints"]["max_slices"]
        assert doc["best"]["clock_mhz"] >= RECOMMEND_QUERY["constraints"]["min_clock_mhz"]

    def test_warm_recommend_is_a_cache_hit(self, server):
        _status, first, _ = request(
            server, "POST", "/v1/recommend", RECOMMEND_QUERY
        )
        status, second, headers = request(
            server, "POST", "/v1/recommend", RECOMMEND_QUERY
        )
        assert status == 200
        assert headers["X-Repro-Source"] in ("memo", "hit")
        assert second == first

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"constraints": {"min_slices": 10}}, "use max_slices"),
            ({"constraints": {"max_beauty": 1}}, "unknown constraint"),
            ({"space": "widgets"}, "unknown space"),
            ({"objective": "speed"}, "unknown objective"),
            ({"kinds": ["adder"], "formats": ["fp16"],
              "constraints": {"min_clock_mhz": 9000}}, "grid's best is"),
        ],
    )
    def test_precise_400s(self, server, body, fragment):
        status, data, _ = request(server, "POST", "/v1/recommend", body)
        assert status == 400, data
        assert fragment in json.loads(data)["detail"]

    def test_metrics_count_streamed_points(self, server):
        status, data, _ = request(server, "GET", "/metrics")
        assert status == 200
        text = data.decode()
        assert "repro_explore_points_total" in text
        for line in text.splitlines():
            if line.startswith("repro_explore_points_total"):
                assert float(line.split()[-1]) > 0
