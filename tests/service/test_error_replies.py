"""Error replies: a raising batch is a defined 500, and every limit-hit
body names the limit it hit and its value."""

import asyncio
import json

import pytest

from repro.fp.format import FP32
from repro.fp.rounding import RoundingMode
from repro.service import batcher
from repro.service.admission import ADMIT_OK
from repro.service.config import ServiceConfig
from repro.service.http import MAX_BODY_BYTES, MAX_HEAD_BYTES, ProtocolError
from repro.service.server import ReproService
from tests.service.test_http import parse

RNE = RoundingMode.NEAREST_EVEN
A, B = 0x3FC00000, 0x40200000


def detail(body: bytes) -> str:
    return json.loads(body)["detail"]


def test_raising_lane_answers_500_and_other_lanes_still_serve(monkeypatch):
    def broken(*_args, **_kwargs):
        raise ArithmeticError("datapath on fire")

    _, _, arity = batcher.OPS["mul"]
    monkeypatch.setitem(batcher.OPS, "mul", (broken, broken, arity))

    async def _run():
        service = ReproService(ServiceConfig(linger_ms=5))
        try:
            replies = await asyncio.gather(
                *(service.dispatch_op("mul", FP32, RNE, A, B) for _ in range(6)),
                *(service.dispatch_op("add", FP32, RNE, A, B) for _ in range(6)),
            )
            return replies, service.admission.in_flight, service.telemetry
        finally:
            await service.shutdown()

    replies, in_flight, telemetry = asyncio.run(_run())
    for status, body, _, _ in replies[:6]:
        assert status == 500
        assert detail(body) == "internal error: datapath on fire"
    for status, body, _, _ in replies[6:]:
        assert status == 200
        assert body == b'{"bits":"0x40800000","flags":0}'  # 1.5 + 2.5 = 4.0
    assert in_flight == 0
    assert telemetry.queue_depth.value == 0


def test_oversize_head_names_its_limit():
    head = b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n"
    with pytest.raises(ProtocolError) as excinfo:
        parse(head)
    assert excinfo.value.status == 413
    assert str(excinfo.value) == (
        f"request head too large: over the {MAX_HEAD_BYTES}-byte "
        "MAX_HEAD_BYTES limit"
    )


def test_oversize_body_names_its_limit():
    length = MAX_BODY_BYTES + 1
    with pytest.raises(ProtocolError) as excinfo:
        parse(b"POST /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length)
    assert excinfo.value.status == 413
    assert str(excinfo.value) == (
        f"request body too large: {length} bytes, over the "
        f"{MAX_BODY_BYTES}-byte MAX_BODY_BYTES limit"
    )


def test_both_429_sites_name_the_queue_depth():
    want = "queue full: 3 requests in flight, the queue_depth limit; retry later"

    async def _run():
        service = ReproService(ServiceConfig(queue_depth=3))
        try:
            for _ in range(3):
                assert service.admission.admit() is ADMIT_OK
            op_reply = await service.dispatch_op("mul", FP32, RNE, A, B)
            with pytest.raises(ProtocolError) as excinfo:
                service.handlers._admit(None)  # the sweep endpoints' gate
            for _ in range(3):
                service.admission.release()
            return op_reply, excinfo.value
        finally:
            await service.shutdown()

    (status, body, _, extra), sweep_error = asyncio.run(_run())
    assert status == 429
    assert detail(body) == want
    assert ("Retry-After", "1") in extra
    assert sweep_error.status == 429
    assert str(sweep_error) == want
