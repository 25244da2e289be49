"""Size-adaptive serving: scalar batches below the crossover, no idle linger.

The served contract does not move: every golden-corpus row comes back
bit- and flag-identical through ``ReproService.dispatch_op`` whether
each request is its own batch (the scalar datapath) or shares a full
one (``vec_*``).  The linger policy: a lane waits only while another
admitted request could still join it, and never past ``linger_ms``.
"""

import asyncio
import time
from pathlib import Path

import pytest

from repro.fp.format import FP32
from repro.fp.rounding import RoundingMode
from repro.service.admission import ADMIT_OK, AdmissionController
from repro.service.batcher import MicroBatcher
from repro.service.config import ServiceConfig
from repro.service.server import ReproService
from repro.service.telemetry import Telemetry
from repro.verify.golden import load_corpus
from tests.service.test_batcher import RecordingExecutor, scalar

RNE = RoundingMode.NEAREST_EVEN
VECTOR_DIR = Path(__file__).resolve().parent.parent / "vectors"
#: Requests in flight at once during the replay: a full max_batch=64.
CONCURRENCY = 64
A, B = 0x3FC00000, 0x40200000


@pytest.mark.parametrize("max_batch", [1, 64])
def test_golden_corpora_replay_through_dispatch_op(max_batch):
    docs = [load_corpus(path) for path in sorted(VECTOR_DIR.glob("*.json"))]
    assert docs

    async def _run():
        service = ReproService(ServiceConfig(max_batch=max_batch))
        checked = 0
        try:
            for doc in docs:
                fmt, op, cases = doc["fmt"], doc["op"], doc["cases"]
                for mode in RoundingMode:
                    for start in range(0, len(cases), CONCURRENCY):
                        chunk = cases[start:start + CONCURRENCY]
                        replies = await asyncio.gather(*(
                            service.dispatch_op(op, fmt, mode, *case["operands"])
                            for case in chunk
                        ))
                        for case, (status, body, _, _) in zip(chunk, replies):
                            words = " ".join(f"{w:#x}" for w in case["operands"])
                            where = f"{op}/{fmt.name}/{mode.value} {words}"
                            assert status == 200, (where, body)
                            want_bits, want_flags = case[mode.value]
                            want = b'{"bits":"0x%x","flags":%d}' % (
                                want_bits, want_flags
                            )
                            assert body == want, (where, body, want)
                            checked += 1
            mean_batch = service.telemetry.batch_size.mean
        finally:
            await service.shutdown()
        return checked, mean_batch

    checked, mean_batch = asyncio.run(_run())
    assert checked == 2 * sum(len(doc["cases"]) for doc in docs)
    if max_batch == 1:
        assert mean_batch == 1
    else:
        assert mean_batch > 16  # full batches ran on vec_*


def test_lone_request_does_not_wait_out_the_linger():
    async def _run():
        service = ReproService(ServiceConfig(linger_ms=50))
        try:
            t0 = time.perf_counter()
            status, body, _, _ = await service.dispatch_op("mul", FP32, RNE, A, B)
            return time.perf_counter() - t0, status, body
        finally:
            await service.shutdown()

    elapsed, status, body = asyncio.run(_run())
    want_bits, want_flags = scalar("mul", FP32, RNE, A, B)
    assert status == 200
    assert body == b'{"bits":"0x%x","flags":%d}' % (want_bits, want_flags)
    assert elapsed < 0.025, f"lone request took {elapsed * 1e3:.1f} ms"


def test_concurrent_same_lane_requests_share_one_batch():
    async def _run():
        service = ReproService(ServiceConfig(linger_ms=50))
        try:
            replies = await asyncio.gather(
                service.dispatch_op("mul", FP32, RNE, A, B),
                service.dispatch_op("mul", FP32, RNE, B, A),
            )
            return replies, service.telemetry.batch_size
        finally:
            await service.shutdown()

    replies, batch_size = asyncio.run(_run())
    assert [status for status, _, _, _ in replies] == [200, 200]
    assert (batch_size.count, batch_size.total) == (1, 2)


def _admitted_batcher(linger_ms):
    """A batcher over its own admission controller and recording executor."""
    admission = AdmissionController(8)
    executor = RecordingExecutor()
    config = ServiceConfig(max_batch=64, linger_ms=linger_ms)
    return MicroBatcher(config, Telemetry(), executor, admission), admission, executor


def test_lane_waits_for_an_admitted_request_not_yet_queued():
    async def _run():
        batcher, admission, executor = _admitted_batcher(linger_ms=500)
        try:
            assert admission.admit() == ADMIT_OK
            assert admission.admit() == ADMIT_OK
            first = asyncio.ensure_future(batcher.submit("mul", FP32, RNE, A, B))
            await asyncio.sleep(0.02)
            # The second admitted request could still join: keep waiting.
            assert not first.done()
            results = await asyncio.gather(
                first, batcher.submit("mul", FP32, RNE, B, A)
            )
        finally:
            await batcher.close()
            executor.shutdown(wait=True)
        return results, executor.batches

    results, batches = asyncio.run(_run())
    assert len(batches) == 1
    assert batches[0][3] == [(A, B), (B, A)]
    assert [tuple(r) for r in results] == [
        scalar("mul", FP32, RNE, A, B), scalar("mul", FP32, RNE, B, A),
    ]


def test_linger_stays_the_cap_when_nobody_joins():
    async def _run():
        batcher, admission, executor = _admitted_batcher(linger_ms=50)
        try:
            admission.admit()
            admission.admit()  # admitted, never submitted
            t0 = time.perf_counter()
            await batcher.submit("mul", FP32, RNE, A, B)
            return time.perf_counter() - t0
        finally:
            await batcher.close()
            executor.shutdown(wait=True)

    assert asyncio.run(_run()) >= 0.045


def test_release_of_the_last_outsider_flushes_a_lingering_lane():
    async def _run():
        batcher, admission, executor = _admitted_batcher(linger_ms=500)
        try:
            admission.admit()
            admission.admit()
            first = asyncio.ensure_future(batcher.submit("mul", FP32, RNE, A, B))
            await asyncio.sleep(0.02)
            assert not first.done()
            t0 = time.perf_counter()
            admission.release()  # the other request gave up: nobody can join
            await first
            return time.perf_counter() - t0
        finally:
            await batcher.close()
            executor.shutdown(wait=True)

    assert asyncio.run(_run()) < 0.25
