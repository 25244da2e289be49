"""MicroBatcher edge cases (issue satellite: batching semantics).

Every test cross-checks the batched responses bit- and flag-identically
against the scalar datapath — the service's core correctness contract.
"""

import asyncio
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.fp.format import BF16, FP16, FP32, FP64
from repro.fp.ops import CROSSOVER
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import lane_dtype
from repro.service.batcher import (
    OP_ARITY,
    OPS,
    BatchIntegrityError,
    MicroBatcher,
    execute_batch,
)
from repro.service.config import ServiceConfig
from repro.service.telemetry import Telemetry

RNE = RoundingMode.NEAREST_EVEN
RTZ = RoundingMode.TRUNCATE


class RecordingExecutor(ThreadPoolExecutor):
    """Single-thread executor that records every executed batch."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.batches = []  # (op, fmt, mode, operand tuples)

    def submit(self, fn, *args, **kwargs):
        if fn is execute_batch:
            op, fmt, mode, requests = args[:4]
            self.batches.append((op, fmt, mode, list(requests)))
        return super().submit(fn, *args, **kwargs)


def run_batched(config, submissions):
    """Submit all requests concurrently; return (results, batches).

    ``submissions`` is a list of (op, fmt, mode, *operands).  All
    submissions are queued before the lane workers first run, so they
    form one burst.
    """
    executor = RecordingExecutor()

    async def _run():
        batcher = MicroBatcher(config, Telemetry(), executor)
        try:
            return await asyncio.gather(
                *(batcher.submit(*s) for s in submissions)
            )
        finally:
            await batcher.close()

    try:
        results = asyncio.run(_run())
    finally:
        executor.shutdown(wait=True)
    return results, executor.batches


@pytest.fixture
def vector_path(monkeypatch):
    """Every batch runs ``vec_*``, whatever its size: the path the spot
    check guards."""
    for op in CROSSOVER:
        monkeypatch.setitem(CROSSOVER, op, {})


def scalar(op, fmt, mode, *operands):
    bits, flags = OPS[op][0](fmt, *operands, mode)
    return bits, flags.to_bits()


class TestBatchingPolicy:
    def test_single_request_flushes_on_linger_expiry(self):
        # One lone request, max_batch far away: the linger must expire
        # and flush a batch of exactly one, not wait for company.
        config = ServiceConfig(max_batch=64, linger_ms=5)
        results, batches = run_batched(
            config, [("mul", FP32, RNE, 0x3FC00000, 0x40200000)]
        )
        assert len(batches) == 1
        assert batches[0][3] == [(0x3FC00000, 0x40200000)]
        assert tuple(results[0]) == scalar(
            "mul", FP32, RNE, 0x3FC00000, 0x40200000
        )

    def test_oversize_burst_splits_into_full_batches(self):
        config = ServiceConfig(max_batch=4, linger_ms=20)
        rng = random.Random(7)
        subs = [
            ("mul", FP32, RNE,
             rng.randrange(FP32.word_mask + 1),
             rng.randrange(FP32.word_mask + 1))
            for _ in range(10)
        ]
        results, batches = run_batched(config, subs)
        sizes = [len(pairs) for _, _, _, pairs in batches]
        assert sum(sizes) == 10
        assert max(sizes) <= 4
        assert sizes.count(4) >= 2  # the burst produced full batches
        # Order and values survive the split exactly.
        for (op, fmt, mode, a, b), got in zip(subs, results):
            assert tuple(got) == scalar(op, fmt, mode, a, b)

    def test_mixed_formats_and_modes_never_share_a_batch(self):
        # Lanes of every arity — including the unary sqrt and ternary
        # fma — interleaved so a sloppy batcher would mix them.
        config = ServiceConfig(max_batch=64, linger_ms=10)
        lanes = [
            ("mul", FP32, RNE),
            ("mul", FP32, RTZ),
            ("mul", FP64, RNE),
            ("add", FP32, RNE),
            ("sqrt", FP32, RNE),
            ("fma", FP32, RNE),
        ]
        rng = random.Random(11)
        subs = []
        for op, fmt, mode in lanes:
            arity = OP_ARITY[op]
            for _ in range(5):
                subs.append((op, fmt, mode) + tuple(
                    rng.randrange(fmt.word_mask + 1) for _ in range(arity)
                ))
        k = len(lanes)
        subs = [s for i in range(k) for s in subs[i::k]]
        results, batches = run_batched(config, subs)
        # Every executed batch is homogeneous: its operand tuples all
        # came from submissions for exactly that (op, format, mode) lane.
        by_lane = {}
        for sub in subs:
            by_lane.setdefault(sub[:3], set()).add(sub[3:])
        assert len(batches) >= len(lanes)
        seen_lanes = set()
        for op, fmt, mode, requests in batches:
            key = (op, fmt, mode)
            seen_lanes.add(key)
            assert set(requests) <= by_lane[key], (
                f"batch for {op}/{fmt.name}/{mode.value} contains "
                "operands submitted to another lane"
            )
        assert seen_lanes == set(by_lane)
        for sub, got in zip(subs, results):
            assert tuple(got) == scalar(*sub)

    def test_flag_sidebands_are_isolated_per_request(self):
        # An overflowing multiply next to exact ones: the neighbour's
        # overflow/inexact flags must not leak into the exact results.
        config = ServiceConfig(max_batch=8, linger_ms=10)
        exact = (0x3F800000, 0x40000000)   # 1.0 * 2.0, flags clean
        boom = (0x7F000000, 0x7F000000)    # overflows fp32
        subs = [
            ("mul", FP32, RNE, *exact),
            ("mul", FP32, RNE, *boom),
            ("mul", FP32, RNE, *exact),
        ]
        results, batches = run_batched(config, subs)
        assert len(batches) == 1 and len(batches[0][3]) == 3
        want_exact = scalar("mul", FP32, RNE, *exact)
        want_boom = scalar("mul", FP32, RNE, *boom)
        assert want_exact[1] == 0, "exact case should raise no flags"
        assert want_boom[1] != 0, "overflow case should raise flags"
        assert tuple(results[0]) == want_exact
        assert tuple(results[1]) == want_boom
        assert tuple(results[2]) == want_exact

    def test_random_burst_matches_scalar_for_all_ops_and_modes(self):
        # All six ops — every arity — across both modes in one burst.
        config = ServiceConfig(max_batch=16, linger_ms=10)
        rng = random.Random(23)
        subs = [
            (op, FP32, mode) + tuple(
                rng.randrange(FP32.word_mask + 1)
                for _ in range(OP_ARITY[op])
            )
            for op in OPS
            for mode in (RNE, RTZ)
            for _ in range(25)
        ]
        results, _batches = run_batched(config, subs)
        for sub, got in zip(subs, results):
            assert tuple(got) == scalar(*sub), (
                f"{sub[0]}/{sub[2].value} operands "
                + " ".join(f"{w:#x}" for w in sub[3:])
            )

    def test_unary_and_ternary_lanes_batch_and_scatter(self):
        # sqrt is the batcher's first unary lane, fma its first ternary
        # one: a burst into each must coalesce (not run one-by-one) and
        # scatter results bit-identical to the scalar datapaths.
        config = ServiceConfig(max_batch=8, linger_ms=10)
        rng = random.Random(31)
        subs = [
            ("sqrt", FP32, RNE, rng.randrange(FP32.word_mask + 1))
            for _ in range(6)
        ] + [
            ("fma", FP32, RNE,
             rng.randrange(FP32.word_mask + 1),
             rng.randrange(FP32.word_mask + 1),
             rng.randrange(FP32.word_mask + 1))
            for _ in range(6)
        ]
        results, batches = run_batched(config, subs)
        sqrt_batches = [b for b in batches if b[0] == "sqrt"]
        fma_batches = [b for b in batches if b[0] == "fma"]
        assert max(len(b[3]) for b in sqrt_batches) > 1
        assert max(len(b[3]) for b in fma_batches) > 1
        for b in sqrt_batches:
            assert all(len(t) == 1 for t in b[3])
        for b in fma_batches:
            assert all(len(t) == 3 for t in b[3])
        for sub, got in zip(subs, results):
            assert tuple(got) == scalar(*sub)

    @pytest.mark.parametrize("fmt", [FP16, BF16, FP32], ids=lambda f: f.name)
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_narrow_lane_batch_scatters_bit_exact(self, fmt, op, mode):
        # Narrow-lane formats: random words plus the flag-raising rails,
        # every request's (bits, flags) equal to its own scalar result.
        rng = random.Random(0xBEEF)
        requests = [
            (rng.randrange(fmt.word_mask + 1), rng.randrange(fmt.word_mask + 1))
            for _ in range(67)
        ]
        requests += [
            (fmt.max_finite(), fmt.max_finite()),  # overflow
            (fmt.min_normal(), fmt.min_normal()),  # mul underflow
            (fmt.nan(), fmt.one()),
            (fmt.inf(), fmt.zero()),
            (fmt.zero(1), fmt.zero()),
        ]
        results = execute_batch(op, fmt, mode, requests)
        assert len(results) == len(requests)
        for operands, got in zip(requests, results):
            assert tuple(got) == scalar(op, fmt, mode, *operands)

    def test_uint64_lanes_match_scalar(self):
        # div/sqrt/fma of the small formats and every fp64 op stay on
        # uint64 lanes; their batches scatter bit-exact all the same.
        rng = random.Random(7)
        for op, fmt in (("div", FP16), ("sqrt", FP16), ("fma", BF16),
                        ("mul", FP64)):
            assert lane_dtype(op, fmt) == "uint64"
            arity = OPS[op][2]
            requests = [
                tuple(rng.randrange(fmt.word_mask + 1) for _ in range(arity))
                for _ in range(9)
            ]
            results = execute_batch(op, fmt, RNE, requests)
            assert len(results) == len(requests)
            for operands, got in zip(requests, results):
                assert tuple(got) == scalar(op, fmt, RNE, *operands)

    def test_submit_rejects_wrong_arity(self):
        async def _run():
            batcher = MicroBatcher(ServiceConfig(), Telemetry())
            try:
                with pytest.raises(ValueError, match="exactly 1 operand"):
                    await batcher.submit("sqrt", FP32, RNE, 1, 2)
                with pytest.raises(ValueError, match="exactly 3 operands"):
                    await batcher.submit("fma", FP32, RNE, 1, 2)
                with pytest.raises(ValueError, match="exactly 2 operands"):
                    await batcher.submit("div", FP32, RNE, 1)
            finally:
                await batcher.close()

        asyncio.run(_run())


class TestIntegrityAndLifecycle:
    def test_spot_check_catches_divergence(self, monkeypatch, vector_path):
        # Corrupt the scalar reference for 'mul': the per-batch spot
        # check must now fail the whole batch with BatchIntegrityError.
        real_scalar, vec, arity = OPS["mul"]

        def corrupted(fmt, a, b, mode):
            bits, flags = real_scalar(fmt, a, b, mode)
            return bits ^ 1, flags

        monkeypatch.setitem(OPS, "mul", (corrupted, vec, arity))
        config = ServiceConfig(max_batch=4, linger_ms=5)
        with pytest.raises(BatchIntegrityError):
            run_batched(config, [("mul", FP32, RNE, 3, 5)])

    def test_failed_batch_traces_error_and_stages(self, monkeypatch, vector_path):
        # A sampled member of a failing batch still gets its pipeline
        # spans — with the dispatch span carrying the error tag.
        from repro.obs.trace import Trace

        real_scalar, vec, arity = OPS["mul"]

        def corrupted(fmt, a, b, mode):
            bits, flags = real_scalar(fmt, a, b, mode)
            return bits ^ 1, flags

        monkeypatch.setitem(OPS, "mul", (corrupted, vec, arity))
        config = ServiceConfig(max_batch=4, linger_ms=5)
        trace = Trace("t-batch-err", route="/v1/op/mul")

        async def _run():
            batcher = MicroBatcher(config, Telemetry(), RecordingExecutor())
            try:
                with pytest.raises(BatchIntegrityError):
                    await batcher.submit("mul", FP32, RNE, 3, 5, trace=trace)
            finally:
                await batcher.close()

        asyncio.run(_run())
        doc = trace.to_dict()
        names = [s["name"] for s in doc["spans"]]
        assert names == ["admission.wait", "batch.linger", "batch.dispatch"]
        assert doc["spans"][0]["tags"]["verdict"] == "ok"
        assert doc["spans"][2]["tags"]["error"] == "BatchIntegrityError"

    def test_spot_check_can_be_disabled(self, monkeypatch, vector_path):
        real_scalar, vec, arity = OPS["mul"]
        monkeypatch.setitem(
            OPS, "mul",
            (lambda *a: (_ for _ in ()).throw(AssertionError), vec, arity),
        )
        config = ServiceConfig(max_batch=4, linger_ms=5, spot_check=False)
        results, _ = run_batched(config, [("mul", FP32, RNE, 3, 5)])
        bits, flags = OPS["add"][0](FP32, 0, 0, RNE)  # sanity: OPS intact
        assert results[0] is not None

    def test_execute_batch_direct(self):
        pairs = [(0x3F800000, 0x3F800000), (0x40000000, 0x40400000)]
        out = execute_batch("mul", FP32, RNE, pairs)
        for (a, b), got in zip(pairs, out):
            assert tuple(got) == scalar("mul", FP32, RNE, a, b)

    def test_unknown_op_rejected(self):
        async def _run():
            batcher = MicroBatcher(ServiceConfig(), Telemetry())
            with pytest.raises(KeyError):
                await batcher.submit("mod", FP32, RNE, 1, 2)

        asyncio.run(_run())

    def test_closed_batcher_rejects_submissions(self):
        async def _run():
            batcher = MicroBatcher(ServiceConfig(), Telemetry())
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit("mul", FP32, RNE, 1, 2)

        asyncio.run(_run())

    def test_telemetry_observes_batches(self, vector_path):
        config = ServiceConfig(max_batch=4, linger_ms=10)
        executor = RecordingExecutor()
        telemetry = Telemetry()

        async def _run():
            batcher = MicroBatcher(config, telemetry, executor)
            try:
                await asyncio.gather(
                    *(batcher.submit("mul", FP32, RNE, i, i)
                      for i in range(8))
                )
            finally:
                await batcher.close()

        try:
            asyncio.run(_run())
        finally:
            executor.shutdown(wait=True)
        assert telemetry.batch_size.count == len(executor.batches)
        assert telemetry.batches_total.value(("mul", "fp32", "rne")) == len(
            executor.batches
        )
        assert telemetry.spot_checks_total.total == len(executor.batches)

    def test_scalar_path_batches_skip_the_spot_check(self):
        # Batches below the crossover ran on the scalar datapath, which
        # is the reference: no spot check, none counted, and their
        # dispatch spans say which path ran.
        from repro.fp.ops import runs_scalar
        from repro.obs.trace import Trace

        config = ServiceConfig(max_batch=4, linger_ms=10)
        executor = RecordingExecutor()
        telemetry = Telemetry()
        traces = [Trace(f"t-{i}", route="/v1/op/mul") for i in range(8)]

        async def _run():
            batcher = MicroBatcher(config, telemetry, executor)
            try:
                return await asyncio.gather(
                    *(batcher.submit("mul", FP32, RNE, i, i, trace=t)
                      for i, t in enumerate(traces))
                )
            finally:
                await batcher.close()

        try:
            results = asyncio.run(_run())
        finally:
            executor.shutdown(wait=True)
        assert all(runs_scalar("mul", FP32, len(b[3])) for b in executor.batches)
        assert telemetry.spot_checks_total.total == 0
        for i, got in enumerate(results):
            assert tuple(got) == scalar("mul", FP32, RNE, i, i)
        for trace in traces:
            (dispatch,) = [
                s for s in trace.to_dict()["spans"]
                if s["name"] == "batch.dispatch"
            ]
            assert dispatch["tags"]["path"] == "scalar"

    def test_vector_path_dispatch_span_says_vector(self, vector_path):
        from repro.obs.trace import Trace

        trace = Trace("t-vec", route="/v1/op/mul")

        async def _run():
            batcher = MicroBatcher(ServiceConfig(linger_ms=1), Telemetry())
            try:
                await batcher.submit("mul", FP32, RNE, 3, 5, trace=trace)
            finally:
                await batcher.close()

        asyncio.run(_run())
        (dispatch,) = [
            s for s in trace.to_dict()["spans"] if s["name"] == "batch.dispatch"
        ]
        assert dispatch["tags"]["path"] == "vector"
