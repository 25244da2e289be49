"""Differential tests: wavefront-batched array vs the stepped reference.

The batched simulator's contract is total equivalence with
:class:`MatmulArray` — same bits, same OR-ed flags, same cycle count,
same padding/utilization statistics, same RAW-hazard behaviour — so
every test here runs both and compares fields, never golden values.
"""

import numpy as np
import pytest

from repro.fp.format import BF16, FP16, FP32, FP48, FP64
from repro.fp.rounding import RoundingMode
from repro.kernels.batched import (
    MATMUL_BACKENDS,
    BatchedMatmulArray,
    FusedMatmulArray,
    array_cycles,
    hazard_count,
    mac_issue_cycle,
    make_matmul_array,
)
from repro.kernels.fast import functional_matmul_fma, functional_matmul_vectorized
from repro.kernels.matmul import MatmulArray, RAWHazard

from tests.kernels.test_matmul import rand_matrix

#: (n, L_mul, L_add) corners: n = 1, PL = 2 minimum, n < PL (deep
#: pipes), n == PL, shallow pipes, and an even split.
CORNERS = [(1, 2, 3), (2, 1, 1), (4, 7, 10), (6, 3, 5), (8, 4, 4), (9, 2, 2)]

FORMATS = (FP32, FP48, FP64, FP16, BF16)


def run_both(fmt, n, lm, la, rng, mode=RoundingMode.NEAREST_EVEN,
             pad_schedule=True, span=10.0):
    a = rand_matrix(fmt, n, rng, span)
    b = rand_matrix(fmt, n, rng, span)
    stepped = MatmulArray(fmt, n, lm, la, mode=mode,
                          pad_schedule=pad_schedule).run(a, b)
    batched = BatchedMatmulArray(fmt, n, lm, la, mode=mode,
                                 pad_schedule=pad_schedule).run(a, b)
    return stepped, batched


class TestDifferentialMatrix:
    """The satellite matrix: formats x modes x latency corners."""

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", list(RoundingMode))
    @pytest.mark.parametrize("n,lm,la", CORNERS)
    def test_run_for_run_identical(self, fmt, mode, n, lm, la, rng):
        stepped, batched = run_both(fmt, n, lm, la, rng, mode=mode)
        assert batched.c == stepped.c
        assert batched.flags == stepped.flags
        assert batched.cycles == stepped.cycles
        assert batched.issued_macs == stepped.issued_macs
        assert batched.padded_cycles == stepped.padded_cycles
        assert batched.hazards == stepped.hazards
        assert batched.pes == stepped.pes
        assert batched.pe_utilization == stepped.pe_utilization

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_raw_word_specials_identical(self, fmt, rng):
        """Uniform raw words make NaN/Inf/zero operands likely; the flag
        sideband and special propagation must still match exactly."""
        n = 6
        a = [[rng.randrange(fmt.word_mask + 1) for _ in range(n)]
             for _ in range(n)]
        b = [[rng.randrange(fmt.word_mask + 1) for _ in range(n)]
             for _ in range(n)]
        stepped = MatmulArray(fmt, n, 3, 5).run(a, b)
        batched = BatchedMatmulArray(fmt, n, 3, 5).run(a, b)
        assert batched.c == stepped.c
        assert batched.flags == stepped.flags

    def test_overflow_flags_identical(self):
        n = 2
        big = FP32.max_finite()
        m = [[big] * n for _ in range(n)]
        stepped = MatmulArray(FP32, n, 2, 3).run(m, m)
        batched = BatchedMatmulArray(FP32, n, 2, 3).run(m, m)
        assert batched.flags == stepped.flags
        assert batched.flags.overflow

    def test_matches_vectorized_functional_at_large_n(self, rng):
        n = 64
        a = rand_matrix(FP32, n, rng)
        b = rand_matrix(FP32, n, rng)
        run = BatchedMatmulArray(FP32, n, 3, 5).run(a, b)
        fast = functional_matmul_vectorized(
            FP32, np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
        )
        assert run.c == [[int(fast[i][j]) for j in range(n)] for i in range(n)]


class TestHazardEquivalence:
    """pad_schedule=False: both simulators raise identically or not at all."""

    @pytest.mark.parametrize("n,lm,la", [(4, 7, 10), (3, 9, 9), (2, 1, 2)])
    def test_identical_raise(self, n, lm, la, rng):
        a = rand_matrix(FP32, n, rng)
        b = rand_matrix(FP32, n, rng)
        with pytest.raises(RAWHazard) as stepped_exc:
            MatmulArray(FP32, n, lm, la, pad_schedule=False).run(a, b)
        with pytest.raises(RAWHazard) as batched_exc:
            BatchedMatmulArray(FP32, n, lm, la, pad_schedule=False).run(a, b)
        assert str(batched_exc.value) == str(stepped_exc.value)

    @pytest.mark.parametrize("n,lm,la", [(1, 3, 5), (9, 4, 5), (12, 4, 5)])
    def test_identical_safe_runs(self, n, lm, la, rng):
        """n = 1 (single update per accumulator), n == PL, n > PL: no
        hazards on either side, identical results."""
        stepped, batched = run_both(FP32, n, lm, la, rng, pad_schedule=False)
        assert stepped.hazards == batched.hazards == 0
        assert batched.c == stepped.c
        assert batched.cycles == stepped.cycles


class TestAnalyticSchedule:
    """The closed forms the batched simulator reconstructs the run from."""

    def test_issue_cycle_spacing_between_accumulator_reuses(self):
        # Consecutive updates of C[i][j] (wavefronts k-1, k) are exactly
        # `spacing` cycles apart — the paper's hazard rule, analytically.
        spacing = 11
        for pe in (0, 3):
            for i in (0, 4):
                for k in (1, 5):
                    assert (
                        mac_issue_cycle(i, k, pe, spacing)
                        - mac_issue_cycle(i, k - 1, pe, spacing)
                    ) == spacing

    def test_wavefront_dependencies_retired(self):
        # Every wavefront-k MAC issues at least PL cycles after the
        # wavefront-(k-1) MAC on the same accumulator whenever
        # spacing >= PL: the batching is hazard-free by construction.
        n, pl = 5, 9
        spacing = max(n, pl)
        for pe in range(n):
            for i in range(n):
                for k in range(1, n):
                    gap = mac_issue_cycle(i, k, pe, spacing) - mac_issue_cycle(
                        i, k - 1, pe, spacing
                    )
                    assert gap >= pl

    @pytest.mark.parametrize("n,pl", [(2, 9), (4, 17), (8, 8), (12, 5), (17, 17)])
    def test_array_cycles_matches_stepped(self, n, pl, rng):
        lm, la = pl // 2, pl - pl // 2
        a = rand_matrix(FP32, n, rng)
        b = rand_matrix(FP32, n, rng)
        run = MatmulArray(FP32, n, lm, la).run(a, b)
        assert array_cycles(n, pl, max(n, pl)) == run.cycles

    def test_hazard_count_zero_iff_spacing_covers_latency(self):
        assert hazard_count(8, 8, 8) == 0
        assert hazard_count(8, 9, 16) == 0
        assert hazard_count(1, 5, 1) == 0  # single update per accumulator
        assert hazard_count(4, 17, 4) == 4 * 4 * 3

    def test_hazard_count_matches_stepped_exception_message(self, rng):
        n, lm, la = 4, 7, 10
        a = rand_matrix(FP32, n, rng)
        b = rand_matrix(FP32, n, rng)
        with pytest.raises(RAWHazard, match=f"^{hazard_count(n, lm + la, n)} "):
            MatmulArray(FP32, n, lm, la, pad_schedule=False).run(a, b)


class TestConstructionAndFactory:
    def test_rejects_bad_problem_size(self):
        with pytest.raises(ValueError, match="problem size"):
            BatchedMatmulArray(FP32, 0, 2, 3)

    def test_rejects_wrong_shape_like_stepped(self, rng):
        arr = BatchedMatmulArray(FP32, 3, 2, 3)
        bad = [[FP32.zero()] * 2] * 3
        with pytest.raises(ValueError, match="must be 3x3"):
            arr.run(bad, rand_matrix(FP32, 3, rng))

    def test_rejects_out_of_range_words(self):
        arr = BatchedMatmulArray(FP32, 2, 2, 3)
        bad = [[1 << 40, 0], [0, 0]]
        good = [[FP32.zero()] * 2] * 2
        with pytest.raises(ValueError, match="out-of-range"):
            arr.run(bad, good)

    def test_accepts_numpy_input(self, rng):
        n = 4
        a = np.array(rand_matrix(FP32, n, rng), dtype=np.uint64)
        b = np.array(rand_matrix(FP32, n, rng), dtype=np.uint64)
        run = BatchedMatmulArray(FP32, n, 2, 3).run(a, b)
        stepped = MatmulArray(FP32, n, 2, 3).run(a.tolist(), b.tolist())
        assert run.c == stepped.c

    def test_factory_backends(self):
        assert isinstance(
            make_matmul_array(FP32, 4, 2, 3, backend="stepped"), MatmulArray
        )
        assert isinstance(
            make_matmul_array(FP32, 4, 2, 3, backend="batched"), BatchedMatmulArray
        )
        assert isinstance(
            make_matmul_array(FP32, 4, 2, 3, backend="fma"), FusedMatmulArray
        )
        assert set(MATMUL_BACKENDS) == {"stepped", "batched", "fma"}

    def test_factory_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown matmul backend"):
            make_matmul_array(FP32, 4, 2, 3, backend="quantum")

    def test_factory_forwards_schedule_options(self, rng):
        arr = make_matmul_array(
            FP32, 4, 7, 10, mode=RoundingMode.TRUNCATE, pad_schedule=False
        )
        assert arr.mode is RoundingMode.TRUNCATE
        assert not arr.pad_schedule
        with pytest.raises(RAWHazard):
            arr.run(rand_matrix(FP32, 4, rng), rand_matrix(FP32, 4, rng))


class TestFusedBackend:
    """The fma backend: one rounding per MAC, schedule untouched."""

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_bit_identical_to_scalar_fused_pe(self, fmt, mode, rng):
        from repro.fp.mac import fp_fma

        n = 5
        a = rand_matrix(fmt, n, rng)
        b = rand_matrix(fmt, n, rng)
        run = FusedMatmulArray(fmt, n, 3, 5, mode=mode).run(a, b)
        for i in range(n):
            for j in range(n):
                acc = fmt.zero()
                for k in range(n):
                    acc, _ = fp_fma(fmt, a[i][k], b[k][j], acc, mode)
                assert run.c[i][j] == acc, (i, j)

    def test_matches_functional_fma_reference(self, rng):
        n = 6
        a = np.array(rand_matrix(FP32, n, rng), dtype=np.uint64)
        b = np.array(rand_matrix(FP32, n, rng), dtype=np.uint64)
        run = FusedMatmulArray(FP32, n, 3, 5).run(a, b)
        want = functional_matmul_fma(FP32, a, b)
        assert run.c == [[int(want[i][j]) for j in range(n)] for i in range(n)]

    def test_halves_roundings_and_keeps_schedule(self, rng):
        n = 6
        fused = FusedMatmulArray(FP32, n, 3, 5)
        chained = BatchedMatmulArray(FP32, n, 3, 5)
        assert fused.roundings_per_mac == 1
        assert chained.roundings_per_mac == 2
        assert fused.total_roundings == n ** 3
        assert fused.total_roundings < chained.total_roundings
        a = rand_matrix(FP32, n, rng)
        b = rand_matrix(FP32, n, rng)
        frun = fused.run(a, b)
        crun = chained.run(a, b)
        # Fusing changes the PE datapath, never the systolic schedule.
        assert frun.cycles == crun.cycles
        assert frun.issued_macs == crun.issued_macs
        assert frun.padded_cycles == crun.padded_cycles
        assert frun.hazards == crun.hazards
        assert frun.pes == crun.pes

    def test_fused_differs_where_product_rounding_matters(self, rng):
        # With enough random accumulations some product's round-off must
        # show: if the two backends never diverged, fusing would be a
        # no-op and the ablation meaningless.
        diverged = False
        for _ in range(5):
            n = 8
            a = rand_matrix(FP32, n, rng)
            b = rand_matrix(FP32, n, rng)
            frun = FusedMatmulArray(FP32, n, 3, 5).run(a, b)
            crun = BatchedMatmulArray(FP32, n, 3, 5).run(a, b)
            if frun.c != crun.c:
                diverged = True
                break
        assert diverged

    def test_unpadded_hazard_raises_like_chained(self, rng):
        with pytest.raises(RAWHazard):
            FusedMatmulArray(FP32, 4, 7, 10, pad_schedule=False).run(
                rand_matrix(FP32, 4, rng), rand_matrix(FP32, 4, rng)
            )

    def test_fused_matmul_ablation_table(self):
        from repro.experiments.ablations import fused_matmul_ablation

        table = fused_matmul_ablation(n=4, seed=7)
        text = str(table)
        assert "fused MAC" in text and "chained (mul -> add)" in text
        rows = table.rows
        chained_row = next(r for r in rows if r[0].startswith("chained"))
        fused_row = next(r for r in rows if r[0] == "fused MAC")
        assert fused_row[1] * 2 == chained_row[1]  # half the roundings
        assert fused_row[2] <= chained_row[2]  # never less accurate on mean


class TestWavefrontTracing:
    """Traced runs record one kernel.wavefront span per round."""

    def test_vectorized_run_opens_one_span_per_wavefront(self, rng):
        from repro.obs.trace import Trace

        n = 6
        a, b = rand_matrix(FP64, n, rng), rand_matrix(FP64, n, rng)
        array = BatchedMatmulArray(FP64, n, 3, 5)
        trace = Trace("kernel-test")
        run = array.run(a, b, trace=trace)
        spans = [s for s in trace.spans if s.name == "kernel.wavefront"]
        assert len(spans) == n
        assert [s.tags["k"] for s in spans] == list(range(n))
        assert all(s.tags["dtype"] == "uint64" for s in spans)
        assert all(s.t1 >= s.t0 for s in spans)
        # Tracing must not perturb the arithmetic.
        untraced = BatchedMatmulArray(FP64, n, 3, 5).run(a, b)
        assert run.c == untraced.c

    @pytest.mark.parametrize(
        "fmt_name,backend,dtype",
        [
            ("fp16", "batched", "uint16"),
            ("bf16", "batched", "uint16"),
            ("fp32", "batched", "uint32"),
            ("fp16", "fma", "uint64"),
        ],
    )
    def test_wavefront_spans_tag_the_lane_dtype(self, fmt_name, backend, dtype, rng):
        from repro.fp.format import ALL_FORMATS
        from repro.obs.trace import Trace

        fmt = {f.name: f for f in ALL_FORMATS}[fmt_name]
        n = 5
        a, b = rand_matrix(fmt, n, rng), rand_matrix(fmt, n, rng)
        trace = Trace("kernel-test-lanes")
        array = make_matmul_array(fmt, n, 3, 5, backend=backend)
        run = array.run(a, b, trace=trace)
        spans = [s for s in trace.spans if s.name == "kernel.wavefront"]
        assert len(spans) == n
        assert all(s.tags["dtype"] == dtype for s in spans)
        untraced = make_matmul_array(fmt, n, 3, 5, backend=backend).run(a, b)
        assert run.c == untraced.c

    def test_untraced_run_records_nothing(self, rng):
        n = 4
        a, b = rand_matrix(FP32, n, rng), rand_matrix(FP32, n, rng)
        BatchedMatmulArray(FP32, n, 3, 5).run(a, b)  # no trace: no error
