"""Benchmarks regenerating Section 4.2 and Figures 4-6 (kernel level),
plus the wavefront-batched simulator's perf gates."""

import time

from repro.bench import kernel_bench, row_values
from repro.experiments import (
    fig4_energy_distribution,
    fig5_problem_size,
    fig6_block_size,
    sec42_matmul,
)
from repro.fp.format import FP32
from repro.kernels.batched import BatchedMatmulArray
from repro.kernels.performance import kernel_schedule_cycles


def test_sec42_device_gflops(benchmark, show_once):
    table = benchmark(sec42_matmul.run)
    show_once("sec4.2", table)
    gflops = table.column("GFLOPS")
    assert gflops[0] > gflops[1]  # single beats double


def test_fig4_energy_distribution(benchmark, show_once):
    table = benchmark(fig4_energy_distribution.run)
    show_once("fig4", table)
    assert len(table.rows) == 6  # 2 problem sizes x 3 configs


def test_fig5_problem_size(benchmark, show_once):
    fig = benchmark(fig5_problem_size.run)
    show_once("fig5", fig)
    assert len(fig.energy.series) == 3


def test_fig6_block_size(benchmark, show_once):
    fig = benchmark(fig6_block_size.run)
    show_once("fig6", fig)
    assert len(fig.energy.series) == 3


def test_batched_speedup_over_stepped(show_once):
    """The tentpole perf gate: the wavefront-batched simulator must beat
    the clock-by-clock array by >= 10x at n = 32, FP32 (kernel_bench
    itself cross-checks the two runs bit-for-bit)."""
    snapshot = kernel_bench(sizes=(32,), scan_sizes=(), repeats=3)
    speedup = row_values(snapshot)["batched_vs_stepped.fp32.n32"]
    show_once("bench.speedup", f"batched vs stepped @ n=32 fp32: {speedup:.1f}x")
    assert speedup >= 10.0, f"batched only {speedup:.1f}x faster than stepped"


def test_batched_n256_in_single_digit_seconds(show_once):
    """Fig 5/6-scale scans: one n = 256 FP32 run must finish in
    single-digit seconds with the exact analytic cycle count."""
    import random

    n = 256
    rng = random.Random(0)
    a = [[rng.randrange(FP32.word_mask + 1) for _ in range(n)] for _ in range(n)]
    b = [[rng.randrange(FP32.word_mask + 1) for _ in range(n)] for _ in range(n)]
    arr = BatchedMatmulArray(FP32, n, 3, 5)
    t0 = time.perf_counter()
    run = arr.run(a, b)
    elapsed = time.perf_counter() - t0
    show_once("bench.n256", f"batched n=256 fp32: {elapsed:.2f}s, "
              f"{run.cycles} cycles, util={run.pe_utilization:.3f}")
    assert elapsed < 10.0, f"n=256 took {elapsed:.1f}s"
    assert run.cycles == kernel_schedule_cycles(n, 8)
    assert run.issued_macs == n**3
