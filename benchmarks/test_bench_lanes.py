"""Perf gates for the narrow lane dtypes.

The lane choice's whole claim is throughput: fp16/bf16 add/sub/mul on
``uint16`` lanes must actually beat the same ``vec_*`` code pinned to
``uint64`` lanes, not just match it bit-for-bit (the differential
campaign and golden corpora own correctness; ``lanes_bench``
cross-checks again regardless).  The gated points are the ``uint16``
multiplies — the op the mixed-precision matmul ablation leans on — at a
size (2^20) where the ratio is stable on noisy hosts.
"""

from repro.bench import lanes_bench, render, row_values

#: The gated floor for the uint16 small-format multiplies.  Measured
#: headroom is ~1.9-2.5x on a 2-vCPU host; 1.8x leaves room for
#: scheduler noise without ever accepting a regression to parity.
GATE = 1.8

_snapshot: dict | None = None


def _shared_snapshot() -> dict:
    # One measured run shared by every gate in the module: the bench is
    # seconds-long at n=2^20 and the gates read different rows of the
    # same snapshot.  Best-of-5 because the uint64 baseline shares the
    # uint8 flag path, which leaves less headroom above the floor.
    global _snapshot
    if _snapshot is None:
        _snapshot = lanes_bench(repeats=5, seed=0)
    return _snapshot


def test_uint16_mul_fp16_speedup(show_once):
    snapshot = _shared_snapshot()
    show_once("bench.lanes", render(snapshot))
    speedup = row_values(snapshot)["lane_vs_uint64.mul.fp16"]
    assert speedup >= GATE, (
        f"fp16 mul on uint16 lanes only {speedup:.2f}x over uint64 lanes "
        f"(gate {GATE}x)"
    )


def test_uint16_mul_bf16_speedup(show_once):
    snapshot = _shared_snapshot()
    show_once("bench.lanes", render(snapshot))
    speedup = row_values(snapshot)["lane_vs_uint64.mul.bf16"]
    assert speedup >= GATE, (
        f"bf16 mul on uint16 lanes only {speedup:.2f}x over uint64 lanes "
        f"(gate {GATE}x)"
    )


def test_lanes_snapshot_covers_every_lane(show_once):
    """Informational coverage: every narrow (format, lane) has both a
    native and a uint64 timing plus a speedup ratio."""
    snapshot = _shared_snapshot()
    assert set(snapshot) == {"schema", "suite", "config", "context", "rows"}
    values = row_values(snapshot)
    n = snapshot["config"]["n"]
    for fmt_name, dtype in (("fp16", "uint16"), ("bf16", "uint16"), ("fp32", "uint32")):
        for op in ("add", "sub", "mul"):
            assert f"{dtype}.{op}.{fmt_name}.n{n}" in values
            assert f"uint64.{op}.{fmt_name}.n{n}" in values
            assert values[f"lane_vs_uint64.{op}.{fmt_name}"] > 0


def test_every_crossover_entry_has_a_row(show_once):
    """The committed :data:`repro.fp.ops.CROSSOVER` literal is set from
    the sweep's ``crossover.<op>.<fmt>`` rows: the sweep must measure
    every entry, each on its power-of-two grid (or just past it)."""
    from repro.bench import CROSSOVER_GRID
    from repro.fp.ops import CROSSOVER

    snapshot = _shared_snapshot()
    show_once("bench.lanes", render(snapshot))
    values = row_values(snapshot)
    allowed = set(CROSSOVER_GRID) | {2 * CROSSOVER_GRID[-1]}
    for op, row in CROSSOVER.items():
        for fmt in row:
            assert values[f"crossover.{op}.{fmt.name}"] in allowed, (op, fmt.name)
