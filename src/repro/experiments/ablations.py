"""Ablation studies on the design choices the paper calls out.

These go beyond the paper's tables/figures: each isolates one modelling
or design knob and quantifies its effect.

* :func:`tool_objective_ablation` — the paper stresses that synthesis/P&R
  optimization objectives give "vastly different results"; this sweeps
  speed/balanced/area on the optimal implementations.
* :func:`congestion_ablation` — sensitivity of the §4.2 GFLOPS numbers to
  the full-device P&R congestion factor (our main uncalibrated constant).
* :func:`rounding_mode_ablation` — kernel-level numerical effect of the
  paper's two rounding modes (truncation is biased; RNE is centred),
  measured on cycle-accurate matmul runs against exact arithmetic.
* :func:`fused_mac_ablation` — the chained-PE (paper) vs fused-MAC PE
  (extension): single rounding removes the intermediate error.
* :func:`mixed_precision_matmul_ablation` — fp16/bf16 inputs computed
  in-format (the ``uint16`` lane datapaths) vs losslessly widened to fp32
  for the multiply-accumulate: what an fp32 accumulator buys back.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.analysis.tables import Table
from repro.baselines.processors import PENTIUM4_2_53
from repro.experiments.sec42_matmul import model_for
from repro.fabric.device import XC2VP125
from repro.fabric.synthesis import synthesize
from repro.fabric.toolchain import Objective
from repro.fp.adder import fp_add
from repro.fp.format import FP32, PAPER_FORMATS
from repro.fp.mac import fp_fma
from repro.fp.multiplier import fp_mul
from repro.fp.rounding import RoundingMode
from repro.fp.value import FPValue
from repro.kernels.batched import make_matmul_array
from repro.units.explorer import UnitKind, explore


def tool_objective_ablation() -> Table:
    """Speed vs balanced vs area objectives on the optimal units."""
    table = Table(
        "Ablation: synthesis/P&R optimization objective",
        ("Unit", "Objective", "Stages", "Slices", "Clock (MHz)", "MHz/slice"),
    )
    for fmt in PAPER_FORMATS:
        for kind in (UnitKind.ADDER, UnitKind.MULTIPLIER):
            opt = explore(fmt, kind).optimal.report
            dp = kind.datapath(fmt)
            for objective in (Objective.SPEED, Objective.BALANCED, Objective.AREA):
                r = synthesize(dp, opt.stages, objective=objective)
                table.add_row(
                    f"{fmt.width}-bit {kind.value}",
                    objective.value,
                    r.stages,
                    r.slices,
                    r.clock_mhz,
                    r.freq_per_area,
                )
    return table


def congestion_ablation(
    factors: tuple[float, ...] = (1.0, 1.2, 1.35, 1.5),
) -> Table:
    """GFLOPS sensitivity to the full-device congestion factor."""
    table = Table(
        "Ablation: P&R congestion factor vs device GFLOPS (XC2VP125, fp32)",
        ("Congestion", "PEs", "GFLOPS", "vs Pentium 4"),
    )
    model = model_for(FP32)
    for factor in factors:
        fill = model.device_fill(XC2VP125, congestion=factor)
        gflops = 2.0 * fill.pes * model.frequency_mhz / 1000.0
        table.add_row(
            factor,
            fill.pes,
            gflops,
            gflops / PENTIUM4_2_53.sgemm_gflops,
        )
    return table


def rounding_mode_ablation(n: int = 8, seed: int = 11, backend: str = "batched") -> Table:
    """Numerical effect of RNE vs truncation on a cycle-accurate matmul.

    Errors are measured against exact rational arithmetic.  Truncation
    rounds every partial toward zero, so its error grows systematically;
    RNE errors partially cancel.  Runs on the wavefront-batched
    simulator by default (bit-identical to the stepped model, so the
    emitted table is byte-identical either way); pass
    ``backend="stepped"`` to use the clock-by-clock reference.
    """
    rng = random.Random(seed)
    vals_a = [[rng.uniform(0.5, 2.0) for _ in range(n)] for _ in range(n)]
    vals_b = [[rng.uniform(0.5, 2.0) for _ in range(n)] for _ in range(n)]
    a = [[FPValue.from_float(FP32, v).bits for v in row] for row in vals_a]
    b = [[FPValue.from_float(FP32, v).bits for v in row] for row in vals_b]
    exact_a = [[FPValue(FP32, x).to_fraction() for x in row] for row in a]
    exact_b = [[FPValue(FP32, x).to_fraction() for x in row] for row in b]
    exact_c = [
        [sum(exact_a[i][k] * exact_b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]

    table = Table(
        f"Ablation: rounding mode on a {n}x{n} cycle-accurate matmul",
        ("Mode", "Mean rel. error", "Max rel. error", "Signed mean error"),
    )
    for mode in RoundingMode:
        run = make_matmul_array(FP32, n, 3, 5, mode=mode, backend=backend).run(a, b)
        rel = []
        signed = Fraction(0)
        for i in range(n):
            for j in range(n):
                got = FPValue(FP32, run.c[i][j]).to_fraction()
                err = (got - exact_c[i][j]) / exact_c[i][j]
                rel.append(abs(err))
                signed += err
        table.add_row(
            mode.value,
            float(sum(rel) / len(rel)),
            float(max(rel)),
            float(signed / len(rel)),
        )
    return table


def fused_mac_ablation(samples: int = 200, length: int = 32, seed: int = 3) -> Table:
    """Chained multiplier->adder PE vs a fused-MAC PE on dot products."""
    rng = random.Random(seed)
    table = Table(
        "Ablation: chained PE (paper) vs fused-MAC PE (extension)",
        ("PE datapath", "Roundings per MAC", "Mean |rel. error|", "Max |rel. error|"),
    )
    chained_errs: list[Fraction] = []
    fused_errs: list[Fraction] = []
    for _ in range(samples):
        xs = [FPValue.from_float(FP32, rng.uniform(-1, 1)).bits for _ in range(length)]
        ys = [FPValue.from_float(FP32, rng.uniform(-1, 1)).bits for _ in range(length)]
        exact = sum(
            FPValue(FP32, x).to_fraction() * FPValue(FP32, y).to_fraction()
            for x, y in zip(xs, ys)
        )
        if exact == 0:
            continue
        acc_c = FP32.zero()
        acc_f = FP32.zero()
        for x, y in zip(xs, ys):
            p, _ = fp_mul(FP32, x, y)
            acc_c, _ = fp_add(FP32, acc_c, p)
            acc_f, _ = fp_fma(FP32, x, y, acc_f)
        chained_errs.append(
            abs((FPValue(FP32, acc_c).to_fraction() - exact) / exact)
        )
        fused_errs.append(abs((FPValue(FP32, acc_f).to_fraction() - exact) / exact))
    table.add_row(
        "chained (mul -> add)",
        2,
        float(sum(chained_errs) / len(chained_errs)),
        float(max(chained_errs)),
    )
    table.add_row(
        "fused MAC",
        1,
        float(sum(fused_errs) / len(fused_errs)),
        float(max(fused_errs)),
    )
    return table


def fused_matmul_ablation(n: int = 8, seed: int = 7) -> Table:
    """Chained vs fused-MAC PE on full cycle-accurate matmul runs.

    Complements :func:`fused_mac_ablation` (dot products) at the array
    level: the same operand matrices run through the chained
    ``"batched"`` backend and the fused ``"fma"`` backend, and their
    error against exact rational arithmetic is compared.  The fused run
    performs exactly half the roundings (``n^3`` vs ``2 n^3``), which
    the table records alongside the accuracy.  Not in the experiment
    registry (the checked-in ``results/`` set is frozen); run it via
    the API or the kernel test suite.
    """
    rng = random.Random(seed)
    vals_a = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    vals_b = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    a = [[FPValue.from_float(FP32, v).bits for v in row] for row in vals_a]
    b = [[FPValue.from_float(FP32, v).bits for v in row] for row in vals_b]
    exact_a = [[FPValue(FP32, x).to_fraction() for x in row] for row in a]
    exact_b = [[FPValue(FP32, x).to_fraction() for x in row] for row in b]
    exact_c = [
        [sum(exact_a[i][k] * exact_b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]

    table = Table(
        f"Ablation: chained vs fused-MAC PE on a {n}x{n} matmul",
        ("Backend", "Total roundings", "Mean |rel. error|", "Max |rel. error|"),
    )
    for backend in ("batched", "fma"):
        sim = make_matmul_array(FP32, n, 3, 5, backend=backend)
        run = sim.run(a, b)
        rel = []
        for i in range(n):
            for j in range(n):
                if exact_c[i][j] == 0:
                    continue
                got = FPValue(FP32, run.c[i][j]).to_fraction()
                rel.append(abs((got - exact_c[i][j]) / exact_c[i][j]))
        table.add_row(
            "chained (mul -> add)" if backend == "batched" else "fused MAC",
            sim.total_roundings,
            float(sum(rel) / len(rel)),
            float(max(rel)),
        )
    return table


def mixed_precision_matmul_ablation(n: int = 8, seed: int = 13) -> Table:
    """Small-format inputs with and without an fp32 accumulator.

    The ``uint16`` lane datapaths make fp16/bf16 matmuls about 2x
    cheaper than ``uint64`` lanes; this ablation quantifies what the narrow formats
    cost in accuracy — and how much of it an fp32 accumulator buys
    back.  For each small format the same operand matrices (quantized
    to the small format, so encoding error is shared by every row) run
    two ways: entirely in the small format (the narrow lane), and with
    the inputs losslessly widened to fp32 for fp32 multiply-accumulate
    (the classic mixed-precision recipe).  Error is measured against
    exact rational arithmetic on the small-format inputs.  Not in the
    experiment registry (the checked-in ``results/`` set is frozen),
    same as :func:`fused_matmul_ablation`.
    """
    import numpy as np

    from repro.fp.convert import fp_convert
    from repro.fp.format import SMALL_FORMATS
    from repro.kernels.fast import functional_matmul_vectorized

    mode = RoundingMode.NEAREST_EVEN
    rng = random.Random(seed)
    vals_a = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    vals_b = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]

    table = Table(
        f"Ablation: mixed-precision accumulate on a {n}x{n} matmul",
        ("Inputs", "Accumulator", "Mean |rel. error|", "Max |rel. error|"),
    )
    for fmt in SMALL_FORMATS:
        a = [[FPValue.from_float(fmt, v).bits for v in row] for row in vals_a]
        b = [[FPValue.from_float(fmt, v).bits for v in row] for row in vals_b]
        exact_a = [[FPValue(fmt, x).to_fraction() for x in row] for row in a]
        exact_b = [[FPValue(fmt, x).to_fraction() for x in row] for row in b]
        exact_c = [
            [
                sum(exact_a[i][k] * exact_b[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        # fp32 subsumes both small formats (wider exponent and
        # fraction), so the widening conversions are exact: the two
        # runs share identical real-valued inputs and differ only in
        # compute precision.
        a32 = [[fp_convert(fmt, FP32, x, mode)[0] for x in row] for row in a]
        b32 = [[fp_convert(fmt, FP32, x, mode)[0] for x in row] for row in b]
        runs = (
            (fmt, np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)),
            (FP32, np.array(a32, dtype=np.uint64),
             np.array(b32, dtype=np.uint64)),
        )
        for acc_fmt, a_np, b_np in runs:
            c = functional_matmul_vectorized(acc_fmt, a_np, b_np, mode)
            rel = []
            for i in range(n):
                for j in range(n):
                    if exact_c[i][j] == 0:
                        continue
                    got = FPValue(acc_fmt, int(c[i][j])).to_fraction()
                    rel.append(abs((got - exact_c[i][j]) / exact_c[i][j]))
            table.add_row(
                fmt.name,
                acc_fmt.name,
                float(sum(rel) / len(rel)),
                float(max(rel)),
            )
    return table


def register_sharing_ablation(
    factors: tuple[float, ...] = (0.0, 0.25, 0.55, 0.8, 1.0),
) -> Table:
    """Sweep the slice-FF sharing discount on pipeline registers.

    The paper's enabling observation is that "pipelining can utilize the
    large number of flipflops already present in the fabric"; this
    quantifies it.  With no sharing (factor 1.0: every latched bit costs
    half a slice), the freq/area-optimal adder retreats to a shallower
    depth and a lower metric; with free registers (0.0) the optimum rides
    the clock ceiling.
    """
    table = Table(
        "Ablation: register slice cost vs the fp32 adder's optimum",
        ("FF cost factor", "Opt stages", "Opt slices", "Opt MHz", "Opt MHz/slice"),
    )
    from repro.fabric.netlist import adder_datapath

    dp = adder_datapath(FP32)
    for factor in factors:
        reports = [
            synthesize(dp, s, ff_sharing=factor)
            for s in range(1, dp.sweep_depth + 1)
        ]
        best = max(reports, key=lambda r: r.freq_per_area)
        table.add_row(
            factor, best.stages, best.slices, best.clock_mhz, best.freq_per_area
        )
    return table
