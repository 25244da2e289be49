"""Figure 3: power versus pipeline stages at 100 MHz.

Clock/signal/logic power only (no I/O, no quiescent), per the paper.
Expected shape: power grows monotonically with depth at fixed frequency,
because every added register level adds flip-flops and clock-tree load;
wider formats sit strictly higher.
"""

from __future__ import annotations

from repro.analysis.series import SweepResult
from repro.fp.format import PAPER_FORMATS
from repro.power.xpower import estimate_power
from repro.units.explorer import UnitKind, explore


def run(
    kind: UnitKind = UnitKind.ADDER,
    frequency_mhz: float = 100.0,
) -> SweepResult:
    """Regenerate Fig 3a (adders) or Fig 3b (multipliers)."""
    max_stages = max(kind.datapath(fmt).sweep_depth for fmt in PAPER_FORMATS)
    result = SweepResult(
        title=f"Figure 3{'a' if kind is UnitKind.ADDER else 'b'}: "
        f"Power vs pipeline stages ({kind.value}s, {frequency_mhz:.0f} MHz)",
        x_label="stages",
        y_label="mW",
        x=tuple(float(s) for s in range(1, max_stages + 1)),
    )
    for fmt in PAPER_FORMATS:
        space = explore(fmt, kind, max_stages=max_stages)
        result.add_series(
            f"{fmt.width}-bit",
            [estimate_power(r, frequency_mhz).total_mw for r in space.reports],
        )
    return result


def run_both(frequency_mhz: float = 100.0) -> tuple[SweepResult, SweepResult]:
    """Both panels of Figure 3."""
    return (
        run(UnitKind.ADDER, frequency_mhz),
        run(UnitKind.MULTIPLIER, frequency_mhz),
    )
