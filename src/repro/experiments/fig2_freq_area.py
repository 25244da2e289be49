"""Figure 2: frequency/area (MHz/slice) versus pipeline stages.

One curve per precision (32/48/64-bit), separately for the adders
(Fig 2a) and multipliers (Fig 2b).  Expected shape, per the paper: the
curves rise steeply with the first stages, "flatten out towards the end
and may dip for deep pipelining" — diminishing returns once the atomic
logic elements bound the clock while register area keeps growing.
"""

from __future__ import annotations

from repro.analysis.series import SweepResult
from repro.fp.format import PAPER_FORMATS
from repro.units.explorer import UnitKind, explore


def run(kind: UnitKind = UnitKind.ADDER) -> SweepResult:
    """Regenerate Fig 2a (adders) or Fig 2b (multipliers)."""
    max_stages = max(kind.datapath(fmt).sweep_depth for fmt in PAPER_FORMATS)
    result = SweepResult(
        title=f"Figure 2{'a' if kind is UnitKind.ADDER else 'b'}: "
        f"Freq/Area vs pipeline stages ({kind.value}s)",
        x_label="stages",
        y_label="MHz/slice",
        x=tuple(float(s) for s in range(1, max_stages + 1)),
    )
    for fmt in PAPER_FORMATS:
        space = explore(fmt, kind, max_stages=max_stages)
        result.add_series(f"{fmt.width}-bit", [r.freq_per_area for r in space.reports])
    return result


def run_both() -> tuple[SweepResult, SweepResult]:
    """Both panels of Figure 2."""
    return run(UnitKind.ADDER), run(UnitKind.MULTIPLIER)
