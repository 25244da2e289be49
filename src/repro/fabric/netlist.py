"""Datapath descriptions: ordered chains of delay quanta with cut points.

A :class:`Datapath` is the synthesis-facing view of an FP unit: the
subunits of Figure 1 flattened into an ordered chain of :class:`Quantum`
elements.  A quantum is the smallest piece of combinational logic a
pipeline register cannot split (a mux level, one carry chunk, the
MULT18x18 primitive, half a priority encoder, ...).  Placing a stage
boundary *between* quanta is always legal; the register bits latched at a
boundary are recorded per quantum (``cut_bits``) because the live data
width varies along the path (two full operands early, one result late).

The chain is the **mantissa datapath** — the critical one at every stage
for the studied widths.  Exponent-path logic (subtractors, bias adjust)
runs in parallel and is strictly faster than the mantissa quanta it
accompanies; it is folded into the chain where it is locally the longer
branch and otherwise contributes area only.  Divisible subunits (the wide
adder, the mantissa multiplier) are expanded into one atomic "seed"
quantum (the primitive that cannot be cut: a carry chunk, the MULT18x18)
plus fine-grained remainder quanta, which reproduces the real freedom of
retiming inside a carry chain or partial-product tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fabric import area, timing
from repro.fp.format import FPFormat

#: Sideband bits carried with the data: 6 exception flags + DONE/valid.
SIDEBAND_BITS = 7

#: Grain (ns) used when expanding divisible subunits into quanta.
DIVISIBLE_GRAIN_NS = 0.5

#: Register levels a default stage sweep implements past the natural
#: maximum, so the over-pipelining dip in MHz/slice is visible (Figure 2).
OVERPIPELINE_STAGES = 4


@dataclass(frozen=True)
class Quantum:
    """An atomic piece of combinational logic in the chain.

    ``cut_bits`` is the number of bits a pipeline register placed
    immediately *after* this quantum must latch.
    """

    label: str
    delay_ns: float
    cut_bits: int

    def __post_init__(self) -> None:
        if self.delay_ns <= 0:
            raise ValueError(f"quantum {self.label!r} has non-positive delay")
        if self.cut_bits < 0:
            raise ValueError(f"quantum {self.label!r} has negative cut_bits")


@dataclass(frozen=True)
class Datapath:
    """A synthesizable unit: quanta chain + area summary."""

    name: str
    fmt: FPFormat
    quanta: tuple[Quantum, ...]
    comb_slices: float
    mult18: int
    output_bits: int

    @property
    def total_delay_ns(self) -> float:
        """End-to-end combinational delay (the 1-stage critical path)."""
        return sum(q.delay_ns for q in self.quanta)

    @property
    def max_atomic_ns(self) -> float:
        """The largest quantum — the floor of any stage's critical path."""
        return max(q.delay_ns for q in self.quanta)

    @property
    def natural_max_stages(self) -> int:
        """Stage count beyond which added registers cannot raise frequency."""
        return len(self.quanta)

    @property
    def sweep_depth(self) -> int:
        """The deepest implementation a default stage sweep builds."""
        return self.natural_max_stages + OVERPIPELINE_STAGES


def _divisible(
    label: str,
    total_ns: float,
    atomic_floor_ns: float,
    cut_bits: int,
    grain_ns: float = DIVISIBLE_GRAIN_NS,
) -> list[Quantum]:
    """Expand a divisible subunit into seed + fine-grained quanta."""
    if total_ns <= atomic_floor_ns:
        return [Quantum(label, total_ns, cut_bits)]
    rest = total_ns - atomic_floor_ns
    n = max(1, round(rest / grain_ns))
    piece = rest / n
    quanta = [Quantum(f"{label}[seed]", atomic_floor_ns, cut_bits)]
    quanta.extend(Quantum(f"{label}[{i + 1}/{n}]", piece, cut_bits) for i in range(n))
    return quanta


def _halves(label: str, total_ns: float, cut_bits: int) -> list[Quantum]:
    """A subunit splittable exactly once (e.g. the big priority encoder)."""
    return [
        Quantum(f"{label}[hi]", total_ns / 2, cut_bits),
        Quantum(f"{label}[lo]", total_ns / 2, cut_bits),
    ]


def _maybe_halves(
    label: str, total_ns: float, cut_bits: int, threshold_ns: float = 2.5
) -> list[Quantum]:
    """Split a library subunit in two when it would dominate a fast stage.

    Used for the rounding constant adders: they are library cores with
    insertable pipeline stages (paper §3), so wide ones must not become
    atomic frequency ceilings.
    """
    if total_ns > threshold_ns:
        return _halves(label, total_ns, cut_bits)
    return [Quantum(label, total_ns, cut_bits)]


def adder_datapath(fmt: FPFormat) -> Datapath:
    """Build the FP adder/subtractor chain of Figure 1a for ``fmt``."""
    we = fmt.exp_bits
    m = fmt.sig_bits  # significand incl. hidden bit
    wide = m + 3  # + guard/round/sticky
    shamt = max(1, math.ceil(math.log2(wide)))  # alignment shift amount bits

    quanta: list[Quantum] = []

    # Stage 1: denormalization / pre-shifting -----------------------------
    two_ops = 2 * (m + we + 1) + SIDEBAND_BITS
    quanta.append(
        Quantum("denorm.exp_zero_cmp", timing.small_comparator_delay(we), two_ops)
    )
    quanta.extend(_halves("swap.mantissa_cmp", timing.comparator_delay(m), two_ops + 1))
    # Swap muxes in parallel with the exponent subtractor (alignment
    # distance); the longer branch sets the quantum delay.
    after_swap = 2 * m + we + shamt + 2 + SIDEBAND_BITS
    quanta.append(
        Quantum(
            "swap.mux+exp_sub",
            max(timing.MUX_LEVEL_NS, timing.small_adder_delay(we)),
            after_swap,
        )
    )
    aligned = (wide + 1) + m + we + 2 + SIDEBAND_BITS
    for lvl in range(timing.shifter_levels(wide)):
        quanta.append(Quantum(f"align.shift[{lvl}]", timing.MUX_LEVEL_NS, aligned))

    # Stage 2: fixed-point add/sub ----------------------------------------
    sum_bits = (wide + 2) + we + SIDEBAND_BITS
    quanta.extend(
        _divisible(
            "mantissa_add",
            timing.adder_delay(wide),
            timing.CARRY_CHUNK_ATOMIC_NS,
            sum_bits,
        )
    )
    quanta.append(
        Quantum(
            "prenorm.shift+exp_inc",
            max(timing.MUX_LEVEL_NS, timing.const_adder_delay(we)),
            sum_bits,
        )
    )

    # Stage 3: normalize / round ------------------------------------------
    lz_bits = max(1, math.ceil(math.log2(wide + 1)))
    quanta.extend(
        _halves(
            "norm.priority_enc",
            timing.priority_encoder_delay(wide),
            sum_bits + lz_bits,
        )
    )
    normed = wide + we + 1 + SIDEBAND_BITS
    for lvl in range(timing.shifter_levels(m)):
        quanta.append(Quantum(f"norm.shift[{lvl}]", timing.MUX_LEVEL_NS, normed))
    quanta.append(Quantum("norm.exp_sub", timing.small_adder_delay(we), normed))
    quanta.extend(
        _maybe_halves(
            "round.mantissa_inc",
            timing.const_adder_delay(m + 1),
            fmt.width + SIDEBAND_BITS,
        )
    )
    quanta.append(
        Quantum(
            "round.exp_inc+pack",
            timing.const_adder_delay(we),
            fmt.width + SIDEBAND_BITS,
        )
    )

    comb = (
        2 * area.comparator_slices(we)  # denormalizers
        + area.comparator_slices(m)  # swap comparator
        + 2 * area.mux_slices(m)  # swap muxes
        + area.adder_slices(we)  # exponent subtractor
        + area.shifter_slices(wide)  # alignment shifter
        + area.adder_slices(wide)  # mantissa adder/subtractor
        + area.mux_slices(wide) / 2  # pre-normalizer shift
        + area.const_adder_slices(we)  # pre-normalizer exponent inc
        + area.priority_encoder_slices(wide)
        + area.shifter_slices(m)  # normalization shifter
        + area.adder_slices(we)  # exponent adjust
        + area.const_adder_slices(m + 1)  # rounding mantissa
        + area.const_adder_slices(we)  # rounding exponent
    )
    return Datapath(
        name=f"fpadd_{fmt.name}",
        fmt=fmt,
        quanta=tuple(quanta),
        comb_slices=comb,
        mult18=0,
        output_bits=fmt.width + SIDEBAND_BITS,
    )


def divider_datapath(fmt: FPFormat) -> Datapath:
    """Build the FP divider chain (library extension; see
    :mod:`repro.fp.divider`).

    The digit-recurrence array contributes one atomic quantum per row —
    naturally deeply pipelinable but quadratically large in area, which is
    why 2004-era designs (e.g. the Quixilica divider the paper's Table 3
    comparator ships) run dividers much deeper than adders.
    """
    we = fmt.exp_bits
    m = fmt.sig_bits

    quanta: list[Quantum] = []
    two_ops = 2 * (m + we + 1) + SIDEBAND_BITS
    quanta.append(
        Quantum("denorm.exp_zero_cmp", timing.small_comparator_delay(we), two_ops)
    )
    # Each recurrence row keeps the current partial remainder (m+1 bits),
    # the divisor (m bits) and the quotient bits produced so far.
    row_state = 2 * m + we + 1 + SIDEBAND_BITS
    row_delay = timing.divider_row_delay(m)
    for row in range(timing.divider_rows(m)):
        quanta.append(Quantum(f"divide.row[{row}]", row_delay, row_state))
    normed = m + 2 + we + 1 + SIDEBAND_BITS
    quanta.append(
        Quantum(
            "norm.shift1+exp_adj",
            max(timing.MUX_LEVEL_NS, timing.const_adder_delay(we)),
            normed,
        )
    )
    quanta.extend(
        _maybe_halves(
            "round.mantissa_inc",
            timing.const_adder_delay(m + 1),
            fmt.width + SIDEBAND_BITS,
        )
    )
    quanta.append(
        Quantum(
            "round.exp_inc+pack",
            timing.const_adder_delay(we),
            fmt.width + SIDEBAND_BITS,
        )
    )

    comb = (
        2 * area.comparator_slices(we)  # denormalizers
        + area.divider_array_slices(m)  # the recurrence array
        + 2 * area.adder_slices(we)  # exponent subtract + bias
        + area.mux_slices(m)  # 1-position normalize shifter
        + area.const_adder_slices(we)  # exponent adjust
        + area.const_adder_slices(m + 1)  # rounding mantissa
        + area.const_adder_slices(we)  # rounding exponent
    )
    return Datapath(
        name=f"fpdiv_{fmt.name}",
        fmt=fmt,
        quanta=tuple(quanta),
        comb_slices=comb,
        mult18=0,
        output_bits=fmt.width + SIDEBAND_BITS,
    )


def sqrt_datapath(fmt: FPFormat) -> Datapath:
    """Build the FP square-root chain (library extension; see
    :mod:`repro.fp.sqrt`).

    Same digit-recurrence structure as the divider — one row per result
    bit, each a trial subtract two bits wider than the divider's — with a
    trivial normalize (the root of a normal value is always in [1, 2)).
    """
    we = fmt.exp_bits
    m = fmt.sig_bits

    quanta: list[Quantum] = []
    one_op = (m + we + 1) + SIDEBAND_BITS
    quanta.append(
        Quantum("denorm.exp_zero_cmp", timing.small_comparator_delay(we), one_op)
    )
    quanta.append(
        Quantum(
            "exp_halve.parity_mux",
            max(timing.MUX_LEVEL_NS, timing.const_adder_delay(we)),
            one_op + 1,
        )
    )
    row_state = 2 * (m + 3) + m + we + SIDEBAND_BITS  # remainder + q + radicand tail
    row_delay = timing.divider_row_delay(m + 2)
    rows = m + 3  # result bits incl. guard/round/sticky seed
    for row in range(rows):
        quanta.append(Quantum(f"sqrt.row[{row}]", row_delay, row_state))
    quanta.extend(
        _maybe_halves(
            "round.mantissa_inc",
            timing.const_adder_delay(m + 1),
            fmt.width + SIDEBAND_BITS,
        )
    )
    quanta.append(
        Quantum(
            "round.exp_inc+pack",
            timing.const_adder_delay(we),
            fmt.width + SIDEBAND_BITS,
        )
    )

    comb = (
        area.comparator_slices(we)  # denormalizer (single operand)
        + area.mux_slices(m)  # parity pre-double mux
        + rows * (area.adder_slices(m + 2) + (m + 2) / 4)  # recurrence array
        + area.const_adder_slices(we)  # exponent halving/bias
        + area.const_adder_slices(m + 1)  # rounding mantissa
        + area.const_adder_slices(we)  # rounding exponent
    )
    return Datapath(
        name=f"fpsqrt_{fmt.name}",
        fmt=fmt,
        quanta=tuple(quanta),
        comb_slices=comb,
        mult18=0,
        output_bits=fmt.width + SIDEBAND_BITS,
    )


def multiplier_datapath(fmt: FPFormat) -> Datapath:
    """Build the FP multiplier chain of Figure 1b for ``fmt``."""
    we = fmt.exp_bits
    m = fmt.sig_bits

    quanta: list[Quantum] = []
    two_ops = 2 * (m + we + 1) + SIDEBAND_BITS
    quanta.append(
        Quantum("denorm.exp_zero_cmp", timing.small_comparator_delay(we), two_ops)
    )
    # Mantissa multiplier; the exponent adder -> bias subtractor pair runs
    # in parallel and is never the longer branch (<= 2.4 ns vs >= 2.8 ns
    # quanta here), so it contributes area only.
    partials = 2 * m + we + 1 + SIDEBAND_BITS
    quanta.extend(
        _divisible(
            "mantissa_mul",
            timing.multiplier_delay(m),
            timing.MULT18_ATOMIC_NS,
            partials,
        )
    )
    normed = m + 2 + we + 1 + SIDEBAND_BITS
    quanta.append(
        Quantum(
            "norm.shift2+exp_adj",
            max(timing.MUX_LEVEL_NS, timing.const_adder_delay(we)),
            normed,
        )
    )
    quanta.extend(
        _maybe_halves(
            "round.mantissa_inc",
            timing.const_adder_delay(m + 1),
            fmt.width + SIDEBAND_BITS,
        )
    )
    quanta.append(
        Quantum(
            "round.exp_inc+pack",
            timing.const_adder_delay(we),
            fmt.width + SIDEBAND_BITS,
        )
    )

    comb = (
        2 * area.comparator_slices(we)  # denormalizers
        + area.multiplier_tree_slices(m)  # partial-product adder tree
        + 2 * area.adder_slices(we)  # exponent adder + bias subtractor
        + area.mux_slices(m)  # 2-position normalize shifter
        + area.const_adder_slices(we)  # exponent adjust
        + area.const_adder_slices(m + 1)  # rounding mantissa
        + area.const_adder_slices(we)  # rounding exponent
    )
    return Datapath(
        name=f"fpmul_{fmt.name}",
        fmt=fmt,
        quanta=tuple(quanta),
        comb_slices=comb,
        mult18=area.mult18_count(m),
        output_bits=fmt.width + SIDEBAND_BITS,
    )
