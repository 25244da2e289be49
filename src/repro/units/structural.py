"""Structural (stage-by-stage) FP cores on the staged-pipeline substrate.

Unlike :class:`~repro.units.explorer.PipelinedFPAdder` — whose pipeline is
behavioural (result computed at issue, carried through a delay line) —
the cores here actually *compute across the stages*: the datapath is an
ordered list of micro-ops (unpack, denormalize, swap, align, add,
normalize, round, pack / the divider's one-bit recurrence rows), grouped
into the requested number of pipeline stages, with a state bundle latched
between groups.  This is the closest software analogue of the generated
VHDL, and the test suite proves stream equivalence against the
behavioural models at every stage count — the RTL-vs-golden-model
verification flow.

Special operands ride a ``bypass`` field through the pipe (detected in
stage 1 and carried forward), mirroring the paper's "at every stage
exceptions are detected and carried forward" sideband.

:data:`MICRO_OPS` keys one list per :data:`repro.fp.ops.OP_TABLE` op.
The same lists are the library's waveform view: :func:`trace_datapath`
runs one operation and records the signals each micro-op drove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from repro.fp.adder import _special_add
from repro.fp.divider import _special_div
from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.multiplier import _special_mul
from repro.fp.ops import OP_ARITY, OPERANDS
from repro.fp.rounding import RoundingMode, extract_grs, round_significand
from repro.fp.subunits import (
    align_shift,
    denormalize,
    exponent_compare,
    fixed_mul,
    mantissa_compare,
    normalize_shift_amount,
    sign_xor,
    swap,
)
from repro.rtl.staged import (
    MicroOp,
    StagedPipeline,
    State,
    int_signals,
    run_micro_ops,
)

GRS = 3


def _bypassed(state: State) -> bool:
    return state.get("bypass") is not None


def _pack(fmt: FPFormat, st: State, bias: int = 0) -> State:
    """The closing pack: the bypass sideband if set, else ``sig`` at the
    biased exponent ``exp + bias``, saturated to Inf or flushed to zero."""
    if _bypassed(st):
        bits, flags = st["bypass"]
        return {"result": bits, "flags": flags}
    exp, sign = st["exp"] + bias, st["sign"]
    if exp >= fmt.exp_max:
        return {"result": fmt.inf(sign), "flags": FPFlags(overflow=True, inexact=True)}
    if exp <= 0:
        return {
            "result": fmt.zero(sign),
            "flags": FPFlags(underflow=True, inexact=True, zero=True),
        }
    return {
        "result": fmt.pack(sign, exp, st["sig"] & fmt.man_mask),
        "flags": FPFlags(inexact=st["inexact"]),
    }


# --------------------------------------------------------------------- #
# Adder micro-ops
# --------------------------------------------------------------------- #
def adder_micro_ops(fmt: FPFormat, mode: RoundingMode) -> list[MicroOp]:
    """The Figure 1a datapath as eight architectural micro-ops."""
    wide = fmt.sig_bits + GRS

    def unpack(st: State) -> State:
        a, b = st["a"], st["b"]
        if st.get("subtract"):
            sb, eb, fb = fmt.unpack(b)
            b = fmt.pack(sb ^ 1, eb, fb)
            if fmt.is_nan(st["b"]):
                return {"bypass": (fmt.nan(), FPFlags(invalid=True))}
        special = _special_add(fmt, a, b)
        if special is not None:
            return {"bypass": special}
        s1, e1, f1 = fmt.unpack(a)
        s2, e2, f2 = fmt.unpack(b)
        return {"s1": s1, "e1": e1, "f1": f1, "s2": s2, "e2": e2, "f2": f2}

    def denorm(st: State) -> State:
        if _bypassed(st):
            return {}
        e1, e2 = st["e1"], st["e2"]
        if e1 == 0 and e2 == 0:
            sign = st["s1"] if st["s1"] == st["s2"] else 0
            return {"bypass": (fmt.zero(sign), FPFlags(zero=True))}
        if e1 == 0:
            bits = fmt.pack(st["s2"], e2, st["f2"])
            return {"bypass": (bits, FPFlags())}
        if e2 == 0:
            bits = fmt.pack(st["s1"], e1, st["f1"])
            return {"bypass": (bits, FPFlags())}
        return {
            "m1": denormalize(fmt, e1, st["f1"]),
            "m2": denormalize(fmt, e2, st["f2"]),
        }

    def swap_stage(st: State) -> State:
        if _bypassed(st):
            return {}
        m1, m2 = st["m1"], st["m2"]
        s1, s2 = st["s1"], st["s2"]
        swap_exp, diff = exponent_compare(st["e1"], st["e2"])
        if not swap_exp and st["e1"] == st["e2"] and mantissa_compare(m1, m2):
            swap_exp = True
        m1, m2 = swap(m1, m2, swap_exp)
        s1, s2 = swap(s1, s2, swap_exp)
        exp = st["e2"] if swap_exp else st["e1"]
        return {"m1": m1, "m2": m2, "s1": s1, "s2": s2, "exp": exp, "diff": diff}

    def align(st: State) -> State:
        if _bypassed(st):
            return {}
        big = st["m1"] << GRS
        small, sticky = align_shift(st["m2"] << GRS, st["diff"], wide)
        return {"big": big, "small": small, "sticky": sticky}

    def add_sub(st: State) -> State:
        if _bypassed(st):
            return {}
        exp = st["exp"]
        sticky = st["sticky"]
        if st["s1"] != st["s2"]:
            total = st["big"] - st["small"] - sticky
            if total == 0:
                return {"bypass": (fmt.zero(0), FPFlags(zero=True))}
        else:
            total = st["big"] + st["small"]
            if total >> wide:
                sticky |= total & 1
                total >>= 1
                exp += 1
        return {"total": total, "exp": exp, "sticky": sticky}

    def normalize(st: State) -> State:
        if _bypassed(st):
            return {}
        total, exp = st["total"], st["exp"]
        lsh = normalize_shift_amount(total, wide)
        if lsh > 0:
            total <<= lsh
            exp -= lsh
            if exp <= 0:
                return {
                    "bypass": (
                        fmt.zero(st["s1"]),
                        FPFlags(underflow=True, inexact=True, zero=True),
                    )
                }
        return {"total": total, "exp": exp}

    def round_stage(st: State) -> State:
        if _bypassed(st):
            return {}
        grs = (st["total"] & 0b111) | st["sticky"]
        sig, inexact = round_significand(st["total"] >> GRS, grs, mode)
        exp = st["exp"]
        if sig >> fmt.sig_bits:
            sig >>= 1
            exp += 1
        return {"sig": sig, "exp": exp, "inexact": inexact}

    def pack(st: State) -> State:
        if _bypassed(st):
            bits, flags = st["bypass"]
            return {"result": bits, "flags": flags}
        exp = st["exp"]
        if exp >= fmt.exp_max:
            return {
                "result": fmt.inf(st["s1"]),
                "flags": FPFlags(overflow=True, inexact=True),
            }
        return {
            "result": fmt.pack(st["s1"], exp, st["sig"] & fmt.man_mask),
            "flags": FPFlags(inexact=st["inexact"]),
        }

    return [
        MicroOp("unpack", unpack),
        MicroOp("denorm", denorm),
        MicroOp("swap", swap_stage),
        MicroOp("align", align),
        MicroOp("add_sub", add_sub),
        MicroOp("normalize", normalize),
        MicroOp("round", round_stage),
        MicroOp("pack", pack),
    ]


# --------------------------------------------------------------------- #
# Multiplier micro-ops
# --------------------------------------------------------------------- #
def multiplier_micro_ops(fmt: FPFormat, mode: RoundingMode) -> list[MicroOp]:
    """The Figure 1b datapath as six architectural micro-ops."""

    def unpack(st: State) -> State:
        a, b = st["a"], st["b"]
        special = _special_mul(fmt, a, b)
        if special is not None:
            return {"bypass": special}
        s1, e1, f1 = fmt.unpack(a)
        s2, e2, f2 = fmt.unpack(b)
        sign = sign_xor(s1, s2)
        if e1 == 0 or e2 == 0:
            return {"bypass": (fmt.zero(sign), FPFlags(zero=True))}
        return {"e1": e1, "f1": f1, "e2": e2, "f2": f2, "sign": sign}

    def denorm(st: State) -> State:
        if _bypassed(st):
            return {}
        return {
            "m1": denormalize(fmt, st["e1"], st["f1"]),
            "m2": denormalize(fmt, st["e2"], st["f2"]),
        }

    def multiply(st: State) -> State:
        if _bypassed(st):
            return {}
        return {
            "product": fixed_mul(st["m1"], st["m2"]),
            "exp": st["e1"] + st["e2"] - fmt.bias,
        }

    def normalize(st: State) -> State:
        if _bypassed(st):
            return {}
        product, exp = st["product"], st["exp"]
        prod_bits = 2 * fmt.sig_bits
        if product >> (prod_bits - 1):
            exp += 1
            sig, grs = extract_grs(product, fmt.sig_bits, prod_bits)
        else:
            sig, grs = extract_grs(product, fmt.sig_bits, prod_bits - 1)
        return {"sig": sig, "grs": grs, "exp": exp}

    def round_stage(st: State) -> State:
        if _bypassed(st):
            return {}
        sig, inexact = round_significand(st["sig"], st["grs"], mode)
        exp = st["exp"]
        if sig >> fmt.sig_bits:
            sig >>= 1
            exp += 1
        return {"sig": sig, "exp": exp, "inexact": inexact}

    return [
        MicroOp("unpack", unpack),
        MicroOp("denorm", denorm),
        MicroOp("multiply", multiply),
        MicroOp("normalize", normalize),
        MicroOp("round", round_stage),
        MicroOp("pack", partial(_pack, fmt)),
    ]


# --------------------------------------------------------------------- #
# Divider micro-ops: a genuine one-bit-per-row recurrence
# --------------------------------------------------------------------- #
def divider_micro_ops(fmt: FPFormat, mode: RoundingMode) -> list[MicroOp]:
    """Restoring division, one quotient bit per micro-op row.

    The structural divider really iterates: the state bundle carries the
    partial remainder and the quotient bits produced so far, one
    recurrence row per micro-op — exactly the array the area model prices
    at one subtractor row per quotient bit.
    """

    def unpack(st: State) -> State:
        a, b = st["a"], st["b"]
        special = _special_div(fmt, a, b)
        if special is not None:
            return {"bypass": special}
        s1, e1, f1 = fmt.unpack(a)
        s2, e2, f2 = fmt.unpack(b)
        rem = denormalize(fmt, e1, f1)
        div = denormalize(fmt, e2, f2)
        # Initial compare establishes the recurrence invariant rem < div
        # (two normalized significands satisfy rem < 2*div), producing the
        # integer quotient bit.
        q = 0
        if rem >= div:
            rem -= div
            q = 1
        return {
            "rem": rem,
            "div": div,
            "q": q,
            "exp": e1 - e2 + fmt.bias,
            "sign": sign_xor(s1, s2),
        }

    def make_row(index: int):
        def row(st: State) -> State:
            if _bypassed(st):
                return {}
            rem = st["rem"] << 1
            q = st["q"] << 1
            if rem >= st["div"]:
                rem -= st["div"]
                q |= 1
            return {"rem": rem, "q": q}

        return MicroOp(f"row[{index}]", row)

    def normalize_round(st: State) -> State:
        if _bypassed(st):
            return {}
        quotient, remainder = st["q"], st["rem"]
        exp = st["exp"]
        high = fmt.man_bits + 3
        if quotient >> high:  # ratio >= 1
            sig = quotient >> 3
            grs = (quotient & 0b110) | (1 if (quotient & 0b1) or remainder else 0)
        else:
            exp -= 1
            sig = quotient >> 2
            grs = ((quotient & 0b11) << 1) | (1 if remainder else 0)
        sig, inexact = round_significand(sig, grs, mode)
        if sig >> fmt.sig_bits:
            sig >>= 1
            exp += 1
        return {"sig": sig, "exp": exp, "inexact": inexact}

    ops = [MicroOp("unpack", unpack)]
    ops.extend(make_row(i) for i in range(fmt.man_bits + 3))
    ops.append(MicroOp("normalize_round", normalize_round))
    ops.append(MicroOp("pack", partial(_pack, fmt)))
    return ops


# --------------------------------------------------------------------- #
# Square-root micro-ops: two radicand bits per recurrence row
# --------------------------------------------------------------------- #
def sqrt_micro_ops(fmt: FPFormat, mode: RoundingMode) -> list[MicroOp]:
    """The bit-serial square-root recurrence of :mod:`repro.fp.sqrt`."""
    from repro.fp.sqrt import _EXTRA, _special_sqrt

    t = fmt.man_bits + _EXTRA
    rows = t + 1  # result bits

    def unpack(st: State) -> State:
        a = st["a"]
        special = _special_sqrt(fmt, a)
        if special is not None:
            return {"bypass": special}
        _, e, f = fmt.unpack(a)
        m = denormalize(fmt, e, f)
        e_unbiased = e - fmt.bias
        parity = e_unbiased % 2
        radicand = (m << parity) << (2 * t - fmt.man_bits)
        return {
            "radicand": radicand,
            "q": 0,
            "r": 0,
            "half_exp": (e_unbiased - parity) // 2,
        }

    def make_row(index: int):
        shift = 2 * (rows - 1 - index)

        def row(st: State) -> State:
            if _bypassed(st):
                return {}
            two = (st["radicand"] >> shift) & 0b11
            r = (st["r"] << 2) | two
            trial = (st["q"] << 2) | 1
            q = st["q"]
            if r >= trial:
                r -= trial
                q = (q << 1) | 1
            else:
                q <<= 1
            return {"q": q, "r": r}

        return MicroOp(f"row[{index}]", row)

    def round_pack(st: State) -> State:
        if _bypassed(st):
            bits, flags = st["bypass"]
            return {"result": bits, "flags": flags}
        q, remainder = st["q"], st["r"]
        grs = (q & 0b110) | (1 if (q & 1) or remainder else 0)
        sig, inexact = round_significand(q >> _EXTRA, grs, mode)
        exp = st["half_exp"] + fmt.bias
        if sig >> fmt.sig_bits:
            sig >>= 1
            exp += 1
        return {
            "result": fmt.pack(0, exp, sig & fmt.man_mask),
            "flags": FPFlags(inexact=inexact),
        }

    ops = [MicroOp("unpack", unpack)]
    ops.extend(make_row(i) for i in range(rows))
    ops.append(MicroOp("round_pack", round_pack))
    return ops


# --------------------------------------------------------------------- #
# Fused-MAC micro-ops: one rounding over the exact product plus addend
# --------------------------------------------------------------------- #
def fma_micro_ops(fmt: FPFormat, mode: RoundingMode) -> list[MicroOp]:
    """The fused ``a*b + c`` datapath of :func:`repro.fp.mac.fp_fma`.

    The paper's PE chains the multiplier into the adder (two roundings);
    this is the fused extension as a stageable chain: the double-width
    product and the addend meet at a common scale exactly — Python
    integers stand in for the hardware's wide alignment datapath — and a
    single normalize/round produces the result, bit- and flag-identical
    to :func:`~repro.fp.mac.fp_fma`.
    """
    from repro.fp.mac import _special_fma

    hidden = 1 << fmt.man_bits

    def unpack(st: State) -> State:
        a, b, c = st["a"], st["b"], st["c"]
        special = _special_fma(fmt, a, b, c)
        if special is not None:
            return {"bypass": special}
        s1, e1, f1 = fmt.unpack(a)
        s2, e2, f2 = fmt.unpack(b)
        s3, e3, f3 = fmt.unpack(c)
        return {
            "psign": sign_xor(s1, s2),
            "csign": s3,
            "m1": 0 if fmt.is_zero(a) else f1 | hidden,
            "m2": 0 if fmt.is_zero(b) else f2 | hidden,
            "mc": 0 if fmt.is_zero(c) else f3 | hidden,
            "pscale": e1 + e2 - 2 * fmt.bias - 2 * fmt.man_bits,
            "cscale": e3 - fmt.bias - fmt.man_bits,
        }

    def multiply(st: State) -> State:
        if _bypassed(st):
            return {}
        return {"prod": st["m1"] * st["m2"]}

    def align_add(st: State) -> State:
        if _bypassed(st):
            return {}
        scale = min(st["pscale"], st["cscale"])
        p = st["prod"] << (st["pscale"] - scale)
        q = st["mc"] << (st["cscale"] - scale)
        total = (-p if st["psign"] else p) + (-q if st["csign"] else q)
        if total == 0:
            # IEEE zero-sign rules, as in fp_fma: two zero contributions
            # keep a shared sign; exact cancellation gives +0.
            if p == 0 and q == 0:
                sign = st["psign"] if st["psign"] == st["csign"] else 0
            else:
                sign = 0
            return {"bypass": (fmt.zero(sign), FPFlags(zero=True))}
        return {"sign": 1 if total < 0 else 0, "mag": abs(total), "scale": scale}

    def normalize_round(st: State) -> State:
        if _bypassed(st):
            return {}
        mag = st["mag"]
        exp = st["scale"] + mag.bit_length() - 1
        # Keep sig_bits + two guard bits above the point; everything the
        # shift drops is sticky (cf. encode_fraction).
        shift = fmt.man_bits + 3 - mag.bit_length()
        if shift >= 0:
            t = mag << shift
            sticky = 0
        else:
            t = mag >> -shift
            sticky = 1 if mag & ((1 << -shift) - 1) else 0
        sig, inexact = round_significand(t >> 2, ((t & 0b11) << 1) | sticky, mode)
        if sig >> fmt.sig_bits:
            sig >>= 1
            exp += 1
        return {"sig": sig, "exp": exp, "inexact": inexact}

    return [
        MicroOp("unpack", unpack),
        MicroOp("multiply", multiply),
        MicroOp("align_add", align_add),
        MicroOp("normalize_round", normalize_round),
        MicroOp("pack", partial(_pack, fmt, bias=fmt.bias)),
    ]


# --------------------------------------------------------------------- #
# One table, one core class, one trace recorder
# --------------------------------------------------------------------- #
MicroOpBuilder = Callable[[FPFormat, RoundingMode], list[MicroOp]]

#: Every :data:`repro.fp.ops.OP_TABLE` op as ``(micro-op builder, fields
#: seeded into each bundle)``: subtraction is the adder's list with its
#: ``subtract`` input set.
MICRO_OPS: dict[str, tuple[MicroOpBuilder, State]] = {
    "add": (adder_micro_ops, {}),
    "sub": (adder_micro_ops, {"subtract": True}),
    "mul": (multiplier_micro_ops, {}),
    "div": (divider_micro_ops, {}),
    "sqrt": (sqrt_micro_ops, {}),
    "fma": (fma_micro_ops, {}),
}


def _bundle(operands: Sequence[str], words: Sequence[int], seed: State) -> State:
    """The state bundle one issue starts from."""
    if len(words) != len(operands):
        raise ValueError(f"expected {len(operands)} operand(s), got {len(words)}")
    return {**seed, **dict(zip(operands, words))}


class _StructuralCore:
    """A staged pipeline over one micro-op list.

    Issued words land on the bundle keys ``operands``, in order, over the
    fields of ``seed``.  ``keywords`` names the extra bundle inputs the
    micro-ops read (the adder's ``subtract``); any other keyword is a
    :class:`ValueError`, not a silently ignored bundle field.
    """

    keywords: tuple[str, ...] = ()

    def __init__(
        self,
        fmt: FPFormat,
        stages: int,
        micro_ops: list[MicroOp],
        operands: tuple[str, ...],
        name: str,
        seed: Optional[State] = None,
    ) -> None:
        self.fmt = fmt
        self.stages = stages
        self.micro_ops = micro_ops
        self.operands = operands
        self._seed = seed or {}
        self.pipe = StagedPipeline(micro_ops, stages, name=name)

    def step(
        self, *words: Optional[int], **extra
    ) -> tuple[Optional[tuple[int, FPFlags]], bool]:
        """Clock one cycle; issue ``words`` if given, else a bubble."""
        if all(w is None for w in words):
            bundle = None
        elif None in words:
            raise ValueError("issue all operands or none")
        else:
            bundle = self._issue(words, extra)
        out, done = self.pipe.step(bundle)
        if not done:
            return None, False
        return (out["result"], out["flags"]), True

    def compute(self, *words: int, **extra) -> tuple[int, FPFlags]:
        """Single-shot: run the micro-op list on one issue."""
        state = run_micro_ops(self.micro_ops, self._issue(words, extra))
        return state["result"], state["flags"]

    def _issue(self, words: Sequence[int], extra: State) -> State:
        """The bundle of one issue: operands, seed fields and keywords."""
        for name in extra:
            if name not in self.keywords:
                raise ValueError(
                    f"{type(self).__name__} takes no keyword {name!r} "
                    f"(accepts: {', '.join(self.keywords) or 'none'})"
                )
        return {**_bundle(self.operands, words, self._seed), **extra}

    @property
    def latency(self) -> int:
        return self.stages


class _OpCore(_StructuralCore):
    """The structural core of the :data:`MICRO_OPS` op named ``op``."""

    op: str

    def __init__(
        self,
        fmt: FPFormat,
        stages: int,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        build, seed = MICRO_OPS[self.op]
        super().__init__(
            fmt,
            stages,
            build(fmt, mode),
            OPERANDS[: OP_ARITY[self.op]],
            f"sfp{self.op}_{fmt.name}",
            seed,
        )


class StructuralFPAdder(_OpCore):
    """Stage-by-stage FP adder/subtractor (see module docstring);
    ``subtract=True`` on an issue subtracts."""

    op = "add"
    keywords = ("subtract",)


class StructuralFPMultiplier(_OpCore):
    """Stage-by-stage FP multiplier."""

    op = "mul"


class StructuralFPDivider(_OpCore):
    """Stage-by-stage FP divider with a real one-bit recurrence."""

    op = "div"


class StructuralFPSqrt(_OpCore):
    """Stage-by-stage FP square root with a two-bits-per-row recurrence."""

    op = "sqrt"


class StructuralFPMac(_OpCore):
    """Stage-by-stage fused MAC: ``a*b + c`` with a single rounding."""

    op = "fma"


@dataclass
class StageTrace:
    """One micro-op's recorded signals, in the order it drove them."""

    name: str
    signals: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:#x}" for k, v in self.signals.items())
        return f"{self.name}: {inner}"


@dataclass
class DatapathTrace:
    """Everything one operation did, micro-op by micro-op."""

    op: str
    fmt: FPFormat
    stages: list[StageTrace] = field(default_factory=list)
    result: int = 0
    flags: FPFlags = field(default_factory=FPFlags)
    special: Optional[str] = None  # the micro-op that set ``bypass``

    def find(self, stage: str, signal: str) -> int:
        for s in self.stages:
            if s.name == stage and signal in s.signals:
                return s.signals[signal]
        raise KeyError(f"no signal {signal!r} in stage {stage!r}")

    def render(self) -> str:
        lines = [f"{self.op} ({self.fmt.name})"]
        if self.special:
            lines.append(f"  special case: {self.special}")
        for s in self.stages:
            lines.append(f"  {s}")
        lines.append(f"  result = {self.result:#x}  flags = {self.flags}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def trace_datapath(
    op: str,
    fmt: FPFormat,
    *words: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> DatapathTrace:
    """The waveform view: run ``op``'s micro-op list once on ``words``.

    Every micro-op that did work becomes a stage holding its integer
    signals.  The result is the micro-op list's own, which the test suite
    pins to the scalar datapaths on every golden-corpus row.
    """
    build, seed = MICRO_OPS[op]
    trace = DatapathTrace(op=op, fmt=fmt)

    def record(name: str, updates: State) -> None:
        if updates:
            trace.stages.append(StageTrace(name, int_signals(updates)))
        if updates.get("bypass") is not None:
            trace.special = name

    state = run_micro_ops(
        build(fmt, mode), _bundle(OPERANDS[: OP_ARITY[op]], words, seed), record
    )
    trace.result, trace.flags = state["result"], state["flags"]
    return trace


fp_add_trace = partial(trace_datapath, "add")
fp_mul_trace = partial(trace_datapath, "mul")
