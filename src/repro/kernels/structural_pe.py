"""A fully structural processing element: micro-op MAC + block RAMs.

The behavioural :class:`~repro.kernels.pe.ProcessingElement` computes its
MAC at issue time; this module assembles the same PE from the structural
substrate instead:

* the MAC pipeline is the *composition* of the multiplier micro-ops and
  the adder micro-ops (:func:`mac_micro_ops`) running on a
  :class:`~repro.rtl.staged.StagedPipeline` — the product is genuinely
  formed mid-pipe and handed to the aligner;
* the B column lives in a :class:`~repro.rtl.memory.BlockRAM` with its
  one-cycle synchronous read absorbed by an input register (so the PE's
  observable latency is ``PL + 1``);
* the C accumulators use write-before-read updates at the clock edge,
  the same discipline whose hazard bound the paper states.

The test suite drives behavioural and structural PEs with identical
token streams and requires identical accumulator contents.
"""

from __future__ import annotations

from typing import Optional

from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode
from repro.kernels.pe import AToken
from repro.rtl.memory import BlockRAM
from repro.rtl.staged import MicroOp, State
from repro.units.structural import (
    _StructuralCore,
    adder_micro_ops,
    multiplier_micro_ops,
)


def mac_micro_ops(fmt: FPFormat, mode: RoundingMode) -> list[MicroOp]:
    """Fused chain: multiplier micro-ops feeding the adder micro-ops.

    Equivalent to ``fp_add(c, fp_mul(a, b))`` including the flag OR, which
    the test suite pins for arbitrary operands.
    """
    mul_ops = multiplier_micro_ops(fmt, mode)
    add_ops = adder_micro_ops(fmt, mode)

    def setup(st: State) -> State:
        # Park the addend while the multiplier phase runs on (a, b).
        return {"c_save": st["c"]}

    def junction(st: State) -> State:
        # The multiplier's pack produced result/flags (bypass-aware);
        # rewire them as the adder's operands and clear the sideband.
        return {
            "a": st["result"],
            "b": st["c_save"],
            "subtract": False,
            "mul_flags": st["flags"],
            "bypass": None,
        }

    def merge_flags(st: State) -> State:
        return {"flags": st["flags"] | st["mul_flags"]}

    ops: list[MicroOp] = [MicroOp("mac.setup", setup)]
    ops.extend(mul_ops)
    ops.append(MicroOp("mac.junction", junction))
    ops.extend(add_ops)
    ops.append(MicroOp("mac.flags", merge_flags))
    return ops


class StructuralMAC(_StructuralCore):
    """A staged-pipeline MAC: ``c + a*b`` with two roundings (paper PE).

    Issue order is ``(c, a, b)``: the accumulator word, then the product
    operands.
    """

    def __init__(
        self,
        fmt: FPFormat,
        stages: int,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        super().__init__(
            fmt, stages, mac_micro_ops(fmt, mode), ("c", "a", "b"), f"smac_{fmt.name}"
        )


class StructuralProcessingElement:
    """The matrix-multiply PE built from structural parts.

    Latency is ``mac_stages + 1``: one input-register cycle covers the
    synchronous B-RAM read, then the MAC pipeline.
    """

    def __init__(
        self,
        fmt: FPFormat,
        col: int,
        rows: int,
        mac_stages: int,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        self.fmt = fmt
        self.col = col
        self.rows = rows
        self.mac = StructuralMAC(fmt, mac_stages, mode)
        self.b_ram = BlockRAM(depth=rows, width=fmt.width)
        self.c_accum: list[int] = [fmt.zero()] * rows
        self.flags = FPFlags()
        self._issue_queue: list[int] = []
        self._input_reg: Optional[AToken] = None
        self._forward: Optional[AToken] = None
        self.hazards = 0
        self._in_flight: dict[int, int] = {}

    @property
    def latency(self) -> int:
        return self.mac.stages + 1

    def load_b(self, column: list[int]) -> None:
        if len(column) != self.rows:
            raise ValueError(f"B column length {len(column)} != {self.rows}")
        self.b_ram.load(column)

    def reset_c(self) -> None:
        self.c_accum = [self.fmt.zero()] * self.rows
        self.flags = FPFlags()

    def step(self, incoming: Optional[AToken]) -> Optional[AToken]:
        """Clock one cycle; returns the forwarded token."""
        # Phase 1: MAC writeback at the edge.
        out, done = self.mac.pipe.begin_cycle()
        if done:
            idx = self._issue_queue.pop(0)
            self.c_accum[idx] = out["result"]
            self.flags = self.flags | out["flags"]
            self._in_flight[idx] -= 1
            if not self._in_flight[idx]:
                del self._in_flight[idx]

        # Phase 2: the token latched last cycle issues now — its B word
        # just appeared on the RAM's registered read port.
        issue = self._input_reg
        bundle: Optional[State] = None
        if issue is not None:
            b_word = self.b_ram.read_data(0)
            idx = issue.i
            if self._in_flight.get(idx, 0):
                self.hazards += 1
            self._in_flight[idx] = self._in_flight.get(idx, 0) + 1
            self._issue_queue.append(idx)
            bundle = {"a": issue.bits, "b": b_word, "c": self.c_accum[idx]}
        self.mac.pipe.end_cycle(bundle)

        # Latch the new token and present its B-RAM address.
        self._input_reg = incoming
        if incoming is not None:
            self.b_ram.port(0, incoming.k)
        self.b_ram.clock()

        out_tok = self._forward
        self._forward = incoming
        return out_tok

    @property
    def busy(self) -> bool:
        return self.mac.pipe.in_flight > 0 or self._input_reg is not None

    @property
    def has_pending_forward(self) -> bool:
        return self._forward is not None


class StructuralMatmulArray:
    """The linear matmul array assembled entirely from structural parts.

    Same architecture and schedule as
    :class:`~repro.kernels.matmul.MatmulArray`, but every PE is a
    :class:`StructuralProcessingElement` (micro-op MAC + block-RAM B
    column).  Because the structural PE pays one extra cycle for its
    synchronous RAM read, the hazard spacing is ``max(n, PL + 1)`` and
    runs take correspondingly longer; results remain bit-identical to
    the behavioural array and the functional reference.
    """

    def __init__(
        self,
        fmt: FPFormat,
        n: int,
        mac_stages: int,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    ) -> None:
        if n < 1:
            raise ValueError(f"problem size must be >= 1, got {n}")
        self.fmt = fmt
        self.n = n
        self.mac_stages = mac_stages
        self.pes = [
            StructuralProcessingElement(fmt, col, n, mac_stages, mode)
            for col in range(n)
        ]

    @property
    def pipeline_latency(self) -> int:
        """Observable PE latency: MAC stages + the RAM-read register."""
        return self.mac_stages + 1

    @property
    def hazard_spacing(self) -> int:
        return max(self.n, self.pipeline_latency)

    def run(self, a, b):
        """Execute the padded schedule; returns ``(c, cycles, hazards)``."""
        n = self.n
        for col, pe in enumerate(self.pes):
            pe.load_b([b[k][col] for k in range(n)])
            pe.reset_c()
            pe.hazards = 0

        spacing = self.hazard_spacing
        stream: list[Optional[AToken]] = []
        for k in range(n):
            for i in range(n):
                stream.append(AToken(i=i, k=k, bits=a[i][k]))
            stream.extend([None] * (spacing - n))

        cycles = 0
        idx = 0
        while idx < len(stream) or any(
            pe.busy or pe.has_pending_forward for pe in self.pes
        ):
            token = stream[idx] if idx < len(stream) else None
            idx += 1
            for pe in self.pes:
                token = pe.step(token)
            cycles += 1
        c = [[self.pes[j].c_accum[i] for j in range(n)] for i in range(n)]
        hazards = sum(pe.hazards for pe in self.pes)
        return c, cycles, hazards
