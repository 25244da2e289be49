"""Wavefront-batched cycle-accurate simulation of the linear array.

The stepped :class:`~repro.kernels.matmul.MatmulArray` interprets every
clock of every PE in Python — O(n^2 * spacing) interpreter iterations
carrying O(n^3) scalar FP calls — which pins experiments to toy problem
sizes.  This module computes the *same run* without stepping a single
clock, by exploiting the property that makes the paper's schedule
correct in hardware: it is static and hazard-free by construction.

**Analytic schedule.**  With hazard spacing ``S = max(n, PL)`` (padded)
or ``S = n`` (unpadded), the token carrying ``A[i][k]`` enters PE 0 at
cycle ``k*S + i`` and reaches PE ``j`` after ``j`` one-cycle forwards —
so the MAC ``C[i][j] += A[i][k] * B[k][j]`` issues at exactly
:func:`mac_issue_cycle` ``= k*S + i + j``, and every per-run statistic
of the stepped model (cycles, issued MACs, padding bubbles, hazard
count) is a closed-form function of ``(n, PL, S)``.

**Wavefronts.**  Grouping MACs by accumulator round ``k`` yields
dependency wavefronts: wavefront ``k`` updates every accumulator exactly
once, and all of its inputs (wavefront ``k-1``) have retired, because
consecutive updates of an accumulator are ``S >= PL`` cycles apart
whenever the run completes at all.  Each wavefront is therefore one
:func:`~repro.fp.vectorized.vec_mul` and one
:func:`~repro.fp.vectorized.vec_add` over the whole ``(n, n)``
accumulator array — n^2 MACs per NumPy call instead of one MAC per
Python call — with the exception sideband OR-reduced by
:func:`~repro.fp.vectorized.reduce_flags`.  The vectorized datapaths are
bit- and flag-identical to the scalar ones (PR 2's differential
campaign), so the batched run is bit-, flag-, cycle- and
hazard-count-identical to the stepped run; the differential matrix in
``tests/kernels/test_batched.py`` and :mod:`repro.verify.kernels` assert
it corner by corner.
"""

from __future__ import annotations

import numpy as np

from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import (
    check_vectorized_format,
    lane_dtype,
    reduce_flags,
    vec_add,
    vec_fma,
    vec_mul,
)
from repro.kernels.matmul import (
    Matrix,
    MatmulArray,
    MatmulRun,
    RAWHazard,
    validate_matrix,
)

#: Selectable cycle-accurate simulators: the stepped interpreter is the
#: reference model; the batched wavefront evaluator is the fast default;
#: the fma backend swaps each wavefront's chained multiply-then-add for
#: one fused :func:`~repro.fp.vectorized.vec_fma` (single rounding per
#: MAC, so results intentionally differ from the chained pair).
MATMUL_BACKENDS = ("batched", "stepped", "fma")

#: Backend used by experiments when none is requested.
DEFAULT_BACKEND = "batched"


def mac_issue_cycle(i: int, k: int, pe: int, spacing: int) -> int:
    """Cycle at which PE ``pe`` issues the MAC for ``A[i][k]``.

    ``A[i][k]`` is injected into PE 0 at cycle ``k*spacing + i`` and
    forwarded one PE per cycle, so PE ``pe`` (which owns column ``pe``
    of C) issues ``C[i][pe] += A[i][k] * B[k][pe]`` exactly here.
    """
    return k * spacing + i + pe


def array_cycles(n: int, pipeline_latency: int, spacing: int) -> int:
    """Total cycles of one run, in closed form.

    The last token enters PE 0 at ``(n-1)*spacing + (n-1)``, spends
    ``n-1`` forwards reaching the last PE and ``PL`` cycles in its MAC
    pipe; the final writeback edge adds one more counted cycle.  The
    drain always outlasts the trailing zero-pad bubbles of the input
    stream, so no ``max`` with the stream length is needed.  Verified
    cycle-exact against the stepped model by the differential matrix.
    """
    return (n - 1) * spacing + 2 * (n - 1) + pipeline_latency + 1


def hazard_count(n: int, pipeline_latency: int, spacing: int) -> int:
    """RAW hazards the stepped model counts for this schedule.

    A hazard is recorded once per MAC issue that finds its accumulator
    still in flight.  Consecutive updates of an accumulator are exactly
    ``spacing`` cycles apart and a reuse distance of ``PL`` is hazard
    free (writeback happens before the same-cycle read), so every
    ``k >= 1`` issue hazards iff ``spacing < PL``: ``n`` PEs times ``n``
    accumulators times ``n - 1`` reuses.
    """
    if spacing >= pipeline_latency:
        return 0
    return n * n * (n - 1)


class BatchedMatmulArray:
    """Wavefront-batched equivalent of :class:`MatmulArray`.

    Same constructor, same :meth:`run` contract, same
    :class:`MatmulRun` — but evaluated as ``2n`` NumPy array operations
    plus closed-form schedule accounting, so problem sizes in the
    hundreds complete in seconds instead of hours.
    """

    def __init__(
        self,
        fmt: FPFormat,
        n: int,
        mul_latency: int,
        add_latency: int,
        mode: RoundingMode = RoundingMode.NEAREST_EVEN,
        pad_schedule: bool = True,
    ) -> None:
        if n < 1:
            raise ValueError(f"problem size must be >= 1, got {n}")
        check_vectorized_format(fmt)
        self.fmt = fmt
        self.n = n
        self.mul_latency = mul_latency
        self.add_latency = add_latency
        self.mode = mode
        self.pad_schedule = pad_schedule

    #: Roundings each MAC performs: the chained PE (paper datapath)
    #: rounds the product and the sum separately.
    roundings_per_mac = 2

    #: The op whose lane dtype a wavefront runs in (mul and add share it).
    wavefront_op = "mul"

    @property
    def pipeline_latency(self) -> int:
        """PL: MAC pipeline depth (adder + multiplier latencies)."""
        return self.mul_latency + self.add_latency

    @property
    def total_roundings(self) -> int:
        """Roundings one full run performs across all n^3 MACs."""
        return self.roundings_per_mac * self.n ** 3

    @property
    def hazard_spacing(self) -> int:
        """Cycles between updates of the same accumulator."""
        if self.pad_schedule:
            return max(self.n, self.pipeline_latency)
        return self.n

    def run(self, a: Matrix, b: Matrix, trace=None) -> MatmulRun:
        """Execute the full schedule analytically; bit-exact results.

        ``trace`` (a :class:`repro.obs.trace.Trace`) opens one
        ``kernel.wavefront`` span per accumulator round, so a traced
        run shows where its ``2n`` NumPy calls spend their time.  The
        ``if trace`` guards keep the untraced hot loop untouched.
        """
        validate_matrix(self.fmt, self.n, a, "A")
        validate_matrix(self.fmt, self.n, b, "B")
        n = self.n
        spacing = self.hazard_spacing
        pl = self.pipeline_latency

        hazards = hazard_count(n, pl, spacing)
        if hazards and not self.pad_schedule:
            raise RAWHazard(
                f"{hazards} read-after-write hazards: problem size {n} is "
                f"smaller than the MAC pipeline latency "
                f"{pl}; enable schedule padding"
            )

        a_np = np.asarray(a, dtype=np.uint64)
        b_np = np.asarray(b, dtype=np.uint64)
        dtype = lane_dtype(self.wavefront_op, self.fmt)
        acc = np.full((n, n), self.fmt.zero(), dtype=np.uint64)
        flags = FPFlags()
        for k in range(n):
            span = (
                trace.begin("kernel.wavefront", tags={"k": k, "dtype": dtype})
                if trace is not None
                else None
            )
            col = np.broadcast_to(a_np[:, k : k + 1], (n, n))
            row = np.broadcast_to(b_np[k : k + 1, :], (n, n))
            acc, wavefront_flags = self._mac_wavefront(col, row, acc)
            flags = flags | wavefront_flags
            if span is not None:
                span.finish()

        c = [[int(acc[i][j]) for j in range(n)] for i in range(n)]
        return MatmulRun(
            c=c,
            cycles=array_cycles(n, pl, spacing),
            issued_macs=n * n * n,
            padded_cycles=(spacing - n) * n,
            hazards=hazards,
            flags=flags,
            pes=n,
        )

    def _mac_wavefront(self, col, row, acc):
        """One accumulator update for every output: returns (acc', flags).

        The chained datapath rounds twice per MAC — once after the
        multiply, once after the add — exactly like the paper's
        multiplier-then-adder PE.
        """
        prod, mul_flags = vec_mul(self.fmt, col, row, self.mode, with_flags=True)
        acc, add_flags = vec_add(self.fmt, acc, prod, self.mode, with_flags=True)
        return acc, reduce_flags(mul_flags, add_flags)


class FusedMatmulArray(BatchedMatmulArray):
    """Wavefront-batched array with a fused-MAC PE datapath.

    Each wavefront is a single :func:`~repro.fp.vectorized.vec_fma` —
    the product feeds the accumulator add at full precision and the MAC
    rounds **once**, halving the total roundings of a run relative to
    the chained backend (``n^3`` instead of ``2 n^3``).  Results are
    bit-identical to a scalar PE accumulating with
    :func:`~repro.fp.mac.fp_fma` in the same ascending-``k`` order, and
    intentionally differ from the chained backends wherever the
    intermediate product rounding mattered.  Schedule accounting
    (cycles, hazards, padding) is unchanged: fusing alters the PE's
    datapath width, not the systolic schedule.
    """

    roundings_per_mac = 1

    wavefront_op = "fma"

    def _mac_wavefront(self, col, row, acc):
        acc, fl = vec_fma(self.fmt, col, row, acc, self.mode, with_flags=True)
        return acc, reduce_flags(fl)


def make_matmul_array(
    fmt: FPFormat,
    n: int,
    mul_latency: int,
    add_latency: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    pad_schedule: bool = True,
    backend: str = DEFAULT_BACKEND,
):
    """Construct a cycle-accurate array simulator by backend name.

    ``backend="batched"`` (default) returns the wavefront evaluator;
    ``backend="stepped"`` returns the clock-by-clock reference model.
    Those two are run-for-run identical, so callers can switch freely —
    experiments default to batched, equivalence tests run both.
    ``backend="fma"`` returns the fused-MAC wavefront evaluator, whose
    single rounding per MAC is a deliberate numerical departure from
    the chained pair (see :class:`FusedMatmulArray`).
    """
    if backend not in MATMUL_BACKENDS:
        raise ValueError(
            f"unknown matmul backend {backend!r}; "
            f"known: {', '.join(MATMUL_BACKENDS)}"
        )
    cls = {
        "batched": BatchedMatmulArray,
        "stepped": MatmulArray,
        "fma": FusedMatmulArray,
    }[backend]
    return cls(fmt, n, mul_latency, add_latency, mode=mode, pad_schedule=pad_schedule)
