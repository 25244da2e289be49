"""Array-scale functional kernels on the vectorized FP ops.

For every paper format (total width <= 64, so fp32/fp48/fp64 alike) the
whole ``n x n`` accumulation step can run as one NumPy array operation
per ``k`` (:mod:`repro.fp.vectorized`), turning the O(n^3)
scalar-Python reference into O(n) array calls — the
profile-then-vectorize workflow applied to the library's own bottleneck.
Results are bit-identical to :func:`repro.kernels.matmul.
functional_matmul` because the accumulation order (ascending ``k``) is
preserved exactly.  Format support is delegated to the one shared guard,
:func:`repro.fp.vectorized.check_vectorized_format`.
"""

from __future__ import annotations

import numpy as np

from repro.fp.format import FPFormat
from repro.fp.ops import execute
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import (
    check_vectorized_format,
    vec_add,
    vec_fma,
    vec_mul,
)


def functional_matmul_vectorized(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> np.ndarray:
    """Bit-exact matmul reference at array speed (widths <= 64).

    ``a`` and ``b`` are ``(n, n)`` unsigned arrays of bit patterns; the
    result has the same dtype/shape.  Accumulation order matches the
    linear-array schedule: for each output, products are added in
    ascending ``k``.
    """
    check_vectorized_format(fmt)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"expected equal square matrices, got {a.shape}, {b.shape}")
    n = a.shape[0]
    acc = np.full((n, n), fmt.zero(), dtype=np.uint64)
    for k in range(n):
        col = np.broadcast_to(a[:, k : k + 1], (n, n))
        row = np.broadcast_to(b[k : k + 1, :], (n, n))
        prod = vec_mul(fmt, col, row, mode)
        acc = vec_add(fmt, acc, prod, mode)
    return acc


def functional_matmul_fma(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> np.ndarray:
    """Fused-MAC matmul reference at array speed (widths <= 64).

    Same shape contract and ascending-``k`` accumulation order as
    :func:`functional_matmul_vectorized`, but each accumulation step is
    one fused :func:`~repro.fp.vectorized.vec_fma` — a single rounding
    per MAC instead of the chained multiply-then-add pair.  Bit-exact
    against a scalar loop of :func:`~repro.fp.mac.fp_fma`, and the
    functional reference for the ``"fma"`` array backend.
    """
    check_vectorized_format(fmt)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"expected equal square matrices, got {a.shape}, {b.shape}")
    n = a.shape[0]
    acc = np.full((n, n), fmt.zero(), dtype=np.uint64)
    for k in range(n):
        col = np.broadcast_to(a[:, k : k + 1], (n, n))
        row = np.broadcast_to(b[k : k + 1, :], (n, n))
        acc = vec_fma(fmt, col, row, acc, mode)
    return acc


def dot_vectorized(
    fmt: FPFormat,
    xs: np.ndarray,
    ys: np.ndarray,
    lanes: int,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
) -> int:
    """Bit-exact interleaved dot product at array speed.

    Matches :func:`repro.kernels.dotproduct.functional_dot`: the ``lanes``
    partials each accumulate every ``lanes``-th element in index order
    (one :func:`~repro.fp.ops.execute` call across lanes per round, so
    rounds narrower than the crossover run on the scalar datapath), then
    reduce pairwise.
    """
    check_vectorized_format(fmt)
    xs = np.asarray(xs, dtype=np.uint64)
    ys = np.asarray(ys, dtype=np.uint64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("expected equal-length vectors")
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    n = len(xs)
    partials = np.full(lanes, fmt.zero(), dtype=np.uint64)
    for start in range(0, n, lanes):
        chunk = slice(start, min(start + lanes, n))
        width = chunk.stop - chunk.start
        prod, _ = execute("mul", fmt, mode, xs[chunk], ys[chunk])
        partials[:width], _ = execute("add", fmt, mode, partials[:width], prod)
    level = partials
    while len(level) > 1:
        pairs = len(level) // 2
        merged, _ = execute(
            "add", fmt, mode, level[0 : 2 * pairs : 2], level[1 : 2 * pairs : 2]
        )
        if len(level) % 2:
            merged = np.concatenate([merged, level[-1:]])
        level = merged
    return int(level[0])
