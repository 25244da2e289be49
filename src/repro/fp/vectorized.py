"""NumPy-vectorized floating-point operations (bit-exact, array-scale).

Simulating large kernels one scalar op at a time is the bottleneck of
the cycle-accurate models; this module re-implements the adder and
multiplier datapaths as vectorized NumPy pipelines over unsigned
integer arrays, bit-for-bit identical to the scalar datapaths (the test
suite and the :mod:`repro.verify.differential` campaign prove it
element-wise, specials included).

Supported formats: total width <= 64 bits with 3..59 fraction bits —
every format the paper studies (fp32, fp48, fp64) plus fp16-style and
custom DSP formats.  The GRS-extended adder path needs ``man_bits + 5``
bits and therefore always fits one ``uint64`` limb; wide formats split
the mantissa product across two 64-bit limbs, exactly as a 128-bit
datapath would.

Lane dtypes
-----------
Like a multi-precision FPGA datapath partitioned by precision, add, sub
and mul run in the narrowest unsigned *lane dtype* that holds the
format, chosen from the format alone by :func:`_lane_dtype`:

* ``uint16`` when ``width <= 16`` and ``man_bits <= 11``;
* ``uint32`` when ``width <= 32`` and ``man_bits <= 27``;
* ``uint64`` otherwise.

The fraction bound is the guard band: the GRS-extended adder sums
``man_bits + 4``-bit addends whose carry lands in bit ``man_bits + 4``,
so a ``slot``-bit lane needs ``man_bits <= slot - 5`` to keep at least
one bit of headroom above the widest in-lane value.  The double-width
mantissa product widens to the next dtype (``uint32``/``uint64``) for
the multiply step only; on ``uint64`` lanes it uses the one-/two-limb
product of :func:`_wide_mul_grs`.  div, sqrt and fma always run on
``uint64``.  Whatever the lane, every op accepts any unsigned (or
non-negative signed) input array and returns ``uint64`` bit patterns.

Semantics match :mod:`repro.fp.adder` / :mod:`repro.fp.multiplier`
exactly: denormal-free (flush to zero), round-to-nearest-even or
truncation, IEEE special handling, canonical NaN.  With
``with_flags=True`` each op also returns the per-element exception
sideband as a ``uint8`` array in the 6-bit
:meth:`repro.fp.flags.FPFlags.to_bits` layout, bit-identical to the
scalar datapaths' flags.
"""

from __future__ import annotations

import numpy as np

from repro.fp.flags import FPFlags
from repro.fp.format import FPFormat
from repro.fp.rounding import RoundingMode

_U = np.uint64
_F = np.uint8

#: Widest total format width the vectorized datapaths accept.
MAX_WIDTH = 64
#: Fraction-bit bounds: >= 3 so GRS extraction is well-defined, <= 59 so
#: the GRS-extended sum (``man_bits + 5`` bits) fits one uint64 limb and
#: the double-width product fits two.
MIN_MAN_BITS = 3
MAX_MAN_BITS = 59

# FPFlags.to_bits() bit positions (the 6-bit RTL sideband layout).
_FL_ZERO = 1
_FL_INVALID = 2
_FL_INEXACT = 4
_FL_UNDERFLOW = 8
_FL_OVERFLOW = 16
_FL_DIV_BY_ZERO = 32

#: Lane dtype -> (signed dtype for exponent arithmetic, widened dtype
#: for the mantissa product; ``None`` = :func:`_wide_mul_grs`'s limbs).
_LANE_TYPES = {
    np.uint16: (np.int16, np.uint32),
    np.uint32: (np.int32, np.uint64),
    np.uint64: (np.int64, None),
}

#: Ops that run in the format's lane dtype; div/sqrt/fma run on uint64.
_LANE_OPS = ("add", "sub", "mul")


def supports_vectorized(fmt: FPFormat) -> bool:
    """True when ``fmt`` can run on the vectorized datapaths."""
    return fmt.width <= MAX_WIDTH and MIN_MAN_BITS <= fmt.man_bits <= MAX_MAN_BITS


def check_vectorized_format(fmt: FPFormat) -> None:
    """Shared format guard for every vectorized op and kernel.

    Raises one precise :class:`ValueError` naming the supported bounds,
    so callers of :func:`vec_add`/:func:`vec_mul` and of the fast kernels
    in :mod:`repro.kernels.fast` all see the same message.
    """
    if not supports_vectorized(fmt):
        raise ValueError(
            f"vectorized ops support total width <= {MAX_WIDTH} bits with "
            f"{MIN_MAN_BITS} <= fraction bits <= {MAX_MAN_BITS}; got "
            f"{fmt.name} (width {fmt.width}, {fmt.man_bits} fraction bits)"
            " — use the scalar datapaths for unsupported formats"
        )


def _lane_dtype(fmt: FPFormat) -> type:
    """The lane dtype add/sub/mul run in for ``fmt`` (see module doc)."""
    for lane, slot in ((np.uint16, 16), (np.uint32, 32)):
        if fmt.width <= slot and fmt.man_bits <= slot - 5:
            return lane
    return np.uint64


def lane_dtype(op: str, fmt: FPFormat) -> str:
    """Name of the dtype ``op`` runs in for ``fmt`` (e.g. ``"uint16"``)."""
    lane = _lane_dtype(fmt) if op in _LANE_OPS else np.uint64
    return np.dtype(lane).name


def reduce_flags(*flag_words) -> FPFlags:
    """OR-reduce vectorized exception sidebands into one flag bundle.

    Accepts any number of ``uint8`` arrays (or scalars) in the
    :meth:`FPFlags.to_bits` layout — the ``with_flags=True`` output of
    :func:`vec_add`/:func:`vec_sub`/:func:`vec_mul` — and returns the
    sticky OR over every element as an :class:`FPFlags`, exactly what a
    hardware accumulator's sticky flag register would hold after the
    same sequence of operations.
    """
    word = 0
    for arr in flag_words:
        a = np.asarray(arr)
        if a.size:
            word |= int(np.bitwise_or.reduce(a, axis=None))
    return FPFlags.from_bits(word)


def _as_lane(fmt: FPFormat, a: np.ndarray, name: str, lane: type = _U) -> np.ndarray:
    """Validate one operand array and convert it to the lane dtype."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "ui":
        raise TypeError(f"{name} must be an unsigned integer array")
    if arr.dtype.kind == "i":
        arr = arr.astype(np.uint64)  # range-check the uint64 view
    if arr.size and int(arr.max()) > fmt.word_mask:
        raise ValueError(f"{name} contains words outside {fmt.name}")
    return arr.astype(lane)


def _result(out: np.ndarray, flags):
    """The public contract: uint64 bits, plus the sideband if computed."""
    bits = out.astype(np.uint64, copy=False)
    return bits if flags is None else (bits, flags)


def _unpack(fmt: FPFormat, bits: np.ndarray):
    U = bits.dtype.type
    sign = (bits >> U(fmt.width - 1)) & U(1)
    exp = (bits >> U(fmt.man_bits)) & U(fmt.exp_mask)
    man = bits & U(fmt.man_mask)
    return sign, exp, man


def _classify(fmt: FPFormat, exp: np.ndarray, man: np.ndarray):
    is_zero = exp == 0
    is_max = exp == fmt.exp_max
    is_inf = is_max & (man == 0)
    is_nan = is_max & (man != 0)
    return is_zero, is_inf, is_nan


def _round_vec(
    sig: np.ndarray,
    guard: np.ndarray,
    rnd: np.ndarray,
    sticky: np.ndarray,
    mode: RoundingMode,
):
    """Vector rounding in the lane dtype of ``sig``; returns (sig, inexact)."""
    U = sig.dtype.type
    inexact = (guard | rnd | sticky) != 0
    if mode is RoundingMode.TRUNCATE:
        return sig, inexact
    round_up = (guard != 0) & ((rnd != 0) | (sticky != 0) | ((sig & U(1)) != 0))
    return sig + round_up.astype(U), inexact


def _pack_result(
    fmt: FPFormat,
    sign: np.ndarray,
    exp: np.ndarray,  # signed, may be out of range
    sig: np.ndarray,  # includes hidden bit
):
    """Saturate/flush out-of-range exponents and pack in the lane dtype.

    Returns ``(bits, overflow, underflow)`` so callers can raise the
    matching exception flags.
    """
    U = sign.dtype.type
    overflow = exp >= fmt.exp_max
    underflow = exp <= 0
    exp_c = np.clip(exp, 1, fmt.exp_max - 1).astype(U)
    out = (
        (sign << U(fmt.width - 1))
        | (exp_c << U(fmt.man_bits))
        | (sig & U(fmt.man_mask))
    )
    inf = (sign << U(fmt.width - 1)) | U(fmt.inf(0))
    zero = sign << U(fmt.width - 1)
    out = np.where(overflow, inf, out)
    out = np.where(underflow, zero, out)
    return out, overflow, underflow


def _wide_mul_grs(fmt: FPFormat, m1: np.ndarray, m2: np.ndarray):
    """Double-width mantissa product reduced to (sig, guard, rnd, sticky, top).

    On ``uint16``/``uint32`` lanes the product runs in the widened dtype
    and sig/guard/round come out of one ``sig_bits + 2``-bit window, so
    only two variable shifts run at the widened width.  On ``uint64``
    lanes, products wider than 64 bits run on two limbs: each
    significand splits at bit 32, the four 32x32 partial products are
    recombined with an explicit carry, and the GRS extraction indexes
    into the (hi, lo) limb pair.  Bit-exact with the scalar
    ``fixed_mul`` + ``extract_grs`` composition.
    """
    prod_bits = 2 * fmt.sig_bits
    U = m1.dtype.type
    W = _LANE_TYPES[U][1]
    if W is not None:
        # 2 * sig_bits <= 2 * (slot - 4) always fits the widened dtype.
        prod = m1.astype(W) * m2
        top = ((prod >> W(prod_bits - 1)) & W(1)).astype(U)
        dropped = (U(fmt.sig_bits - 1) + top).astype(W)
        window = (prod >> (dropped - W(2))).astype(U)
        sig = window >> U(2)
        guard = (window >> U(1)) & U(1)
        rnd = window & U(1)
        sticky_mask = (W(1) << (dropped - W(2))) - W(1)
        sticky = ((prod & sticky_mask) != 0).astype(U)
        return sig, guard, rnd, sticky, top

    mask32 = _U(0xFFFFFFFF)
    if prod_bits <= 64:
        product = m1 * m2
        top = (product >> _U(prod_bits - 1)) & _U(1)
        dropped = _U(fmt.sig_bits - 1) + top
        sig = product >> dropped
        guard = (product >> (dropped - _U(1))) & _U(1)
        rnd = (product >> (dropped - _U(2))) & _U(1)
        sticky_mask = (_U(1) << (dropped - _U(2))) - _U(1)
        sticky = ((product & sticky_mask) != 0).astype(np.uint64)
        return sig, guard, rnd, sticky, top

    a_lo, a_hi = m1 & mask32, m1 >> _U(32)
    b_lo, b_hi = m2 & mask32, m2 >> _U(32)
    ll = a_lo * b_lo
    mid = a_lo * b_hi + a_hi * b_lo  # < 2^(sig_bits+1) <= 2^61: no overflow
    hh = a_hi * b_hi
    p_lo = ll + (mid << _U(32))  # wraps mod 2^64 by construction
    carry = ((ll >> _U(32)) + (mid & mask32)) >> _U(32)
    p_hi = hh + (mid >> _U(32)) + carry

    # Leading product bit lives in the high limb (prod_bits - 1 >= 64).
    top = (p_hi >> _U(prod_bits - 1 - 64)) & _U(1)
    # Kept significand boundary: sig_bits - 1 + top bits are dropped.
    # 33 <= dropped <= 60 for supported formats, so guard/round/sticky
    # all index into the low limb while the significand straddles both.
    dropped = _U(fmt.sig_bits - 1) + top
    sig = (p_lo >> dropped) | (p_hi << (_U(64) - dropped))
    guard = (p_lo >> (dropped - _U(1))) & _U(1)
    rnd = (p_lo >> (dropped - _U(2))) & _U(1)
    sticky_mask = (_U(1) << (dropped - _U(2))) - _U(1)
    sticky = ((p_lo & sticky_mask) != 0).astype(np.uint64)
    return sig, guard, rnd, sticky, top


def _mul(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode,
    with_flags: bool,
):
    """vec_mul's datapath on validated lane arrays: (out, flags | None)."""
    U = a.dtype.type
    I = _LANE_TYPES[U][0]
    s1, e1, f1 = _unpack(fmt, a)
    s2, e2, f2 = _unpack(fmt, b)
    z1, i1, n1 = _classify(fmt, e1, f1)
    z2, i2, n2 = _classify(fmt, e2, f2)
    sign = s1 ^ s2

    hidden = U(1) << U(fmt.man_bits)
    m1 = np.where(z1, U(0), f1 | hidden)
    m2 = np.where(z2, U(0), f2 | hidden)

    sig, guard, rnd, sticky, top = _wide_mul_grs(fmt, m1, m2)
    exp = e1.astype(I) + e2.astype(I) - I(fmt.bias) + top.astype(I)

    sig, inexact = _round_vec(sig, guard, rnd, sticky, mode)
    carry = (sig >> U(fmt.sig_bits)) & U(1)
    sig = np.where(carry != 0, sig >> U(1), sig)
    exp = exp + carry.astype(I)

    out, overflow, underflow = _pack_result(fmt, sign, exp, sig)

    # Specials, in priority order (NaN > 0*Inf > Inf > zero).
    any_nan = n1 | n2
    zero_times_inf = (z1 & i2) | (z2 & i1)
    any_inf = i1 | i2
    any_zero = z1 | z2
    signed_inf = (sign << U(fmt.width - 1)) | U(fmt.inf(0))
    signed_zero = sign << U(fmt.width - 1)
    out = np.where(any_zero, signed_zero, out)
    out = np.where(any_inf, signed_inf, out)
    out = np.where(zero_times_inf | any_nan, U(fmt.nan()), out)
    if not with_flags:
        return out, None

    flags = np.where(inexact, _F(_FL_INEXACT), _F(0))
    flags = np.where(overflow, _F(_FL_OVERFLOW | _FL_INEXACT), flags)
    flags = np.where(underflow, _F(_FL_UNDERFLOW | _FL_INEXACT | _FL_ZERO), flags)
    flags = np.where(any_zero, _F(_FL_ZERO), flags)
    flags = np.where(any_inf, _F(0), flags)
    flags = np.where(zero_times_inf | any_nan, _F(_FL_INVALID), flags)
    return out, flags


def _add(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode,
    with_flags: bool,
):
    """vec_add's datapath on validated lane arrays: (out, flags | None)."""
    U = a.dtype.type
    I = _LANE_TYPES[U][0]
    s1, e1, f1 = _unpack(fmt, a)
    s2, e2, f2 = _unpack(fmt, b)
    z1, i1, n1 = _classify(fmt, e1, f1)
    z2, i2, n2 = _classify(fmt, e2, f2)

    hidden = U(1) << U(fmt.man_bits)
    m1 = f1 | hidden
    m2 = f2 | hidden

    # Swap so operand 1 has the larger magnitude (exponent, then mantissa).
    swap = (e2 > e1) | ((e2 == e1) & (m2 > m1))
    e_big = np.where(swap, e2, e1)
    e_small = np.where(swap, e1, e2)
    m_big = np.where(swap, m2, m1)
    m_small = np.where(swap, m1, m2)
    s_big = np.where(swap, s2, s1)
    s_small = np.where(swap, s1, s2)

    # wide = man_bits + 4 <= slot - 1: the lane's guard band keeps the
    # carry bit of total_add representable in the lane dtype.
    wide = fmt.sig_bits + 3
    diff = e_big - e_small
    shift = np.minimum(diff, U(wide))
    big = m_big << U(3)
    small_full = m_small << U(3)
    small = np.where(diff >= wide, U(0), small_full >> shift)
    drop_mask = np.where(
        diff >= wide, ~U(0) >> U(1), (U(1) << shift) - U(1)
    )
    sticky = ((small_full & drop_mask) != 0).astype(U)

    subtract = s_big != s_small
    total_add = big + small
    carry = (total_add >> U(wide)) & U(1)
    sticky_add = np.where(carry != 0, sticky | (total_add & U(1)), sticky)
    total_add = np.where(carry != 0, total_add >> U(1), total_add)
    exp_add = e_big.astype(I) + carry.astype(I)

    total_sub = big - small - sticky
    total = np.where(subtract, total_sub, total_add)
    sticky = np.where(subtract, sticky, sticky_add)
    exp = np.where(subtract, e_big.astype(I), exp_add)

    cancel = subtract & (total == 0)

    # Normalize left: distance of the leading one from bit (wide-1).
    safe_total = np.where(total == 0, U(1), total)
    # bit_length via float log2 is unsafe; use a shift loop over the
    # fixed, small width instead (wide <= 63 for supported formats).
    lz = np.zeros_like(total, dtype=I)
    probe = safe_total
    for step in (32, 16, 8, 4, 2, 1):
        if step >= wide:
            continue
        mask = probe < (U(1) << U(wide - step))
        lz = lz + np.where(mask, I(step), I(0))
        probe = np.where(mask, probe << U(step), probe)
    total_n = safe_total << lz.astype(U)
    exp = exp - lz

    guard = (total_n >> U(2)) & U(1)
    rnd = (total_n >> U(1)) & U(1)
    st_bit = (total_n & U(1)) | sticky
    sig = total_n >> U(3)
    sig, inexact = _round_vec(sig, guard, rnd, st_bit, mode)
    carry2 = (sig >> U(fmt.sig_bits)) & U(1)
    sig = np.where(carry2 != 0, sig >> U(1), sig)
    exp = exp + carry2.astype(I)

    result_sign = s_big
    out, overflow, underflow = _pack_result(fmt, result_sign, exp, sig)
    out = np.where(cancel, U(0), out)  # exact cancellation -> +0

    # Zero-operand fast paths (the denormal-free zero semantics).
    both_zero = z1 & z2
    one_zero = z1 ^ z2
    zero_sign = np.where(s1 == s2, s1, U(0)) << U(fmt.width - 1)
    pass_b = (s2 << U(fmt.width - 1)) | (e2 << U(fmt.man_bits)) | f2
    pass_a = (s1 << U(fmt.width - 1)) | (e1 << U(fmt.man_bits)) | f1
    out = np.where(z1 & ~z2, pass_b, out)
    out = np.where(z2 & ~z1, pass_a, out)
    out = np.where(both_zero, zero_sign, out)

    # Specials.
    inf_conflict = i1 & i2 & (s1 != s2)
    signed_inf1 = (s1 << U(fmt.width - 1)) | U(fmt.inf(0))
    signed_inf2 = (s2 << U(fmt.width - 1)) | U(fmt.inf(0))
    out = np.where(i1, signed_inf1, out)
    out = np.where(i2 & ~i1, signed_inf2, out)
    any_nan = n1 | n2
    out = np.where(inf_conflict | any_nan, U(fmt.nan()), out)
    if not with_flags:
        return out, None

    flags = np.where(inexact, _F(_FL_INEXACT), _F(0))
    flags = np.where(underflow, _F(_FL_UNDERFLOW | _FL_INEXACT | _FL_ZERO), flags)
    flags = np.where(overflow, _F(_FL_OVERFLOW | _FL_INEXACT), flags)
    flags = np.where(cancel, _F(_FL_ZERO), flags)
    flags = np.where(one_zero, _F(0), flags)
    flags = np.where(both_zero, _F(_FL_ZERO), flags)
    flags = np.where(i1 | i2, _F(0), flags)
    flags = np.where(inf_conflict | any_nan, _F(_FL_INVALID), flags)
    return out, flags


def vec_mul(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    with_flags: bool = False,
):
    """Element-wise FP multiply; returns the result bit patterns.

    With ``with_flags=True`` returns ``(bits, flags)`` where ``flags`` is
    a ``uint8`` array in the :meth:`FPFlags.to_bits` layout, element-wise
    identical to the scalar :func:`repro.fp.multiplier.fp_mul` flags.
    """
    check_vectorized_format(fmt)
    lane = _lane_dtype(fmt)
    a = _as_lane(fmt, a, "a", lane)
    b = _as_lane(fmt, b, "b", lane)
    return _result(*_mul(fmt, a, b, mode, with_flags))


def vec_add(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    with_flags: bool = False,
):
    """Element-wise FP add; returns the result bit patterns.

    With ``with_flags=True`` returns ``(bits, flags)``, flags being the
    scalar :func:`repro.fp.adder.fp_add` sideband per element.
    """
    check_vectorized_format(fmt)
    lane = _lane_dtype(fmt)
    a = _as_lane(fmt, a, "a", lane)
    b = _as_lane(fmt, b, "b", lane)
    return _result(*_add(fmt, a, b, mode, with_flags))


def vec_sub(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    with_flags: bool = False,
):
    """Element-wise FP subtract: sign-flip feeding :func:`vec_add`."""
    check_vectorized_format(fmt)
    U = _lane_dtype(fmt)
    b = _as_lane(fmt, b, "b", U)
    a = _as_lane(fmt, a, "a", U)
    _, eb, fb = _unpack(fmt, b)
    nan_b = (eb == fmt.exp_max) & (fb != 0)
    flipped = b ^ (U(1) << U(fmt.width - 1))
    out, flags = _add(fmt, a, flipped, mode, with_flags)
    return _result(np.where(nan_b, U(fmt.nan()), out), flags)


def vec_div(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    with_flags: bool = False,
):
    """Element-wise FP divide; bit- and flag-identical to ``fp_div``.

    The scalar datapath computes ``divmod(m1 << (man_bits + 3), m2)``,
    whose numerator exceeds 64 bits for wide formats; here the same
    quotient comes from a fixed-iteration restoring division — one
    compare/subtract per quotient bit, exactly the hardware recurrence —
    whose partial remainder always fits one ``uint64`` limb and whose
    final remainder drives the honest sticky bit.
    """
    check_vectorized_format(fmt)
    a = _as_lane(fmt, a, "a")
    b = _as_lane(fmt, b, "b")
    s1, e1, f1 = _unpack(fmt, a)
    s2, e2, f2 = _unpack(fmt, b)
    z1, i1, n1 = _classify(fmt, e1, f1)
    z2, i2, n2 = _classify(fmt, e2, f2)
    sign = s1 ^ s2

    hidden = _U(1) << _U(fmt.man_bits)
    m1 = f1 | hidden
    m2 = f2 | hidden

    # Restoring division: q = floor((m1 << man_bits+3) / m2) with final
    # remainder r.  The pre-step keeps the invariant r < m2, so every
    # row's shifted remainder stays below 2^(man_bits+2) — one limb.
    ge = m1 >= m2
    q = ge.astype(np.uint64)
    r = m1 - m2 * q
    for _ in range(fmt.man_bits + 3):
        r = r << _U(1)
        ge = r >= m2
        geu = ge.astype(np.uint64)
        r = r - m2 * geu
        q = (q << _U(1)) | geu

    exp = e1.astype(np.int64) - e2.astype(np.int64) + fmt.bias
    rem_nz = (r != 0).astype(np.uint64)
    # Ratio >= 1 gives man_bits+4 quotient bits; ratio in (1/2, 1) gives
    # man_bits+3 bits and a one-position normalization.
    ge1 = (q >> _U(fmt.man_bits + 3)) != 0
    sig = np.where(ge1, q >> _U(3), q >> _U(2))
    guard = np.where(ge1, q >> _U(2), q >> _U(1)) & _U(1)
    rnd = np.where(ge1, q >> _U(1), q) & _U(1)
    sticky = np.where(ge1, (q & _U(1)) | rem_nz, rem_nz)
    exp = exp - np.where(ge1, 0, 1)

    sig, inexact = _round_vec(sig, guard, rnd, sticky, mode)
    carry = (sig >> _U(fmt.sig_bits)) & _U(1)
    sig = np.where(carry != 0, sig >> _U(1), sig)
    exp = exp + carry.astype(np.int64)

    out, overflow, underflow = _pack_result(fmt, sign, exp, sig)

    # Specials, lowest priority first (scalar checks NaN > Inf/Inf,0/0 >
    # Inf/x > x/Inf > x/0 > 0/x).
    signed_inf = (sign << _U(fmt.width - 1)) | _U(fmt.inf(0))
    signed_zero = sign << _U(fmt.width - 1)
    nan_case = n1 | n2 | (i1 & i2) | (z1 & z2)
    out = np.where(z1, signed_zero, out)
    out = np.where(z2, signed_inf, out)
    out = np.where(i2, signed_zero, out)
    out = np.where(i1, signed_inf, out)
    out = np.where(nan_case, _U(fmt.nan()), out)
    if not with_flags:
        return out

    flags = np.where(inexact, _FL_INEXACT, 0)
    flags = np.where(overflow, _FL_OVERFLOW | _FL_INEXACT, flags)
    flags = np.where(underflow, _FL_UNDERFLOW | _FL_INEXACT | _FL_ZERO, flags)
    flags = np.where(z1, _FL_ZERO, flags)
    flags = np.where(z2, _FL_DIV_BY_ZERO, flags)
    flags = np.where(i2, _FL_ZERO, flags)
    flags = np.where(i1, 0, flags)
    flags = np.where(nan_case, _FL_INVALID, flags)
    return out, flags.astype(np.uint8)


def vec_sqrt(
    fmt: FPFormat,
    a: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    with_flags: bool = False,
):
    """Element-wise FP square root; bit- and flag-identical to ``fp_sqrt``.

    Runs the hardware two-bits-per-row restoring root recurrence (the
    same row form as :func:`repro.fp.sqrt.sqrt_recurrence`) with the
    partial remainder split across two base-2^32 limbs, because the
    widest formats push the intermediate ``(r << 2) | two`` past 64
    bits.  The radicand is never materialized: each row's two bits are
    read straight out of the adjusted significand.
    """
    check_vectorized_format(fmt)
    a = _as_lane(fmt, a, "a")
    s, e, f = _unpack(fmt, a)
    is_zero, is_inf, is_nan = _classify(fmt, e, f)

    hidden = _U(1) << _U(fmt.man_bits)
    m = f | hidden
    e_unb = e.astype(np.int64) - fmt.bias
    parity = e_unb % 2  # floor semantics: always 0 or 1
    m_adj = m << parity.astype(np.uint64)
    half_exp = (e_unb - parity) // 2

    # q = isqrt(m_adj << (man_bits + 6)) carries man_bits + 4 bits; the
    # recurrence consumes the radicand two bits per row from the top.
    wm = fmt.man_bits
    mask32 = _U(0xFFFFFFFF)
    q = np.zeros_like(m)
    rh = np.zeros_like(m)
    rl = np.zeros_like(m)
    for row in reversed(range(wm + 4)):
        sh = 2 * row - (wm + 6)
        if sh >= 0:
            two = (m_adj >> _U(sh)) & _U(3)
        elif sh == -1:
            two = (m_adj & _U(1)) << _U(1)
        else:
            two = _U(0)
        rl4 = (rl << _U(2)) | two
        rh = (rh << _U(2)) | (rl4 >> _U(32))
        rl = rl4 & mask32
        # trial = (q << 2) | 1, split into base-2^32 limbs
        th = q >> _U(30)
        tl = ((q << _U(2)) | _U(1)) & mask32
        ge = (rh > th) | ((rh == th) & (rl >= tl))
        geu = ge.astype(np.uint64)
        borrow = ((rl < tl) & ge).astype(np.uint64)
        rl = np.where(ge, (rl - tl) & mask32, rl)
        rh = np.where(ge, rh - th - borrow, rh)
        q = (q << _U(1)) | geu

    rem_nz = ((rh | rl) != 0).astype(np.uint64)
    guard = (q >> _U(2)) & _U(1)
    rnd = (q >> _U(1)) & _U(1)
    sticky = (q & _U(1)) | rem_nz
    sig, inexact = _round_vec(q >> _U(3), guard, rnd, sticky, mode)
    carry = (sig >> _U(fmt.sig_bits)) & _U(1)
    sig = np.where(carry != 0, sig >> _U(1), sig)
    exp_out = half_exp + fmt.bias + carry.astype(np.int64)

    # Normal inputs give strictly in-range exponents; special lanes pack
    # garbage here and are overridden below.
    out, _, _ = _pack_result(fmt, np.zeros_like(s), exp_out, sig)

    pos_inf = is_inf & (s == 0)
    negative = (s != 0) & ~is_zero & ~is_nan
    signed_zero = s << _U(fmt.width - 1)
    out = np.where(pos_inf, _U(fmt.inf(0)), out)
    out = np.where(negative, _U(fmt.nan()), out)
    out = np.where(is_zero, signed_zero, out)
    out = np.where(is_nan, _U(fmt.nan()), out)
    if not with_flags:
        return out

    flags = np.where(inexact, _FL_INEXACT, 0)
    flags = np.where(pos_inf, 0, flags)
    flags = np.where(negative, _FL_INVALID, flags)
    flags = np.where(is_zero, _FL_ZERO, flags)
    flags = np.where(is_nan, _FL_INVALID, flags)
    return out, flags.astype(np.uint8)


# --------------------------------------------------------------------- #
# fused multiply-add: a 6-limb base-2^32 windowed accumulator
# --------------------------------------------------------------------- #

_MASK32 = _U(0xFFFFFFFF)
_FMA_LIMBS = 6  # 192 bits: holds the 3*sig_bits+2-bit alignment window


def _bitlen32(x: np.ndarray) -> np.ndarray:
    """Per-element bit length of a < 2^32 value (0 for 0); int64."""
    n = np.zeros(x.shape, dtype=np.int64)
    probe = x.astype(np.uint64)
    for step in (16, 8, 4, 2, 1):
        big = probe >= (_U(1) << _U(step))
        n = n + np.where(big, step, 0)
        probe = np.where(big, probe >> _U(step), probe)
    return n + (probe != 0)


def _limbs_from_shift(value: np.ndarray, sh: np.ndarray) -> list:
    """``value << sh`` (value < 2^61, sh >= 0 per element) as base-2^32
    limbs, least significant first."""
    limbs = []
    for j in range(_FMA_LIMBS):
        d = np.int64(32 * j) - sh
        dl = np.clip(-d, 0, 63).astype(np.uint64)
        dr = np.clip(d, 0, 63).astype(np.uint64)
        piece = np.where(d >= 0, value >> dr, value << dl) & _MASK32
        piece = np.where((d >= 64) | (d <= -32), _U(0), piece)
        limbs.append(piece)
    return limbs


def vec_fma(
    fmt: FPFormat,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    with_flags: bool = False,
):
    """Element-wise fused ``a*b + c`` with a single rounding.

    Bit- and flag-identical to the scalar :func:`repro.fp.mac.fp_fma`
    for every supported format and both rounding modes.  The exact
    product (two-limb 32x32 recombination, as in :func:`_wide_mul_grs`)
    and the aligned addend meet in a 192-bit base-2^32 window anchored
    two guard positions below the product LSB; an addend entirely below
    the window folds into an honest sticky borrow, an addend entirely
    above it swaps the anchor to the addend side with the product as
    sticky — so the single rounding sees exactly the value a hardware
    FMA with a ``3*sig_bits+2``-bit alignment datapath would.
    """
    check_vectorized_format(fmt)
    a = _as_lane(fmt, a, "a")
    b = _as_lane(fmt, b, "b")
    c = _as_lane(fmt, c, "c")
    s1, e1, f1 = _unpack(fmt, a)
    s2, e2, f2 = _unpack(fmt, b)
    s3, e3, f3 = _unpack(fmt, c)
    z1, i1, n1 = _classify(fmt, e1, f1)
    z2, i2, n2 = _classify(fmt, e2, f2)
    z3, i3, n3 = _classify(fmt, e3, f3)
    ps = s1 ^ s2

    hidden = _U(1) << _U(fmt.man_bits)
    m1 = f1 | hidden
    m2 = f2 | hidden
    mc = f3 | hidden
    wm = fmt.man_bits
    sb = fmt.sig_bits

    # Exact double-width product as base-2^32 limbs (cf. _wide_mul_grs).
    a0, a1 = m1 & _MASK32, m1 >> _U(32)
    b0, b1 = m2 & _MASK32, m2 >> _U(32)
    pp00 = a0 * b0
    pp01 = a0 * b1
    pp10 = a1 * b0
    pp11 = a1 * b1
    acc1 = (pp00 >> _U(32)) + (pp01 & _MASK32) + (pp10 & _MASK32)
    acc2 = (acc1 >> _U(32)) + (pp01 >> _U(32)) + (pp10 >> _U(32)) + (pp11 & _MASK32)
    acc3 = (acc2 >> _U(32)) + (pp11 >> _U(32))
    p_limbs = [pp00 & _MASK32, acc1 & _MASK32, acc2 & _MASK32, acc3 & _MASK32]
    # Window W = product << 2 (two guard positions below the product LSB).
    w = []
    prev = _U(0)
    for limb in p_limbs:
        w.append(((limb << _U(2)) | prev) & _MASK32)
        prev = limb >> _U(30)
    w.append(prev)
    w.append(np.zeros_like(m1))

    # LSB scales: product at Ep, addend at Ec; window LSB at Ep - 2.
    ep = e1.astype(np.int64) + e2.astype(np.int64) - 2 * fmt.bias - 2 * wm
    ec = e3.astype(np.int64) - fmt.bias - wm
    sh_raw = ec - ep + 2  # addend LSB position within the window

    czero = z3
    sub = (ps != s3) & ~czero
    # Case split: below-window addend (sticky borrow), in-window exact
    # alignment, above-window addend (anchor swap, product as sticky).
    case1 = (sh_raw < 0) | czero
    case3 = ~case1 & (sh_raw > 2 * sb + 6)
    case2 = ~case1 & ~case3

    # Case 1: A = mc >> rs with the dropped bits as sticky.
    rs = np.clip(-sh_raw, 0, 63).astype(np.uint64)
    a_small = np.where(czero, _U(0), mc >> rs)
    sticky_a = case1 & ~czero & ((mc & ((_U(1) << rs) - _U(1))) != 0)
    # Case 2: A = mc << sh_raw, exact in the 192-bit window.
    val = np.where(case1, a_small, np.where(case2, mc, _U(0)))
    shv = np.where(case2, sh_raw, 0)
    al = _limbs_from_shift(val, shv)

    # W - A - sticky_borrow, W + A, and A - W, all exact; select later.
    borrow = sticky_a.astype(np.uint64)
    base = _U(1) << _U(32)
    diff = []
    br = borrow
    for j in range(_FMA_LIMBS):
        t = w[j] + base - al[j] - br
        diff.append(t & _MASK32)
        br = (t >> _U(32)) ^ _U(1)
    neg = br != 0  # |addend| > |product| (case 2 only)
    rdiff = []
    br = _U(0)
    for j in range(_FMA_LIMBS):
        t = al[j] + base - w[j] - br
        rdiff.append(t & _MASK32)
        br = (t >> _U(32)) ^ _U(1)
    sadd = []
    cy = _U(0)
    for j in range(_FMA_LIMBS):
        t = w[j] + al[j] + cy
        sadd.append(t & _MASK32)
        cy = t >> _U(32)

    # Case 3: the product is a pure sticky below the addend's window,
    # anchored at Ec - 3; the classic (X << 3) - 1 keeps the floor exact.
    c3 = (mc << _U(3)) - np.where(sub, _U(1), _U(0))
    s_limbs = []
    for j in range(_FMA_LIMBS):
        limb = np.where(sub, np.where(neg, rdiff[j], diff[j]), sadd[j])
        if j == 0:
            limb = np.where(case3, c3 & _MASK32, limb)
        elif j == 1:
            limb = np.where(case3, c3 >> _U(32), limb)
        else:
            limb = np.where(case3, _U(0), limb)
        s_limbs.append(limb)
    sticky_extra = np.where(case3, True, sticky_a)
    anchor = np.where(case3, ec - 3, ep - 2)
    res_sign = np.where(case3, s3, np.where(sub & neg, s3, ps))

    nz = s_limbs[0]
    for limb in s_limbs[1:]:
        nz = nz | limb
    cancel = (nz == 0) & sub & case2

    # Leading-bit index across the limbs (0 for the all-zero lanes,
    # which are overridden below).
    msb = np.full(nz.shape, -1, dtype=np.int64)
    for j in reversed(range(_FMA_LIMBS)):
        hit = (msb < 0) & (s_limbs[j] != 0)
        msb = np.where(hit, 32 * j + _bitlen32(s_limbs[j]) - 1, msb)
    msb = np.maximum(msb, 0)

    # encode_fraction keeps sig_bits + 2 bits: gather them across limbs
    # and fold everything below into sticky.
    k = msb - (sb + 1)  # may be negative: small cancellation results
    t_bits = np.zeros_like(nz)
    for j in range(_FMA_LIMBS):
        d = np.int64(32 * j) - k
        dl = np.clip(d, 0, 63).astype(np.uint64)
        dr = np.clip(-d, 0, 63).astype(np.uint64)
        piece = np.where(d >= 0, s_limbs[j] << dl, s_limbs[j] >> dr)
        piece = np.where((d >= 64) | (d <= -32), _U(0), piece)
        t_bits = t_bits | piece
    t_bits = t_bits & ((_U(1) << _U(sb + 2)) - _U(1))
    st_low = sticky_extra.copy()
    for j in range(_FMA_LIMBS):
        lo = np.clip(k - 32 * j, 0, 32).astype(np.uint64)
        st_low = st_low | ((s_limbs[j] & ((_U(1) << lo) - _U(1))) != 0)

    sig = t_bits >> _U(2)
    guard = (t_bits >> _U(1)) & _U(1)
    rnd = t_bits & _U(1)
    sig, inexact = _round_vec(sig, guard, rnd, st_low.astype(np.uint64), mode)
    carry = (sig >> _U(sb)) & _U(1)
    sig = np.where(carry != 0, sig >> _U(1), sig)
    exp_b = anchor + msb + fmt.bias + carry.astype(np.int64)

    out, overflow, underflow = _pack_result(fmt, res_sign, exp_b, sig)
    flags = np.where(inexact, _FL_INEXACT, 0)
    flags = np.where(overflow, _FL_OVERFLOW | _FL_INEXACT, flags)
    flags = np.where(underflow, _FL_UNDERFLOW | _FL_INEXACT | _FL_ZERO, flags)

    # Zero layer: exact cancellation -> +0; zero product passes the
    # addend through untouched; all-zero keeps the IEEE sign rule.
    pzero = z1 | z2
    out = np.where(cancel, _U(0), out)
    flags = np.where(cancel, _FL_ZERO, flags)
    out = np.where(pzero & ~czero, c, out)
    flags = np.where(pzero & ~czero, 0, flags)
    all_zero_sign = np.where(ps == s3, ps, _U(0))
    out = np.where(pzero & czero, all_zero_sign << _U(fmt.width - 1), out)
    flags = np.where(pzero & czero, _FL_ZERO, flags)

    # Specials, lowest priority first (scalar checks NaN > 0*Inf >
    # Inf-Inf conflict > product Inf > addend Inf).
    p_inf = i1 | i2
    inf_ps = (ps << _U(fmt.width - 1)) | _U(fmt.inf(0))
    inf_sc = (s3 << _U(fmt.width - 1)) | _U(fmt.inf(0))
    conflict = p_inf & i3 & (s3 != ps)
    zero_times_inf = p_inf & pzero
    any_nan = n1 | n2 | n3
    out = np.where(i3, inf_sc, out)
    flags = np.where(i3, 0, flags)
    out = np.where(p_inf, inf_ps, out)
    flags = np.where(p_inf, 0, flags)
    nan_case = conflict | zero_times_inf | any_nan
    out = np.where(nan_case, _U(fmt.nan()), out)
    flags = np.where(nan_case, _FL_INVALID, flags)
    if not with_flags:
        return out
    return out, flags.astype(np.uint8)
