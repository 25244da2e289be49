"""Golden-vector regression corpus: replay the checked-in oracle vectors
through the scalar, vectorized AND structural datapaths on every run."""

from pathlib import Path

import numpy as np
import pytest

from repro.fp import vectorized
from repro.fp.format import FORMATS_BY_NAME
from repro.fp.ops import OP_TABLE
from repro.fp.rounding import RoundingMode
from repro.fp.vectorized import lane_dtype
from repro.units.structural import trace_datapath
from repro.verify.golden import (
    GOLDEN_OPS,
    GOLDEN_SEED,
    SMALL_GOLDEN_OPS,
    corpus_filename,
    generate_corpus,
    load_corpus,
)

VECTOR_DIR = Path(__file__).resolve().parent.parent / "vectors"

CORPUS_FILES = sorted(VECTOR_DIR.glob("*.json"))

LANES = (np.uint16, np.uint32, np.uint64)


def _native_lane(path):
    fmt_name, op = path.stem.split("_")
    return lane_dtype(op, FORMATS_BY_NAME[fmt_name])


#: Corpora whose (op, format) runs on a lane narrower than uint64.
NARROW_LANE_CORPORA = [p for p in CORPUS_FILES if _native_lane(p) != "uint64"]


def test_corpus_is_checked_in():
    names = {p.name for p in CORPUS_FILES}
    for fmt_name in ("fp32", "fp48", "fp64"):
        for op in GOLDEN_OPS:
            assert f"{fmt_name}_{op}.json" in names
    for fmt_name in ("fp16", "bf16"):
        for op in SMALL_GOLDEN_OPS:
            assert f"{fmt_name}_{op}.json" in names


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_scalar_datapaths_match_golden(path):
    doc = load_corpus(path)
    fmt, op = doc["fmt"], doc["op"]
    impl = OP_TABLE[op].scalar
    assert doc["cases"], "corpus must not be empty"
    for case in doc["cases"]:
        for mode in RoundingMode:
            want_bits, want_flags = case[mode.value]
            got_bits, got_flags = impl(fmt, *case["operands"], mode)
            assert got_bits == want_bits, (path.name, case, mode.value)
            assert got_flags.to_bits() == want_flags, (path.name, case, mode.value)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_vectorized_datapaths_match_golden(path):
    """Replays on each format's own lane dtype (uint16 for the fp16/bf16
    corpora, uint32 for fp32 add/mul, uint64 otherwise)."""
    doc = load_corpus(path)
    fmt, op = doc["fmt"], doc["op"]
    vec = OP_TABLE[op].vectorized
    columns = [
        np.array([c["operands"][j] for c in doc["cases"]], dtype=np.uint64)
        for j in range(doc["arity"])
    ]
    for mode in RoundingMode:
        bits, flags = vec(fmt, *columns, mode, with_flags=True)
        for i, case in enumerate(doc["cases"]):
            want_bits, want_flags = case[mode.value]
            assert int(bits[i]) == want_bits, (path.name, case, mode.value)
            assert int(flags[i]) == want_flags, (path.name, case, mode.value)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_structural_datapaths_match_golden(path):
    """Replays through the op's micro-op list, via the trace recorder."""
    doc = load_corpus(path)
    fmt, op = doc["fmt"], doc["op"]
    for case in doc["cases"]:
        for mode in RoundingMode:
            want_bits, want_flags = case[mode.value]
            trace = trace_datapath(op, fmt, *case["operands"], mode=mode)
            assert trace.result == want_bits, (path.name, case, mode.value)
            assert trace.flags.to_bits() == want_flags, (path.name, case, mode.value)


@pytest.mark.parametrize("path", NARROW_LANE_CORPORA, ids=lambda p: p.stem)
def test_every_lane_matches_golden(path, monkeypatch):
    """Narrow-lane corpora replay on their own lane and on every wider
    one, with the lane selection substituted as the lanes bench does for
    its uint64 baseline — same bits, same flags."""
    doc = load_corpus(path)
    fmt, op = doc["fmt"], doc["op"]
    vec = OP_TABLE[op].vectorized
    columns = [
        np.array([c["operands"][j] for c in doc["cases"]], dtype=np.uint64)
        for j in range(doc["arity"])
    ]
    native = LANES.index(getattr(np, _native_lane(path)))
    for lane in LANES[native:]:
        monkeypatch.setattr(vectorized, "_lane_dtype", lambda f, lane=lane: lane)
        assert lane_dtype(op, fmt) == np.dtype(lane).name
        for mode in RoundingMode:
            bits, flags = vec(fmt, *columns, mode, with_flags=True)
            for i, case in enumerate(doc["cases"]):
                want_bits, want_flags = case[mode.value]
                assert int(bits[i]) == want_bits, (
                    path.name, lane.__name__, case, mode.value,
                )
                assert int(flags[i]) == want_flags, (
                    path.name, lane.__name__, case, mode.value,
                )


def test_small_corpora_pin_range_corners():
    """The fp16/bf16 corpora carry the subnormal and overflow rows."""
    rne = RoundingMode.NEAREST_EVEN.value
    for name in ("fp16", "bf16"):
        add = load_corpus(VECTOR_DIR / f"{name}_add.json")
        fmt = add["fmt"]
        by_label = {
            c["classes"][0]: c
            for c in add["cases"]
            if len(c["classes"]) == 1
        }
        assert by_label["directed:overflow_to_inf"][rne] == (
            fmt.inf(0),
            0b10100,  # overflow | inexact
        )
        # max subnormal + min subnormal is exact and stays subnormal.
        bits, flags = by_label["directed:subnormal_sum"][rne]
        assert fmt.is_zero(bits) or fmt.unpack(bits)[1] == 0
        mul = load_corpus(VECTOR_DIR / f"{name}_mul.json")
        by_label = {
            c["classes"][0]: c
            for c in mul["cases"]
            if len(c["classes"]) == 1
        }
        # min_normal^2 is far below the subnormal floor: rounds to zero
        # with underflow | inexact (| zero).
        bits, flags = by_label["directed:underflow_flush"][rne]
        assert fmt.is_zero(bits)
        assert flags & 0b1100 == 0b1100  # underflow | inexact
        sub = load_corpus(VECTOR_DIR / f"{name}_sub.json")
        by_label = {
            c["classes"][0]: c
            for c in sub["cases"]
            if len(c["classes"]) == 1
        }
        # max - (-max) doubles out of range in one step.
        assert by_label["directed:overflow_to_inf"][rne][0] == fmt.inf(0)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_is_seed_pinned(path):
    """Regenerating from the pinned seed reproduces the file exactly."""
    doc = load_corpus(path)
    assert doc["seed"] == GOLDEN_SEED
    regenerated = generate_corpus(doc["fmt"], doc["op"])
    # Generation is deterministic, so compare case i with case i.
    assert len(doc["cases"]) == len(regenerated["cases"])
    for got, want in zip(doc["cases"], regenerated["cases"]):
        assert got["classes"] == tuple(want["classes"])
        for key, word in zip(("a", "b", "c"), got["operands"]):
            assert word == int(want[key], 16)
        for mode in RoundingMode:
            assert got[mode.value] == (
                int(want[mode.value]["bits"], 16),
                want[mode.value]["flags"],
            )


def test_div_corpus_pins_exception_rows():
    """The div corpus must carry the x/0, 0/0 and Inf/Inf flag rows."""
    doc = load_corpus(VECTOR_DIR / "fp32_div.json")
    directed = {c["classes"][0] for c in doc["cases"] if len(c["classes"]) == 1}
    for label in ("directed:x_div_zero", "directed:zero_div_zero",
                  "directed:inf_div_inf"):
        assert label in directed
    fmt = doc["fmt"]
    by_label = {c["classes"][0]: c for c in doc["cases"] if len(c["classes"]) == 1}
    rne = RoundingMode.NEAREST_EVEN.value
    assert by_label["directed:x_div_zero"][rne] == (fmt.inf(0), 0b100000)
    assert by_label["directed:zero_div_zero"][rne][1] == 0b10  # invalid
    assert by_label["directed:inf_div_inf"][rne][1] == 0b10  # invalid


def test_sqrt_corpus_pins_parity_cases():
    """The sqrt corpus carries odd/even-exponent and never-a-tie rows."""
    doc = load_corpus(VECTOR_DIR / "fp48_sqrt.json")
    by_label = {c["classes"][0]: c for c in doc["cases"] if len(c["classes"]) == 1}
    for label in ("directed:even_exact_square", "directed:odd_exponent",
                  "directed:all_ones_even", "directed:all_ones_odd"):
        assert label in by_label
    fmt = doc["fmt"]
    # sqrt(4.0) = 2.0 exactly: identical bits, no inexact, in both modes.
    exact = by_label["directed:even_exact_square"]
    two = fmt.pack(0, fmt.bias + 1, 0)
    for mode in RoundingMode:
        assert exact[mode.value] == (two, 0)
    # A square root is never an exact tie, so RNE and RTZ may differ by
    # at most one ULP on the all-ones rows — and both stay inexact.
    for label in ("directed:all_ones_even", "directed:all_ones_odd"):
        case = by_label[label]
        rne_bits, rne_flags = case[RoundingMode.NEAREST_EVEN.value]
        rtz_bits, rtz_flags = case[RoundingMode.TRUNCATE.value]
        assert rne_flags == rtz_flags == 0b100  # inexact
        assert rne_bits - rtz_bits in (0, 1)


def test_corpus_filename_roundtrip():
    from repro.fp.format import FP48

    assert corpus_filename(FP48, "add") == "fp48_add.json"
