"""The one stage description per op: built once, chained by ``fp_*``,
registered by the structural adapter, with div/sqrt's two recurrence
forms sharing everything around the recurrence."""

import random

import pytest

from repro.fp.adder import adder_stages, fp_add, fp_sub
from repro.fp.divider import divider_rows, divider_stages, fp_div
from repro.fp.format import ALL_FORMATS, FP32
from repro.fp.mac import fma_stages, fp_fma
from repro.fp.multiplier import fp_mul, multiplier_stages
from repro.fp.ops import OP_TABLE
from repro.fp.rounding import RoundingMode
from repro.fp.sqrt import fp_sqrt, sqrt_rows, sqrt_stages
from repro.fp.stages import Done, Stage, inputs_of, run
from repro.units.structural import micro_ops

RNE = RoundingMode.NEAREST_EVEN
BUILDERS = (adder_stages, multiplier_stages, divider_stages, sqrt_stages, fma_stages)


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_built_once_per_format_and_mode(build):
    assert build(FP32, RNE) is build(FP32, RNE)
    assert build(FP32, RNE) is not build(FP32, RoundingMode.TRUNCATE)


@pytest.mark.parametrize(
    "build, names",
    [
        (adder_stages, ["unpack", "denorm", "swap", "align", "add_sub",
                        "normalize", "round", "pack"]),
        (multiplier_stages, ["unpack", "denorm", "multiply", "normalize",
                             "round", "pack"]),
        (divider_stages, ["unpack", "recurrence", "normalize_round", "pack"]),
        (sqrt_stages, ["unpack", "recurrence", "round_pack"]),
        (fma_stages, ["unpack", "multiply", "align_add", "normalize_round",
                      "pack"]),
    ],
    ids=["add", "mul", "div", "sqrt", "fma"],
)
def test_stage_names(build, names):
    assert [stage.name for stage in build(FP32, RNE)] == names


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_each_stage_drives_only_what_the_next_one_reads(build):
    stages = build(FP32, RNE)
    for stage, following in zip(stages, stages[1:]):
        if stage.drives is not None:
            assert set(stage.drives) <= set(inputs_of(following.fn)), stage.name


@pytest.mark.parametrize(
    "closed, rows, arity",
    [(divider_stages, divider_rows, 2), (sqrt_stages, sqrt_rows, 1)],
    ids=["div", "sqrt"],
)
def test_row_form_shares_all_but_the_recurrence(closed, rows, arity):
    short, array = closed(FP32, RNE), rows(FP32, RNE)
    assert array[0] is short[0]  # unpack
    assert array[-len(short) + 2:] == short[2:]  # normalize/round, pack
    recurrence = array[1:len(array) - len(short) + 2]
    assert all(s.name == f"row[{i}]" for i, s in enumerate(recurrence))
    rng = random.Random(3)
    for _ in range(300):
        words = [rng.randrange(FP32.word_mask + 1) for _ in range(arity)]
        assert run(array, *words) == run(short, *words), [hex(w) for w in words]


def test_scalar_ops_are_the_stage_chains():
    rng = random.Random(4)
    chains = (
        (fp_add, adder_stages, (False,)),
        (fp_sub, adder_stages, (True,)),
        (fp_mul, multiplier_stages, ()),
        (fp_div, divider_stages, ()),
        (fp_sqrt, sqrt_stages, ()),
        (fp_fma, fma_stages, ()),
    )
    for fn, build, extra in chains:
        arity = 3 if fn is fp_fma else 1 if fn is fp_sqrt else 2
        for _ in range(50):
            words = [rng.randrange(FP32.word_mask + 1) for _ in range(arity)]
            got = fn(FP32, *words, RNE)
            assert isinstance(got, Done)
            assert got == run(build(FP32, RNE), *words, *extra)


@pytest.mark.parametrize("op", sorted(OP_TABLE))
@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_out_of_range_operands_raise(op, fmt):
    row = OP_TABLE[op]
    for bad in (fmt.word_mask + 1, -1):
        words = [fmt.one()] * row.arity
        words[-1] = bad
        with pytest.raises(ValueError, match="out of range"):
            row.scalar(fmt, *words, RNE)


def test_adapter_rejects_a_drive_the_next_stage_does_not_read():
    def first(a):
        return a + 1, 0

    def last(x, y):
        return Done((x, y))

    with pytest.raises(ValueError, match="drives no"):
        micro_ops((Stage("first", first, ("z",)), Stage("last", last)))
    ops = micro_ops((Stage("first", first, ("x",)), Stage("last", last)))
    updates = ops[0].fn({"a": 1})
    assert updates == {"x": 2}  # ``y`` rides along, not driven
