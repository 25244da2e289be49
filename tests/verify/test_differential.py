"""The engine-driven differential campaign: zero mismatches on a scaled
campaign, cache/parallel behavior, and mismatch *detection* (the suite
must prove the checker can fail, not only that it passes)."""

import dataclasses

import pytest

from repro.engine import Engine, ResultCache
from repro.fp.format import (
    FP32,
    FP48,
    FP64,
    PAPER_FORMATS,
    SMALL_FORMATS,
)
from repro.fp.rounding import RoundingMode
from repro.verify.differential import (
    CAMPAIGN_OPS,
    OP_ARITY,
    CampaignReport,
    ChunkReport,
    DiffExample,
    campaign_jobs,
    diff_chunk,
    run_campaign,
)


class TestDiffChunk:
    @pytest.mark.parametrize("op", CAMPAIGN_OPS)
    def test_chunk_passes_all_formats(self, paper_fmt, op):
        report = diff_chunk(
            paper_fmt, op, RoundingMode.NEAREST_EVEN, seed=11, pairs=700
        )
        assert report.passed, report
        assert report.pairs == 700
        assert report.oracle_checked > 0
        # 700 pairs cycle the 13**arity operand-class grid in order, so
        # coverage is the full grid where it fits (13 unary, 169 binary)
        # and exactly one class tuple per pair where it does not (fma's
        # 2197-cell grid).
        assert report.covered_class_pairs == min(700, 13 ** OP_ARITY[op])

    def test_chunk_rtz(self):
        report = diff_chunk(FP64, "mul", RoundingMode.TRUNCATE, seed=3, pairs=400)
        assert report.passed, report

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign op"):
            diff_chunk(FP32, "cbrt", RoundingMode.NEAREST_EVEN, seed=0, pairs=10)

    def test_chunk_is_deterministic(self):
        r1 = diff_chunk(FP48, "add", RoundingMode.NEAREST_EVEN, seed=5, pairs=300)
        r2 = diff_chunk(FP48, "add", RoundingMode.NEAREST_EVEN, seed=5, pairs=300)
        assert r1 == r2


class TestMismatchDetection:
    """A checker that cannot fail proves nothing: corrupt one side."""

    def test_detects_bit_and_flag_divergence(self, monkeypatch):
        import repro.verify.differential as diff

        real_scalar = diff._SCALAR["add"]

        def corrupted(fmt, a, b, mode):
            bits, flags = real_scalar(fmt, a, b, mode)
            return bits ^ 1, flags  # flip the LSB of every result

        monkeypatch.setitem(diff._SCALAR, "add", corrupted)
        report = diff_chunk(
            FP32, "add", RoundingMode.NEAREST_EVEN, seed=0, pairs=200
        )
        assert not report.passed
        assert report.bit_mismatches > 0
        assert report.examples  # concrete counterexamples are carried
        ex = report.examples[0]
        assert isinstance(ex, DiffExample)
        assert ex.against in ("scalar", "oracle")

    def test_detects_flag_only_divergence(self, monkeypatch):
        import repro.verify.differential as diff

        real_scalar = diff._SCALAR["mul"]

        def flag_corrupted(fmt, a, b, mode):
            bits, flags = real_scalar(fmt, a, b, mode)
            return bits, dataclasses.replace(flags, invalid=not flags.invalid)

        monkeypatch.setitem(diff._SCALAR, "mul", flag_corrupted)
        report = diff_chunk(
            FP32, "mul", RoundingMode.NEAREST_EVEN, seed=0, pairs=200
        )
        assert not report.passed
        assert report.flag_mismatches > 0


class TestCampaign:
    def test_jobs_cover_grid_and_budget(self):
        jobs = campaign_jobs(
            formats=PAPER_FORMATS,
            pairs_per_format=12_000,
            chunk_pairs=1_000,
        )
        names = [j.name for j in jobs]
        for fmt in PAPER_FORMATS:
            fmt_jobs = [n for n in names if f"/{fmt.name}/" in n]
            assert fmt_jobs, names
            pairs = sum(
                dict(j.kwargs)["pairs"]
                for j in jobs
                if f"/{fmt.name}/" in j.name
            )
            assert pairs >= 12_000
        for op in CAMPAIGN_OPS:
            assert any(f"/{op}/" in n for n in names)
        for mode in RoundingMode:
            assert any(f"/{mode.value}/" in n for n in names)

    def test_scaled_campaign_passes_serial(self):
        report = run_campaign(
            formats=(FP48,),
            pairs_per_format=3_000,
            chunk_pairs=600,
            engine=Engine(),
        )
        assert isinstance(report, CampaignReport)
        assert report.passed, report.summary()
        assert report.total_pairs >= 3_000
        assert "PASS" in report.summary()

    def test_campaign_parallel_and_cached_matches_serial(self, tmp_path):
        kwargs = dict(
            formats=(FP32,), pairs_per_format=2_000, chunk_pairs=500
        )
        serial = run_campaign(engine=Engine(), **kwargs)

        cache = ResultCache(tmp_path / "cache")
        cold_engine = Engine(cache=cache, workers=2)
        cold = run_campaign(engine=cold_engine, **kwargs)
        assert cold == serial  # parallel evaluation, identical report

        warm_engine = Engine(cache=cache)
        warm = run_campaign(engine=warm_engine, **kwargs)
        assert warm == serial
        assert warm_engine.metrics.cache_hits == len(campaign_jobs(**kwargs))
        assert warm_engine.metrics.hit_rate == 1.0

    def test_chunk_reports_are_picklable(self):
        import pickle

        report = diff_chunk(FP32, "add", RoundingMode.TRUNCATE, seed=1, pairs=169)
        assert pickle.loads(pickle.dumps(report)) == report

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            campaign_jobs(pairs_per_format=0)
        with pytest.raises(ValueError):
            campaign_jobs(ops=())


class TestSmallFormatCampaign:
    """fp16/bf16 are first-class campaign formats: all six ops, both
    modes, same zero-mismatch bar as the paper formats."""

    @pytest.mark.parametrize("fmt", SMALL_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("op", CAMPAIGN_OPS)
    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_chunk_passes(self, fmt, op, mode):
        report = diff_chunk(fmt, op, mode, seed=23, pairs=500)
        assert report.passed, report
        assert report.oracle_checked > 0

    def test_default_campaign_includes_small_formats(self):
        names = [j.name for j in campaign_jobs(pairs_per_format=12)]
        for fmt in SMALL_FORMATS + PAPER_FORMATS:
            assert any(f"/{fmt.name}/" in n for n in names)
