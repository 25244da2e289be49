"""campaign: differential campaigns on a fresh serial engine.

Each pass is ``run_campaign`` over six ops x five formats x two modes on
a new ``Engine`` with no disk cache, so every chunk is computed.  The
profile is dominated by the scalar ``fp/*`` datapaths and
``OperandGenerator.sample``; the vectorized pass over each chunk is a
small share, and the service is skipped.  ``warm_s`` re-runs one
campaign from a disk cache a cold pass populated (the engine's
cache-read path).  An op is one verified operand tuple; the latency of
a chunk (one op/format/mode cell) is its process CPU time, as the
engine gets the campaign's chunk jobs one at a time.
"""

from __future__ import annotations

from typing import Dict, List

import common
from common import Outcome, Patch, Timings, mean, median, ms, us

#: Operand tuples per format per pass: 500 per (op, mode) cell, one
#: chunk each, so a pass is 60 chunks and 30 000 tuples.
PAIRS_PER_FORMAT = 6_000
CHUNK_PAIRS = 500
#: After each cold pass, warm passes run for this share of its wall
#: time, so warm samples spread over the whole window.
WARM_SHARE = 0.25


def campaign_pass(seed: int, engine):
    from repro.fp.format import ALL_FORMATS
    from repro.fp.rounding import RoundingMode
    from repro.verify.differential import CAMPAIGN_OPS, run_campaign

    return run_campaign(
        formats=ALL_FORMATS,
        ops=CAMPAIGN_OPS,
        modes=tuple(RoundingMode),
        pairs_per_format=PAIRS_PER_FORMAT,
        chunk_pairs=CHUNK_PAIRS,
        seed=seed,
        engine=engine,
    )


def check(report, out: Outcome, label: str) -> None:
    """``CampaignReport.passed`` with 0 bit, flag and oracle mismatches."""
    for chunk in report.chunks:
        out.attempted += chunk.pairs
        if chunk.mismatches:
            out.fail(
                f"{label} {chunk.fmt_name}/{chunk.op}/{chunk.mode} seed "
                f"{chunk.seed:#x}: {chunk.bit_mismatches} bit, "
                f"{chunk.flag_mismatches} flag, {chunk.oracle_mismatches} "
                "oracle mismatches",
                chunk.mismatches,
            )
    for ex in report.examples()[:5]:
        out.failures.append(
            f"  counterexample [{ex.against}] {ex.op}/{ex.mode}: a={ex.a:#x} "
            f"b={ex.b:#x} got={ex.got_bits:#x}/{ex.got_flags} "
            f"want={ex.want_bits:#x}/{ex.want_flags}"
        )
    if not report.passed and not out.failed:
        out.fail(f"{label}: CampaignReport.passed is False")


class Passes:
    """Rounds of a cold pass followed by warm passes, for a budget of
    timed work.  Times are in reference-host seconds (``common.HostClock``):
    each job is scaled by the calibration slices nearest it, a cold pass
    by its jobs' factors, CPU-weighted, and the warm passes by the I/O
    slices of their round."""

    def __init__(self, clock, cache_dir: str, reference, reference_seed: int) -> None:
        self.clock = clock
        self.cache_dir = cache_dir
        #: The warm-up pass whose chunks fill the cache the warm passes read.
        self.reference = reference
        self.reference_seed = reference_seed
        self.walls: List[float] = []
        self.cpu_s = 0.0
        self.tuples = 0
        #: chunk job name (one per op/format/mode cell) -> CPU per pass.
        self.chunk_cpu: Dict[str, List[float]] = {}
        self.jobs = 0
        #: Wall time of each warm pass; ``warm_s`` is their median.
        self.warm_walls: List[float] = []
        self.warm_hits = 0
        self.warm_records = 0

    def run(self, seed: int, seconds: float, out: Outcome, setups) -> None:
        """Rounds until ``seconds`` of timed work; set-up samples and
        output checks run between passes, outside the timed work."""
        from repro.engine import Engine

        clock = self.clock
        work = 0.0
        i = 0
        while not self.walls or work < seconds:
            setups.poll(work)
            mark = clock.mark()
            engine = Engine()
            front = common.PerJob(engine, clock)
            cpu0, t0 = clock.cpu(), clock.wall()
            report = campaign_pass(seed * 1_000_003 + i, front)
            wall, cpu = clock.wall() - t0, clock.cpu() - cpu0
            check(report, out, f"pass {i}")
            warm = self.warm(WARM_SHARE * wall, out)
            work += wall + sum(warm)
            self.walls.append(wall * front.factor("wall"))
            self.cpu_s += cpu * front.factor()
            io = clock.factor(mark, kind="io")
            self.warm_walls.extend(w * io for w in warm)
            self.tuples += report.total_pairs
            self.jobs += sum(1 for r in engine.metrics.records if r.status == "computed")
            for name, _, job_cpu in front.scaled():
                self.chunk_cpu.setdefault(name, []).append(job_cpu)
            i += 1

    def warm(self, budget_s: float, out: Outcome) -> List[float]:
        """Fresh engines serving the reference campaign from the disk
        cache for ``budget_s`` of timed work; each must return exactly
        the reference chunks.  Returns each pass's raw wall time."""
        from repro.engine import Engine, ResultCache

        walls: List[float] = []
        while sum(walls) < budget_s:
            engine = Engine(cache=ResultCache(self.cache_dir))
            t0 = self.clock.wall()
            report = campaign_pass(self.reference_seed, engine)
            walls.append(self.clock.wall() - t0)
            self.warm_hits += sum(1 for r in engine.metrics.records if r.status == "hit")
            self.warm_records += len(engine.metrics.records)
            out.attempted += report.total_pairs
            if report.chunks != self.reference.chunks:
                out.fail("warm campaign pass differs from the cold pass", report.total_pairs)
        return walls

    def end_to_end(self, out: Outcome) -> None:
        wall = sum(self.walls)
        out.put("throughput_per_s", self.tuples / wall, "1/s", self.tuples)
        # Latency of a chunk is its cell's median CPU time over the passes.
        common.latency_metrics(out, [median(c) for c in self.chunk_cpu.values()])
        out.put("cpu_us_per_op", us(self.cpu_s) / self.tuples, "us", self.tuples)
        out.put("cold_s", median(self.walls), "s", len(self.walls))
        out.put("warm_s", median(self.warm_walls), "s", len(self.warm_walls))


def wrap_campaign(patch: Patch, t: Timings, vec_calls: List[tuple], now) -> None:
    """Time (by ``now``) the scalar, oracle, vectorized and
    operand-generator calls the differential chunks make, without
    touching their code."""
    from repro.verify import differential
    from repro.verify.testbench import OperandGenerator

    for op, fn in list(differential._SCALAR.items()):
        patch.setitem(differential._SCALAR, op, common.timed(fn, t, f"scalar.{op}", now))
    for op, fn in list(differential._ORACLE.items()):
        patch.setitem(differential._ORACLE, op, common.timed(fn, t, "oracle", now))
    for op, fn in list(differential._VEC.items()):
        patch.setitem(differential._VEC, op, common.timed_vec(op, fn, vec_calls, now))
    patch.set(OperandGenerator, "sample", common.timed(OperandGenerator.sample, t, "sample", now))


def layers(passes: Passes, t: Timings, vec_calls: List[tuple], out: Outcome) -> None:
    from repro.verify.differential import CAMPAIGN_OPS

    for op in CAMPAIGN_OPS:
        times = t.get(f"scalar.{op}")
        out.put(f"scalar.us_per_op.{op}", us(mean(times)), "us", len(times))
    out.put(
        "verify.generate_us_per_pair",
        us(sum(t.get("sample"))) / passes.tuples,
        "us",
        passes.tuples,
    )
    oracle = t.get("oracle")
    out.put("verify.oracle_us_per_check", us(mean(oracle)), "us", len(oracle))
    chunks = [c for cpu in passes.chunk_cpu.values() for c in cpu]
    out.put("verify.chunk_ms", ms(mean(chunks)), "ms", len(chunks))
    out.put(
        "engine.cold_ms_per_job",
        ms(sum(passes.walls)) / passes.jobs,
        "ms",
        passes.jobs,
    )
    common.vector_metrics(vec_calls, out)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    with common.HostClock() as clock:
        measure(seed, seconds, trace, clock, out)
    out.put("rss_peak_mb", common.self_hwm_mib(), "MiB")
    return out


def measure(seed: int, seconds: float, trace: bool, clock, out: Outcome) -> None:
    from repro.engine import Engine, ResultCache

    setups = common.SetupSamples("campaign", seconds, enabled=not trace, clock=clock)

    # Untimed warm-up pass; it also fills the disk cache the warm passes read.
    cache_dir = common.fresh_dir("campaign-cache")
    warm_seed = seed * 1_000_003 - 1
    reference = campaign_pass(warm_seed, Engine(cache=ResultCache(cache_dir)))
    check(reference, out, "warm-up")

    passes = Passes(clock, cache_dir, reference, warm_seed)
    if trace:
        base = Passes(clock, cache_dir, reference, warm_seed)
        base.run(seed, 0.4 * seconds, out, setups)
        t, vec_calls = Timings(), []
        with Patch() as patch:
            wrap_campaign(patch, t, vec_calls, clock.wall)
            passes.run(seed + 7919, 0.6 * seconds, out, setups)
    else:
        passes.run(seed, seconds, out, setups)
    setups.finish(out)
    passes.end_to_end(out)
    if trace:
        layers(passes, t, vec_calls, out)
        out.put("engine.hit_ratio", passes.warm_hits / passes.warm_records, "ratio", passes.warm_records)
        out.put(
            "engine.warm_us_per_job",
            us(median(passes.warm_walls)) / len(reference.chunks),
            "us",
            len(passes.warm_walls),
        )
        reference_e2e = Outcome()
        base.end_to_end(reference_e2e)
        common.overhead_metrics(out, reference_e2e)
