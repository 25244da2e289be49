"""reproduce: every registry experiment plus the measured kernel scans.

A pass evaluates every ``REGISTRY`` experiment and
``problem_size_scan`` for fp16, fp32 and fp64 up to n = 128 through the
default engine.  A *cold* pass starts from a fresh default engine
(``configure_default_engine(None)``) with no disk cache; a *warm* pass
starts from a fresh engine (empty memo) over a disk cache a cold pass
populated.  Only this workload exercises fabric/units/power, batched
kernels at large n (16k-element vector calls, narrow formats through
the packed path) and the engine's disk-cache read path.  An op is one
top-level job of a cold pass: a registry experiment or a scan point.
The engine gets a cold pass's top-level jobs one at a time, and a job's
latency is its process CPU time, nested sweeps included.

``cold_s`` and ``warm_s`` are medians of repeated passes in the run: a
single pass is too noisy to compare.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

import numpy as np

import common
from common import Outcome, mean, median, ms, us

OPS = ("add", "sub", "mul", "div", "sqrt", "fma")
SCAN_FORMATS = ("fp16", "fp32", "fp64")
SCAN_SIZES = (8, 16, 32, 64, 128)

#: After each cold pass, warm passes run for this share of its wall
#: time, so warm samples spread over the whole window (one warm pass is
#: a few ms and follows the host's moment-to-moment speed).
WARM_SHARE = 0.25


def formats():
    from repro.fp.format import ALL_FORMATS

    return {fmt.name: fmt for fmt in ALL_FORMATS}


def run_pass(scan_seed: int, cache_dir, clock, per_job: bool = False):
    """One pass: (rendered artifacts, engine, raw wall seconds, raw cpu
    seconds, per-job front), timed by ``clock``.  With ``per_job`` the
    engine gets the top-level jobs one at a time through a
    :class:`common.PerJob` front that samples each one's CPU time."""
    from repro.engine import CACHE_DIR_ENV, configure_default_engine, default_engine
    from repro.experiments import experiment_jobs
    from repro.experiments.sec42_matmul import problem_size_scan

    if cache_dir is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = cache_dir
    configure_default_engine(None)
    by_name = formats()
    cpu0, t0 = clock.cpu(), clock.wall()
    engine = default_engine()
    front = common.PerJob(engine, clock) if per_job else engine
    results = front.run(experiment_jobs())
    scans = [
        problem_size_scan(by_name[f], sizes=SCAN_SIZES, seed=scan_seed, engine=front)
        for f in SCAN_FORMATS
    ]
    wall, cpu = clock.wall() - t0, clock.cpu() - cpu0
    return render(results, scans), engine, wall, cpu, front if per_job else None


def render(results, scans) -> Dict[str, str]:
    """Artifacts as ``repro results`` writes them, plus the scan tables."""
    from repro.cli import discover_panels
    from repro.experiments import REGISTRY

    files = {}
    for name, result in zip(REGISTRY, results):
        stem = name.replace(".", "_")
        files[f"{stem}.txt"] = str(result) + "\n"
        for suffix, panel in discover_panels(result):
            files[f"{stem}_{suffix}.csv" if suffix else f"{stem}.csv"] = panel.to_csv()
    for fmt, table in zip(SCAN_FORMATS, scans):
        files[f"scan.{fmt}"] = str(table)
    return files


def committed_results() -> Dict[str, str]:
    root = os.path.join(common.ROOT, "results")
    return {
        name: open(os.path.join(root, name)).read() for name in sorted(os.listdir(root))
    }


def check_artifacts(files: Dict[str, str], committed: Dict[str, str], out: Outcome) -> None:
    """Regenerated artifacts are byte-identical to the committed ``results/``."""
    produced = {k: v for k, v in files.items() if not k.startswith("scan.")}
    for name in sorted(set(produced) | set(committed)):
        out.attempted += 1
        if name not in produced:
            out.fail(f"results/{name}: not regenerated")
        elif name not in committed:
            out.fail(f"results/{name}: regenerated but not committed")
        elif produced[name] != committed[name]:
            out.fail(f"results/{name}: regenerated artifact differs")


def check_twin(seed: int, scans: Dict[str, str], out: Outcome) -> None:
    """One n per scan format: the batched array equals ``kernels.fast``'s
    functional twin, and its cycle count matches the scan table."""
    from repro.experiments.sec42_matmul import kernel_selfcheck

    rng = random.Random(seed)
    by_name = formats()
    for fmt in SCAN_FORMATS:
        n = rng.choice(SCAN_SIZES)
        got = kernel_selfcheck(by_name[fmt], n=n, seed=seed)
        out.attempted += 1
        if not got["identical"]:
            out.fail(f"kernel {fmt} n={n}: {got['mismatches']} words differ from the functional twin")
        row = next(
            (line.split() for line in scans[f"scan.{fmt}"].splitlines()
             if line.split()[:1] == [str(n)]),
            None,
        )
        if row is None or int(row[1]) != got["cycles"]:
            out.fail(f"kernel {fmt} n={n}: scan cycles {row and row[1]} != {got['cycles']}")


class Passes:
    """Rounds of a cold pass followed by warm passes, for a budget of
    timed work.  Times are in reference-host seconds (``common.HostClock``):
    each job is scaled by the calibration slices nearest it, a cold pass
    by its jobs' factors, CPU-weighted, and the warm passes by the I/O
    slices of their round."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.cold_walls: List[float] = []
        self.cold_cpu = 0.0
        #: Top-level jobs (registry experiments and scan points) computed.
        self.jobs = 0
        #: Every job computed, nested sweeps included.
        self.engine_jobs = 0
        #: top-level (job name, job key) -> its CPU time in each cold pass.
        self.by_job: Dict[Tuple[str, str], List[float]] = {}
        #: Wall time of each warm pass; ``warm_s`` is their median.
        self.warm_walls: List[float] = []
        self.warm_hits = 0
        self.warm_records = 0

    def run(self, seed, seconds, cache_dir, reference, committed, out, setups) -> None:
        """Rounds until ``seconds`` of timed work; set-up samples and
        output checks run between passes, outside the timed work."""
        clock = self.clock
        work = 0.0
        # A pass is seconds long: start one only while at least half of
        # it fits in the budget, so runs overshoot by half a pass at most.
        while not self.cold_walls or work + median(self.cold_walls) / 2 < seconds:
            setups.poll(work)
            mark = clock.mark()
            files, engine, wall, cpu, front = run_pass(seed, None, clock, per_job=True)
            work += wall
            self.jobs += len(front.samples)
            self.engine_jobs += sum(1 for r in engine.metrics.records if r.status == "computed")
            out.attempted += len(front.samples)
            check_artifacts(files, committed, out)
            warm_walls = []
            while sum(warm_walls) < WARM_SHARE * wall:
                warm, engine, warm_wall, _, _ = run_pass(seed, cache_dir, clock)
                warm_walls.append(warm_wall)
                self.warm_hits += sum(1 for r in engine.metrics.records if r.status == "hit")
                self.warm_records += len(engine.metrics.records)
                out.attempted += 1
                if warm != reference:
                    bad = sorted(k for k in reference if warm.get(k) != reference[k])
                    out.fail(f"warm pass differs from the cold pass in {', '.join(bad)}")
            work += sum(warm_walls)
            self.cold_walls.append(wall * front.factor("wall"))
            self.cold_cpu += cpu * front.factor()
            io = clock.factor(mark, kind="io")
            self.warm_walls.extend(w * io for w in warm_walls)
            for name, key, job_cpu in front.scaled():
                self.by_job.setdefault((name, key), []).append(job_cpu)

    def end_to_end(self, out: Outcome) -> None:
        wall = sum(self.cold_walls)
        out.put("throughput_per_s", self.jobs / wall, "1/s", self.jobs)
        # Latency of a top-level job is its median CPU time over the run's
        # cold passes.
        common.latency_metrics(out, [median(c) for c in self.by_job.values()])
        out.put("cpu_us_per_op", us(self.cold_cpu) / self.jobs, "us", self.jobs)
        out.put("cold_s", median(self.cold_walls), "s", len(self.cold_walls))
        out.put("warm_s", median(self.warm_walls), "s", len(self.warm_walls))


def probe_vectorized(seed: int, out: Outcome) -> None:
    """``vec_*`` at the largest kernel-scan size: n^2 = 16384 elements."""
    from repro.fp import vectorized
    from repro.fp.rounding import RoundingMode

    elems = SCAN_SIZES[-1] ** 2
    rng = np.random.default_rng(seed)

    calls = []
    for fmt in formats().values():
        words = rng.integers(0, fmt.word_mask, size=(3, elems), dtype=np.uint64, endpoint=True)
        for op in OPS:
            fn = getattr(vectorized, f"vec_{op}")
            arity = 1 if op == "sqrt" else 3 if op == "fma" else 2
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(fmt, *words[:arity], RoundingMode.NEAREST_EVEN, with_flags=True)
                times.append(time.perf_counter() - t0)
            calls.append((op, fmt.name, elems, min(times)))
    common.vector_metrics(calls, out)


def probe_wavefronts(seed: int, out: Outcome) -> None:
    """Mean ``kernel.wavefront`` span of one n = 128 batched run per format."""
    from repro.kernels.batched import make_matmul_array
    from repro.obs.trace import Trace

    n = SCAN_SIZES[-1]
    by_name = formats()
    for name in SCAN_FORMATS:
        fmt = by_name[name]
        rng = random.Random(seed)
        a = [[rng.randrange(fmt.word_mask + 1) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(fmt.word_mask + 1) for _ in range(n)] for _ in range(n)]
        trace = Trace(f"perfbench-{name}")
        make_matmul_array(fmt, n, 3, 5).run(a, b, trace=trace)
        spans = [s.duration_s for s in trace.spans if s.name == "kernel.wavefront"]
        out.put(f"kernels.wavefront_us.{name}.n{n}", us(mean(spans)), "us", len(spans))


def layers(passes: Passes, out: Outcome) -> None:
    for (name, _), cpu in passes.by_job.items():
        if name.startswith("experiment."):
            out.put(f"experiments.{name[len('experiment.'):]}_ms", ms(median(cpu)), "ms", len(cpu))
        elif name.startswith("sec42.scan."):
            fmt, size = name[len("sec42.scan."):].split(".")
            out.put(f"kernels.scan_ms.{fmt}.{size}", ms(median(cpu)), "ms", len(cpu))
    out.put("engine.hit_ratio", passes.warm_hits / passes.warm_records, "ratio", passes.warm_records)
    per_pass = passes.warm_records / len(passes.warm_walls)
    out.put(
        "engine.warm_us_per_job",
        us(median(passes.warm_walls)) / per_pass,
        "us",
        len(passes.warm_walls),
    )
    out.put(
        "engine.cold_ms_per_job",
        ms(sum(passes.cold_walls)) / passes.engine_jobs,
        "ms",
        passes.engine_jobs,
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    with common.HostClock() as clock:
        measure(seed, seconds, trace, clock, out)
    out.put("rss_peak_mb", common.self_hwm_mib(), "MiB")
    if trace:
        # Outside the clock: a calibration slice must not land in a probe.
        probe_vectorized(seed, out)
        probe_wavefronts(seed, out)
    return out


def measure(seed: int, seconds: float, trace: bool, clock, out: Outcome) -> None:
    setups = common.SetupSamples("reproduce", seconds, enabled=not trace, clock=clock)
    committed = committed_results()
    cache_dir = common.fresh_dir("reproduce-cache")

    # Untimed warm-up: one cold pass that also fills the disk cache.
    reference, _, _, _, _ = run_pass(seed, cache_dir, clock)
    check_artifacts(reference, committed, out)

    passes = Passes(clock)
    if trace:
        base = Passes(clock)
        base.run(seed, 0.4 * seconds, cache_dir, reference, committed, out, setups)
        passes.run(seed, 0.6 * seconds, cache_dir, reference, committed, out, setups)
    else:
        passes.run(seed, seconds, cache_dir, reference, committed, out, setups)
    setups.finish(out)
    passes.end_to_end(out)
    check_twin(seed, reference, out)

    if trace:
        layers(passes, out)
        reference_e2e = Outcome()
        base.end_to_end(reference_e2e)
        common.overhead_metrics(out, reference_e2e)
