"""Shared plumbing for the benchmark workloads.

Statistics, process probes (CPU time and peak RSS from ``/proc``), the
per-layer metric record, timing wrappers and the set-up time protocol.
Everything here is benchmark code: it calls into the program's public
functions and reads its public telemetry, and changes nothing under
``src/``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pickle
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: The checkout the benchmark runs in: it is started from the repository root.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Work area for caches and logs, inside the checkout (gitignored).
WORK = os.path.join(ROOT, ".bench_work")
#: Set-up is repeated this many times per run, spread over the run (the
#: host's speed drifts by several percent over seconds); ``setup_s`` is
#: the median.
SETUP_REPEATS = 5

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> dict:
    """Environment for child Python processes: the checkout's ``src``
    first on the path, and no inherited engine cache directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    return env


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of ``values`` (0 <= q <= 1)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------- #
# process probes
# ---------------------------------------------------------------------- #
def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid``, all threads."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may contain spaces; fields resume after ')'.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_hwm_mib() -> float:
    """Peak RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
@dataclass
class Metric:
    value: float
    unit: str
    #: Samples behind the value (0 when the workload never calls the layer).
    n: int = 1


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    shed: int = 0
    #: Named failing ops (first few), printed when the run fails.
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, int(n))


class Timings:
    """Named duration samples collected by :func:`timed` wrappers."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    def add(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def get(self, key: str) -> List[float]:
        return self.samples.get(key, [])


def timed(
    fn: Callable, timings: Timings, key: str, clock: Callable = time.perf_counter
) -> Callable:
    """``fn`` wrapped so every call's wall time (by ``clock``) lands in
    ``timings[key]``."""
    sink = timings.samples.setdefault(key, [])

    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        sink.append(clock() - t0)
        return result

    return wrapper


def timed_vec(
    op: str, fn: Callable, calls: List[tuple], clock: Callable = time.perf_counter
) -> Callable:
    """A datapath ``fn(fmt, words, ...)`` wrapped so every call appends
    ``(op, format name, elements, seconds by clock)`` to ``calls``."""

    def wrapper(fmt, *args, **kwargs):
        t0 = clock()
        result = fn(fmt, *args, **kwargs)
        calls.append((op, fmt.name, len(args[0]), clock() - t0))
        return result

    return wrapper


def vector_metrics(calls: Sequence[tuple], out: "Outcome") -> None:
    """``vectorized.us_per_call.<op>`` and ``vectorized.ns_per_elem.<op>.<fmt>``
    from ``(op, format name, elements, seconds)`` call records."""
    per_op: Dict[str, List[float]] = {}
    per_elem: Dict[Tuple[str, str], List[float]] = {}
    for op, fmt, elems, seconds in calls:
        per_op.setdefault(op, []).append(seconds)
        acc = per_elem.setdefault((op, fmt), [0.0, 0])
        acc[0] += seconds
        acc[1] += elems
    for op, times in per_op.items():
        out.put(f"vectorized.us_per_call.{op}", us(mean(times)), "us", len(times))
    for (op, fmt), (seconds, elems) in per_elem.items():
        out.put(f"vectorized.ns_per_elem.{op}.{fmt}", seconds / elems * 1e9, "ns", elems)


def overhead_metrics(out: "Outcome", untraced: "Outcome") -> None:
    """Tracing overhead: the traced run's end-to-end metrics minus those
    of its untraced reference window."""
    for name, unit in (("cpu_us_per_op", "us"), ("latency_p50_ms", "ms")):
        out.put(
            f"tracing.overhead_{name}",
            out.metrics[name].value - untraced.metrics[name].value,
            unit,
        )


# ---------------------------------------------------------------------- #
# host-speed calibration
# ---------------------------------------------------------------------- #
def calibration_slice() -> int:
    """A fixed piece of pure-Python integer work (about 1.25 ms of CPU):
    multiply, mask, shift and ``bit_length``, like a scalar datapath.
    It is the benchmark's own code, so no change to the program moves it."""
    acc = 0x2545F491
    for i in range(3000):
        m = (acc * 0x9E3779B1 + i) & 0xFFFFFFFFFFFF
        acc = (m >> 3) ^ (m.bit_length() << 40) ^ (acc >> 1)
    return acc


#: The document :func:`io_slice` reads, parses and rewrites.
_IO_DOC = {f"k{i}": [i, i * 2.5, f"v{i}", {"x": i}] for i in range(40)}


def io_slice(path: str) -> None:
    """A fixed piece of cache-read-path-like work (about 1 ms): stat,
    read and parse a small JSON file, round-trip it through pickle, and
    replace a second file by write-and-rename."""
    os.stat(path)
    with open(path, "rb") as fh:
        doc = json.loads(fh.read())
    json.dumps(doc, sort_keys=True)
    pickle.loads(pickle.dumps(doc))
    with open(path + ".tmp", "w") as fh:
        fh.write(json.dumps(_IO_DOC))
    os.replace(path + ".tmp", path + ".out")


class HostClock:
    """Timing in *reference-host seconds*, for the CPU-bound workloads.

    The shared host's speed moves by 20-35% in phases of seconds to
    minutes, and a phase can last several runs, so raw times of the
    same code spread past any useful bound between sets of runs.  While
    active, this clock runs :func:`calibration_slice` and
    :func:`io_slice` from a timer signal every ``INTERVAL_S``, spread
    evenly over the program's work, and keeps their times.  A raw time
    times :meth:`factor` over the same stretch of the run is what it
    would have taken on a host that runs the slices in ``REF_S``.  A
    program change moves the raw time and not the slices, so it moves
    the normalised time in full; a host phase moves both.

    Each time scales by the slice time of its kind (``KINDS``): computing
    CPU time by the calibration slice's CPU time, computing wall time by
    its wall time (which also holds the time the hypervisor gave the
    virtual CPU to others), and the cache-read path (warm passes) by the
    wall time of the I/O slice, which phases move more than computing.

    :meth:`cpu` and :meth:`wall` leave out the time spent in slices, so
    the timed work counts only the program's own time.  The timer is a
    wall-clock one (``ITIMER_REAL``): a CPU-time timer would make Linux
    read the process CPU clock only at scheduler ticks.
    """

    INTERVAL_S = 0.03
    #: Fewest slices a factor is taken over (about a quarter of a second).
    LEAST_SLICES = 8
    KINDS = ("cpu", "wall", "io")
    #: Median slice time of each kind on the 2-vCPU Xeon host (2.0 GHz)
    #: the benchmark was defined on.
    REF_S = {"cpu": 1.25e-3, "wall": 1.25e-3, "io": 1.0e-3}

    def __init__(self) -> None:
        #: Seconds of each slice, by kind.
        self.slices: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        self._io_path = os.path.join(WORK, "calibration.json")
        self._cpu_spent = 0.0
        self._wall_spent = 0.0
        self._in_slice = False
        self._old_handler = None

    def _slice(self, signum, frame) -> None:
        if self._in_slice:
            # The timer fired again before this slice ended (a stalled
            # host); a nested slice would race this one's files.
            return
        self._in_slice = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            # The slice's own thread's CPU time: another thread of the
            # process may run meanwhile (serve-burst's batch thread).
            c0, t0 = time.thread_time(), time.perf_counter()
            calibration_slice()
            c1, t1 = time.thread_time(), time.perf_counter()
            io_slice(self._io_path)
            c2, t2 = time.thread_time(), time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._in_slice = False
        self.slices["cpu"].append(c1 - c0)
        self.slices["wall"].append(t1 - t0)
        self.slices["io"].append(t2 - t1)
        self._cpu_spent += c2 - c0
        self._wall_spent += t2 - t0

    def _arm(self, interval_s: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def __enter__(self) -> "HostClock":
        with open(self._io_path, "w") as fh:
            fh.write(json.dumps(_IO_DOC))
        self._old_handler = signal.signal(signal.SIGALRM, self._slice)
        self._arm(self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._arm(0)
        signal.signal(signal.SIGALRM, self._old_handler)

    @contextlib.contextmanager
    def paused(self):
        """No slices meanwhile (while a child process is being timed)."""
        self._arm(0)
        try:
            yield
        finally:
            self._arm(self.INTERVAL_S)

    def cpu(self) -> float:
        """Process CPU seconds, less the time spent in slices."""
        return time.process_time() - self._cpu_spent

    def wall(self) -> float:
        """Monotonic seconds, less the time spent in slices."""
        return time.perf_counter() - self._wall_spent

    def mark(self) -> int:
        return len(self.slices["cpu"])

    def factor(self, since: int, until: int = None, kind: str = "cpu") -> float:
        """Reference-host seconds per raw second of ``kind`` over the
        slices taken between two :meth:`mark` values (to now if ``until``
        is None), widened evenly on both sides to at least
        ``LEAST_SLICES`` for a stretch too short to hold that many."""
        taken = self.slices[kind]
        until = len(taken) if until is None else until
        while until - since < self.LEAST_SLICES and (since > 0 or until < len(taken)):
            since, until = max(0, since - 1), min(len(taken), until + 1)
        if until - since < self.LEAST_SLICES:
            raise RuntimeError(f"only {until - since} calibration slices to normalise by")
        return self.REF_S[kind] / mean(taken[since:until])


class PerJob:
    """An engine front that hands the engine one job at a time and
    records each job's process CPU seconds (by ``clock``) in ``samples``
    as ``(job name, job key, seconds)``.  Nested jobs the job submits
    itself count towards it."""

    def __init__(self, engine, clock: HostClock) -> None:
        self.engine = engine
        self.clock = clock
        self.samples: List[Tuple[str, str, float]] = []
        self._marks: List[Tuple[int, int]] = []

    def run(self, jobs) -> list:
        results = []
        for job in jobs:
            mark, cpu0 = self.clock.mark(), self.clock.cpu()
            results.append(self.engine.run([job])[0])
            self.samples.append((job.name, job.key, self.clock.cpu() - cpu0))
            self._marks.append((mark, self.clock.mark()))
        return results

    def scaled(self) -> List[Tuple[str, str, float]]:
        """``(job name, job key, reference-host seconds)`` per job, each
        scaled by the slices nearest it (call once the slices after the
        last job have been taken)."""
        return [
            (name, key, cpu * self.clock.factor(*marks))
            for (name, key, cpu), marks in zip(self.samples, self._marks)
        ]

    def factor(self, kind: str = "cpu") -> float:
        """The host-speed factor of ``kind`` of all the jobs together:
        each job's nearest slices, weighted by its CPU time."""
        weighted = sum(
            cpu * self.clock.factor(*marks, kind=kind)
            for (_, _, cpu), marks in zip(self.samples, self._marks)
        )
        return weighted / sum(cpu for _, _, cpu in self.samples)


class Patch:
    """Attribute replacements undone on exit (timing wrappers for the
    traced run only; the end-to-end runs never install them)."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def setitem(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)
        self._undo.clear()


# ---------------------------------------------------------------------- #
# set-up time
# ---------------------------------------------------------------------- #
def read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """One line of ``proc``'s stdout, or RuntimeError after ``timeout_s``."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    if not ready:
        raise RuntimeError(f"child {proc.args!r} printed nothing in {timeout_s}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(
            f"child {proc.args!r} exited with {proc.wait()} before it was ready"
        )
    return line


def stop(proc: subprocess.Popen, timeout_s: float = 20.0) -> int:
    """Terminate ``proc`` (if still running) and wait for it to end."""
    if proc.poll() is None:
        proc.terminate()
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def child_setup_s(workload: str) -> float:
    """Seconds from starting a fresh interpreter until it has done
    ``workload``'s set-up (imports and fixtures) and says ``ready``."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, script, workload, WORK],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        line = read_line(proc, 60.0)
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"setup child for {workload} said {line!r}")
        code = proc.wait(timeout=60)
    finally:
        stop(proc)
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"setup child for {workload} exited {code}")
    return elapsed


def setup_sample(workload: str, clock: HostClock) -> Tuple[float, int]:
    """One :func:`child_setup_s` sample with the clock paused, so no
    slice competes with the child, and the clock's mark at that time;
    :func:`setup_metric` scales it by the I/O slices around the mark
    (imports are file reads and unmarshalling, like the I/O slice)."""
    with clock.paused():
        return child_setup_s(workload), clock.mark()


class SetupSamples:
    """``SETUP_REPEATS`` child set-up samples taken between a window's
    passes, evenly over its timed work rather than bunched at its start."""

    def __init__(self, workload: str, seconds: float, enabled: bool, clock: HostClock) -> None:
        self.workload = workload
        self.seconds = seconds
        self.enabled = enabled
        self.clock = clock
        self.samples: List[Tuple[float, int]] = []

    def poll(self, work_s: float) -> None:
        """Take the samples due after ``work_s`` seconds of timed work."""
        due = min(SETUP_REPEATS, int(work_s / self.seconds * SETUP_REPEATS) + 1)
        while self.enabled and len(self.samples) < due:
            self.samples.append(setup_sample(self.workload, self.clock))

    def finish(self, out: "Outcome") -> None:
        self.poll(self.seconds)
        if self.enabled:
            setup_metric(self.samples, out, self.clock)


def setup_metric(samples: Sequence, out: Outcome, clock: HostClock = None) -> None:
    """``setup_s``: the median sample; with a ``clock``, the samples are
    ``(seconds, mark)`` from :func:`setup_sample`, in reference-host
    seconds by the I/O slices around each mark."""
    if clock is not None:
        samples = [s * clock.factor(mark, mark, kind="io") for s, mark in samples]
    out.put("setup_s", median(samples), "s", len(samples))


def fresh_dir(name: str) -> str:
    """An empty directory ``name`` under the benchmark's work area."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def ms(seconds: float) -> float:
    return seconds * 1e3


def us(seconds: float) -> float:
    return seconds * 1e6


def latency_metrics(out: Outcome, latencies_s: Sequence[float]) -> None:
    """``latency_p50_ms``/``latency_p90_ms`` (and the traced-only p99)."""
    n = len(latencies_s)
    out.put("latency_p50_ms", ms(quantile(latencies_s, 0.50)), "ms", n)
    out.put("latency_p90_ms", ms(quantile(latencies_s, 0.90)), "ms", n)
    out.put("latency_p99_ms", ms(quantile(latencies_s, 0.99)), "ms", n)
