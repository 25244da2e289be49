"""Command-line experiment runner.

Usage::

    repro list                # enumerate experiments
    repro all                 # run everything, in paper order
    repro all --parallel 4    # same results, evaluated across cores
    repro all --cache-dir .repro-cache   # persist results; reruns are warm
    repro table1 fig2a ...    # run specific experiments
    repro --csv fig5          # CSV output where supported
    repro results --outdir results/      # write all artifacts
    repro cache stats         # inspect the persistent cache
    repro cache clear         # drop it
    repro verify --pairs 1000000 --parallel 8   # differential campaign
    repro verify --kernels    # batched-vs-stepped array differential matrix
    repro bench --json BENCH_kernel.json        # kernel perf snapshot
    repro bench --lanes --json BENCH_lanes.json # narrow vs uint64 lanes
    repro bench --service --json BENCH_service.json  # serving perf snapshot
    repro serve --port 8080   # micro-batching evaluation service
    repro explore --kinds adder --formats fp32   # NDJSON design points
    repro recommend --constrain max_slices=1000  # constrained optimum
    repro bench --explore --json BENCH_explore.json  # frontier perf
    repro loadgen --port 8080 --requests 2000   # drive a running server
    repro --version           # print the package version

Each experiment prints rows/series directly comparable to the paper's
table or figure of the same number.  Experiments are evaluated through
:mod:`repro.engine`: output order is always REGISTRY order regardless of
``--parallel`` completion order, and the engine's run summary (per-job
wall time, cache hit/miss counters) is printed to stderr so stdout stays
byte-identical to a serial, uncached run.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Any, Sequence

from repro import __version__
from repro.engine import (
    CACHE_DIR_ENV,
    CACHE_VERSION,
    Engine,
    ResultCache,
    configure_default_engine,
)
from repro.experiments import REGISTRY, experiment_jobs

#: Cache directory used when ``repro cache`` is invoked without an
#: explicit ``--cache-dir`` or ``$REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"


def discover_panels(result: Any) -> list[tuple[str, Any]]:
    """CSV-exportable panels of a result, as ``(suffix, panel)`` pairs.

    Plain tables/sweeps export themselves (empty suffix); figure bundles
    (Figures 5/6) export one panel per metric attribute.
    """
    if hasattr(result, "to_csv"):
        return [("", result)]
    panels = []
    for attr in ("energy", "resources", "latency"):
        panel = getattr(result, attr, None)
        if panel is not None and hasattr(panel, "to_csv"):
            panels.append((attr, panel))
    return panels


def _emit(result: Any, csv: bool) -> None:
    if csv:
        for _suffix, panel in discover_panels(result):
            print(panel.to_csv())
        return
    print(result)


def _resolve_cache_dir(args: argparse.Namespace, default: str | None = None) -> str | None:
    if getattr(args, "no_cache", False):
        return None
    return args.cache_dir or os.environ.get(CACHE_DIR_ENV) or default


def build_engine(args: argparse.Namespace) -> Engine:
    """Engine configured from ``--parallel/--cache-dir/--no-cache``."""
    cache_dir = _resolve_cache_dir(args)
    cache = ResultCache(cache_dir) if cache_dir else None
    if cache_dir:
        # Propagate to process-pool workers and the in-library default
        # engine, so nested sweeps (explorer, kernel design space) share
        # the same persistent store.
        os.environ[CACHE_DIR_ENV] = cache_dir
        configure_default_engine(None)
    return Engine(
        cache=cache,
        workers=args.parallel,
        timeout_s=args.timeout,
        retries=args.retries,
    )


def run_experiments(names: list[str], args: argparse.Namespace) -> int:
    engine = build_engine(args)
    results = engine.run(experiment_jobs(names))
    for i, result in enumerate(results):
        if i:
            print()
        _emit(result, args.csv)
    print(engine.metrics.summary(), file=sys.stderr)
    return 0


def write_results(outdir: str, args: argparse.Namespace) -> int:
    """Run every experiment, writing text and CSV artifacts to ``outdir``."""
    root = pathlib.Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    engine = build_engine(args)
    results = engine.run(experiment_jobs())
    written = []
    for name, result in zip(REGISTRY, results):
        stem = name.replace(".", "_")
        text_path = root / f"{stem}.txt"
        text_path.write_text(str(result) + "\n")
        written.append(text_path)
        for suffix, panel in discover_panels(result):
            csv_path = root / (f"{stem}_{suffix}.csv" if suffix else f"{stem}.csv")
            csv_path.write_text(panel.to_csv())
            written.append(csv_path)
    print(f"wrote {len(written)} artifacts to {root}/")
    for path in sorted(written):
        print(f"  {path}")
    print(engine.metrics.summary(), file=sys.stderr)
    return 0


def cache_command(action: str, args: argparse.Namespace) -> int:
    if action not in ("stats", "clear"):
        print(
            f"unknown cache action {action!r} (expected: stats, clear)",
            file=sys.stderr,
        )
        return 2
    cache_dir = _resolve_cache_dir(args, default=DEFAULT_CACHE_DIR)
    assert cache_dir is not None
    cache = ResultCache(cache_dir)
    if action == "stats":
        print(cache.stats().render())
        return 0
    if action == "clear":
        if getattr(args, "stale", False):
            removed = cache.clear(stale_only=True, current_version=CACHE_VERSION)
            print(f"removed {removed} stale entr{'y' if removed == 1 else 'ies'}")
        else:
            removed = cache.clear()
            print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    raise AssertionError(action)  # pragma: no cover - validated above


def _parse_sizes(text: str, flag: str) -> tuple[int, ...] | None:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        sizes = ()
    if not sizes or any(n < 1 for n in sizes):
        print(f"{flag} expects a comma-separated list of sizes >= 1",
              file=sys.stderr)
        return None
    return sizes


#: ``repro bench`` suites: each runs one suite of :mod:`repro.bench`
#: from the parsed arguments and returns its snapshot.
SUITES = {
    "kernel": lambda bench, args: bench.kernel_bench(
        sizes=args.bench_sizes,
        scan_sizes=args.scan_sizes,
        repeats=args.repeats,
        seed=args.seed,
    ),
    "lanes": lambda bench, args: bench.lanes_bench(
        repeats=args.repeats, seed=args.seed
    ),
    "service": lambda bench, args: bench.service_bench(seed=args.seed),
    "explore": lambda bench, args: bench.explore_bench(repeats=args.repeats),
}


def bench_command(args: argparse.Namespace) -> int:
    """Run one bench suite; optionally write its JSON snapshot."""
    from repro import bench

    snapshot = SUITES[args.suite](bench, args)
    print(bench.render(snapshot))
    if args.json:
        bench.write_snapshot(snapshot, args.json)
        print(f"wrote {args.json}")
    return 0


def verify_kernels_command(args: argparse.Namespace) -> int:
    """Run the batched-vs-stepped array differential matrix."""
    from repro.verify.kernels import run_matrix

    engine = build_engine(args)
    report = run_matrix(seed=args.seed, engine=engine)
    print(report.summary())
    for case in report.failures():
        print(
            f"  mismatch {case['fmt']}/{case['mode']} n={case['n']} "
            f"PL={case['mul_latency'] + case['add_latency']} "
            f"pad={case['pad_schedule']}: fields {', '.join(case['mismatched'])}"
        )
    print(engine.metrics.summary(), file=sys.stderr)
    return 0 if report.passed else 1


def verify_command(args: argparse.Namespace) -> int:
    """Run the vectorized-vs-scalar-vs-oracle differential campaign."""
    from repro.fp.format import ALL_FORMATS
    from repro.fp.rounding import RoundingMode
    from repro.verify.differential import CAMPAIGN_OPS, run_campaign

    if args.kernels:
        return verify_kernels_command(args)

    by_name = {f.name: f for f in ALL_FORMATS}
    if args.formats:
        names = [n.strip() for n in args.formats.split(",") if n.strip()]
        unknown = [n for n in names if n not in by_name]
        if unknown:
            print(
                f"unknown formats: {', '.join(unknown)} "
                f"(known: {', '.join(by_name)})",
                file=sys.stderr,
            )
            return 2
        formats = [by_name[n] for n in names]
    else:
        formats = list(ALL_FORMATS)
    if args.ops:
        ops = [o.strip() for o in args.ops.split(",") if o.strip()]
        bad = [o for o in ops if o not in CAMPAIGN_OPS]
        if bad:
            print(
                f"unknown ops: {', '.join(bad)} "
                f"(known: {', '.join(CAMPAIGN_OPS)})",
                file=sys.stderr,
            )
            return 2
    else:
        ops = list(CAMPAIGN_OPS)

    engine = build_engine(args)
    report = run_campaign(
        formats=formats,
        ops=ops,
        modes=tuple(RoundingMode),
        pairs_per_format=args.pairs,
        chunk_pairs=args.chunk,
        seed=args.seed,
        engine=engine,
    )
    print(report.summary())
    for ex in report.examples():
        print(
            f"  counterexample [{ex.against}] {ex.op}/{ex.mode}: "
            f"a={ex.a:#x} b={ex.b:#x} got={ex.got_bits:#x}/{ex.got_flags:#06b} "
            f"want={ex.want_bits:#x}/{ex.want_flags:#06b}"
        )
    print(engine.metrics.summary(), file=sys.stderr)
    return 0 if report.passed else 1


def _exploration_engine(cache_dir: str | None) -> "Engine":
    """Engine for the offline exploration twins (serial, optional cache)."""
    resolved = cache_dir or os.environ.get(CACHE_DIR_ENV)
    return Engine(cache=ResultCache(resolved) if resolved else None)


def explore_command(argv: Sequence[str]) -> int:
    """Offline twin of ``GET /v1/explore``: the same NDJSON, on stdout."""
    from repro.explore.catalog import ExploreStream
    from repro.explore.recommend import (
        QueryError,
        _resolve_formats,
        _resolve_kinds,
    )
    from repro.units.explorer import explore

    parser = argparse.ArgumentParser(
        prog="repro explore",
        description="Stream the annotated unit design-space grid as "
        "NDJSON — one point line per implementation, one frontier "
        "trailer — exactly the payloads GET /v1/explore streams.",
    )
    parser.add_argument("--kinds", default=None, metavar="K,K",
                        help="comma-separated unit kinds "
                        "(default: all four)")
    parser.add_argument("--formats", default=None, metavar="F,F",
                        help="comma-separated formats (default: all)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist sweep results under DIR "
                        f"(also via ${CACHE_DIR_ENV})")
    args = parser.parse_args(argv)
    try:
        kinds = _resolve_kinds(
            [k for k in args.kinds.split(",") if k] if args.kinds else None
        )
        formats = _resolve_formats(
            [f for f in args.formats.split(",") if f]
            if args.formats else None
        )
    except QueryError as exc:
        print(f"repro explore: {exc}", file=sys.stderr)
        return 2
    engine = _exploration_engine(args.cache_dir)
    lines = ExploreStream()
    for kind in kinds:
        for fmt in formats:
            space = explore(fmt, kind, engine=engine)
            for line in lines.points(kind, fmt, space, engine.metrics.last_status):
                sys.stdout.buffer.write(line)
    sys.stdout.buffer.write(lines.trailer()[1])
    return 0


def recommend_command(argv: Sequence[str]) -> int:
    """Offline twin of ``POST /v1/recommend``: same payload, stdout."""
    from repro.explore.catalog import payload_bytes
    from repro.explore.recommend import (
        QueryError,
        UnsatisfiableError,
        recommend,
    )

    parser = argparse.ArgumentParser(
        prog="repro recommend",
        description="Answer a constrained design query ('max MOPS/W "
        "with slices <= 1000 and clock >= 200 MHz') over the cached "
        "Pareto frontier — byte-identical to POST /v1/recommend.",
    )
    parser.add_argument("--space", default="units",
                        choices=("units", "kernel"))
    parser.add_argument("--objective", default=None, metavar="METRIC",
                        help="metric to optimize (default: mops_per_watt "
                        "for units, energy_nj for kernel)")
    parser.add_argument("--constrain", action="append", default=[],
                        metavar="BOUND=VALUE",
                        help="bound such as max_slices=1000 or "
                        "min_clock_mhz=200; repeatable")
    parser.add_argument("--kinds", default=None, metavar="K,K",
                        help="units space: comma-separated unit kinds")
    parser.add_argument("--formats", default=None, metavar="F,F",
                        help="units space: comma-separated formats")
    parser.add_argument("--n", type=int, default=None,
                        help="kernel space: problem size (default: 16)")
    parser.add_argument("--block-sizes", default=None, metavar="B,B",
                        help="kernel space: comma-separated block sizes")
    parser.add_argument("--format", default=None, dest="fmt",
                        help="kernel space: precision (default: fp32)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist engine results under DIR "
                        f"(also via ${CACHE_DIR_ENV})")
    args = parser.parse_args(argv)
    query: dict = {"space": args.space}
    if args.objective:
        query["objective"] = args.objective
    constraints: dict = {}
    for spec in args.constrain:
        key, sep, value = spec.partition("=")
        if not sep:
            print(f"repro recommend: --constrain expects BOUND=VALUE, "
                  f"got {spec!r}", file=sys.stderr)
            return 2
        try:
            constraints[key] = float(value)
        except ValueError:
            print(f"repro recommend: bound {key!r} needs a numeric value, "
                  f"got {value!r}", file=sys.stderr)
            return 2
    if constraints:
        query["constraints"] = constraints
    if args.kinds:
        query["kinds"] = [k for k in args.kinds.split(",") if k]
    if args.formats:
        query["formats"] = [f for f in args.formats.split(",") if f]
    if args.n is not None:
        query["n"] = args.n
    if args.block_sizes:
        sizes = _parse_sizes(args.block_sizes, "--block-sizes")
        if sizes is None:
            return 2
        query["block_sizes"] = list(sizes)
    if args.fmt:
        query["format"] = args.fmt
    engine = _exploration_engine(args.cache_dir)
    try:
        payload = recommend(query, engine=engine)
    except (QueryError, UnsatisfiableError) as exc:
        print(f"repro recommend: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(payload_bytes(payload) + b"\n")
    return 0


def serve_command(argv: Sequence[str]) -> int:
    """Run the micro-batching evaluation service (blocks until signal)."""
    from repro.service import ServiceConfig, serve

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the FP evaluation surface over HTTP with "
        "micro-batching, admission control and live /metrics.  Every "
        "flag falls back to its REPRO_SERVE_* environment variable, "
        "then to the documented default.",
    )
    parser.add_argument("--host", default=None,
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port; 0 picks an ephemeral port "
                        "(default: 8080)")
    parser.add_argument("--max-batch", type=int, default=None, metavar="N",
                        help="largest op batch per vectorized call "
                        "(default: 64)")
    parser.add_argument("--linger-ms", type=float, default=None, metavar="MS",
                        help="how long an open batch waits for company "
                        "(default: 2.0)")
    parser.add_argument("--queue-depth", type=int, default=None, metavar="N",
                        help="admitted requests in flight before shedding "
                        "429s (default: 256)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        metavar="S", dest="request_timeout_s",
                        help="per-op deadline in seconds (default: 10)")
    parser.add_argument("--sweep-timeout", type=float, default=None,
                        metavar="S", dest="sweep_timeout_s",
                        help="unit/experiment sweep deadline (default: 120)")
    parser.add_argument("--drain-timeout", type=float, default=None,
                        metavar="S", dest="drain_timeout_s",
                        help="graceful-shutdown drain budget (default: 5)")
    parser.add_argument("--no-spot-check", action="store_true",
                        help="skip the per-batch scalar spot check")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist engine results under DIR "
                        f"(also via ${CACHE_DIR_ENV})")
    parser.add_argument("--trace-sample", type=float, default=None,
                        metavar="P", help="fraction of requests traced, "
                        "0.0-1.0 (default: 1.0)")
    parser.add_argument("--trace-buffer", type=int, default=None,
                        metavar="N", help="finished traces retained for "
                        "/v1/trace lookups (default: 512)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit one NDJSON line per span to stderr")
    args = parser.parse_args(argv)
    try:
        config = ServiceConfig.from_env(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            linger_ms=args.linger_ms,
            queue_depth=args.queue_depth,
            request_timeout_s=args.request_timeout_s,
            sweep_timeout_s=args.sweep_timeout_s,
            drain_timeout_s=args.drain_timeout_s,
            spot_check=False if args.no_spot_check else None,
            cache_dir=args.cache_dir,
            trace_sample=args.trace_sample,
            trace_buffer=args.trace_buffer,
            log_json=True if args.log_json else None,
        )
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    return serve(config)


def loadgen_command(argv: Sequence[str]) -> int:
    """Drive a running server with closed-loop concurrent load."""
    from repro.fp.rounding import RoundingMode
    from repro.service.loadgen import (
        resolve_load_format,
        run_load_blocking,
        write_report,
    )

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Closed-loop load generator for a running "
        "'repro serve' instance.  429s count as shed load (the "
        "backpressure contract working), not failures.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--concurrency", "-c", type=int, default=16,
                        metavar="N", help="concurrent workers (default: 16)")
    parser.add_argument("--requests", "-n", type=int, default=1000,
                        metavar="N", help="total requests (default: 1000)")
    parser.add_argument("--op", default="mul",
                        choices=("add", "sub", "mul", "div", "sqrt", "fma"))
    parser.add_argument("--format", default="fp32", dest="fmt",
                        help="named paper format (default: fp32)")
    parser.add_argument("--mode", default=RoundingMode.NEAREST_EVEN.value,
                        choices=[m.value for m in RoundingMode])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=120.0, metavar="S",
                        help="whole-run deadline (default: 120)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the machine-readable report to FILE")
    parser.add_argument("--trace-ids", action="store_true",
                        help="send an explicit X-Repro-Trace-Id per "
                        "request and count echoed responses")
    args = parser.parse_args(argv)
    fmt = resolve_load_format(args.fmt)
    if fmt is None:
        print(f"repro loadgen: unknown format {args.fmt!r}", file=sys.stderr)
        return 2
    mode = {m.value: m for m in RoundingMode}[args.mode]
    try:
        report = run_load_blocking(
            args.host,
            args.port,
            concurrency=args.concurrency,
            requests=args.requests,
            op=args.op,
            fmt=fmt,
            mode=mode,
            seed=args.seed,
            timeout_s=args.timeout,
            trace_ids=args.trace_ids,
        )
    except ValueError as exc:
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro loadgen: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(report.render())
    if args.json:
        write_report(report, args.json)
        print(f"wrote {args.json}")
    # Only 2xx (served) and 429 (deliberately shed) are healthy under
    # load; anything else — transport errors included — fails the run.
    unhealthy = report.requests - report.ok - report.shed
    return 1 if (report.errors or unhealthy) else 0


def trace_command(argv: Sequence[str]) -> int:
    """Fetch traces from a running server and render or export them."""
    import json as json_module
    from http.client import HTTPConnection

    from repro.obs.trace import render_trace

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect request traces on a live 'repro serve' "
        "instance: render one trace's span tree, list the slowest "
        "buffered traces, or export them as Chrome trace-event JSON "
        "(load into chrome://tracing or Perfetto).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--id", default=None, metavar="TRACE_ID",
                        help="render one trace by ID")
    parser.add_argument("--slowest", type=int, default=10, metavar="N",
                        help="without --id: cover the N slowest buffered "
                        "traces (default: 10)")
    parser.add_argument("--chrome", default=None, metavar="FILE",
                        help="write Chrome trace-event JSON to FILE "
                        "instead of rendering text")
    args = parser.parse_args(argv)

    if args.id is not None:
        path = f"/v1/trace/{args.id}"
    elif args.chrome is not None:
        path = f"/v1/debug/traces?slowest={args.slowest}&export=chrome"
    else:
        path = f"/v1/debug/traces?slowest={args.slowest}"
    try:
        conn = HTTPConnection(args.host, args.port, timeout=30.0)
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        conn.close()
    except OSError as exc:
        print(f"repro trace: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    if response.status != 200:
        print(f"repro trace: GET {path} -> {response.status} "
              f"{body.decode(errors='replace').strip()}", file=sys.stderr)
        return 1
    doc = json_module.loads(body)

    if args.id is not None:
        if args.chrome is not None:
            from repro.obs.chrome import chrome_trace
            doc = chrome_trace([doc])
        else:
            print(render_trace(doc))
            return 0
    if args.chrome is not None:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json_module.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(doc['traceEvents'])} events to {args.chrome}")
        return 0
    # Listing mode: buffer stats plus one line per slow trace.
    print(f"traces: {doc['buffered']}/{doc['capacity']} buffered, "
          f"{doc['finished']} finished, {doc['evicted']} evicted, "
          f"sample={doc['sample']}")
    for summary in doc["traces"]:
        print(f"  {summary['trace_id']:<28} {summary['duration_ms']:>9.3f} ms"
              f"  {summary['spans']:>3} span(s)  {summary.get('route', '-')}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--version":
        print(__version__)
        return 0
    if argv and argv[0] == "serve":
        return serve_command(argv[1:])
    if argv and argv[0] == "loadgen":
        return loadgen_command(argv[1:])
    if argv and argv[0] == "trace":
        return trace_command(argv[1:])
    if argv and argv[0] == "explore":
        return explore_command(argv[1:])
    if argv and argv[0] == "recommend":
        return recommend_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Govindu et al., "
        "'Analysis of High-performance Floating-point Arithmetic on FPGAs' "
        "(IPPS 2004).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["list"],
        help="experiment names (see 'repro list'), 'all', 'results' to "
        "write every artifact to --outdir, 'cache {stats,clear}', "
        "'verify' for the differential verification campaigns, or "
        "'bench' for a perf snapshot (kernel suite by default; "
        "--lanes, --service or --explore picks another)",
    )
    parser.add_argument(
        "--version", action="version", version=__version__,
        help="print the package version and exit",
    )
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of text tables"
    )
    parser.add_argument(
        "--outdir",
        default="results",
        help="output directory for the 'results' command (default: results/)",
    )
    parser.add_argument(
        "--parallel",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="evaluate experiments on N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist results under DIR and reuse them on reruns "
        f"(also via ${CACHE_DIR_ENV}; 'repro cache' defaults to "
        f"{DEFAULT_CACHE_DIR}/)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any configured cache directory",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-experiment wall-time cap in seconds (parallel runs)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="K",
        help="re-attempts per failing experiment (default: 1)",
    )
    parser.add_argument(
        "--stale",
        action="store_true",
        help="with 'cache clear': only drop entries from older versions",
    )
    parser.add_argument(
        "--formats",
        default=None,
        metavar="F,F",
        help="with 'verify': comma-separated formats (default: all paper formats)",
    )
    parser.add_argument(
        "--ops",
        default=None,
        metavar="OP,OP",
        help="with 'verify': comma-separated ops among "
        "add,sub,mul,div,sqrt,fma (default: all)",
    )
    parser.add_argument(
        "--pairs",
        type=int,
        default=1_000_000,
        metavar="N",
        help="with 'verify': operand pairs per format (default: 1000000)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=50_000,
        metavar="N",
        help="with 'verify': pairs per engine job (default: 50000)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="with 'verify'/'bench': base seed (default: 0)",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="with 'verify': run the batched-vs-stepped array "
        "differential matrix instead of the datapath campaign",
    )
    suite = parser.add_mutually_exclusive_group()
    suite.add_argument(
        "--lanes",
        dest="suite",
        action="store_const",
        const="lanes",
        help="with 'bench': benchmark add/sub/mul of every narrow-lane "
        "format on its native lane dtype against uint64 lanes",
    )
    suite.add_argument(
        "--service",
        dest="suite",
        action="store_const",
        const="service",
        help="with 'bench': benchmark the serving layer (batched vs "
        "unbatched dispatch, plus full-HTTP loopback throughput) "
        "instead of the kernels",
    )
    suite.add_argument(
        "--explore",
        dest="suite",
        action="store_const",
        const="explore",
        help="with 'bench': benchmark cold vs warm design-space "
        "frontier computation and constrained recommendation",
    )
    parser.set_defaults(suite="kernel")
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="with 'bench': write the machine-readable snapshot to FILE",
    )
    parser.add_argument(
        "--bench-sizes",
        default="16,32",
        metavar="N,N",
        help="with 'bench': stepped-vs-batched sizes (default: 16,32)",
    )
    parser.add_argument(
        "--scan-sizes",
        default="64,128,256",
        metavar="N,N",
        help="with 'bench': batched-only scaling sizes "
        "(default: 64,128,256; empty string to skip)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="K",
        help="with 'bench': batched timing repeats, best-of (default: 3)",
    )
    args = parser.parse_args(argv)
    if args.parallel < 1:
        parser.error(f"--parallel must be >= 1, got {args.parallel}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")

    names = list(args.experiments)
    if names == ["verify"]:
        if args.pairs < 1 or args.chunk < 1:
            parser.error("--pairs and --chunk must be >= 1")
        return verify_command(args)
    if names == ["bench"]:
        if args.repeats < 1:
            print(f"--repeats must be >= 1, got {args.repeats}", file=sys.stderr)
            return 2
        args.bench_sizes = _parse_sizes(args.bench_sizes, "--bench-sizes")
        args.scan_sizes = (
            _parse_sizes(args.scan_sizes, "--scan-sizes")
            if args.scan_sizes else ()
        )
        if args.bench_sizes is None or args.scan_sizes is None:
            return 2
        return bench_command(args)
    if names and names[0] == "cache":
        if len(names) != 2:
            print("usage: repro cache {stats,clear}", file=sys.stderr)
            return 2
        return cache_command(names[1], args)
    if names == ["list"]:
        print("available experiments:")
        for name in REGISTRY:
            print(f"  {name}")
        return 0
    if names == ["results"]:
        return write_results(args.outdir, args)
    if names == ["all"]:
        names = list(REGISTRY)

    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2

    return run_experiments(names, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
