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

The commands form one table (:func:`build_parser`): one subparser per
command, and ``repro COMMAND --help`` lists its options.  A first
argument that names no command (none at all, an experiment name,
``all``, or an option such as ``--csv``) runs the experiments command on
the whole command line.  Shared options are declared once, in two parent
parsers:

* ``--cache-dir DIR``: experiments, ``results``, ``verify``, ``cache``,
  ``serve``, ``explore`` and ``recommend``;
* ``--parallel/-j N``, ``--no-cache``, ``--timeout S``, ``--retries K``:
  experiments, ``results`` and ``verify``.

A command accepts exactly the options it reads; any other option is a
usage error (exit 2) that names it.

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
from typing import Any, Callable, Sequence

from repro import __version__
from repro.engine import (
    CACHE_DIR_ENV,
    CACHE_VERSION,
    Engine,
    ResultCache,
    configure_default_engine,
)
from repro.experiments import REGISTRY, experiment_jobs
from repro.fp.format import FORMATS_BY_NAME
from repro.fp.ops import OP_TABLE
from repro.fp.rounding import RoundingMode

#: Cache directory used when ``repro cache`` is invoked without an
#: explicit ``--cache-dir`` or ``$REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: :class:`~repro.engine.Engine` keywords the engine options set
#: (``--parallel``, ``--timeout``, ``--retries``); a command without
#: them gets the engine's serial defaults.
ENGINE_OPTIONS = ("workers", "timeout_s", "retries")

DESCRIPTION = (
    "Regenerate the tables and figures of Govindu et al., 'Analysis of "
    "High-performance Floating-point Arithmetic on FPGAs' (IPPS 2004)."
)


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
    """Engine configured from the shared options the command takes."""
    cache_dir = _resolve_cache_dir(args)
    if cache_dir:
        # Propagate to process-pool workers and the in-library default
        # engine, so nested sweeps (explorer, kernel design space) share
        # the same persistent store.
        os.environ[CACHE_DIR_ENV] = cache_dir
        configure_default_engine(None)
    return Engine(
        cache=ResultCache(cache_dir) if cache_dir else None,
        **{k: v for k, v in vars(args).items() if k in ENGINE_OPTIONS},
    )


def list_command(args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in REGISTRY:
        print(f"  {name}")
    return 0


def experiments_command(args: argparse.Namespace) -> int:
    """Run the named experiments (``all``: every one; none: list them)."""
    names = list(REGISTRY) if args.experiments == ["all"] else args.experiments
    if not names:
        return list_command(args)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    engine = build_engine(args)
    results = engine.run(experiment_jobs(names))
    for i, result in enumerate(results):
        if i:
            print()
        _emit(result, args.csv)
    print(engine.metrics.summary(), file=sys.stderr)
    return 0


def results_command(args: argparse.Namespace) -> int:
    """Run every experiment, writing text and CSV artifacts to ``--outdir``."""
    root = pathlib.Path(args.outdir)
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


def cache_command(args: argparse.Namespace) -> int:
    """``stats`` renders the persistent cache; ``clear`` drops entries."""
    cache = ResultCache(_resolve_cache_dir(args, default=DEFAULT_CACHE_DIR))
    if args.action == "stats":
        print(cache.stats().render())
    elif args.stale:
        removed = cache.clear(stale_only=True, current_version=CACHE_VERSION)
        print(f"removed {removed} stale entr{'y' if removed == 1 else 'ies'}")
    else:
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse ``type=`` for an integer ``>= low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _sizes(text: str) -> tuple[int, ...]:
    """argparse ``type=`` for a comma-separated list of sizes >= 1."""
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        sizes = ()
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError(
            f"expects a comma-separated list of sizes >= 1, got {text!r}"
        )
    return sizes


class _Noted(argparse.Action):
    """``store`` that also notes the flag in ``namespace.given``, so a
    mode that reads only some of its command's options can reject the
    others (see :func:`_unread_options`)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {
            **getattr(namespace, "given", {}), self.dest: self.option_strings[0]
        }


def _unread_options(
    args: argparse.Namespace, reads: set[str], mode: str, command: str
) -> bool:
    """Report noted options whose dest ``mode`` does not read; True if any."""
    unread = [flag for dest, flag in getattr(args, "given", {}).items()
              if dest not in reads]
    if unread:
        print(f"repro {command}: error: {mode} does not read "
              f"{', '.join(unread)}", file=sys.stderr)
    return bool(unread)


#: ``repro bench`` suites: the tuning options each suite reads, and how
#: it runs one suite of :mod:`repro.bench` from them.
SUITES = {
    "kernel": ({"bench_sizes", "scan_sizes", "repeats", "seed"},
               lambda bench, args: bench.kernel_bench(
                   sizes=args.bench_sizes,
                   scan_sizes=args.scan_sizes,
                   repeats=args.repeats,
                   seed=args.seed,
               )),
    "lanes": ({"repeats", "seed"}, lambda bench, args: bench.lanes_bench(
        repeats=args.repeats, seed=args.seed
    )),
    "service": ({"seed"}, lambda bench, args: bench.service_bench(seed=args.seed)),
    "explore": ({"repeats"},
                lambda bench, args: bench.explore_bench(repeats=args.repeats)),
}


def bench_command(args: argparse.Namespace) -> int:
    """Run one bench suite; optionally write its JSON snapshot."""
    from repro import bench

    reads, run = SUITES[args.suite]
    if _unread_options(args, reads, f"--{args.suite}", "bench"):
        return 2
    snapshot = run(bench, args)
    print(bench.render(snapshot))
    if args.json:
        bench.write_snapshot(snapshot, args.json)
        print(f"wrote {args.json}")
    return 0


def verify_kernels_command(args: argparse.Namespace) -> int:
    """Run the batched-vs-stepped array differential matrix."""
    from repro.verify.kernels import run_matrix

    if _unread_options(args, set(), "--kernels", "verify"):
        return 2
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
    from repro.verify.differential import CAMPAIGN_OPS, run_campaign

    if args.kernels:
        return verify_kernels_command(args)

    if args.formats:
        names = [n.strip() for n in args.formats.split(",") if n.strip()]
        unknown = [n for n in names if n not in FORMATS_BY_NAME]
        if unknown:
            print(
                f"unknown formats: {', '.join(unknown)} "
                f"(known: {', '.join(FORMATS_BY_NAME)})",
                file=sys.stderr,
            )
            return 2
        formats = [FORMATS_BY_NAME[n] for n in names]
    else:
        formats = list(FORMATS_BY_NAME.values())
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


def explore_command(args: argparse.Namespace) -> int:
    """Offline twin of ``GET /v1/explore``: the same NDJSON, on stdout."""
    from repro.explore.catalog import ExploreStream
    from repro.explore.recommend import (
        QueryError,
        _resolve_formats,
        _resolve_kinds,
    )
    from repro.units.explorer import explore

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
    engine = build_engine(args)
    lines = ExploreStream()
    for kind in kinds:
        for fmt in formats:
            space = explore(fmt, kind, engine=engine)
            for line in lines.points(kind, fmt, space, engine.metrics.last_status):
                sys.stdout.buffer.write(line)
    sys.stdout.buffer.write(lines.trailer()[1])
    return 0


def recommend_command(args: argparse.Namespace) -> int:
    """Offline twin of ``POST /v1/recommend``: same payload, stdout."""
    from repro.explore.catalog import payload_bytes
    from repro.explore.recommend import (
        QueryError,
        UnsatisfiableError,
        recommend,
    )

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
        query["block_sizes"] = list(args.block_sizes)
    if args.fmt:
        query["format"] = args.fmt
    engine = build_engine(args)
    try:
        payload = recommend(query, engine=engine)
    except (QueryError, UnsatisfiableError) as exc:
        print(f"repro recommend: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(payload_bytes(payload) + b"\n")
    return 0


def serve_command(args: argparse.Namespace) -> int:
    """Run the micro-batching evaluation service (blocks until signal)."""
    from repro.service import ServiceConfig, serve

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


def loadgen_command(args: argparse.Namespace) -> int:
    """Drive a running server with closed-loop concurrent load."""
    from repro.service.loadgen import run_load_blocking, write_report

    try:
        report = run_load_blocking(
            args.host,
            args.port,
            concurrency=args.concurrency,
            requests=args.requests,
            op=args.op,
            fmt=FORMATS_BY_NAME[args.fmt],
            mode=RoundingMode(args.mode),
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


def trace_command(args: argparse.Namespace) -> int:
    """Fetch traces from a running server and render or export them."""
    import json as json_module
    from http.client import HTTPConnection

    from repro.obs.trace import render_trace

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


def build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser], argparse.ArgumentParser
]:
    """The command table, as ``(parser, commands, experiments)``.

    ``parser`` holds one subparser per command and ``commands`` maps each
    command name to its subparser; ``experiments`` parses the default
    command, which runs when the first argument names no command.  Every
    parsed namespace carries ``run``, the function that executes it.
    """
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument("--cache-dir", metavar="DIR",
                           help="directory of the persistent engine result "
                           f"cache (also via ${CACHE_DIR_ENV})")
    engine = argparse.ArgumentParser(add_help=False, parents=[cache_dir])
    engine.add_argument("--parallel", "-j", dest="workers", type=_int_at_least(1),
                        default=1, metavar="N",
                        help="evaluate engine jobs on N worker processes "
                        "(default: 1, serial)")
    engine.add_argument("--no-cache", action="store_true",
                        help="ignore any configured cache directory")
    engine.add_argument("--timeout", dest="timeout_s", type=float, metavar="S",
                        help="per-job wall-time cap in seconds (parallel runs)")
    engine.add_argument("--retries", type=_int_at_least(0), default=1, metavar="K",
                        help="re-attempts per failing job (default: 1)")

    experiments = argparse.ArgumentParser(
        prog="repro", description=DESCRIPTION, parents=[engine],
        epilog="'repro --help' lists the other commands.",
    )
    experiments.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                             help="experiment names (see 'repro list') or "
                             "'all'; none lists the experiments")
    experiments.add_argument("--csv", action="store_true",
                             help="emit CSV instead of text tables")
    experiments.set_defaults(run=experiments_command)

    parser = argparse.ArgumentParser(
        prog="repro", description=DESCRIPTION,
        epilog="With no command, or with an experiment name, 'all' or an "
        "option first, repro runs experiments: see 'repro all --help'.",
    )
    parser.add_argument("--version", action="version", version=__version__,
                        help="print the package version and exit")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND")

    def command(name: str, run: Callable[[argparse.Namespace], int],
                summary: str, description: str | None = None,
                parents: Sequence[argparse.ArgumentParser] = ()):
        sub = commands.add_parser(name, help=summary, parents=list(parents),
                                  description=description or summary)
        sub.set_defaults(run=run)
        return sub

    command("list", list_command, "enumerate the experiments")

    results = command("results", results_command,
                      "write every experiment's text and CSV artifacts",
                      parents=[engine])
    results.add_argument("--outdir", default="results",
                         help="output directory (default: results/)")

    cache = command("cache", cache_command,
                    "inspect or clear the persistent result cache",
                    description="Inspect or clear the persistent result "
                    f"cache: --cache-dir, else ${CACHE_DIR_ENV}, else "
                    f"{DEFAULT_CACHE_DIR}/.")
    actions = cache.add_subparsers(dest="action", required=True,
                                   metavar="{stats,clear}")
    actions.add_parser("stats", parents=[cache_dir],
                       help="entries, size and versions in the cache")
    actions.add_parser("clear", parents=[cache_dir],
                       help="drop cache entries").add_argument(
        "--stale", action="store_true",
        help="only drop entries from older versions")

    verify = command("verify", verify_command,
                     "differential verification campaigns",
                     description="Sweep the vectorized datapaths against "
                     "the scalar ones and the exact oracles, or (--kernels) "
                     "the batched matmul array against the stepped one.",
                     parents=[engine])
    verify.add_argument("--formats", action=_Noted, metavar="F,F",
                        help="comma-separated formats (default: all paper formats)")
    verify.add_argument("--ops", action=_Noted, metavar="OP,OP",
                        help="comma-separated ops among add,sub,mul,div,sqrt,fma "
                        "(default: all)")
    verify.add_argument("--pairs", action=_Noted, type=_int_at_least(1),
                        default=1_000_000, metavar="N",
                        help="operand pairs per format (default: 1000000)")
    verify.add_argument("--chunk", action=_Noted, type=_int_at_least(1),
                        default=50_000, metavar="N",
                        help="pairs per engine job (default: 50000)")
    verify.add_argument("--seed", type=int, default=0, metavar="S",
                        help="base seed (default: 0)")
    verify.add_argument("--kernels", action="store_true",
                        help="run the batched-vs-stepped array differential "
                        "matrix instead of the datapath campaign")

    bench = command("bench", bench_command,
                    "one perf-snapshot suite (kernel by default)")
    suite = bench.add_mutually_exclusive_group()
    suite.add_argument("--lanes", dest="suite", action="store_const",
                       const="lanes",
                       help="benchmark add/sub/mul of every narrow-lane "
                       "format on its native lane dtype against uint64 lanes")
    suite.add_argument("--service", dest="suite", action="store_const",
                       const="service",
                       help="benchmark the serving layer (batched vs "
                       "unbatched dispatch, plus full-HTTP loopback "
                       "throughput) instead of the kernels")
    suite.add_argument("--explore", dest="suite", action="store_const",
                       const="explore",
                       help="benchmark cold vs warm design-space frontier "
                       "computation and constrained recommendation")
    bench.set_defaults(suite="kernel")
    bench.add_argument("--json", metavar="FILE",
                       help="write the machine-readable snapshot to FILE")
    bench.add_argument("--bench-sizes", action=_Noted, type=_sizes,
                       default="16,32", metavar="N,N",
                       help="stepped-vs-batched sizes (default: 16,32)")
    bench.add_argument("--scan-sizes", action=_Noted,
                       type=lambda text: _sizes(text) if text else (),
                       default="64,128,256", metavar="N,N",
                       help="batched-only scaling sizes (default: 64,128,256; "
                       "empty string to skip)")
    bench.add_argument("--repeats", action=_Noted, type=_int_at_least(1),
                       default=3, metavar="K",
                       help="batched timing repeats, best-of (default: 3)")
    bench.add_argument("--seed", action=_Noted, type=int, default=0, metavar="S",
                       help="base seed (default: 0)")

    serve = command("serve", serve_command,
                    "micro-batching evaluation service over HTTP",
                    description="Serve the FP evaluation surface over HTTP "
                    "with micro-batching, admission control and live "
                    "/metrics.  Every flag falls back to its REPRO_SERVE_* "
                    "environment variable, then to the documented default.",
                    parents=[cache_dir])
    serve.add_argument("--host", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int,
                       help="bind port; 0 picks an ephemeral port (default: 8080)")
    serve.add_argument("--max-batch", type=int, metavar="N",
                       help="largest op batch per vectorized call (default: 64)")
    serve.add_argument("--linger-ms", type=float, metavar="MS",
                       help="how long an open batch waits for company "
                       "(default: 2.0)")
    serve.add_argument("--queue-depth", type=int, metavar="N",
                       help="admitted requests in flight before shedding "
                       "429s (default: 256)")
    serve.add_argument("--request-timeout", type=float, metavar="S",
                       dest="request_timeout_s",
                       help="per-op deadline in seconds (default: 10)")
    serve.add_argument("--sweep-timeout", type=float, metavar="S",
                       dest="sweep_timeout_s",
                       help="unit/experiment sweep deadline (default: 120)")
    serve.add_argument("--drain-timeout", type=float, metavar="S",
                       dest="drain_timeout_s",
                       help="graceful-shutdown drain budget (default: 5)")
    serve.add_argument("--no-spot-check", action="store_true",
                       help="skip the per-batch scalar spot check")
    serve.add_argument("--trace-sample", type=float, metavar="P",
                       help="fraction of requests traced, 0.0-1.0 (default: 1.0)")
    serve.add_argument("--trace-buffer", type=int, metavar="N",
                       help="finished traces retained for /v1/trace lookups "
                       "(default: 512)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit one NDJSON line per span to stderr")

    loadgen = command("loadgen", loadgen_command,
                      "drive a running server with closed-loop load",
                      description="Closed-loop load generator for a running "
                      "'repro serve' instance.  429s count as shed load (the "
                      "backpressure contract working), not failures.")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--concurrency", "-c", type=int, default=16, metavar="N",
                         help="concurrent workers (default: 16)")
    loadgen.add_argument("--requests", "-n", type=int, default=1000, metavar="N",
                         help="total requests (default: 1000)")
    loadgen.add_argument("--op", default="mul", choices=OP_TABLE)
    loadgen.add_argument("--format", default="fp32", dest="fmt",
                         choices=FORMATS_BY_NAME,
                         help="named paper format (default: fp32)")
    loadgen.add_argument("--mode", default=RoundingMode.NEAREST_EVEN.value,
                         choices=[m.value for m in RoundingMode])
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--timeout", type=float, default=120.0, metavar="S",
                         help="whole-run deadline (default: 120)")
    loadgen.add_argument("--json", metavar="FILE",
                         help="write the machine-readable report to FILE")
    loadgen.add_argument("--trace-ids", action="store_true",
                         help="send an explicit X-Repro-Trace-Id per request "
                         "and count echoed responses")

    trace = command("trace", trace_command,
                    "inspect request traces on a running server",
                    description="Inspect request traces on a live 'repro "
                    "serve' instance: render one trace's span tree, list the "
                    "slowest buffered traces, or export them as Chrome "
                    "trace-event JSON (load into chrome://tracing or Perfetto).")
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, required=True)
    trace.add_argument("--id", metavar="TRACE_ID", help="render one trace by ID")
    trace.add_argument("--slowest", type=int, default=10, metavar="N",
                       help="without --id: cover the N slowest buffered "
                       "traces (default: 10)")
    trace.add_argument("--chrome", metavar="FILE",
                       help="write Chrome trace-event JSON to FILE instead "
                       "of rendering text")

    explore = command("explore", explore_command,
                      "stream the unit design-space grid as NDJSON",
                      description="Stream the annotated unit design-space "
                      "grid as NDJSON — one point line per implementation, "
                      "one frontier trailer — exactly the payloads GET "
                      "/v1/explore streams.",
                      parents=[cache_dir])
    explore.add_argument("--kinds", metavar="K,K",
                         help="comma-separated unit kinds (default: all four)")
    explore.add_argument("--formats", metavar="F,F",
                         help="comma-separated formats (default: all)")

    recommend = command("recommend", recommend_command,
                        "answer a constrained design query",
                        description="Answer a constrained design query ('max "
                        "MOPS/W with slices <= 1000 and clock >= 200 MHz') "
                        "over the cached Pareto frontier — byte-identical to "
                        "POST /v1/recommend.",
                        parents=[cache_dir])
    recommend.add_argument("--space", default="units", choices=("units", "kernel"))
    recommend.add_argument("--objective", metavar="METRIC",
                           help="metric to optimize (default: mops_per_watt "
                           "for units, energy_nj for kernel)")
    recommend.add_argument("--constrain", action="append", default=[],
                           metavar="BOUND=VALUE",
                           help="bound such as max_slices=1000 or "
                           "min_clock_mhz=200; repeatable")
    recommend.add_argument("--kinds", metavar="K,K",
                           help="units space: comma-separated unit kinds")
    recommend.add_argument("--formats", metavar="F,F",
                           help="units space: comma-separated formats")
    recommend.add_argument("--n", type=int,
                           help="kernel space: problem size (default: 16)")
    recommend.add_argument("--block-sizes", type=_sizes, metavar="B,B",
                           help="kernel space: comma-separated block sizes")
    recommend.add_argument("--format", dest="fmt",
                           help="kernel space: precision (default: fp32)")
    return parser, commands.choices, experiments


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` against the command table and run the command."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands, experiments = build_parser()
    if not argv or argv[0] not in {*commands, "-h", "--help", "--version"}:
        parser = experiments
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, --version and usage errors
        return exc.code
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
