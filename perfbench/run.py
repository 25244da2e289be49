#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (a traced run also measures an untraced window first,
to report the tracing overhead).  Each run checks the outputs it timed;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
correctness gate fails names the failing ops on standard error and
exits 1.  Without the program's sources (``src/repro``) it exits 2 and
prints no result.

Workloads (``BENCHMARK.json`` records why each was chosen and names
every metric with its unit):

* ``serve-light``  ``repro serve`` subprocess, 2 keep-alive connections;
* ``serve-burst``  128 in-process callers on ``ReproService.dispatch_op``;
* ``campaign``     differential campaigns on a fresh serial engine;
* ``reproduce``    every registry experiment plus the kernel scans,
  cold and warm.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import sys

from common import SRC, WORK, Metric

#: The benchmark's definition, at the repository root.
BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)

WORKLOADS = {
    "serve-light": "serve_light",
    "serve-burst": "serve_burst",
    "campaign": "campaign",
    "reproduce": "reproduce",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def declared_metrics(trace: bool):
    """``(name, unit)`` of every per-layer (``trace``) or end-to-end
    metric ``BENCHMARK.json`` declares."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def render(workload: str, out, names) -> str:
    lines = [
        f"perfbench {workload}: attempted {out.attempted}, failed "
        f"{out.failed}, shed {out.shed}"
    ]
    for name, unit in names:
        m = out.metrics[name]
        note = "  bypassed" if m.n == 0 else ""
        lines.append(f"  {name:<40} {m.value:>14.6g} {unit:<6} n={m.n}{note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: {SRC}/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    # Untimed: compile the program's sources, so that no timed import
    # (set-up samples included) pays for bytecode compilation, even where
    # the environment keeps imports from writing bytecode.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    module = importlib.import_module(WORKLOADS[args.workload])
    out = module.run(args.seed, args.seconds, bool(args.trace))

    names = declared_metrics(bool(args.trace))
    for name, unit in names:
        if name in out.metrics:
            if out.metrics[name].unit != unit:
                raise RuntimeError(
                    f"{name}: measured in {out.metrics[name].unit}, declared {unit}"
                )
        elif args.trace:
            out.metrics[name] = Metric(0.0, unit, 0)
        else:
            raise RuntimeError(f"{args.workload} did not measure {name}")

    print(render(args.workload, out, names))
    correct = out.failed == 0 and out.attempted > 0
    if not correct:
        print(f"perfbench {args.workload}: CORRECTNESS GATE FAILED", file=sys.stderr)
        for what in out.failures:
            print(f"  {what}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name].value, "unit": unit}
            for name, unit in names
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
