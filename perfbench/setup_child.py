"""One workload's set-up in a fresh interpreter; prints ``ready``.

``python3 perfbench/setup_child.py <workload> <work-dir>`` performs the
imports and fixtures a run of ``<workload>`` needs before its first
timed op, then prints ``ready`` and exits.  The parent times it from
process start to that line (``setup_s``).
"""

from __future__ import annotations

import os
import sys
import tempfile


def serve_burst() -> None:
    from repro.service.config import ServiceConfig
    from repro.service.server import ReproService

    service = ReproService(ServiceConfig())
    service.compute_pool.shutdown()
    service.sweep_pool.shutdown()


def campaign() -> None:
    from repro.engine import Engine
    from repro.fp.format import ALL_FORMATS
    from repro.verify.differential import run_campaign  # noqa: F401
    from repro.verify.testbench import OperandGenerator

    Engine()
    for fmt in ALL_FORMATS:
        OperandGenerator(fmt, 0)


def reproduce(work: str) -> None:
    import repro.cli  # noqa: F401  (artifact rendering)
    from repro.engine import ResultCache
    from repro.experiments import experiment_jobs
    from repro.experiments.sec42_matmul import problem_size_scan  # noqa: F401

    experiment_jobs()
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as cache_dir:
        ResultCache(cache_dir)


def main() -> int:
    workload, work = sys.argv[1], sys.argv[2]
    if workload == "serve-burst":
        serve_burst()
    elif workload == "campaign":
        campaign()
    elif workload == "reproduce":
        reproduce(work)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
