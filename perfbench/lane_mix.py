"""serve-burst's lane mix, measured from the program's own datapath traffic.

``MIX`` gives, for every (op, format, mode) lane, the operations that lane
received in one pass of the ``reproduce`` workload (every registry
experiment plus the kernel scans) and one pass of the ``campaign``
workload.  In ``reproduce``, an operation is one element of a scalar,
vectorized or packed datapath call from outside ``repro.fp``. In
``campaign``, it is one element of a chunk's vectorized call.  The §4.2
matmul kernels put nearly all of it on mul and add over fp16, fp32 and
fp64 with round-to-nearest-even.  ``ablation-fma``'s scalar fp32 loop and
the campaign's even cover of every lane make the tail.

The table is fixed, so the workload does not change when the program
does.  This script re-measures it and prints a new table::

    python3 perfbench/lane_mix.py
"""

from __future__ import annotations

#: (op, format, mode) -> operations in one reproduce pass and one campaign pass.
MIX = {
    ('add', 'bf16', 'rne'): 500,
    ('add', 'bf16', 'rtz'): 500,
    ('add', 'fp16', 'rne'): 2397172,
    ('add', 'fp16', 'rtz'): 500,
    ('add', 'fp32', 'rne'): 2404084,
    ('add', 'fp32', 'rtz'): 1012,
    ('add', 'fp48', 'rne'): 500,
    ('add', 'fp48', 'rtz'): 500,
    ('add', 'fp64', 'rne'): 2397172,
    ('add', 'fp64', 'rtz'): 500,
    ('div', 'bf16', 'rne'): 500,
    ('div', 'bf16', 'rtz'): 500,
    ('div', 'fp16', 'rne'): 500,
    ('div', 'fp16', 'rtz'): 500,
    ('div', 'fp32', 'rne'): 500,
    ('div', 'fp32', 'rtz'): 500,
    ('div', 'fp48', 'rne'): 500,
    ('div', 'fp48', 'rtz'): 500,
    ('div', 'fp64', 'rne'): 500,
    ('div', 'fp64', 'rtz'): 500,
    ('fma', 'bf16', 'rne'): 500,
    ('fma', 'bf16', 'rtz'): 500,
    ('fma', 'fp16', 'rne'): 500,
    ('fma', 'fp16', 'rtz'): 500,
    ('fma', 'fp32', 'rne'): 6900,
    ('fma', 'fp32', 'rtz'): 500,
    ('fma', 'fp48', 'rne'): 500,
    ('fma', 'fp48', 'rtz'): 500,
    ('fma', 'fp64', 'rne'): 500,
    ('fma', 'fp64', 'rtz'): 500,
    ('mul', 'bf16', 'rne'): 500,
    ('mul', 'bf16', 'rtz'): 500,
    ('mul', 'fp16', 'rne'): 2397172,
    ('mul', 'fp16', 'rtz'): 500,
    ('mul', 'fp32', 'rne'): 2404084,
    ('mul', 'fp32', 'rtz'): 1012,
    ('mul', 'fp48', 'rne'): 500,
    ('mul', 'fp48', 'rtz'): 500,
    ('mul', 'fp64', 'rne'): 2397172,
    ('mul', 'fp64', 'rtz'): 500,
    ('sqrt', 'bf16', 'rne'): 500,
    ('sqrt', 'bf16', 'rtz'): 500,
    ('sqrt', 'fp16', 'rne'): 500,
    ('sqrt', 'fp16', 'rtz'): 500,
    ('sqrt', 'fp32', 'rne'): 500,
    ('sqrt', 'fp32', 'rtz'): 500,
    ('sqrt', 'fp48', 'rne'): 500,
    ('sqrt', 'fp48', 'rtz'): 500,
    ('sqrt', 'fp64', 'rne'): 500,
    ('sqrt', 'fp64', 'rtz'): 500,
    ('sub', 'bf16', 'rne'): 500,
    ('sub', 'bf16', 'rtz'): 500,
    ('sub', 'fp16', 'rne'): 500,
    ('sub', 'fp16', 'rtz'): 500,
    ('sub', 'fp32', 'rne'): 500,
    ('sub', 'fp32', 'rtz'): 500,
    ('sub', 'fp48', 'rne'): 500,
    ('sub', 'fp48', 'rtz'): 500,
    ('sub', 'fp64', 'rne'): 500,
    ('sub', 'fp64', 'rtz'): 500,
}


def lane_weights():
    """Every lane of ``MIX`` in a fixed order, with its share of the traffic."""
    lanes = sorted(MIX)
    total = sum(MIX.values())
    return lanes, [MIX[lane] / total for lane in lanes]


def measure(seed: int = 1):
    """Count the lane traffic of one reproduce pass and one campaign pass."""
    import collections
    import importlib
    import pkgutil
    import sys

    import repro
    from repro.fp.rounding import RoundingMode
    from repro.verify import differential

    import campaign
    import reproduce
    from common import Patch

    counts = collections.Counter()
    names = {f"{kind}_{op}": op for kind in ("fp", "vec", "packed") for op in
             ("add", "sub", "mul", "div", "sqrt", "fma")}

    def counting(fn, op):
        def wrapper(fmt, *args, **kwargs):
            mode = kwargs.get("mode") or next(
                (a for a in args if isinstance(a, RoundingMode)), RoundingMode.NEAREST_EVEN
            )
            size = getattr(args[0], "size", 1) * kwargs.get("width", 1)
            counts[(op, fmt.name, mode.value)] += int(size)
            return fn(fmt, *args, **kwargs)
        return wrapper

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    with Patch() as patch:
        for module in [m for n, m in list(sys.modules.items())
                       if n.startswith("repro.") and not n.startswith("repro.fp")]:
            for name, op in names.items():
                if callable(getattr(module, name, None)):
                    patch.set(module, name, counting(getattr(module, name), op))
        reproduce.run_pass(seed, None)
        for op, fn in list(differential._VEC.items()):
            patch.setitem(differential._VEC, op, counting(fn, op))
        from repro.engine import Engine

        campaign.campaign_pass(seed, Engine())
    return dict(sorted(counts.items()))


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    print("MIX = {")
    for lane, count in measure().items():
        print(f"    {lane!r}: {count},")
    print("}")
