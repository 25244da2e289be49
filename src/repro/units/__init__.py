"""Pipelined floating-point units: function + implementation, together.

This layer ties the numeric core (:mod:`repro.fp`), the cycle-accurate
pipeline machinery (:mod:`repro.rtl`) and the technology model
(:mod:`repro.fabric`) into objects that behave like the paper's generated
cores: issue one operation per cycle, get the bit-exact result ``latency``
cycles later, and ask the same object what it costs in slices and what
clock it closes.
"""

from repro.units.explorer import (
    DesignPoint,
    DesignSpace,
    PipelinedFPAdder,
    PipelinedFPDivider,
    PipelinedFPMultiplier,
    PipelinedFPSqrt,
    explore,
)
from repro.units.structural import (
    StructuralFPAdder,
    StructuralFPDivider,
    StructuralFPMac,
    StructuralFPMultiplier,
    StructuralFPSqrt,
    fp_add_trace,
    fp_mul_trace,
    trace_datapath,
)

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "PipelinedFPAdder",
    "PipelinedFPDivider",
    "PipelinedFPMultiplier",
    "PipelinedFPSqrt",
    "StructuralFPAdder",
    "StructuralFPDivider",
    "StructuralFPMac",
    "StructuralFPMultiplier",
    "StructuralFPSqrt",
    "explore",
    "fp_add_trace",
    "fp_mul_trace",
    "trace_datapath",
]
