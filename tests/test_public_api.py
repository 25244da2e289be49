"""Guard the documented public API surface.

Every name a README/docstring tells users to import must resolve from
the package roots — this catches ``__init__`` rot when modules move.
"""

import importlib

import pytest

PUBLIC_API = {
    "repro": [
        "FP32",
        "FP48",
        "FP64",
        "FPFormat",
        "FPValue",
        "RoundingMode",
        "MatmulArray",
        "MatmulPerformanceModel",
        "PipelinedFPAdder",
        "PipelinedFPMultiplier",
        "XC2VP125",
        "explore",
        "fp_add",
        "fp_mul",
        "fp_sub",
        "functional_matmul",
        "get_device",
        "__version__",
    ],
    "repro.fp": [
        "fp_add",
        "fp_sub",
        "fp_mul",
        "fp_div",
        "fp_sqrt",
        "fp_fma",
        "fp_convert",
        "fp_compare",
        "fp_min",
        "fp_max",
        "FPAdder",
        "FPMultiplier",
        "FPDivider",
        "FPSqrt",
        "FPMac",
        "FPFlags",
        "Ordering",
        "is_lossless",
    ],
    "repro.rtl": ["PipelinedFunction", "PipelineRegister", "Signal", "Simulator"],
    "repro.fabric": [
        "Device",
        "ImplementationReport",
        "Objective",
        "SpeedGrade",
        "adder_datapath",
        "multiplier_datapath",
        "divider_datapath",
        "partition_chain",
        "synthesize",
    ],
    "repro.units": [
        "DesignSpace",
        "PipelinedFPAdder",
        "PipelinedFPMultiplier",
        "PipelinedFPDivider",
        "PipelinedFPSqrt",
        "StructuralFPAdder",
        "StructuralFPMultiplier",
        "StructuralFPDivider",
        "StructuralFPSqrt",
        "StructuralFPMac",
        "explore",
        "fp_add_trace",
        "fp_mul_trace",
        "trace_datapath",
    ],
    "repro.kernels": [
        "MatmulArray",
        "MatmulRun",
        "BatchedMatmulArray",
        "MATMUL_BACKENDS",
        "make_matmul_array",
        "check_block_cycles",
        "RAWHazard",
        "ProcessingElement",
        "StructuralProcessingElement",
        "DotProductUnit",
        "MVMArray",
        "LUPerformanceModel",
        "IOChannel",
        "blocked_schedule",
        "functional_matmul",
        "functional_matmul_vectorized",
        "functional_lu",
        "kernel_schedule_cycles",
    ],
    "repro.power": ["EnergyBreakdown", "PEEnergyModel", "PowerReport", "estimate_power"],
    "repro.baselines": ["PENTIUM4_2_53", "POWERPC_G4_1000", "VendorCore"],
    "repro.analysis": ["Table", "SweepResult", "ErrorStats", "ulp", "ulp_error"],
    "repro.verify": [
        "run_testbench",
        "mutation_campaign",
        "OperandClass",
        "run_matrix",
        "KernelMatrixReport",
    ],
    "repro.hdl": ["emit_vhdl"],
    "repro.experiments": ["REGISTRY"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_API[module_name]:
        assert hasattr(module, name), f"{module_name} lost export {name!r}"


def test_all_lists_are_accurate():
    """Every name in each __all__ must actually exist."""
    for module_name in PUBLIC_API:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
