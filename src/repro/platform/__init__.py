"""Simulated threaded platforms: machine models for the paper's five test
systems and a cost model turning measured kernel traces into execution
times at any processor/thread count."""

from repro import _lazy_exports
from repro.platform.kernels import KernelRecord, TraceRecorder

# The detection kernels record into ``kernels``; the machine models and
# the simulator load on first use.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "MachineModel": "machine",
        "CRAY_XMT": "machine",
        "CRAY_XMT2": "machine",
        "INTEL_E7_8870": "machine",
        "INTEL_X5650": "machine",
        "INTEL_X5570": "machine",
        "PLATFORMS": "machine",
        "get_machine": "machine",
        "simulate_time": "sim",
        "simulate_sweep": "sim",
        "PhaseBreakdown": "sim",
        "run_variation": "noise",
        "save_trace": "traceio",
        "load_trace": "traceio",
        "single_socket": "whatif",
        "scale_bandwidth": "whatif",
        "scale_clock": "whatif",
        "KernelUtilization": "utilization",
        "mean_utilization": "utilization",
        "utilization_profile": "utilization",
    },
)

__all__ = [
    "KernelRecord",
    "TraceRecorder",
    "MachineModel",
    "CRAY_XMT",
    "CRAY_XMT2",
    "INTEL_E7_8870",
    "INTEL_X5650",
    "INTEL_X5570",
    "PLATFORMS",
    "get_machine",
    "simulate_time",
    "simulate_sweep",
    "PhaseBreakdown",
    "run_variation",
    "save_trace",
    "load_trace",
    "KernelUtilization",
    "mean_utilization",
    "utilization_profile",
    "single_socket",
    "scale_bandwidth",
    "scale_clock",
]
