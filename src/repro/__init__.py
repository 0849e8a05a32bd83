"""INCA: INterruptible CNN Accelerator for Multi-tasking in Robots.

Full-system Python reproduction of the DAC 2020 paper: network IR and model
zoo, 8-bit quantization, the original and virtual-instruction ISAs, a
cycle-approximate Angel-Eye-style accelerator simulator, the Instruction
Arrangement Unit (IAU), three interrupt methods (CPU-like, layer-by-layer,
virtual-instruction), a preemptive multi-task runtime, a ROS-like
discrete-event middleware, a synthetic two-agent DSLAM application, a
multi-tenant accelerator farm (``repro.farm``: heterogeneous nodes, seeded
tenant traffic, and a PREMA-style predictive scheduler vs FCFS/static-partition
baselines; it also runs the paper's future-work multi-core ablation), and
a durable serving gateway (``repro.serve``: journaled jobs, full-system
snapshot/restore, and kill-9 crash recovery).

Quickstart::

    from repro import AcceleratorConfig, MultiTaskSystem, ObsConfig, compile_tasks
    from repro import summarize
    from repro.zoo import build_tiny_cnn, build_tiny_residual

    config = AcceleratorConfig.big()
    low, high = compile_tasks([build_tiny_cnn(), build_tiny_residual()], config)
    system = MultiTaskSystem(config, obs=ObsConfig(events=True, metrics=True))
    system.add_task(0, high)          # priority 0: never interrupted
    system.add_task(1, low)           # priority 1: interruptible
    system.submit(1, at_cycle=0)
    system.submit(0, at_cycle=2_000)  # pre-empts mid-inference
    system.run()
    print(system.spans(0)[0].format())  # per-job span tree (layers, VI, preemptions)
    print(system.summary())             # per-task table: jobs, latency, DDR, preempts

Instrumentation is off by default (``obs=None``) and costs nothing when
disabled; ``ObsConfig`` selects event recording and the metrics registry
independently.
"""

from repro.accel.reference import golden_inference, golden_output
from repro.accel.runner import RunResult, run_program
from repro.compiler import (
    CACHE_ENV_VAR,
    CompileCache,
    CompiledNetwork,
    ViPolicy,
    compile_network,
)
from repro.errors import CheckpointError, EccError, FaultError, ServeError, SnapshotError
from repro.faults import (
    DeadlineMissed,
    DegradationPolicy,
    FaultPlan,
    FaultSite,
    run_campaign,
)
from repro.hw import AcceleratorConfig
from repro.interrupt import (
    CPU_LIKE,
    LAYER_BY_LAYER,
    VIRTUAL_INSTRUCTION,
    measure_interrupt,
)
from repro.errors import InvariantViolation, QosError
from repro.estimate import (
    RemainingCycles,
    estimate_job_cycles,
    estimate_service_cycles,
)
from repro.nn import GraphBuilder, NetworkGraph, TensorShape
from repro.obs import EventBus, Metrics, ObsConfig, summarize
from repro.qos import (
    AdmissionDenied,
    AdmissionPolicy,
    BackpressureProfile,
    InvariantMonitor,
    QosConfig,
    QueuePolicy,
    scan_events,
)
from repro.runtime import ArrivalPolicy, MultiTaskSystem, compile_tasks
from repro.verify import (
    Diagnostic,
    Report,
    Severity,
    StaticWcirl,
    verify_network,
    verify_program,
    verify_task_set,
    wcirl_bound,
)

__version__ = "2.2.0"

__all__ = [
    "AcceleratorConfig",
    "AdmissionDenied",
    "AdmissionPolicy",
    "ArrivalPolicy",
    "BackpressureProfile",
    "CACHE_ENV_VAR",
    "CPU_LIKE",
    "CheckpointError",
    "CompileCache",
    "CompiledNetwork",
    "DeadlineMissed",
    "DegradationPolicy",
    "Diagnostic",
    "EccError",
    "EventBus",
    "FaultError",
    "FaultPlan",
    "FaultSite",
    "GraphBuilder",
    "InvariantMonitor",
    "InvariantViolation",
    "LAYER_BY_LAYER",
    "Metrics",
    "MultiTaskSystem",
    "NetworkGraph",
    "ObsConfig",
    "QosConfig",
    "QosError",
    "QueuePolicy",
    "RemainingCycles",
    "Report",
    "RunResult",
    "ServeError",
    "Severity",
    "SnapshotError",
    "StaticWcirl",
    "TensorShape",
    "VIRTUAL_INSTRUCTION",
    "ViPolicy",
    "__version__",
    "compile_network",
    "compile_tasks",
    "estimate_job_cycles",
    "estimate_service_cycles",
    "golden_inference",
    "golden_output",
    "measure_interrupt",
    "run_campaign",
    "run_program",
    "scan_events",
    "summarize",
    "verify_network",
    "verify_program",
    "verify_task_set",
    "wcirl_bound",
]
