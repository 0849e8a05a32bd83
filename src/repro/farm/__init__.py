"""Predictive multi-tenant accelerator farm (serving-scale INCA).

The single-robot stack runs one accelerator with up to four pre-emptible
tasks; this package scales the same machinery out: N simulated
accelerators (heterogeneous designs from the design-space grid), a
cluster dispatcher, deterministic synthetic tenant traffic, and three
schedulers behind one protocol — FCFS, static partition, and a
PREMA-style predictive scheduler driven by the stable cycle estimator.

Quickstart::

    from repro.farm import (
        Farm, FcfsScheduler, PredictiveScheduler, ServiceSpec, SloClass,
        TenantSpec, TrafficSpec, generate_jobs,
    )
    from repro.analysis.design_space import default_design_grid

    gold = SloClass("gold", rank=0, weight=8.0, deadline_cycles=200_000)
    best = SloClass("best-effort", rank=2, weight=1.0, deadline_cycles=2_000_000)
    services = [
        ServiceSpec("detect", "tiny_cnn", gold),
        ServiceSpec("embed", "tiny_residual", best),
    ]
    spec = TrafficSpec(
        tenants=(
            TenantSpec(0, service=0, mean_interarrival_cycles=40_000),
            TenantSpec(1, service=1, mean_interarrival_cycles=25_000, pattern="bursty"),
        ),
        duration_cycles=5_000_000,
        seed=7,
    )
    farm = Farm(default_design_grid(), services, PredictiveScheduler())
    result = farm.serve(generate_jobs(spec), max_workers=4)
    print(result.report.format())
"""

from repro.farm.farm import Farm, ServeResult
from repro.farm.resilience import (
    ChaosAction,
    ChaosCampaignReport,
    ChaosPlan,
    ChaosTrial,
    FeedbackScheduler,
    HealthState,
    NodeHealth,
    ResilienceConfig,
    ResiliencePolicy,
    ResilienceReport,
    poison_snapshot_file,
    run_chaos_campaign,
)
from repro.farm.metrics import (
    ClassReport,
    FarmReport,
    JobOutcome,
    build_report,
    join_outcomes,
    percentile,
)
from repro.farm.node import (
    NodeAssignment,
    NodeJobResult,
    ServiceSpec,
    build_node_system,
    run_assignment,
    simulate_node,
)
from repro.farm.scheduler import (
    Dispatch,
    FarmView,
    FcfsScheduler,
    PredictiveScheduler,
    Scheduler,
    StaticPartitionScheduler,
)
from repro.farm.traffic import (
    Job,
    SloClass,
    TenantSpec,
    TrafficSpec,
    generate_jobs,
)

__all__ = [
    "ChaosAction",
    "ChaosCampaignReport",
    "ChaosPlan",
    "ChaosTrial",
    "ClassReport",
    "Dispatch",
    "Farm",
    "FarmReport",
    "FarmView",
    "FcfsScheduler",
    "FeedbackScheduler",
    "HealthState",
    "Job",
    "JobOutcome",
    "NodeAssignment",
    "NodeHealth",
    "NodeJobResult",
    "PredictiveScheduler",
    "ResilienceConfig",
    "ResiliencePolicy",
    "ResilienceReport",
    "Scheduler",
    "ServeResult",
    "ServiceSpec",
    "SloClass",
    "StaticPartitionScheduler",
    "TenantSpec",
    "TrafficSpec",
    "build_node_system",
    "build_report",
    "generate_jobs",
    "join_outcomes",
    "percentile",
    "poison_snapshot_file",
    "run_chaos_campaign",
    "simulate_node",
]
