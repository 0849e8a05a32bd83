"""The eight workloads, by name (see ``spec.WORKLOADS`` for why each exists)."""

from __future__ import annotations

from benchmarks.perf.workloads.compiling import CacheWarmStart, CompileCold
from benchmarks.perf.workloads.farm import FarmDay, FarmResilient, GatewayRecovery
from benchmarks.perf.workloads.sim import DslamRos, FunctionalPreempt, PairArmed

REGISTRY = {
    workload.name: workload
    for workload in (
        DslamRos,
        PairArmed,
        FunctionalPreempt,
        CompileCold,
        CacheWarmStart,
        FarmDay,
        FarmResilient,
        GatewayRecovery,
    )
}
