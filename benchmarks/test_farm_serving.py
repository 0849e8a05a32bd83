"""Farm serving benchmark: scheduler shoot-out under oversubscription.

One seeded day of multi-tenant traffic — three SLO classes, a mix of
Poisson, bursty, and diurnal tenants, offered load above the farm's
aggregate capacity — served by all three schedulers on the heterogeneous
design-space grid.  The headline claims:

* the predictive (PREMA-style) scheduler beats FCFS on the gold class's
  p99 latency (no head-of-line blocking behind best-effort work), and
* it beats FCFS on overall SLO attainment (token accrual keeps bronze
  from starving while gold stays fast).

A second experiment serves a hundred-thousand-job day to show farm-days
are a benchmark, not an overnight run.  ``max_workers`` ships only the
nodes that must be simulated to worker processes; the predictive plan
never puts two jobs on one node, so every node is answered by its plan
and the table reports zero nodes simulated.  Tables land in
``benchmarks/results/farm_serving*.txt``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_result
from repro.analysis.design_space import default_design_grid
from repro.farm import (
    Farm,
    FcfsScheduler,
    PredictiveScheduler,
    ServiceSpec,
    SloClass,
    StaticPartitionScheduler,
    TenantSpec,
    TrafficSpec,
    generate_jobs,
)
from repro.tables import format_table
from tests.farm_days import overlapping_nodes

GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=100_000)
SILVER = SloClass("silver", rank=1, weight=3.0, deadline_cycles=400_000)
BRONZE = SloClass("bronze", rank=2, weight=1.0, deadline_cycles=2_000_000)

SERVICES = (
    ServiceSpec("detect", "tiny_conv", GOLD),
    ServiceSpec("track", "tiny_residual", SILVER),
    ServiceSpec("embed", "tiny_cnn", BRONZE),
)

PATTERNS = ("poisson", "bursty", "diurnal")


def oversubscribed_spec(
    *, tenants: int, duration_cycles: int, mean_interarrival_cycles: int, seed: int
) -> TrafficSpec:
    """Many tenants across all services and patterns, load > capacity."""
    return TrafficSpec(
        tenants=tuple(
            TenantSpec(
                i,
                service=i % len(SERVICES),
                mean_interarrival_cycles=mean_interarrival_cycles,
                pattern=PATTERNS[i % len(PATTERNS)],
            )
            for i in range(tenants)
        ),
        duration_cycles=duration_cycles,
        seed=seed,
    )


def test_predictive_beats_fcfs_under_oversubscription():
    spec = oversubscribed_spec(
        tenants=12, duration_cycles=4_000_000, mean_interarrival_cycles=30_000, seed=42
    )
    jobs = generate_jobs(spec)
    grid = default_design_grid()
    reports = {}
    tables = []
    for scheduler in (FcfsScheduler(), StaticPartitionScheduler(), PredictiveScheduler()):
        farm = Farm(grid, SERVICES, scheduler)
        result = farm.serve(jobs, max_workers=len(grid))
        reports[scheduler.name] = result.report
        tables.append(result.report.format())
    write_result("farm_serving", "\n\n".join(tables))

    fcfs = reports["fcfs"]
    predictive = reports["predictive"]
    # Sanity: the day actually oversubscribes the farm — FCFS cannot hold
    # the gold deadline at p99.
    assert fcfs.by_class("gold").p99_cycles > GOLD.deadline_cycles
    # Headline 1: predictive crushes gold tail latency vs FCFS.
    assert (
        predictive.by_class("gold").p99_cycles < fcfs.by_class("gold").p99_cycles
    )
    # Headline 2: and still wins on overall SLO attainment.
    assert predictive.overall_attainment > fcfs.overall_attainment
    # The gold class itself also attains more of its SLO.
    assert (
        predictive.by_class("gold").attainment >= fcfs.by_class("gold").attainment
    )


def test_hundred_thousand_job_day_serves_in_seconds():
    grid = default_design_grid()
    # Near saturation rather than deep overload: ~100k jobs over a day whose
    # offered load sits at the farm's aggregate capacity.
    spec = oversubscribed_spec(
        tenants=48,
        duration_cycles=230_000_000,
        mean_interarrival_cycles=110_000,
        seed=7,
    )
    jobs = generate_jobs(spec)
    assert len(jobs) >= 90_000, f"day too small: {len(jobs)} jobs"

    farm = Farm(grid, SERVICES, PredictiveScheduler())
    started = time.perf_counter()
    result = farm.serve(jobs, max_workers=len(grid))
    elapsed = time.perf_counter() - started

    report = result.report
    assert report.total_jobs == len(jobs)
    throughput = len(jobs) / elapsed
    simulated = overlapping_nodes(farm, result.dispatches)
    rows = [
        ["jobs", len(jobs)],
        ["nodes simulated", f"{len(simulated)} of {len(grid)}"],
        ["max workers", len(grid)],
        ["wall seconds", f"{elapsed:.2f}"],
        ["jobs/second", f"{throughput:,.0f}"],
        ["makespan cycles", report.makespan_cycles],
        ["overall SLO attainment", f"{100 * report.overall_attainment:.2f}%"],
    ]
    text = format_table(
        ["metric", "value"], rows, title="hundred-thousand-job day (predictive)"
    )
    write_result("farm_serving_scale", text + "\n\n" + report.format())
    # A farm-day must be a benchmark, not an overnight run.
    assert elapsed < 300, f"scale run took {elapsed:.0f}s"
