"""The benchmark's vocabulary: workloads, metrics, bounds and sizes.

Everything another file (or a later issue) cites by name is declared here
once.  ``BENCHMARK.json`` at the repository root is :func:`driver_manifest`
written out; ``test_perf_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Workload name -> one line on why it exists (closed loop, one in flight).
WORKLOADS: dict[str, str] = {
    "dslam_ros": (
        "paper E10 two-agent DSLAM through repro.ros: the only path that "
        "drives iau.step() per instruction; fast path and farm idle"
    ),
    "pair_armed": (
        "ResNet-18 + SuperPoint periodic pair with a live FaultPlan on "
        "run(batched=True): Iau.run_batched, fire oracle, recovery bail-outs"
    ),
    "functional_preempt": (
        "ObsConfig(functional=True) ResNet-18 preempted by SuperPoint: int8 "
        "arithmetic dominates and batching always bails to step()"
    ),
    "compile_cold": (
        "four networks compiled into an empty CompileCache: lower, tile, VI "
        "pass, verify, meta precompute and the cache write path"
    ),
    "cache_warm_start": (
        "the same four keys loaded from a populated cache: read path, "
        "hydrate and meta peek; moves opposite to compile_cold on a format trade"
    ),
    "farm_day": (
        "predictive 48-tenant day on the 4-node grid, Farm.serve with 2 "
        "workers: plan, node build, tiny batched jobs, pickling, join, report"
    ),
    "farm_resilient": (
        "serve_resilient on 8 nodes with 2 seeded node kills: the same node "
        "code driven epoch by epoch through harvest, migrate, hedge"
    ),
    "gateway_recovery": (
        "a journaled day on ServeGateway with one worker death: SQLite "
        "journal, CRC snapshots, spawn + import and death-to-resume"
    ),
}

SIM_WORKLOADS = ("dslam_ros", "pair_armed", "functional_preempt")
COMPILE_WORKLOADS = ("compile_cold", "cache_warm_start")
FARM_WORKLOADS = ("farm_day", "farm_resilient", "gateway_recovery")


@dataclass(frozen=True)
class Metric:
    """One named number: its unit, which way is better, and its bound.

    ``bound`` is the share of the baseline median by which the metric may
    worsen before ``compare`` calls it a regression.  ``exact`` metrics are
    simulated-domain: deterministic for a seed, so any change at all is
    reported.  ``workloads=None`` means every workload emits it.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    exact: bool = False
    workloads: tuple[str, ...] | None = None

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


#: The fifteen end-to-end metrics of ISSUE 11 (verbatim names), plus one.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    # Not in ISSUE 11's table: ``wall_s`` with the host's speed at that
    # moment divided out (harness.host_slowdown), added because raw wall
    # time on a shared host spreads wider than any bound the driver allows.
    Metric("wall_norm_s", "s", "lower", 0.25),
    Metric("sim_instr_per_s", "instr/s", "higher", 0.25, workloads=SIM_WORKLOADS),
    Metric("compile_instr_per_s", "instr/s", "higher", 0.25, workloads=COMPILE_WORKLOADS),
    Metric("jobs_per_s", "jobs/s", "higher", 0.25, workloads=FARM_WORKLOADS),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("failed_share", "ratio", "lower", 0.0, exact=True),
    # Makespan / final clock; on the two compile workloads, the summed
    # uninterrupted service cycles of the four programs.
    Metric("sim_final_cycles", "cycles", "lower", 0.25, exact=True),
    Metric("fe_deadline_misses", "count", "lower", 0.0, exact=True, workloads=("dslam_ros",)),
    Metric("pr_frame_gap_mean", "frames", "lower", 0.0, exact=True, workloads=("dslam_ros",)),
    Metric(
        "fe_response_worst_cycles", "cycles", "lower", 0.0, exact=True,
        workloads=SIM_WORKLOADS,
    ),
    Metric("vi_degradation_pct", "%", "lower", 0.0, exact=True, workloads=("compile_cold",)),
    Metric("slo_attainment_pct", "%", "higher", 0.0, exact=True, workloads=FARM_WORKLOADS),
    Metric("gold_p99_cycles", "cycles", "lower", 0.0, exact=True, workloads=FARM_WORKLOADS),
    Metric(
        "faults_injected", "count", "lower", 0.0, exact=True,
        workloads=("pair_armed", "farm_resilient"),
    ),
)

#: End-to-end metrics every workload emits and that are never zero: the
#: only ones the driver contract lets ``BENCHMARK.json`` bound.  The rest
#: ride in its unbounded list (see :func:`driver_manifest`).
DRIVER_END_TO_END = ("wall_norm_s", "setup_s", "peak_rss_mb", "sim_final_cycles")


def _layer(names: str, unit: str, better: str) -> tuple[Metric, ...]:
    return tuple(Metric(name, unit, better) for name in names.split())


#: Per-layer metrics from the traced run, grouped by the layer they time.
PER_LAYER: tuple[Metric, ...] = (
    *_layer(
        "compiler.graph_build_s compiler.allocate_s compiler.weights_s "
        "compiler.lower_s compiler.vi_pass_s compiler.compile_uncached_s "
        "verify.structural_s verify.full_s iau.fastpath.meta_build_s "
        "compiler.cache.store_s compiler.cache.load_s compiler.cache.hydrate_s "
        "compiler.cache.meta_peek_s accel.functional_s accel.reference_golden_s "
        "faults.plan_build_s runtime.submit_s runtime.run_s runtime.equiv_step_s "
        "runtime.equiv_batched_s ros.spin_s ros.executor_overhead_s "
        "dslam.build_agent_s dslam.backend_s farm.traffic.generate_s "
        "farm.view_build_s farm.scheduler.plan_s farm.node.build_system_s "
        "farm.node.submit_s farm.node.run_s farm.node.collect_s farm.node.pickle_s "
        "farm.metrics.join_s farm.metrics.report_s farm.serve_serial_s "
        "farm.serve_parallel_s farm.fanout_overhead_s farm.resilience.serve_s "
        "serve.worker.spawn_s serve.gateway.submit_s serve.snapshot.write_s "
        "serve.snapshot.restore_s",
        "s", "lower",
    ),
    Metric("serve.gateway.recovery_ms", "ms", "lower"),
    *_layer(
        "compiler.instructions verify.diagnostics compiler.cache.misses "
        "compiler.cache.corrupt iau.preemptions faults.injected "
        "faults.checkpoint_retries farm.resilience.epochs "
        "farm.resilience.migrations farm.resilience.hedges "
        "farm.resilience.hedges_wasted farm.resilience.shed "
        "serve.gateway.worker_deaths serve.gateway.attempts serve.journal.events "
        "serve.snapshot.count",
        "count", "lower",
    ),
    *_layer(
        "compiler.cache.hits iau.jobs_completed accel.instructions_retired "
        "farm.traffic.jobs",
        "count", "higher",
    ),
    *_layer(
        "compiler.cache.store_bytes farm.node.pickle_bytes serve.journal.db_bytes "
        "serve.snapshot.bytes",
        "bytes", "lower",
    ),
    Metric("accel.busy_cycles", "cycles", "lower"),
    *_layer(
        "iau.fastpath.meta_instr_per_s iau.step_instr_per_s iau.batched_instr_per_s",
        "instr/s", "higher",
    ),
    Metric("accel.functional_macs_per_s", "MAC/s", "higher"),
    *_layer(
        "farm.scheduler.plan_us_per_job farm.node.us_per_job "
        "farm.resilience.us_per_job",
        "us/job", "lower",
    ),
    *_layer(
        "compiler.cache.hit_ratio iau.batch_speedup_armed farm.parallel_efficiency",
        "ratio", "higher",
    ),
    *_layer(
        "compiler.cache.load_vs_compile farm.resilience.overhead_vs_static "
        "serve.overhead_vs_serve",
        "ratio", "lower",
    ),
    Metric("bench.trace_overhead_pct", "%", "lower"),
)

E2E_BY_NAME = {metric.name: metric for metric in END_TO_END}
LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}

#: Seconds one driver run measures, and how many times it sets up.
RUN_SECONDS = 8
SETUP_REPEATS = 3

#: Seeds whose stepped-reference digests ``--regen-expected`` pins.
PINNED_SEEDS = tuple(range(32))

_NETS_FULL = (
    ("gem", "resnet18", (120, 160)),
    ("resnet", "resnet50", (112, 112)),
    ("mobilenet_v1", "", (112, 112)),
    ("superpoint", "", (60, 80)),
)
_NETS_QUICK = (
    ("gem", "resnet18", (32, 32)),
    ("resnet", "resnet18", (32, 32)),
    ("mobilenet_v1", "", (32, 32)),
    ("superpoint", "", (24, 32)),
)

#: Workload sizes per tier.  ``full`` is ISSUE 11's table scaled to the
#: driver's time cap (README.md "Sizes" gives the factors); ``quick`` is
#: about a tenth of that, one repetition, for the smoke test.
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "dslam_ros": dict(
            fe_hw=(60, 80), pr_hw=(120, 160), pr_backbone="resnet101",
            frames=10, fps=120.0,
        ),
        "pair_armed": dict(low_hw=(240, 320), high_hw=(120, 160), scale=10),
        "functional_preempt": dict(
            low_hw=(64, 64), high_hw=(60, 80), low_jobs=1, high_jobs=3
        ),
        "compile_cold": dict(nets=_NETS_FULL),
        "cache_warm_start": dict(nets=_NETS_FULL),
        "farm_day": dict(
            tenants=48, jobs=20_000, mean_interarrival=110_000, workers=2
        ),
        "farm_resilient": dict(
            tenants=16, jobs=18_000, mean_interarrival=45_000,
            epoch_cycles=250_000, kills=2,
        ),
        "gateway_recovery": dict(
            tenants=16, jobs=5_000, mean_interarrival=45_000,
            snapshot_every=1_000_000, crash_after=3, workers=2,
        ),
    },
    "quick": {
        "dslam_ros": dict(
            fe_hw=(60, 80), pr_hw=(60, 80), pr_backbone="resnet18",
            frames=10, fps=250.0,
        ),
        "pair_armed": dict(low_hw=(240, 320), high_hw=(120, 160), scale=1),
        "functional_preempt": dict(
            low_hw=(32, 32), high_hw=(30, 40), low_jobs=1, high_jobs=2
        ),
        "compile_cold": dict(nets=_NETS_QUICK),
        "cache_warm_start": dict(nets=_NETS_QUICK),
        "farm_day": dict(
            tenants=48, jobs=2_000, mean_interarrival=110_000, workers=2
        ),
        "farm_resilient": dict(
            tenants=16, jobs=1_800, mean_interarrival=45_000,
            epoch_cycles=250_000, kills=2,
        ),
        "gateway_recovery": dict(
            tenants=16, jobs=1_000, mean_interarrival=45_000,
            snapshot_every=400_000, crash_after=2, workers=2,
        ),
    },
}


def driver_manifest() -> dict:
    """The content of ``BENCHMARK.json``.

    The driver contract wants every bounded metric on every workload and
    never zero, so only :data:`DRIVER_END_TO_END` can be bounded there; the
    other end-to-end metrics keep their names in its unbounded list, read
    from the same runs, next to the per-layer metrics.
    """
    def row(metric: Metric, bounded: bool) -> dict:
        entry = {"name": metric.name, "unit": metric.unit, "better": metric.better}
        if bounded:
            entry["bound"] = metric.bound
        return entry

    unbounded = [
        metric for metric in END_TO_END if metric.name not in DRIVER_END_TO_END
    ]
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            row(E2E_BY_NAME[name], bounded=True) for name in DRIVER_END_TO_END
        ],
        "per_layer": [
            row(metric, bounded=False) for metric in (*unbounded, *PER_LAYER)
        ],
    }
