"""Farm workloads: ``farm_day``, ``farm_resilient``, ``gateway_recovery``.

The three serving paths over the same node code.  ``farm_day`` is the
throughput case: one whole-day plan, fanned out over worker processes.
``farm_resilient`` drives the same nodes epoch by epoch through the
resilience loop with two seeded node kills.  ``gateway_recovery`` puts the
SQLite journal, CRC'd snapshots, process spawn and death-to-resume on the
blocking path.  A collapse of the three into one loop must not trade one
for another, so each has its own row.
"""

from __future__ import annotations

import math
import pickle
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import repro.farm.farm as farm_module
import repro.farm.resilience as resilience_module
from benchmarks.perf.harness import Workload
from repro.analysis.design_space import default_design_grid
from repro.farm import (
    ChaosPlan,
    Farm,
    FeedbackScheduler,
    NodeAssignment,
    PredictiveScheduler,
    ResilienceConfig,
    ServiceSpec,
    SloClass,
    TenantSpec,
    TrafficSpec,
    build_node_system,
    build_report,
    generate_jobs,
    join_outcomes,
)
from repro.farm.node import clear_compile_memo, collect_assignment, submit_assignment
from repro.runtime.system import MultiTaskSystem
from repro.serve import JobSpec, ServeGateway, restore_system, snapshot_system
from repro.serve.journal import RESUMED, SNAPSHOT, WORKER_DEATH

PATTERNS = ("poisson", "bursty", "diurnal")
MODELS = ("tiny_conv", "tiny_residual", "tiny_cnn")


def services(deadlines: tuple[int, int, int]) -> tuple[ServiceSpec, ...]:
    """detect/track/embed on gold/silver/bronze with the given deadlines."""
    classes = (
        SloClass("gold", rank=0, weight=8.0, deadline_cycles=deadlines[0]),
        SloClass("silver", rank=1, weight=3.0, deadline_cycles=deadlines[1]),
        SloClass("bronze", rank=2, weight=1.0, deadline_cycles=deadlines[2]),
    )
    return tuple(
        ServiceSpec(name, model, slo)
        for name, model, slo in zip(("detect", "track", "embed"), MODELS, classes)
    )


#: ``benchmarks/test_farm_serving.py`` and ``benchmarks/test_farm_chaos.py``.
SERVING_SERVICES = services((100_000, 400_000, 2_000_000))
CHAOS_SERVICES = services((150_000, 600_000, 2_500_000))


def day(seed: int, *, tenants: int, jobs: int, mean_interarrival: int) -> list:
    """The first ``jobs`` arrivals of a seeded multi-tenant day.

    The seed changes when jobs arrive and from whom; the count is fixed so
    every seed is the same amount of work.  The horizon is a quarter
    longer than the count needs on average, so the cut always bites.
    """
    duration = math.ceil(1.25 * jobs * mean_interarrival / tenants)
    spec = TrafficSpec(
        tenants=tuple(
            TenantSpec(
                index,
                service=index % len(MODELS),
                mean_interarrival_cycles=mean_interarrival,
                pattern=PATTERNS[index % len(PATTERNS)],
            )
            for index in range(tenants)
        ),
        duration_cycles=duration,
        seed=seed,
    )
    return generate_jobs(spec)[:jobs]


def assignments_from_plan(farm: Farm, plan: Sequence) -> list[NodeAssignment]:
    """One ``NodeAssignment`` per node of a dispatch plan, as ``Farm.serve``
    builds them (dispatch order within a node)."""
    per_node: dict[int, list[tuple[int, int, int]]] = {}
    for item in sorted(plan, key=lambda d: (d.dispatch_cycle, d.job.job_id)):
        per_node.setdefault(item.node, []).append(
            (item.job.job_id, item.job.service, item.dispatch_cycle)
        )
    return [
        NodeAssignment(
            node=node,
            config=farm.node_configs[node],
            services=farm.services,
            dispatches=tuple(dispatches),
            vi_mode=farm.vi_mode,
        )
        for node, dispatches in sorted(per_node.items())
    ]


def mismatches(outcomes: Sequence, golden: Sequence) -> int:
    """Outcomes that differ from the golden run's, position by position."""
    if len(outcomes) != len(golden):
        return max(len(outcomes), len(golden))
    return sum(1 for got, want in zip(outcomes, golden) if got != want)


def pick(durations: dict[str, float], *names: str) -> dict[str, float]:
    return {name: durations[name] for name in names if name in durations}


class _Serving(Workload):
    """What the three share: a seeded day, and the serving facts of it."""

    def generate_day(self) -> None:
        sizes = self.sizes
        with self.ctx.span("farm.traffic.generate_s"):
            self.jobs = day(
                self.ctx.seed,
                tenants=sizes["tenants"],
                jobs=sizes["jobs"],
                mean_interarrival=sizes["mean_interarrival"],
            )

    def observe(self, out: Any) -> dict[str, float]:
        report = out.report
        return {
            "work": len(self.jobs),
            "sim_final_cycles": report.makespan_cycles,
            "slo_attainment_pct": 100.0 * report.overall_attainment,
            "gold_p99_cycles": report.by_class("gold").p99_cycles,
        }

    def setup_layers(self, durations: dict[str, float]) -> dict[str, float]:
        layers = pick(
            durations,
            "farm.traffic.generate_s",
            "farm.view_build_s",
            "farm.serve_serial_s",
        )
        layers["farm.traffic.jobs"] = len(self.jobs)
        return layers


class FarmDay(_Serving):
    name = "farm_day"
    root_span = "farm.serve_parallel_s"

    def setup(self) -> None:
        self.generate_day()
        clear_compile_memo()  # every set-up pays the view's compiles
        with self.ctx.span("farm.view_build_s"):
            self.farm = Farm(
                default_design_grid(), SERVING_SERVICES, PredictiveScheduler()
            )
        start = time.perf_counter()
        with self.ctx.span("farm.serve_serial_s"):
            self.golden = self.farm.serve(self.jobs)
        self.serial_s = time.perf_counter() - start

    def prepare(self) -> None:
        self.rep()  # discarded warm-up

    def rep(self) -> Any:
        targets = (
            (Farm, "plan", "farm.scheduler.plan_s"),
            (farm_module, "join_outcomes", "farm.metrics.join_s"),
            (farm_module, "build_report", "farm.metrics.report_s"),
        )
        with self.ctx.patched(targets):
            return self.farm.serve(self.jobs, max_workers=self.sizes["workers"])

    def check(self, out: Any) -> tuple[int, int]:
        return len(self.jobs), mismatches(out.outcomes, self.golden.outcomes)

    def layers(self, durations: dict[str, float], out: Any) -> dict[str, float]:
        layers = pick(
            durations,
            "farm.scheduler.plan_s",
            "farm.metrics.join_s",
            "farm.metrics.report_s",
            "farm.serve_parallel_s",
        )
        layers["farm.scheduler.plan_us_per_job"] = (
            1e6 * durations["farm.scheduler.plan_s"] / len(self.jobs)
        )
        return layers

    def probes(self, wall_s: float) -> dict[str, float]:
        """What the workers do, measured in this process node by node, and
        what crossing the process boundary costs in pickling."""
        assignments = assignments_from_plan(self.farm, self.golden.dispatches)
        spent = {"build_system": 0.0, "submit": 0.0, "run": 0.0, "collect": 0.0}
        results = []
        for assignment in assignments:
            marks = [time.perf_counter()]
            system = build_node_system(
                assignment.config, assignment.services, assignment.vi_mode
            )
            marks.append(time.perf_counter())
            per_slot = submit_assignment(assignment, system)
            marks.append(time.perf_counter())
            system.run()
            marks.append(time.perf_counter())
            results.append(collect_assignment(assignment, system, per_slot))
            marks.append(time.perf_counter())
            for key, begin, end in zip(spent, marks, marks[1:]):
                spent[key] += end - begin
        start = time.perf_counter()
        blobs = [pickle.dumps(assignment) for assignment in assignments]
        blobs += [pickle.dumps(result) for result in results]
        for blob in blobs:
            pickle.loads(blob)
        pickle_s = time.perf_counter() - start
        workers = self.sizes["workers"]
        layers = {f"farm.node.{key}_s": value for key, value in spent.items()}
        layers.update(
            {
                "farm.node.us_per_job": 1e6 * sum(spent.values()) / len(self.jobs),
                "farm.node.pickle_bytes": sum(len(blob) for blob in blobs),
                "farm.node.pickle_s": pickle_s,
                # Base = the serial serve of the same day (set-up's golden).
                "farm.parallel_efficiency": self.serial_s / (wall_s * workers),
                "farm.fanout_overhead_s": wall_s - self.serial_s / workers,
            }
        )
        return layers


def eight_node_grid() -> tuple:
    return tuple(default_design_grid()) * 2


class FarmResilient(_Serving):
    name = "farm_resilient"
    root_span = "farm.resilience.serve_s"

    def setup(self) -> None:
        self.generate_day()
        self.resilience = ResilienceConfig(epoch_cycles=self.sizes["epoch_cycles"])
        horizon = self.jobs[-1].arrival_cycle
        self.chaos = ChaosPlan.random_node_kills(
            self.ctx.seed,
            num_nodes=len(eight_node_grid()),
            kills=self.sizes["kills"],
            window=(horizon // 4, 7 * horizon // 12),
        )
        golden = self.serve(chaos=None)
        self.golden_ids = sorted(
            [outcome.job_id for outcome in golden.outcomes]
            + [job.job_id for job in golden.shed]
        )

    def serve(self, chaos: ChaosPlan | None) -> Any:
        # A fresh farm per day: the feedback scheduler learns as it serves.
        with self.ctx.span("farm.view_build_s"):
            farm = Farm(eight_node_grid(), CHAOS_SERVICES, FeedbackScheduler())
        return farm.serve_resilient(
            self.jobs, resilience=self.resilience, chaos=chaos
        )

    def prepare(self) -> None:
        self.rep()  # discarded warm-up

    def rep(self) -> Any:
        targets = (
            (resilience_module, "build_node_system", "farm.node.build_system_s"),
            (MultiTaskSystem, "run", "farm.node.run_s"),
            (PredictiveScheduler, "dispatch", "farm.scheduler.plan_s"),
            (resilience_module, "join_outcomes", "farm.metrics.join_s"),
            (resilience_module, "build_report", "farm.metrics.report_s"),
        )
        with self.ctx.patched(targets):
            return self.serve(self.chaos)

    def check(self, out: Any) -> tuple[int, int]:
        """Zero lost, zero duplicated against the no-fault golden multiset."""
        seen = sorted(
            [outcome.job_id for outcome in out.outcomes]
            + [job.job_id for job in out.shed]
        )
        lost = len(set(self.golden_ids) - set(seen))
        duplicated = len(seen) - len(set(seen))
        return len(self.jobs), lost + duplicated

    def observe(self, out: Any) -> dict[str, float]:
        facts = super().observe(out)
        facts["faults_injected"] = out.resilience.nodes_lost
        return facts

    def layers(self, durations: dict[str, float], out: Any) -> dict[str, float]:
        ledger = out.resilience
        layers = pick(
            durations,
            "farm.view_build_s",
            "farm.node.build_system_s",
            "farm.node.run_s",
            "farm.scheduler.plan_s",
            "farm.metrics.join_s",
            "farm.metrics.report_s",
            "farm.resilience.serve_s",
        )
        layers.update(
            {
                "farm.resilience.us_per_job": 1e6
                * durations["farm.resilience.serve_s"]
                / len(self.jobs),
                "farm.resilience.epochs": ledger.epochs,
                "farm.resilience.migrations": ledger.migrations,
                "farm.resilience.hedges": ledger.hedges_dispatched,
                "farm.resilience.hedges_wasted": ledger.hedges_wasted,
                "farm.resilience.shed": ledger.shed_jobs,
            }
        )
        return layers

    def probes(self, wall_s: float) -> dict[str, float]:
        """Base = the static whole-day plan, served serially, same day."""
        farm = Farm(eight_node_grid(), CHAOS_SERVICES, PredictiveScheduler())
        start = time.perf_counter()
        farm.serve(self.jobs)
        static_s = time.perf_counter() - start
        return {"farm.resilience.overhead_vs_static": wall_s / static_s}


@dataclass
class _GatewayDay:
    root: Path
    journal: Any
    job_ids: list[str]
    outcomes: list
    report: Any
    facts: dict[str, float]


class GatewayRecovery(_Serving):
    name = "gateway_recovery"
    root_span = "serve.gateway.day"

    def setup(self) -> None:
        self.generate_day()
        with self.ctx.span("farm.view_build_s"):
            self.farm = Farm(
                default_design_grid(), CHAOS_SERVICES, PredictiveScheduler()
            )
        start = time.perf_counter()
        with self.ctx.span("farm.serve_serial_s"):
            self.golden = self.farm.serve(self.jobs)
        self.serial_s = time.perf_counter() - start

    def prepare(self) -> None:
        self.check(self.rep())  # discarded warm-up; check removes its files

    def gateway(self, label: str) -> ServeGateway:
        return ServeGateway(
            self.ctx.fresh_dir(label), workers=self.sizes["workers"], backoff_s=0.01
        )

    def rep(self) -> _GatewayDay:
        sizes = self.sizes
        with self.ctx.span("farm.scheduler.plan_s"):
            plan = self.farm.plan(self.jobs)
        assignments = assignments_from_plan(self.farm, plan)
        with self.gateway("gateway") as gateway:
            with self.ctx.span("serve.gateway.submit_s"):
                job_ids = [
                    gateway.submit(
                        JobSpec(
                            assignment=assignment,
                            snapshot_every_cycles=sizes["snapshot_every"],
                            # The last-submitted node dies once, like kill -9.
                            crash_after_snapshots=(
                                sizes["crash_after"]
                                if assignment is assignments[-1]
                                else None
                            ),
                        )
                    )
                    for assignment in assignments
                ]
            with self.ctx.span("serve.gateway.wait"):
                records = [
                    record
                    for job_id in job_ids
                    for record in gateway.result(job_id, timeout=150).records
                ]
        with self.ctx.span("farm.metrics.join_s"):
            outcomes = join_outcomes(self.jobs, records)
        with self.ctx.span("farm.metrics.report_s"):
            report = build_report(
                self.farm.scheduler.name,
                outcomes,
                [service.slo for service in self.farm.services],
                estimates=self.farm.view.estimates,
            )
        return _GatewayDay(gateway.root, gateway.journal, job_ids, outcomes, report, {})

    def check(self, out: _GatewayDay) -> tuple[int, int]:
        """Joined outcomes equal the serial golden, and the journal shows
        exactly one death followed by a resume.  Reads the journal and the
        snapshot directory before removing them."""
        events = list(out.journal.events())
        deaths = [event for event in events if event.kind == WORKER_DEATH]
        resumes = [event for event in events if event.kind == RESUMED]
        recovered = len(deaths) == 1 and bool(resumes)
        files = [path for path in out.root.rglob("*") if path.is_file()]
        snapshots = [path for path in files if path.suffix == ".snap"]
        out.facts = {
            "serve.gateway.worker_deaths": len(deaths),
            "serve.gateway.attempts": sum(
                out.journal.get(job_id).attempts for job_id in out.job_ids
            ),
            "serve.journal.events": len(events),
            "serve.journal.db_bytes": sum(
                path.stat().st_size for path in files if "journal.db" in path.name
            ),
            "serve.snapshot.count": sum(1 for e in events if e.kind == SNAPSHOT),
            "serve.snapshot.bytes": sum(path.stat().st_size for path in snapshots),
        }
        if recovered:
            out.facts["serve.gateway.recovery_ms"] = 1e3 * (
                resumes[0].at - deaths[0].at
            )
        shutil.rmtree(out.root, ignore_errors=True)
        failed = mismatches(out.outcomes, self.golden.outcomes)
        return len(self.jobs) + 1, failed + (0 if recovered else 1)

    def layers(self, durations: dict[str, float], out: _GatewayDay) -> dict[str, float]:
        layers = pick(
            durations,
            "farm.scheduler.plan_s",
            "serve.gateway.submit_s",
            "farm.metrics.join_s",
            "farm.metrics.report_s",
        )
        layers["farm.scheduler.plan_us_per_job"] = (
            1e6 * durations["farm.scheduler.plan_s"] / len(self.jobs)
        )
        layers.update(out.facts)
        return layers

    def probes(self, wall_s: float) -> dict[str, float]:
        """Spawn cost of one worker, and one snapshot written and restored
        in this process on a node system stopped mid-day."""
        assignments = assignments_from_plan(self.farm, self.golden.dispatches)
        largest = max(assignments, key=lambda a: len(a.dispatches))
        single = NodeAssignment(
            node=largest.node,
            config=largest.config,
            services=largest.services,
            dispatches=largest.dispatches[:1],
            vi_mode=largest.vi_mode,
        )
        with self.gateway("spawn") as gateway:
            start = time.perf_counter()
            gateway.result(gateway.submit(JobSpec(assignment=single)), timeout=150)
            spawn_s = time.perf_counter() - start
        shutil.rmtree(gateway.root, ignore_errors=True)

        def node_system() -> MultiTaskSystem:
            return build_node_system(largest.config, largest.services, largest.vi_mode)

        system = node_system()
        submit_assignment(largest, system)
        system.run(until_cycle=largest.dispatches[len(largest.dispatches) // 2][2])
        path = self.ctx.fresh_dir("snapshot") / "mid-day.snap"
        start = time.perf_counter()
        snapshot_system(system, path)
        write_s = time.perf_counter() - start
        fresh = node_system()
        start = time.perf_counter()
        restore_system(fresh, path)
        restore_s = time.perf_counter() - start
        if fresh.clock != system.clock:
            self.notes.append("restored node system is at a different clock")
        return {
            "serve.worker.spawn_s": spawn_s,
            "serve.snapshot.write_s": write_s,
            "serve.snapshot.restore_s": restore_s,
            # Base = the plain serial serve of the same day (set-up's golden).
            "serve.overhead_vs_serve": wall_s / self.serial_s,
        }
