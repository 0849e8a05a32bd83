"""The accelerator farm: heterogeneous nodes, one dispatcher, exact replay.

A :class:`Farm` serves up to four *services* (model + SLO class — one IAU
priority slot each) on N simulated accelerators with possibly different
:class:`~repro.hw.config.AcceleratorConfig` designs (e.g. the
design-space grid: small, big, high-bandwidth, 2x-parallel).  Serving one
day of traffic is two phases:

1. **Dispatch** — the pluggable :class:`~repro.farm.scheduler.Scheduler`
   plans every job's (node, hand-over cycle) using only the stable cycle
   estimator.  Sequential, fast, deterministic.
2. **Measure** — every node replays its share of the plan on an exact
   :class:`~repro.runtime.system.MultiTaskSystem`.  Nodes are independent
   once the plan is fixed, so this phase shards across worker processes
   (``max_workers``); the serial path is bit-identical and is the only
   mode that supports per-node observability (events cannot cross the
   process boundary).

The same traffic + same scheduler always produces the same report, which
is what makes scheduler comparisons meaningful.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import SchedulerError
from repro.estimate import estimate_service_cycles
from repro.farm.metrics import FarmReport, JobOutcome, build_report, join_outcomes
from repro.farm.node import (
    NodeAssignment,
    NodeJobResult,
    ServiceSpec,
    build_node_system,
    compiled_for_services,
    run_assignment,
    simulate_node,
)
from repro.farm.scheduler import Dispatch, FarmView, Scheduler
from repro.farm.traffic import Job
from repro.hw.config import AcceleratorConfig
from repro.iau.unit import MAX_TASKS
from repro.obs.bus import EventBus
from repro.obs.config import ObsConfig
from repro.obs.events import EventKind
from repro.runtime.system import MultiTaskSystem

if TYPE_CHECKING:  # pragma: no cover - resilience imports this module
    from repro.farm.resilience import (
        ChaosPlan,
        ResilienceConfig,
        ResilientServeResult,
    )


@dataclass(frozen=True)
class ServeResult:
    """One scheduler's day: the plan, the measurements, the report."""

    report: FarmReport
    outcomes: tuple[JobOutcome, ...]
    dispatches: tuple[Dispatch, ...]


class Farm:
    """N heterogeneous accelerator nodes serving shared tenant traffic."""

    def __init__(
        self,
        node_configs: Sequence[AcceleratorConfig],
        services: Sequence[ServiceSpec],
        scheduler: Scheduler,
        *,
        vi_mode: str = "vi",
        obs: ObsConfig | None = None,
        measure_retries: int = 1,
        retry_backoff_s: float = 0.0,
    ):
        if not node_configs:
            raise SchedulerError("a farm needs at least one node")
        if not services:
            raise SchedulerError("a farm needs at least one service")
        if len(services) > MAX_TASKS:
            raise SchedulerError(
                f"at most {MAX_TASKS} services (IAU priority slots), "
                f"got {len(services)}"
            )
        if measure_retries < 0:
            raise SchedulerError(
                f"measure_retries must be >= 0, got {measure_retries}"
            )
        if retry_backoff_s < 0:
            raise SchedulerError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self.node_configs = tuple(node_configs)
        self.services = tuple(services)
        self.scheduler = scheduler
        self.vi_mode = vi_mode
        self.obs = obs
        #: Retry budget for crashed measure workers (attempts = 1 + retries).
        self.measure_retries = measure_retries
        #: Base of the exponential backoff between retry attempts (seconds).
        self.retry_backoff_s = retry_backoff_s
        #: Farm-level event bus (dispatcher's-eye view: retries, health,
        #: migrations, hedges, mode switches).  Distinct from per-node obs —
        #: node simulations never see it, and it is always on (cheap).
        self.bus = EventBus()
        #: Serial-mode node systems from the last serve() (obs inspection).
        self.node_systems: list[MultiTaskSystem] | None = None
        self._view = self._build_view()

    def _build_view(self) -> FarmView:
        """Estimate every (node, service) cost once, via the stable API.

        Compiles go through :func:`~repro.farm.node.compiled_for_services`,
        so nodes sharing one config share one compile, and a warm on-disk
        cache (``REPRO_COMPILE_CACHE``) turns the whole pass into artefact
        loads.
        """
        estimates = []
        for config in self.node_configs:
            compiled = compiled_for_services(config, tuple(self.services))
            row = [
                estimate_service_cycles(config, network, self.vi_mode)
                for network in compiled
            ]
            estimates.append(row)
        return FarmView(
            num_nodes=len(self.node_configs),
            slos=[service.slo for service in self.services],
            estimates=estimates,
        )

    @property
    def view(self) -> FarmView:
        return self._view

    def estimate(self, node: int, service: int) -> int:
        """Static cycles of one job of ``service`` on ``node``."""
        return self._view.estimate(node, service)

    def plan(self, jobs: Sequence[Job]) -> list[Dispatch]:
        """Phase 1 only: the scheduler's dispatch plan for a job stream."""
        for job in jobs:
            if not 0 <= job.service < len(self.services):
                raise SchedulerError(
                    f"job {job.job_id} wants service {job.service}, farm has "
                    f"{len(self.services)}"
                )
        plan = self.scheduler.dispatch(list(jobs), self._view)
        if len(plan) != len(jobs):
            raise SchedulerError(
                f"scheduler {self.scheduler.name!r} planned {len(plan)} "
                f"dispatches for {len(jobs)} jobs"
            )
        for dispatch in plan:
            if dispatch.dispatch_cycle < dispatch.job.arrival_cycle:
                raise SchedulerError(
                    f"scheduler {self.scheduler.name!r} dispatched job "
                    f"{dispatch.job.job_id} before it arrived"
                )
            if not 0 <= dispatch.node < len(self.node_configs):
                raise SchedulerError(
                    f"scheduler {self.scheduler.name!r} used node "
                    f"{dispatch.node}, farm has {len(self.node_configs)}"
                )
        return plan

    def _assignments(self, plan: Sequence[Dispatch]) -> list[NodeAssignment]:
        per_node: dict[int, list[tuple[int, int, int]]] = {}
        for dispatch in sorted(plan, key=lambda d: (d.dispatch_cycle, d.job.job_id)):
            per_node.setdefault(dispatch.node, []).append(
                (dispatch.job.job_id, dispatch.job.service, dispatch.dispatch_cycle)
            )
        return [
            NodeAssignment(
                node=node,
                config=self.node_configs[node],
                services=self.services,
                dispatches=tuple(dispatches),
                vi_mode=self.vi_mode,
            )
            for node, dispatches in sorted(per_node.items())
        ]

    def serve(
        self, jobs: Sequence[Job], *, max_workers: int | None = None
    ) -> ServeResult:
        """Both phases: plan, measure every node exactly, report.

        ``max_workers`` > 1 shards the measurement phase one process per
        node; the default (None → serial) is required when ``obs`` is set.
        """
        plan = self.plan(jobs)
        assignments = self._assignments(plan)
        retries = 0
        if max_workers is not None and max_workers > 1:
            if self.obs is not None:
                raise SchedulerError(
                    "per-node obs needs serial mode: events cannot cross "
                    "the worker-process boundary"
                )
            self.node_systems = None
            results, retries = self._measure_parallel(assignments, max_workers)
        else:
            results = self._measure_serial(assignments)
        outcomes = join_outcomes(list(jobs), results)
        report = build_report(
            self.scheduler.name,
            outcomes,
            [s.slo for s in self.services],
            worker_retries=retries,
            estimates=self._view.estimates,
        )
        return ServeResult(
            report=report, outcomes=tuple(outcomes), dispatches=tuple(plan)
        )

    def serve_resilient(
        self,
        jobs: Sequence[Job],
        *,
        resilience: "ResilienceConfig | None" = None,
        chaos: "ChaosPlan | None" = None,
    ) -> "ResilientServeResult":
        """Serve a day through the incremental plan→measure→re-plan loop.

        Unlike :meth:`serve`, the plan is not fixed up front: jobs are
        planned epoch by epoch on the nodes currently believed healthy,
        measured completions feed the scheduler's estimate corrections,
        dead nodes' work is migrated, and overdue work on suspect nodes is
        hedged.  See :mod:`repro.farm.resilience`.
        """
        from repro.farm.resilience import serve_resilient

        return serve_resilient(self, jobs, resilience=resilience, chaos=chaos)

    def serve_durable(
        self,
        jobs: Sequence[Job],
        gateway,
        *,
        snapshot_every_cycles: int = 50_000,
        deadline_s: float | None = None,
        timeout_s: float = 600.0,
    ) -> ServeResult:
        """Serve a day through a :class:`~repro.serve.gateway.ServeGateway`.

        Each node assignment becomes one journaled gateway job; workers
        checkpoint every ``snapshot_every_cycles`` simulated cycles, so a
        SIGKILLed worker resumes mid-replay instead of starting over.
        Gateway retries (crash recoveries) surface as ``worker_retries``
        on the report.  Results are bit-identical to :meth:`serve` — the
        replay is exact either way.
        """
        from repro.serve.worker import JobSpec

        plan = self.plan(jobs)
        assignments = self._assignments(plan)
        if self.obs is not None:
            raise SchedulerError(
                "durable serving shards across processes: per-node obs "
                "needs serial serve()"
            )
        self.node_systems = None
        job_ids = [
            gateway.submit(
                JobSpec(
                    assignment=assignment,
                    snapshot_every_cycles=snapshot_every_cycles,
                ),
                deadline_s=deadline_s,
            )
            for assignment in assignments
        ]
        results: list[NodeJobResult] = []
        retries = 0
        for job_id in job_ids:
            job_result = gateway.result(job_id, timeout=timeout_s)
            results.extend(job_result.records)
            retries += max(0, gateway.status(job_id).attempts - 1)
        outcomes = join_outcomes(list(jobs), results)
        report = build_report(
            self.scheduler.name,
            outcomes,
            [s.slo for s in self.services],
            worker_retries=retries,
            estimates=self._view.estimates,
        )
        return ServeResult(
            report=report, outcomes=tuple(outcomes), dispatches=tuple(plan)
        )

    def _measure_serial(
        self, assignments: Sequence[NodeAssignment]
    ) -> list[NodeJobResult]:
        self.node_systems = []
        results: list[NodeJobResult] = []
        for assignment in assignments:
            system = build_node_system(
                assignment.config,
                assignment.services,
                assignment.vi_mode,
                obs=self.obs,
            )
            self.node_systems.append(system)
            results.extend(run_assignment(assignment, system))
        return results

    def _measure_parallel(
        self, assignments: Sequence[NodeAssignment], max_workers: int
    ) -> tuple[list[NodeJobResult], int]:
        """Shard the measure phase; retry crashed workers up to the budget.

        A worker process that dies (OOM kill, segfaulting extension, bad
        luck) breaks its whole executor — every pending future poisons.
        The replay is deterministic and side-effect free, so failed
        assignments are re-run on a *fresh* executor up to
        ``measure_retries`` more times, sleeping
        ``retry_backoff_s * 2**attempt`` between attempts; each retried
        assignment emits a ``MEASURE_RETRY`` event on the farm bus and the
        total count is surfaced on the report.
        """
        workers = min(max_workers, len(assignments)) or 1
        results, failed = self._measure_attempt(assignments, workers)
        retries = 0
        for attempt in range(self.measure_retries):
            if not failed:
                break
            retries += len(failed)
            for assignment, error in failed:
                self.bus.emit(
                    EventKind.MEASURE_RETRY,
                    node=assignment.node,
                    attempt=attempt + 1,
                    error=repr(error),
                )
            if self.retry_backoff_s:
                time.sleep(self.retry_backoff_s * 2**attempt)
            retried, failed = self._measure_attempt(
                [assignment for assignment, _ in failed], workers
            )
            results.extend(retried)
        if failed:
            nodes = sorted(a.node for a, _ in failed)
            first_error = failed[0][1]
            raise SchedulerError(
                f"{len(failed)} node worker(s) failed after "
                f"{1 + self.measure_retries} attempt(s) (nodes {nodes}): "
                f"{first_error!r}"
            )
        return results, retries

    @staticmethod
    def _measure_attempt(
        assignments: Sequence[NodeAssignment], workers: int
    ) -> tuple[list[NodeJobResult], list[tuple[NodeAssignment, BaseException]]]:
        """One executor pass: completed node results + failed assignments."""
        results: list[NodeJobResult] = []
        failed: list[tuple[NodeAssignment, BaseException]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (assignment, pool.submit(simulate_node, assignment))
                for assignment in assignments
            ]
            for assignment, future in futures:
                try:
                    results.extend(future.result())
                except Exception as exc:  # incl. BrokenExecutor (crashed worker)
                    failed.append((assignment, exc))
        return results, failed
