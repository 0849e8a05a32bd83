"""The accelerator farm: heterogeneous nodes, one dispatcher, one serving loop.

A :class:`Farm` serves up to four *services* (model + SLO class — one IAU
priority slot each) on N simulated accelerators with possibly different
:class:`~repro.hw.config.AcceleratorConfig` designs (e.g. the
design-space grid: small, big, high-bandwidth, 2x-parallel).  Every day is
served by one loop (:meth:`Farm._serve`), epoch by epoch:

1. **Plan** — the pluggable :class:`~repro.farm.scheduler.Scheduler`
   plans the epoch's arrivals (node, hand-over cycle) using only the
   stable cycle estimator.  Sequential, fast, deterministic.
2. **Measure** — the hand-overs are submitted in ``(dispatch_cycle,
   job_id)`` order and every node, an exact
   :class:`~repro.runtime.system.MultiTaskSystem`, advances.
3. **Harvest** — completions join their hand-overs per slot, FIFO; one
   exactly-once join and one report close the day.

:meth:`Farm.serve`, :meth:`Farm.serve_durable` and
:meth:`Farm.serve_resilient` are configurations of that loop.  The same
traffic + same scheduler always produces the same report, which is what
makes scheduler comparisons meaningful.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, NoReturn, Protocol, Sequence

from repro.errors import SchedulerError
from repro.estimate import estimate_service_cycles
from repro.farm.metrics import FarmReport, JobOutcome, build_report, join_outcomes
from repro.farm.node import (
    NodeAssignment,
    NodeJobResult,
    ServiceSpec,
    build_node_system,
    compiled_for_services,
    join_slot,
    simulate_node,
)
from repro.farm.resilience import (
    ChaosPlan,
    ResilienceConfig,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.farm.scheduler import Dispatch, FarmView, Scheduler
from repro.farm.traffic import Job
from repro.hw.config import AcceleratorConfig
from repro.iau.unit import MAX_TASKS
from repro.obs.bus import EventBus
from repro.obs.config import ObsConfig
from repro.runtime.system import MultiTaskSystem

if TYPE_CHECKING:  # pragma: no cover - the gateway imports the farm's nodes
    from repro.serve.gateway import ServeGateway

#: Convergence guard of the serving loop: a day that needs more epochs than
#: this is a loop that stopped making progress.
MAX_EPOCHS = 100_000


@dataclass(frozen=True)
class ServeResult:
    """One served day: the dispatch log, the measurements, the report."""

    report: FarmReport
    outcomes: tuple[JobOutcome, ...]
    #: The scheduler's plan; under a resilience policy, every hand-over in
    #: submit order (re-plans and hedge copies included).
    dispatches: tuple[Dispatch, ...]
    #: Jobs a criticality mode switch dropped (accounted, never lost).
    shed: tuple[Job, ...] = ()
    #: The failure ledger of a :meth:`Farm.serve_resilient` day.
    resilience: ResilienceReport | None = None


class NodeBackend(Protocol):
    """What the serving loop needs of the farm's nodes.

    There are exactly two: :class:`_InProcessNodes` and
    :class:`_ShippedNodes`.  The seam is an interface for one reason —
    ``tests/test_farm_loop.py`` drives the real loop and the real
    resilience policy over a thirty-line fake (a job completes at
    ``dispatch_cycle + estimate``; a killed node stops advancing), with no
    compile and no simulator.
    """

    #: Crashed node workers re-attempted while advancing (only the gateway
    #: re-attempts; in-process and pool-shipped nodes report 0).
    retries: int

    def submit(self, dispatch: Dispatch) -> None:
        """Hand one job over to its node at its dispatch cycle."""

    def advance(self, until_cycle: int | None, node: int | None = None) -> None:
        """Run ``node`` (default: all) to ``until_cycle`` (None: until drained)."""

    def hang(self, node: int, until_cycle: int) -> None:
        """``node`` does no work before ``until_cycle`` (a transient stall)."""

    def harvest(self) -> list[NodeJobResult]:
        """Completions since the last call: by node, then slot, then FIFO."""

    def clock(self, node: int) -> int:
        """The simulated cycle ``node`` has reached."""


class _InProcessNodes:
    """Persistent node systems in this process: any number of epochs, and
    per-node obs (the systems stay inspectable as ``farm.node_systems``)."""

    retries = 0

    def __init__(self, farm: "Farm"):
        self.systems = farm.node_systems = [
            build_node_system(config, farm.services, farm.vi_mode, obs=farm.obs)
            for config in farm.node_configs
        ]
        #: Per node and slot: the ``(job_id, dispatch_cycle)`` hand-overs not
        #: yet completed, and how many completed records are already joined.
        self._pending: list[list[deque[tuple[int, int]]]] = [
            [deque() for _ in farm.services] for _ in self.systems
        ]
        self._joined = [[0] * len(farm.services) for _ in self.systems]

    def submit(self, dispatch: Dispatch) -> None:
        job, cycle = dispatch.job, dispatch.dispatch_cycle
        self.systems[dispatch.node].submit(job.service, cycle)
        self._pending[dispatch.node][job.service].append((job.job_id, cycle))

    def advance(self, until_cycle: int | None, node: int | None = None) -> None:
        for system in self.systems if node is None else [self.systems[node]]:
            system.run(until_cycle=until_cycle)

    def hang(self, node: int, until_cycle: int) -> None:
        iau = self.systems[node].iau
        iau.clock = max(iau.clock, until_cycle)

    def harvest(self) -> list[NodeJobResult]:
        results: list[NodeJobResult] = []
        for node, system in enumerate(self.systems):
            for service, pending in enumerate(self._pending[node]):
                records = system.jobs(service)[self._joined[node][service] :]
                self._joined[node][service] += len(records)
                results.extend(join_slot(node, service, pending, records))
        return results

    def clock(self, node: int) -> int:
        return self.systems[node].clock


#: Measures a day's node assignments elsewhere: (results, worker retries).
Measure = Callable[[list[NodeAssignment]], tuple[list[NodeJobResult], int]]


class _ShippedNodes:
    """Nodes measured outside this process (a worker pool, a gateway).

    Buffers the submits into one :class:`NodeAssignment` per node and
    hands them to ``measure`` on ``advance(None)``.  A shipped node replays
    its whole share in one go, so this backend serves the one-epoch
    configuration and refuses everything else.
    """

    def __init__(self, farm: "Farm", measure: Measure):
        if farm.obs is not None:
            raise SchedulerError(
                "per-node obs needs serial serve(): events cannot cross "
                "the worker-process boundary"
            )
        farm.node_systems = None
        self._farm = farm
        self._measure = measure
        self._per_node: dict[int, list[tuple[int, int, int]]] = {}
        self._results: list[NodeJobResult] | None = None
        self.retries = 0

    def _refuse(self, *_: object) -> NoReturn:
        raise SchedulerError("shipped nodes replay one whole-day epoch, once")

    hang = clock = _refuse

    def submit(self, dispatch: Dispatch) -> None:
        if self._results is not None:
            self._refuse()
        job = dispatch.job
        self._per_node.setdefault(dispatch.node, []).append(
            (job.job_id, job.service, dispatch.dispatch_cycle)
        )

    def advance(self, until_cycle: int | None, node: int | None = None) -> None:
        if until_cycle is not None or node is not None or self._results is not None:
            self._refuse()
        farm = self._farm
        assignments = [
            NodeAssignment(
                node, farm.node_configs[node], farm.services, tuple(dispatches),
                farm.vi_mode,
            )
            for node, dispatches in sorted(self._per_node.items())
        ]
        self._results, self.retries = self._measure(assignments)

    def harvest(self) -> list[NodeJobResult]:
        results, self._results = self._results or [], []
        return results


_arrival = attrgetter("arrival_cycle")  # of a Job
_arrival_order = attrgetter("arrival_cycle", "job_id")
_submit_order = attrgetter("dispatch_cycle", "job.job_id")  # of a Dispatch


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
        self.node_configs = tuple(node_configs)
        self.services = tuple(services)
        self.scheduler = scheduler
        self.vi_mode = vi_mode
        self.obs = obs
        #: Farm-level event bus (dispatcher's-eye view: health,
        #: migrations, hedges, mode switches).  Distinct from per-node obs —
        #: node simulations never see it, and it is always on (cheap).
        self.bus = EventBus()
        #: In-process node systems of the last day served (obs inspection);
        #: ``None`` after a day shipped to workers.
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

    def plan(
        self,
        jobs: Sequence[Job],
        nodes: Sequence[int] | None = None,
        available: Sequence[int] | None = None,
    ) -> list[Dispatch]:
        """The scheduler's dispatch plan for a job stream, validated.

        ``nodes`` offers the scheduler only those farm nodes, each free from
        its ``available`` cycle on — how the serving loop re-plans mid-day on
        the healthy survivors.  Dispatches name farm-wide node indexes.
        """
        for job in jobs:
            if not 0 <= job.service < len(self.services):
                raise SchedulerError(
                    f"job {job.job_id} wants service {job.service}, farm has "
                    f"{len(self.services)}"
                )
        view = self._view
        if nodes is not None:
            view = view.restrict(nodes, available)
        name = self.scheduler.name
        plan = self.scheduler.dispatch(list(jobs), view)
        if len(plan) != len(jobs):
            raise SchedulerError(
                f"scheduler {name!r} planned {len(plan)} dispatches for "
                f"{len(jobs)} jobs"
            )
        for dispatch in plan:
            if dispatch.dispatch_cycle < dispatch.job.arrival_cycle:
                raise SchedulerError(
                    f"scheduler {name!r} dispatched job "
                    f"{dispatch.job.job_id} before it arrived"
                )
            if not 0 <= dispatch.node < view.num_nodes:
                raise SchedulerError(
                    f"scheduler {name!r} used node {dispatch.node}, was "
                    f"offered {view.num_nodes}"
                )
        if view.nodes == self._view.nodes:
            return plan
        return [Dispatch(d.job, view.nodes[d.node], d.dispatch_cycle) for d in plan]

    def serve(
        self, jobs: Sequence[Job], *, max_workers: int | None = None
    ) -> ServeResult:
        """Plan the whole day, measure every node exactly, report.

        One whole-day epoch on in-process nodes.  ``max_workers`` > 1 ships
        the nodes to a process pool instead, one worker per node; a worker
        that dies fails the day (:meth:`serve_durable` survives one).  The
        default (None → serial) is required when ``obs`` is set.
        """
        if max_workers is None or max_workers <= 1:
            return self._serve(jobs, _InProcessNodes(self))
        pool = partial(self._measure_parallel, max_workers=max_workers)
        return self._serve(jobs, _ShippedNodes(self, pool))

    def serve_resilient(
        self,
        jobs: Sequence[Job],
        *,
        resilience: ResilienceConfig | None = None,
        chaos: ChaosPlan | None = None,
    ) -> ServeResult:
        """Serve a day in short epochs that survive node loss.

        In-process nodes (per-node obs is allowed) under a
        :class:`~repro.farm.resilience.ResiliencePolicy`: each epoch is
        planned on the nodes currently believed healthy, measured
        completions feed the scheduler's estimate corrections, dead nodes'
        work is migrated, and overdue work on suspect nodes is hedged.
        ``chaos`` applies planned ``kill_node`` faults.
        """
        nodes = _InProcessNodes(self)
        policy = ResiliencePolicy(self, nodes, resilience or ResilienceConfig(), chaos)
        return self._serve(jobs, nodes, policy)

    def serve_durable(
        self,
        jobs: Sequence[Job],
        gateway: "ServeGateway",
        *,
        snapshot_every_cycles: int = 50_000,
        deadline_s: float | None = None,
        timeout_s: float = 600.0,
    ) -> ServeResult:
        """Serve a day through a :class:`~repro.serve.gateway.ServeGateway`.

        The one-epoch loop of :meth:`serve` with its nodes shipped to the
        gateway: each node assignment becomes one journaled gateway job;
        workers checkpoint every ``snapshot_every_cycles`` simulated
        cycles, so a SIGKILLed worker resumes mid-replay instead of
        starting over.  Gateway retries (crash recoveries) surface as
        ``worker_retries`` on the report.  Results are bit-identical to
        :meth:`serve` — the replay is exact either way.
        """
        from repro.serve.worker import JobSpec

        def measure(
            assignments: list[NodeAssignment],
        ) -> tuple[list[NodeJobResult], int]:
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
                results.extend(gateway.result(job_id, timeout=timeout_s).records)
                retries += max(0, gateway.status(job_id).attempts - 1)
            return results, retries

        return self._serve(jobs, _ShippedNodes(self, measure))

    def _serve(
        self,
        jobs: Sequence[Job],
        nodes: NodeBackend,
        policy: ResiliencePolicy | None = None,
    ) -> ServeResult:
        """The serving loop: plan → submit → advance → harvest, per epoch.

        Without a ``policy`` the day is one epoch: every arrival is planned
        once, on all nodes, and every completion counts.  A policy cuts the
        day into epochs and layers resilience on the same phases — it sheds
        before the plan, narrows the plan to healthy nodes, hedges after it,
        applies chaos while the nodes advance, and settles the harvest
        (first result wins, heartbeats, migration).
        """
        # Only epochs need the arrival order; one whole-day epoch hands the
        # scheduler the day as given.
        ordered = list(jobs) if policy is None else sorted(jobs, key=_arrival_order)
        results: list[NodeJobResult] = []
        planned: list[Dispatch] = []
        carry: list[Job] = []  # stranded, or no healthy node: planned next epoch
        shed: list[Job] = [] if policy is None else policy.shed
        submit: Callable[[Dispatch], None] = (
            nodes.submit if policy is None else policy.submit
        )
        index = epochs = 0
        while len(results) + len(shed) < len(ordered):
            epochs += 1
            unserved = len(ordered) - len(results) - len(shed)
            if epochs > MAX_EPOCHS:
                raise SchedulerError(
                    f"serving loop did not converge in {MAX_EPOCHS} epochs "
                    f"({unserved} jobs unaccounted)"
                )
            stop = len(ordered)
            offered: list[int] | None = None  # None: every node of the farm
            free_at: list[int] | None = None
            if policy is not None:
                idle = index < stop and not carry  # nothing waits but arrivals
                epoch_end = policy.open_epoch(_arrival(ordered[index]) if idle else None)
                stop = bisect_left(ordered, epoch_end, index, key=_arrival)
            batch, resort = carry + ordered[index:stop], bool(carry)
            carry, index = [], stop
            if policy is not None:
                batch, offered, free_at = policy.admit(batch, unserved)
            if offered is not None and not offered:
                carry = batch  # every survivor is suspect: wait an epoch
            elif batch:
                if resort:
                    batch.sort(key=_arrival_order)
                plan = self.plan(batch, offered, free_at)
                planned.extend(plan)
                for dispatch in sorted(plan, key=_submit_order):
                    submit(dispatch)
            if policy is None:
                nodes.advance(None)
                results.extend(nodes.harvest())
                break  # one whole-day epoch: anything unaccounted fails the join
            policy.hedge()
            policy.measure()
            results.extend(policy.settle(nodes.harvest(), carry))
        outcomes = join_outcomes(list(jobs), results, shed=shed)
        report = build_report(
            self.scheduler.name,
            outcomes,
            self._view.slos,
            worker_retries=nodes.retries,
            estimates=self._view.estimates,
            shed=shed,
        )
        return ServeResult(
            report=report,
            outcomes=tuple(outcomes),
            dispatches=tuple(planned if policy is None else policy.log),
            shed=tuple(shed),
            resilience=None if policy is None else policy.ledger(epochs, results),
        )

    @staticmethod
    def _measure_parallel(
        assignments: Sequence[NodeAssignment], max_workers: int
    ) -> tuple[list[NodeJobResult], int]:
        """Measure on a process pool: one plain fan-out, no recovery.

        A worker that raises or dies (a dead process breaks the whole
        executor) fails the day with one :class:`SchedulerError` naming the
        failed nodes.  Recovering a dead worker is :meth:`serve_durable`'s
        job: it resumes the node from its last snapshot.
        """
        workers = min(max_workers, len(assignments)) or 1
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(simulate_node, a) for a in assignments]
        errors = [(a.node, f.exception()) for a, f in zip(assignments, futures)]
        failed = [(node, error) for node, error in errors if error is not None]
        if failed:
            raise SchedulerError(
                f"node worker(s) {[node for node, _ in failed]} failed: "
                f"{failed[0][1]!r}; the process pool does not recover a dead "
                "worker (serve_durable resumes it from its last snapshot)"
            ) from failed[0][1]
        return [result for future in futures for result in future.result()], 0
