"""The accelerator farm: heterogeneous nodes, one dispatcher, one serving loop.

A :class:`Farm` serves up to four *services* (model + SLO class — one IAU
priority slot each) on N simulated accelerators with possibly different
:class:`~repro.hw.config.AcceleratorConfig` designs (e.g. the
design-space grid: small, big, high-bandwidth, 2x-parallel).  Every day is
served by one loop (:meth:`Farm._serve`), epoch by epoch:

1. **Plan** — the pluggable :class:`~repro.farm.scheduler.Scheduler`
   plans the epoch's arrivals (node, hand-over cycle) using only the
   stable cycle estimator.  Sequential, fast, deterministic.  The plan
   is read once into int64 columns and checked on them.
2. **Measure** — every node advances through its hand-overs in
   ``(dispatch_cycle, job_id)`` order: a node whose hand-overs never
   overlap is answered by its plan, in numpy, any other (overlapping,
   hanging, or under per-node obs) is an exact
   :class:`~repro.runtime.system.MultiTaskSystem` (see
   :mod:`repro.farm.node`).  A one-epoch day makes one :data:`Measure`
   call for the nodes to simulate; the resilient loop's simulated nodes
   persist across epochs (:class:`_InProcessNodes`).
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
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from tempfile import TemporaryDirectory
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.errors import SchedulerError
from repro.estimate import estimate_service_cycles
from repro.farm.metrics import FarmReport, JobOutcome, build_report, join_outcomes
from repro.farm.node import (
    Int64s,
    NodeAssignment,
    NodeJobResult,
    ServiceSpec,
    answer_plan,
    build_node_system,
    compiled_for_services,
    encode_results,
    join_slot,
    results_array,
    run_assignment,
    submit_order,
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
    """The nodes the resilient serving loop simulates, epoch by epoch: a
    node whose hand-overs overlap (from its first overlap on), one that
    hangs, and every node under per-node obs.  The loop answers every
    other node by its plan.  :class:`_InProcessNodes` is the one backend
    (a one-epoch day needs none: see :meth:`Farm._answer`).  The seam is
    an interface for one reason — ``tests/test_farm_loop.py`` drives the
    real loop and the real resilience policy over a fake that simulates
    every node (a job completes at ``dispatch_cycle + estimate``; a
    killed node stops advancing), with no compile and no simulator.

    Hand-overs cross the seam as the plan's ``(4, n)`` int64 columns (job
    id, service, node, dispatch cycle) in submit order, completions as
    ``(n, 6)`` int64 result rows (:class:`~repro.farm.node.NodeJobResult`
    field order).
    """

    def simulates(self, node: int) -> bool:
        """Whether ``node`` is simulated here."""

    def take(
        self, node: int, hand_overs: Int64s, harvested: int, until_cycle: int | None
    ) -> None:
        """Simulate ``node`` from now on: replay ``hand_overs`` (every one
        so far, the first ``harvested`` of them already harvested) and run
        to ``until_cycle``, where the loop last advanced it (None: never)."""

    def submit(self, hand_overs: Int64s) -> None:
        """Hand jobs over to their (simulated) nodes at their dispatch cycles."""

    def advance(self, until_cycle: int | None, node: int) -> None:
        """Run ``node`` to ``until_cycle`` (None: until drained)."""

    def hang(self, node: int, until_cycle: int) -> None:
        """``node`` does no work before ``until_cycle`` (a transient stall)."""

    def harvest(self) -> Int64s:
        """Completions since the last call: by node, then slot, then FIFO."""

    def clock(self, node: int) -> int:
        """The simulated cycle ``node`` has reached."""


class _InProcessNodes:
    """The resilient loop's simulated nodes: persistent, in this process,
    for any number of epochs, and with per-node obs.  Nodes in
    ``simulated`` (those that hang), or all under obs, are simulated from
    the start; the loop hands any other node over (:meth:`take`) at its
    first overlap.  ``farm.node_systems`` holds each node's system,
    ``None`` while its plan answers it."""

    def __init__(self, farm: "Farm", simulated: Iterable[int] = ()):
        self._farm = farm
        count = len(farm.node_configs)
        self.systems: list[MultiTaskSystem | None] = [None] * count
        farm.node_systems = self.systems
        #: Per node and slot: the ``(job_id, dispatch_cycle)`` hand-overs not
        #: yet completed, and how many completed records are already joined.
        self._pending: list[list[deque[tuple[int, int]]]] = [
            [deque() for _ in farm.services] for _ in range(count)
        ]
        self._joined = [[0] * len(farm.services) for _ in range(count)]
        empty = np.empty((4, 0), np.int64)
        for node in range(count) if farm.obs is not None else simulated:
            self.take(node, empty, 0, None)

    def simulates(self, node: int) -> bool:
        return self.systems[node] is not None

    def take(
        self, node: int, hand_overs: Int64s, harvested: int, until_cycle: int | None
    ) -> None:
        farm = self._farm
        system = self.systems[node] = build_node_system(
            farm.node_configs[node], farm.services, farm.vi_mode, obs=farm.obs
        )
        for index, (job_id, service, _, cycle) in enumerate(hand_overs.T.tolist()):
            system.submit(service, cycle)
            if index < harvested:
                self._joined[node][service] += 1
            else:
                self._pending[node][service].append((job_id, cycle))
        if until_cycle is not None:
            system.run(until_cycle=until_cycle)

    def submit(self, hand_overs: Int64s) -> None:
        for job_id, service, node, cycle in hand_overs.T.tolist():
            self._system(node).submit(service, cycle)
            self._pending[node][service].append((job_id, cycle))

    def _system(self, node: int) -> MultiTaskSystem:
        system = self.systems[node]
        assert system is not None  # the loop answers the rest
        return system

    def advance(self, until_cycle: int | None, node: int) -> None:
        self._system(node).run(until_cycle=until_cycle)

    def hang(self, node: int, until_cycle: int) -> None:
        iau = self._system(node).iau
        iau.clock = max(iau.clock, until_cycle)

    def harvest(self) -> Int64s:
        results: list[NodeJobResult] = []
        for node, system in enumerate(self.systems):
            if system is None:
                continue
            for service, pending in enumerate(self._pending[node]):
                records = system.jobs(service)[self._joined[node][service] :]
                self._joined[node][service] += len(records)
                results.extend(join_slot(node, service, pending, records))
        return np.array(results, np.int64).reshape(-1, len(NodeJobResult._fields))

    def clock(self, node: int) -> int:
        return self._system(node).clock


#: Measures a one-epoch day's overlapping nodes, one :class:`NodeAssignment`
#: each: (one :func:`encode_results` block per assignment, in order; retries).
Measure = Callable[[list[NodeAssignment]], tuple[list[bytes], int]]


_NO_PLAN: Int64s = np.empty((4, 0), np.int64)
_NO_ROWS: Int64s = np.empty((0, len(NodeJobResult._fields)), np.int64)
_arrival = attrgetter("arrival_cycle")  # of a Job
_job_id = attrgetter("job_id")
_arrival_order = attrgetter("arrival_cycle", "job_id")
_job, _node, _cycle = (itemgetter(i) for i in range(3))  # of a Dispatch
_service = attrgetter("service")
_job_fields = (_job_id, _service, _arrival)


class _Plan(list[Dispatch]):
    """A checked plan: its dispatches, and the same read once into
    ``(4, n)`` int64 columns in plan order — job id, service, farm-wide
    node, dispatch cycle."""

    columns: Int64s = _NO_PLAN


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
        #: In-process node systems of the last day served (obs inspection),
        #: ``None`` for a node its plan answered; ``None`` after a day
        #: shipped to workers.
        self.node_systems: list[MultiTaskSystem | None] | None = None
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
    ) -> "_Plan":
        """The scheduler's dispatch plan for a job stream, validated.

        ``nodes`` offers the scheduler only those farm nodes, each free from
        its ``available`` cycle on — how the serving loop re-plans mid-day on
        the healthy survivors.  Dispatches name farm-wide node indexes.  A
        batch in which two arrivals share a ``job_id`` is refused before
        anything is planned.  The plan carries its int64 columns
        (:attr:`_Plan.columns`).
        """
        self._check_jobs(jobs)
        plan, planned, columns = self._plan(jobs, nodes, available)
        checked = _Plan(
            plan if nodes is None
            else map(tuple.__new__, repeat(Dispatch), zip(planned, *columns[2:].tolist()))
        )
        checked.columns = columns
        return checked

    def _check_jobs(self, jobs: Sequence[Job]) -> None:
        """Refuse jobs the farm cannot plan: one that wants a service the
        farm does not serve, or two arrivals sharing a ``job_id``."""
        services = len(self.services)
        if not set(map(_service, jobs)) <= set(range(services)):
            bad = next(job for job in jobs if not 0 <= job.service < services)
            raise SchedulerError(
                f"job {bad.job_id} wants service {bad.service}, farm has {services}"
            )
        if len(set(map(_job_id, jobs))) != len(jobs):
            seen: set[int] = set()
            for job in jobs:
                if job.job_id in seen:
                    raise SchedulerError(f"job {job.job_id} arrived twice")
                seen.add(job.job_id)

    def _plan(
        self,
        jobs: Sequence[Job],
        nodes: Sequence[int] | None,
        available: Sequence[int] | None,
    ) -> tuple[list[Dispatch], list[Job], Int64s]:
        """:meth:`plan` of checked jobs, before its dispatches name
        farm-wide nodes: the scheduler's plan, its jobs, and its ``(4, n)``
        int64 columns in plan order — job id, service, farm-wide node,
        dispatch cycle.  The plan is read once into the columns, and
        checked on them, each check naming its first offending dispatch."""
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
        planned = list(map(_job, plan))
        ids, kinds, arrivals = (map(field, planned) for field in _job_fields)
        fields = chain(ids, kinds, map(_node, plan), map(_cycle, plan), arrivals)
        columns = np.fromiter(fields, np.int64, 5 * len(plan)).reshape(5, -1)
        early = columns[3] < columns[4]
        bad = early | (columns[2] < 0) | (columns[2] >= view.num_nodes)
        if bad.any():
            dispatch = plan[int(bad.argmax())]
            if early[bad.argmax()]:
                raise SchedulerError(
                    f"scheduler {name!r} dispatched job "
                    f"{dispatch.job.job_id} before it arrived"
                )
            raise SchedulerError(
                f"scheduler {name!r} used node {dispatch.node}, was "
                f"offered {view.num_nodes}"
            )
        if nodes is not None:
            columns[2] = np.array(view.nodes, np.int64)[columns[2]]
        return plan, planned, columns[:4]

    def serve(
        self, jobs: Sequence[Job], *, max_workers: int | None = None
    ) -> ServeResult:
        """Plan the whole day, measure every node exactly, report.

        One whole-day epoch.  Nodes the plan answers cost arithmetic; the
        others (see the module docstring) are simulated in this process,
        or, with ``max_workers`` > 1, shipped to a private
        :class:`~repro.serve.gateway.ServeGateway` of ``min(max_workers,
        nodes)`` workers, built only when there are some.  Its journal is
        a temporary directory that dies with the call, and it takes no
        snapshots: a dead worker is retried from cycle 0 and counted in
        ``report.worker_retries``.  The default (None → serial) is
        required when ``obs`` is set.
        """
        if max_workers is None or max_workers <= 1:
            return self._serve(jobs)

        def measure(assignments: list[NodeAssignment]) -> tuple[list[bytes], int]:
            from repro.serve.gateway import ServeGateway

            workers = min(max_workers, len(assignments))
            with TemporaryDirectory() as root, ServeGateway(root, workers=workers) as gateway:
                # No snapshots, no deadline, no timeout; otherwise the defaults.
                return _on_gateway(gateway, assignments, 0, None, None)

        return self._serve(jobs, measure)

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
        ``chaos`` applies planned ``kill_node`` faults; only a node that
        hangs is simulated from the start (a killed one just stops).
        """
        kills = {} if chaos is None else chaos.node_kills()
        hangs = [node for node, kill in kills.items() if kill.heal_cycle is not None]
        nodes = _InProcessNodes(self, hangs)
        policy = ResiliencePolicy(self, nodes, resilience or ResilienceConfig(), chaos)
        return self._serve(jobs, policy)

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

        The one-epoch day of :meth:`serve` with its overlapping nodes
        shipped to the caller's gateway: each node assignment becomes one
        journaled gateway job; workers checkpoint every
        ``snapshot_every_cycles`` simulated cycles, so a SIGKILLed worker
        resumes mid-replay instead of starting over.  Gateway retries
        (crash recoveries) surface as ``worker_retries`` on the report.
        Results are bit-identical to :meth:`serve` — the replay is exact
        either way.
        """
        def measure(assignments: list[NodeAssignment]) -> tuple[list[bytes], int]:
            return _on_gateway(
                gateway, assignments, snapshot_every_cycles, deadline_s, timeout_s
            )

        return self._serve(jobs, measure)

    def _serve(
        self, jobs: Sequence[Job], how: Measure | ResiliencePolicy | None = None
    ) -> ServeResult:
        """The serving loop: plan → submit → advance → harvest, per epoch;
        then one exactly-once join and one report.

        Without a policy the day is one epoch, planned once on all nodes
        and answered by :meth:`_answer`: its overlapping nodes simulated
        here (``how`` None) or by the :data:`Measure` ``how``.  A
        :class:`ResiliencePolicy` cuts the day into epochs and layers
        resilience on the phases — it sheds before the plan, narrows it to
        healthy nodes, hedges after it, applies chaos while the nodes
        advance, and settles the harvest (first result wins, heartbeats,
        migration).
        """
        shed: list[Job] = []
        epochs = retries = 0
        if not isinstance(how, ResiliencePolicy):
            if how is not None and self.obs is not None:
                raise SchedulerError(
                    "per-node obs needs serial serve(): events cannot cross "
                    "the worker-process boundary"
                )
            self.node_systems = None if how else [None] * len(self.node_configs)
            plan = self.plan(jobs) if jobs else _Plan()
            rows, retries = self._answer(plan.columns, how or self._simulate_here)
            dispatches = tuple(plan)
            del plan  # its columns freed before the outcomes exist: a lower peak
        else:
            self._check_jobs(jobs)  # once: each epoch plans a part of the day
            shed = how.shed
            by_arrival = np.lexsort((list(map(_job_id, jobs)), list(map(_arrival, jobs))))
            ordered = list(map(jobs.__getitem__, by_arrival.tolist()))
            carry: list[Job] = []  # stranded, or no healthy node: planned next epoch
            settled: list[Int64s] = []  # first results, epoch by epoch
            index = served = 0
            while served + len(shed) < len(ordered):
                epochs += 1
                unserved = len(ordered) - served - len(shed)
                if epochs > MAX_EPOCHS:
                    raise SchedulerError(
                        f"serving loop did not converge in {MAX_EPOCHS} epochs "
                        f"({unserved} jobs unaccounted)"
                    )
                idle = index < len(ordered) and not carry  # nothing waits but arrivals
                epoch_end = how.open_epoch(_arrival(ordered[index]) if idle else None)
                stop = bisect_left(ordered, epoch_end, index, key=_arrival)
                batch, resort = carry + ordered[index:stop], bool(carry)
                carry, index = [], stop
                batch, offered, free_at = how.admit(batch, unserved)
                if not offered:
                    carry = batch  # every survivor is suspect: wait an epoch
                elif batch:
                    if resort:
                        batch.sort(key=_arrival_order)
                    _, planned, columns = self._plan(batch, offered, free_at)
                    how.submit_plan(planned, columns)
                how.hedge()
                how.measure()
                settled.append(how.settle(how.nodes.harvest(), carry))
                served += len(settled[-1])
            rows = np.concatenate(settled) if settled else _NO_ROWS
            dispatches = tuple(how.log)
        outcomes = join_outcomes(list(jobs), rows, shed=shed)
        report = build_report(
            self.scheduler.name,
            outcomes.columns,
            self._view.slos,
            worker_retries=retries,
            estimates=self._view.estimates,
            shed=shed,
        )
        return ServeResult(
            report=report,
            outcomes=tuple(outcomes),
            dispatches=dispatches,
            shed=tuple(shed),
            resilience=(
                how.ledger(epochs, rows) if isinstance(how, ResiliencePolicy) else None
            ),
        )

    def _simulate_here(self, assignments: list[NodeAssignment]) -> tuple[list[bytes], int]:
        """The serial :data:`Measure`: each node simulated in this process,
        its system left on ``farm.node_systems``."""
        systems = self.node_systems
        assert systems is not None  # set by _serve()
        blocks = []
        for assignment in assignments:
            system = systems[assignment.node] = build_node_system(
                assignment.config, assignment.services, assignment.vi_mode, obs=self.obs
            )
            blocks.append(encode_results(run_assignment(assignment, system)))
        return blocks, 0

    def _answer(self, plan: Int64s, measure: Measure) -> tuple[Int64s, int]:
        """A one-epoch plan's results as one int64 ``(n, 6)`` array, and
        the worker retries measuring them took: the plan's columns (see
        :meth:`plan`) in submit order, its plan-exact nodes answered by
        :func:`~repro.farm.node.answer_plan`, the others (all, under
        per-node obs) in one ``measure`` call, if any."""
        ordered = submit_order(plan)
        if self.obs is None:
            rows, rest = answer_plan(ordered, np.array(self._view.estimates, np.int64))
            simulated: list[int] = np.unique(rest[2]).tolist()
        else:  # per-node obs: every node is simulated
            rows, rest = _NO_ROWS, ordered
            simulated = list(range(len(self.node_configs)))
        if not simulated:
            return rows, 0
        hand_overs, nodes = rest[[0, 1, 3]].T, rest[2]  # (job_id, service, cycle)
        blocks, retries = measure([
            NodeAssignment(
                node, self.node_configs[node], self.services,
                tuple(map(tuple, hand_overs[nodes == node].tolist())), self.vi_mode,
            )
            for node in simulated
        ])
        return np.concatenate((rows, results_array(blocks))), retries


def _on_gateway(
    gateway: "ServeGateway",
    assignments: list[NodeAssignment],
    snapshot_every_cycles: int,
    deadline_s: float | None,
    timeout_s: float | None,
) -> tuple[list[bytes], int]:
    """Measure ``assignments`` as one gateway job each (the :data:`Measure`
    of both shipped configurations): one :func:`encode_results` block per
    assignment, in order, and the attempts the gateway retried."""
    from repro.serve.worker import JobSpec

    job_ids = [
        gateway.submit(
            JobSpec(assignment=assignment, snapshot_every_cycles=snapshot_every_cycles),
            deadline_s=deadline_s,
        )
        for assignment in assignments
    ]
    blocks: list[bytes] = []
    retries = 0
    for job_id in job_ids:
        blocks.append(encode_results(gateway.result(job_id, timeout=timeout_s).records))
        retries += max(0, gateway.status(job_id).attempts - 1)
    return blocks, retries
