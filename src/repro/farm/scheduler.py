"""Farm schedulers: one protocol, three policies.

The dispatch phase is a *predictive* planner: it walks virtual time over
the job stream and decides, for every job, which accelerator runs it and
when it is handed over.  Its only model of node speed is the stable
estimator (:func:`repro.estimate.estimate_job_cycles` per ``(node,
service)`` pair).  No policy here puts two jobs on one node, so the
serving loop answers their nodes by the plan (see :mod:`repro.farm.node`
for which nodes are simulated).

Three policies behind one :class:`Scheduler` protocol:

* :class:`FcfsScheduler` — one central FIFO queue; each job goes to the
  node that frees earliest.  Head-of-line blocking under bursts: a bronze
  job at the head delays every gold job behind it.
* :class:`StaticPartitionScheduler` — service ``k`` is pinned to node
  ``k % N`` (spatial isolation).  No cross-service interference, but no
  load sharing either.
* :class:`PredictiveScheduler` — PREMA-style token scheduling: a queued
  job accrues tokens at its SLO class's weight; at every dispatch point
  the richest job runs next, placed on the node with the *earliest
  estimated completion* (heterogeneity-aware: a busy fast node can beat a
  free slow one).  Token accrual bounds bronze starvation — wait buys
  priority.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Protocol, Sequence, runtime_checkable

from repro.errors import SchedulerError
from repro.farm.traffic import Job, SloClass


class Dispatch(NamedTuple):
    """One planned hand-over: job → node at a cycle (a tuple: one is made
    per planned job)."""

    job: Job
    node: int
    dispatch_cycle: int


class FarmView:
    """What a scheduler may know about the farm: sizes and estimates.

    ``available`` is the cycle each node frees up (all zeros for a fresh
    day); the serving loop re-plans mid-day by handing the scheduler a
    view whose nodes are already busy.  ``nodes`` names the farm-wide
    index behind each row: the identity for a whole farm, the surviving
    subset for a view made by :meth:`restrict`.
    """

    def __init__(
        self,
        num_nodes: int,
        slos: Sequence[SloClass],
        estimates: Sequence[Sequence[int]],
        available: Sequence[int] | None = None,
        nodes: Sequence[int] | None = None,
    ):
        if num_nodes < 1:
            raise SchedulerError(f"num_nodes must be >= 1, got {num_nodes}")
        if len(estimates) != num_nodes:
            raise SchedulerError("estimates must have one row per node")
        if available is not None and len(available) != num_nodes:
            raise SchedulerError("available must have one entry per node")
        if nodes is not None and len(nodes) != num_nodes:
            raise SchedulerError("nodes must have one entry per node")
        self.num_nodes = num_nodes
        #: SLO class per service index.
        self.slos = tuple(slos)
        #: ``estimates[node][service]`` — static cycles of one job.
        self.estimates = tuple(tuple(row) for row in estimates)
        #: Cycle each node becomes free (0 = free from the start).
        self.available = (
            tuple(available) if available is not None else (0,) * num_nodes
        )
        #: Farm-wide index of each row.
        self.nodes = tuple(nodes) if nodes is not None else tuple(range(num_nodes))

    def estimate(self, node: int, service: int) -> int:
        return self.estimates[node][service]

    def restrict(
        self, nodes: Sequence[int], available: Sequence[int] | None = None
    ) -> "FarmView":
        """The view of only ``nodes`` (rows of this view), free at ``available``."""
        return FarmView(
            len(nodes),
            self.slos,
            [self.estimates[node] for node in nodes],
            available=available,
            nodes=[self.nodes[node] for node in nodes],
        )


@runtime_checkable
class Scheduler(Protocol):
    """The one interface the farm drives: a name and a dispatch plan."""

    name: str

    def dispatch(self, jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
        """Plan one hand-over per job; jobs arrive sorted by arrival."""
        ...


class FcfsScheduler:
    """Central FIFO queue, earliest-free node."""

    name = "fcfs"

    def dispatch(self, jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
        busy_until = list(view.available)
        plan: list[Dispatch] = []
        for job in jobs:
            node = min(range(view.num_nodes), key=lambda n: (busy_until[n], n))
            start = max(job.arrival_cycle, busy_until[node])
            busy_until[node] = start + view.estimate(node, job.service)
            plan.append(Dispatch(job, node, start))
        return plan


class StaticPartitionScheduler:
    """Service ``k`` pinned to node ``k % N``; per-node FIFO."""

    name = "static-partition"

    def dispatch(self, jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
        busy_until = list(view.available)
        plan: list[Dispatch] = []
        for job in jobs:
            node = job.service % view.num_nodes
            start = max(job.arrival_cycle, busy_until[node])
            busy_until[node] = start + view.estimate(node, job.service)
            plan.append(Dispatch(job, node, start))
        return plan


class PredictiveScheduler:
    """PREMA-style tokens + estimated-completion placement."""

    name = "predictive"

    def dispatch(self, jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
        busy_until = list(view.available)
        slos = view.slos
        # Per service, once: each node's cost.
        costs = [
            [view.estimate(n, s) for n in range(view.num_nodes)]
            for s in range(len(slos))
        ]
        others = range(1, view.num_nodes)
        # Token accrual is linear with one slope per service, so within a
        # service the oldest queued job always holds the most tokens: only
        # each service's head can win, making selection O(services).  The
        # queues are indexed by service; ``heads`` lists the opened ones in
        # first-seen order with their token weight and the negated rank the
        # tie-break prefers high.
        queues: list[deque[Job] | None] = [None] * len(slos)
        heads: list[tuple[deque[Job], float, int]] = []
        plan: list[Dispatch] = []
        append = plan.append
        new = tuple.__new__  # C level: one Dispatch per job, no Python __new__
        total = len(jobs)
        index = queued = now = 0
        while index < total or queued:
            if not queued:
                # Fast-forward to the next arrival.
                arrival = jobs[index].arrival_cycle
                if arrival > now:
                    now = arrival
            # A dispatch decision happens once some node is free; waiting
            # jobs keep accruing tokens until then.
            free = min(busy_until)
            if free > now:
                now = free
            while index < total:
                arrived = jobs[index]
                if arrived.arrival_cycle > now:
                    break
                queue = queues[arrived.service]
                if queue is None:
                    queue = queues[arrived.service] = deque()
                    slo = slos[arrived.service]
                    heads.append((queue, slo.weight, -slo.rank))
                queue.append(arrived)
                queued += 1
                index += 1
            # The richest head: most tokens, then the more urgent class,
            # then the oldest arrival; a full tie keeps the earlier queue.
            job: Job | None = None
            chosen = heads[0][0]
            best_tokens, best_rank, best_arrival = 0.0, 0, 0
            for queue, weight, rank in heads:
                if not queue:
                    continue
                head = queue[0]
                arrival = head.arrival_cycle
                tokens = weight * (now - arrival + 1)
                if job is None or tokens > best_tokens or (
                    tokens == best_tokens
                    and (rank > best_rank or (rank == best_rank and arrival < best_arrival))
                ):
                    job, chosen = head, queue
                    best_tokens, best_rank, best_arrival = tokens, rank, arrival
            assert job is not None  # queued > 0
            chosen.popleft()
            queued -= 1
            # Earliest estimated completion; a tie goes to the lower node.
            cost = costs[job.service]
            start = busy_until[0]
            if start < now:
                start = now
            node, finish = 0, start + cost[0]
            for n in others:
                begin = busy_until[n]
                if begin < now:
                    begin = now
                if begin + cost[n] < finish:
                    node, start, finish = n, begin, begin + cost[n]
            busy_until[node] = finish
            append(new(Dispatch, (job, node, start)))
        return plan
