"""Farm parent-side oracle: the per-job loops the column passes replaced.

``PredictiveScheduler.dispatch``, ``join_outcomes`` and ``build_report``
(with the ``percentile`` it calls), verbatim from when each walked one
job, row or outcome at a time.  Reference only: nothing in ``src/`` calls
this module, and it shares only the record types (``Dispatch``,
``JobOutcome``, ``ClassReport``, ``FarmReport``) with the code it checks,
so agreement with ``repro.farm.scheduler`` / ``repro.farm.metrics`` is
agreement between two derivations (``tests/test_farm.py`` holds them
equal over drawn days).
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence

from repro.errors import SchedulerError
from repro.farm.metrics import ClassReport, FarmReport, JobOutcome
from repro.farm.scheduler import Dispatch, FarmView
from repro.farm.traffic import Job, SloClass


def predictive_dispatch(jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
    """``PredictiveScheduler.dispatch``: a dict of service queues, ``max``
    and ``min`` per decision, one ``Dispatch(...)`` call per job."""
    busy_until = list(view.available)
    nodes = range(view.num_nodes)
    # Per service, once: each node's cost, the token weight, and the
    # negated rank the tie-break prefers high.
    costs = [[view.estimate(n, s) for n in nodes] for s in range(len(view.slos))]
    weights = [slo.weight for slo in view.slos]
    ranks = [-slo.rank for slo in view.slos]
    plan: list[Dispatch] = []
    # Token accrual is linear with one slope per service, so within a
    # service the oldest queued job always holds the most tokens: only
    # each service's head can win, making selection O(services).
    queues: dict[int, deque[Job]] = {}
    queued = 0
    pending = list(jobs)
    total = len(pending)
    index = 0
    now = 0
    while index < total or queued:
        if not queued:
            # Fast-forward to the next arrival.
            now = max(now, pending[index].arrival_cycle)
        # A dispatch decision happens once some node is free; waiting
        # jobs keep accruing tokens until then.
        now = max(now, min(busy_until))
        while index < total and pending[index].arrival_cycle <= now:
            arrived = pending[index]
            queue = queues.get(arrived.service)
            if queue is None:
                queue = queues[arrived.service] = deque()
            queue.append(arrived)
            queued += 1
            index += 1
        if not queued:
            continue
        # The richest head: most tokens, then the more urgent class,
        # then the oldest arrival; a full tie keeps the earlier queue.
        job: Job | None = None
        best_tokens, best_rank, best_arrival = 0.0, 0, 0
        for service, queue in queues.items():
            if not queue:
                continue
            head = queue[0]
            arrival = head.arrival_cycle
            tokens = weights[service] * (now - arrival + 1)
            rank = ranks[service]
            if job is None or tokens > best_tokens or (
                tokens == best_tokens
                and (rank > best_rank or (rank == best_rank and arrival < best_arrival))
            ):
                job, best_tokens, best_rank, best_arrival = head, tokens, rank, arrival
        assert job is not None  # queued > 0
        queues[job.service].popleft()
        queued -= 1
        # Earliest estimated completion; a tie goes to the lower node.
        cost = costs[job.service]
        node, finish = 0, max(now, busy_until[0]) + cost[0]
        for n in nodes[1:]:
            candidate = max(now, busy_until[n]) + cost[n]
            if candidate < finish:
                node, finish = n, candidate
        start = max(now, busy_until[node])
        busy_until[node] = finish
        plan.append(Dispatch(job, node, start))
    return plan


def percentile(values: Sequence[int], p: float) -> int:
    """Nearest-rank percentile of a non-empty sequence.

    The rank is ``ceil(N * p / 100)`` computed in exact arithmetic: ``p``
    is taken at its *decimal* face value (``Fraction(str(p))``), so
    ``p=99.9`` means 999/1000 — not the nearest binary float, whose excess
    ~1e-14 would push the rank from 999 to 1000 at N=1000 under float
    multiply-then-ceil.
    """
    if not values:
        raise SchedulerError("percentile of an empty sequence")
    try:
        fraction = Fraction(str(p))
    except (ValueError, ZeroDivisionError):
        raise SchedulerError(f"p must be in (0, 100], got {p}") from None
    if not 0 < fraction <= 100:
        raise SchedulerError(f"p must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * fraction / 100)
    return ordered[rank - 1]


def build_report(
    scheduler: str,
    outcomes: Sequence[JobOutcome],
    slos: Sequence[SloClass],
    *,
    worker_retries: int = 0,
    estimates: Sequence[Sequence[int]] | None = None,
    shed: Sequence[Job] = (),
) -> FarmReport:
    """Aggregate measured outcomes into the per-class report.

    ``slos`` is indexed by service (service ``k`` belongs to class
    ``slos[k]``); distinct services sharing one class object aggregate
    together.  ``estimates[node][service]`` (the scheduler's planning
    view) enables the plan-vs-measured error columns; ``shed`` lists jobs
    a mode switch dropped, counted per class against attainment.
    """
    by_class: dict[str, list[JobOutcome]] = {}
    class_of: dict[str, SloClass] = {}
    shed_by_class: dict[str, int] = {}
    for outcome in outcomes:
        slo = slos[outcome.service]
        by_class.setdefault(slo.name, []).append(outcome)
        class_of[slo.name] = slo
    for job in shed:
        slo = slos[job.service]
        class_of[slo.name] = slo
        by_class.setdefault(slo.name, [])
        shed_by_class[slo.name] = shed_by_class.get(slo.name, 0) + 1
    classes = []
    for name in sorted(by_class, key=lambda n: class_of[n].rank):
        slo = class_of[name]
        members = by_class[name]
        latencies = [outcome.latency_cycles for outcome in members]
        attained = sum(1 for lat in latencies if lat <= slo.deadline_cycles)
        err_mean: float | None = None
        err_p99: int | None = None
        if estimates is not None and members:
            errors = [
                (o.complete_cycle - o.dispatch_cycle)
                - estimates[o.node][o.service]
                for o in members
            ]
            err_mean = sum(errors) / len(errors)
            err_p99 = percentile(errors, 99)
        classes.append(
            ClassReport(
                slo=slo,
                jobs=len(latencies),
                p50_cycles=percentile(latencies, 50) if latencies else 0,
                p99_cycles=percentile(latencies, 99) if latencies else 0,
                attained=attained,
                shed=shed_by_class.get(name, 0),
                err_mean_cycles=err_mean,
                err_p99_cycles=err_p99,
            )
        )
    makespan = max((o.complete_cycle for o in outcomes), default=0)
    return FarmReport(
        scheduler=scheduler,
        classes=tuple(classes),
        total_jobs=len(outcomes),
        makespan_cycles=makespan,
        worker_retries=worker_retries,
        total_shed=len(shed),
    )


def join_outcomes(
    jobs: Sequence[Job],
    results: Iterable[tuple[int, int, int, int, int, int]],
    *,
    shed: Sequence[Job] = (),
) -> list[JobOutcome]:
    """Join arrivals with node results by ``job_id`` (exactly once each).

    ``results`` are :class:`~repro.farm.node.NodeJobResult` rows from any
    backend (in-process, gateway), read by position.  Every arrival
    must be accounted for exactly once — as a measured completion in
    ``results`` or as a mode-switch victim in ``shed``.  Duplicate
    completions (e.g. both copies of a hedged dispatch reaching the join
    without first-result-wins dedup) raise ``SchedulerError``.
    """
    arrivals = {job.job_id: job for job in jobs}
    shed_ids = set()
    for job in shed:
        if job.job_id in shed_ids:
            raise SchedulerError(f"job {job.job_id} shed twice")
        if job.job_id not in arrivals:
            raise SchedulerError(f"shed record for unknown job {job.job_id}")
        shed_ids.add(job.job_id)
    outcomes: list[JobOutcome] = []
    seen: set[int] = set()
    outcome = tuple.__new__  # C level: one JobOutcome per row, no Python __new__
    for job_id, node, _service, dispatch_cycle, _start, complete_cycle in results:
        if job_id in seen:
            raise SchedulerError(f"job {job_id} completed twice")
        if job_id in shed_ids:
            raise SchedulerError(f"job {job_id} both shed and completed")
        seen.add(job_id)
        job = arrivals.get(job_id)
        if job is None:
            raise SchedulerError(f"completion for unknown job {job_id}")
        outcomes.append(
            outcome(
                JobOutcome,
                (
                    job_id,
                    job.tenant_id,
                    job.service,
                    node,
                    job.arrival_cycle,
                    dispatch_cycle,
                    complete_cycle,
                ),
            )
        )
    if len(outcomes) + len(shed_ids) != len(jobs):
        raise SchedulerError(
            f"{len(jobs)} jobs arrived but {len(outcomes)} completed and "
            f"{len(shed_ids)} were shed"
        )
    outcomes.sort()  # by job_id: the first field, unique
    return outcomes
