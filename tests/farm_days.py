"""Farm days whose nodes overlap, the all-simulated oracle they are
checked against, and a gateway worker that dies once.

A node whose hand-overs never overlap is answered by its plan, as int64
columns (:func:`repro.farm.node.answer_plan` for a one-epoch day,
:class:`repro.farm.resilience.ResiliencePolicy` epoch by epoch); only the
others are simulated, or shipped to a gateway.  The shipped
schedulers never overlap, so a test of the simulated or shipped paths
serves one of the schedulers here.  Nothing runs at import.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter

import numpy as np

from repro.farm import (
    Dispatch,
    Farm,
    NodeAssignment,
    ResiliencePolicy,
    ServeResult,
    build_report,
    join_outcomes,
)
from repro.farm.farm import _InProcessNodes
from repro.farm.node import answer_plan, submit_order
from repro.serve import ServeGateway

_submit_order = attrgetter("dispatch_cycle", "job.job_id")


class AtArrival:
    """Every job handed over at its arrival, alternating between nodes: a
    job lands on a node still running another, which preempts or queues."""

    name = "at-arrival"

    def dispatch(self, jobs, view):
        return [Dispatch(job, job.job_id % view.num_nodes, job.arrival_cycle) for job in jobs]


class HalfAtArrival:
    """Even jobs handed over to node 0 at their arrival, where they
    overlap; odd jobs to the other nodes in turn, each once its node is
    free, so those nodes are answered by their plan.  Needs two nodes."""

    name = "half-at-arrival"

    def dispatch(self, jobs, view):
        free = [0] * view.num_nodes
        plan = []
        for job in jobs:
            if job.job_id % 2 == 0:
                plan.append(Dispatch(job, 0, job.arrival_cycle))
                continue
            node = 1 + job.job_id // 2 % (view.num_nodes - 1)
            cycle = max(job.arrival_cycle, free[node])
            free[node] = cycle + view.estimate(node, job.service)
            plan.append(Dispatch(job, node, cycle))
        return plan


def assignments(farm: Farm, dispatches) -> list[NodeAssignment]:
    """One assignment per node of ``dispatches``, taken in the given order."""
    per_node: dict[int, list[tuple[int, int, int]]] = {}
    for job, node, cycle in dispatches:
        per_node.setdefault(node, []).append((job.job_id, job.service, cycle))
    return [
        NodeAssignment(node, farm.node_configs[node], farm.services, tuple(ds), farm.vi_mode)
        for node, ds in sorted(per_node.items())
    ]


def plan_columns(plan) -> np.ndarray:
    """``plan`` as the ``(4, n)`` int64 columns a one-epoch serve reads:
    job id, service, node, dispatch cycle."""
    return np.array(
        [[d.job.job_id, d.job.service, d.node, d.dispatch_cycle] for d in plan], np.int64
    ).reshape(-1, 4).T


def overlapping_nodes(farm: Farm, plan) -> list[int]:
    """The nodes a serve of ``plan`` simulates: those
    :func:`~repro.farm.node.answer_plan` does not answer."""
    estimates = np.array(farm.view.estimates, np.int64)
    rest = answer_plan(submit_order(plan_columns(plan)), estimates)[1]
    return sorted(set(rest[2].tolist()))


def plan_exact(farm: Farm, jobs, node: int) -> bool:
    """Whether ``farm.serve(jobs)`` answers ``node`` by its plan."""
    return node not in overlapping_nodes(farm, farm.plan(jobs))


def simulated(farm: Farm, jobs, resilience=None, chaos=None):
    """The day served with every node simulated in this process: the
    oracle of every other path.  Without ``resilience`` the one epoch is
    driven here, hand-over by hand-over in submit order, and reported
    from the ``JobOutcome`` rows, not from the plan's or the join's
    columns."""
    nodes = _InProcessNodes(farm, range(len(farm.node_configs)))
    if resilience is not None:
        return farm._serve(jobs, ResiliencePolicy(farm, nodes, resilience, chaos))
    plan = farm.plan(jobs) if jobs else []
    nodes.submit(plan_columns(sorted(plan, key=_submit_order)))
    for node in range(len(farm.node_configs)):
        nodes.advance(None, node)
    outcomes = list(join_outcomes(list(jobs), nodes.harvest()))
    report = build_report(
        farm.scheduler.name, outcomes, farm.view.slos, estimates=farm.view.estimates
    )
    return ServeResult(report, tuple(outcomes), tuple(plan))


def kill_worker_once(monkeypatch, node: int) -> None:
    """Every gateway job of ``node`` snapshots every 20,000 cycles, and on
    its first attempt its worker vanishes like ``kill -9`` after the first
    snapshot (:attr:`~repro.serve.worker.JobSpec.crash_after_snapshots`).
    Patches :meth:`ServeGateway.submit`, so it reaches the private gateway
    of ``Farm.serve(max_workers=N)`` too."""
    submit = ServeGateway.submit

    def crashing(gateway, spec, **kwargs):
        if spec.assignment.node == node:
            spec = replace(spec, snapshot_every_cycles=20_000, crash_after_snapshots=1)
        return submit(gateway, spec, **kwargs)

    monkeypatch.setattr(ServeGateway, "submit", crashing)
