"""Farm days whose nodes overlap, the all-simulated oracle they are
checked against, and a gateway worker that dies once.

A node whose hand-overs never overlap is answered by its plan
(:func:`repro.farm.node.plan_rows`, :class:`repro.farm.node.PlanNode`);
only the others are simulated, or shipped to a gateway.  The shipped
schedulers never overlap, so a test of the simulated or shipped paths
serves one of the schedulers here.  Nothing runs at import.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter

from repro.farm import Dispatch, Farm, NodeAssignment, ResiliencePolicy
from repro.farm.farm import _InProcessNodes
from repro.farm.node import plan_rows
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


def overlapping_nodes(farm: Farm, plan) -> list[int]:
    """The nodes a serve of ``plan`` simulates: those whose hand-overs, in
    submit order, are not all answered by the plan."""
    return [
        a.node
        for a in assignments(farm, sorted(plan, key=_submit_order))
        if plan_rows(a, farm.view.estimates[a.node]) is None
    ]


def plan_exact(farm: Farm, jobs, node: int) -> bool:
    """Whether ``farm.serve(jobs)`` answers ``node`` by its plan."""
    return node not in overlapping_nodes(farm, farm.plan(jobs))


def simulated(farm: Farm, jobs, resilience=None, chaos=None):
    """The day served with every node simulated in this process: the
    oracle of every other path."""
    nodes = _InProcessNodes(farm, range(len(farm.node_configs)))
    if resilience is None:
        return farm._serve(jobs, nodes)
    return farm._serve(jobs, nodes, ResiliencePolicy(farm, nodes, resilience, chaos))


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
