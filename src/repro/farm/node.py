"""One farm node: exact simulation of a dispatch plan on one accelerator.

The dispatch phase (:mod:`repro.farm.scheduler`) plans with estimates;
this module measures.  Each node is an unchanged
:class:`~repro.runtime.system.MultiTaskSystem`: the farm's services map
onto IAU priority slots (slot = service index, priority = the service's
SLO rank), the planned hand-overs become timed ``submit()`` calls, and the
VI machinery provides pre-emption between SLO classes exactly as it does
on a single robot.

Everything here is picklable on purpose: :func:`simulate_node` is the
``ProcessPoolExecutor`` worker, so a hundred-thousand-job day shards
across one process per accelerator.  Workers receive model *names* (zoo
builders) rather than compiled networks — each worker compiles locally,
which keeps the dispatch payload tiny.  The compile itself is reused two
ways: within one process, :func:`compiled_for_services` memoizes
``compile_tasks`` by (config, model names) so epoch replays and measure
retries on the same node compile once; across processes, the on-disk
:mod:`repro.compiler.cache` (enabled via ``REPRO_COMPILE_CACHE``) makes
even the first compile of a fresh worker a cheap artefact load.
"""

from __future__ import annotations

import os
import signal
from collections import OrderedDict, deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import repro.zoo as zoo
from repro.errors import SchedulerError
from repro.hw.config import AcceleratorConfig
from repro.iau.context import JobRecord
from repro.obs.config import ObsConfig
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.farm.traffic import SloClass


@dataclass(frozen=True)
class ServiceSpec:
    """One served model + its SLO class (picklable worker payload)."""

    name: str
    #: Zoo builder suffix: ``"tiny_cnn"`` → :func:`repro.zoo.build_tiny_cnn`.
    model: str
    slo: SloClass


@dataclass(frozen=True)
class NodeAssignment:
    """Everything one worker needs: the accelerator, the services, the plan."""

    node: int
    config: AcceleratorConfig
    services: tuple[ServiceSpec, ...]
    #: ``(job_id, service, dispatch_cycle)`` in dispatch order.
    dispatches: tuple[tuple[int, int, int], ...]
    vi_mode: str = "vi"


@dataclass(frozen=True)
class NodeJobResult:
    """Exact measured lifecycle of one job on one node."""

    job_id: int
    node: int
    service: int
    dispatch_cycle: int
    start_cycle: int
    complete_cycle: int


def build_graph(model: str):
    """Resolve a zoo model name (``"tiny_cnn"``) to its network graph."""
    builder = getattr(zoo, f"build_{model}", None)
    if builder is None:
        raise SchedulerError(f"unknown zoo model {model!r}")
    return builder()


#: Process-wide memo of :func:`compile_tasks` results keyed by
#: (config, model names).  Bounded LRU: a worker process only ever serves a
#: handful of node shapes, so a small cap keeps replays warm without
#: pinning every configuration a long campaign touches.
_COMPILE_MEMO: OrderedDict = OrderedDict()
_COMPILE_MEMO_MAX = 8


def compiled_for_services(
    config: AcceleratorConfig, services: tuple[ServiceSpec, ...]
) -> list:
    """The compiled networks for one node shape, compiled at most once per
    process.

    Safe to share across systems because farm measurement is timing-only:
    a timing run never writes weight or feature DDR regions, so adopting
    the same compiled networks into consecutive systems is free.  Callers
    that *do* mutate state (functional jobs) must compile fresh — see
    :func:`build_node_system`.
    """
    key = (config, tuple(service.model for service in services))
    hit = _COMPILE_MEMO.get(key)
    if hit is not None:
        _COMPILE_MEMO.move_to_end(key)
        return hit
    graphs = [build_graph(service.model) for service in services]
    compiled = compile_tasks(graphs, config)
    _COMPILE_MEMO[key] = compiled
    if len(_COMPILE_MEMO) > _COMPILE_MEMO_MAX:
        _COMPILE_MEMO.popitem(last=False)
    return compiled


def clear_compile_memo() -> None:
    """Drop the process-wide compile memo (benchmarks and tests)."""
    _COMPILE_MEMO.clear()


def build_node_system(
    config: AcceleratorConfig,
    services: tuple[ServiceSpec, ...],
    vi_mode: str = "vi",
    *,
    obs: ObsConfig | None = None,
) -> MultiTaskSystem:
    """One accelerator with every service attached at its slot."""
    if not services:
        raise SchedulerError("a node needs at least one service")
    if obs is not None and obs.functional:
        # Functional jobs write DDR (inputs, features): they need private
        # networks, never the shared memo.
        graphs = [build_graph(service.model) for service in services]
        compiled = compile_tasks(graphs, config)
    else:
        compiled = compiled_for_services(config, services)
    system = MultiTaskSystem(config, obs=obs)
    for slot, (service, network) in enumerate(zip(services, compiled)):
        system.add_task(slot, network, vi_mode=vi_mode, priority=service.slo.rank)
    return system


def submit_assignment(
    assignment: NodeAssignment,
    system: MultiTaskSystem,
) -> dict[int, list[tuple[int, int]]]:
    """Phase 1 of a replay: schedule every dispatch on a *fresh* system.

    Returns the per-slot ``(job_id, dispatch_cycle)`` expectations that
    :func:`collect_assignment` joins against.  Kept separate from the run
    so the serving layer can submit, then run in snapshot-bounded chunks
    (and a restored system — whose request heap rides in the snapshot —
    skips this phase entirely).
    """
    # Dispatch order, not slot order: the submit sequence number breaks
    # same-cycle ties between slots.
    for _job_id, service, cycle in assignment.dispatches:
        system.submit(service, cycle)
    return expected_per_slot(assignment)


def expected_per_slot(
    assignment: NodeAssignment,
) -> dict[int, list[tuple[int, int]]]:
    """The join expectations alone (for a system restored from snapshot,
    whose pending requests were captured and must not be re-submitted)."""
    per_slot: dict[int, list[tuple[int, int]]] = {}
    for job_id, service, cycle in assignment.dispatches:
        per_slot.setdefault(service, []).append((job_id, cycle))
    return per_slot


def join_slot(
    node: int,
    service: int,
    pending: deque[tuple[int, int]],
    records: Iterable[JobRecord],
) -> Iterator[NodeJobResult]:
    """The per-slot FIFO join: completed records against hand-overs.

    Within one node each service slot serves FIFO and dispatch cycles are
    monotone per slot, so completed ``records`` join with the ``pending``
    ``(job_id, dispatch_cycle)`` hand-overs by order.  Consumes ``pending``
    from the left; whatever is left afterwards has not completed yet.
    """
    for record in records:
        if not pending:
            raise SchedulerError(
                f"node {node} slot {service} completed a job the loop "
                f"never submitted"
            )
        job_id, cycle = pending.popleft()
        if record.request_cycle != cycle:
            raise SchedulerError(
                f"node {node} slot {service}: dispatch/record "
                f"order mismatch at job {job_id}"
            )
        yield NodeJobResult(
            job_id=job_id,
            node=node,
            service=service,
            dispatch_cycle=cycle,
            start_cycle=record.start_cycle,
            complete_cycle=record.complete_cycle,
        )


def collect_assignment(
    assignment: NodeAssignment,
    system: MultiTaskSystem,
    per_slot: dict[int, list[tuple[int, int]]],
) -> list[NodeJobResult]:
    """Phase 2 of a replay: join a drained system's records with the plan."""
    results: list[NodeJobResult] = []
    for service, submitted in per_slot.items():
        pending = deque(submitted)
        completed = system.jobs(service)
        results.extend(join_slot(assignment.node, service, pending, completed))
        if pending:
            raise SchedulerError(
                f"node {assignment.node} slot {service}: submitted "
                f"{len(submitted)} jobs but completed {len(completed)}"
            )
    return results


def run_assignment(
    assignment: NodeAssignment,
    system: MultiTaskSystem,
) -> list[NodeJobResult]:
    """Submit the dispatch plan on a prepared system, run, join records."""
    per_slot = submit_assignment(assignment, system)
    system.run()
    return collect_assignment(assignment, system, per_slot)


def simulate_node(assignment: NodeAssignment) -> list[NodeJobResult]:
    """The process-pool worker: rebuild, simulate, measure (obs off)."""
    _maybe_crash_for_test(assignment)
    system = build_node_system(
        assignment.config, assignment.services, assignment.vi_mode
    )
    return run_assignment(assignment, system)


def _maybe_crash_for_test(assignment: NodeAssignment) -> None:
    """The deterministic worker-crash hook for the farm's retry machinery.

    Inert unless ``REPRO_FARM_CHAOS_DIR`` is set (never in production
    paths).  It names a directory of per-node kill budgets written by
    :meth:`~repro.farm.resilience.ChaosPlan.arm_worker_kills`: a worker
    whose assignment matches an armed ``kill-node-<n>`` file decrements the
    budget (unlinking at zero) and dies by real SIGKILL, exercising the
    exact signal path an OOM killer takes.
    """
    chaos_dir = os.environ.get("REPRO_FARM_CHAOS_DIR")
    if not chaos_dir:
        return
    budget = os.path.join(chaos_dir, f"kill-node-{assignment.node}")
    try:
        remaining = int(open(budget).read().strip() or "0")
    except (FileNotFoundError, ValueError):
        return
    if remaining <= 0:
        return
    # Claim one kill before dying so retries eventually get through.  The
    # claim is rename-based (atomic): concurrent duplicate workers for one
    # node cannot both decrement the same budget.
    claim = budget + ".claim"
    try:
        os.rename(budget, claim)
    except FileNotFoundError:
        return  # another worker claimed the budget first
    if remaining > 1:
        with open(claim, "w") as handle:
            handle.write(str(remaining - 1))
        os.rename(claim, budget)
    else:
        os.unlink(claim)
    os.kill(os.getpid(), signal.SIGKILL)
