"""One farm node: a dispatch plan answered on one accelerator.

The dispatch phase (:mod:`repro.farm.scheduler`) plans with estimates;
this module measures.  A node whose every hand-over starts at or after
the previous job's completion runs each job uninterrupted, in exactly its
estimate, and its results are read off the plan as int64 columns:
:func:`answer_plan` for a one-epoch day, and the resilient loop's
:class:`~repro.farm.resilience.ResiliencePolicy` epoch by epoch, with
:func:`overlapping` given each node's carried busy-until cycle.
The shipped schedulers never put two jobs on one node, so on a
timing-only day without a hang no node is simulated.  Any other node is
an unchanged :class:`~repro.runtime.system.MultiTaskSystem`, also the
oracle the plan is tested against: the farm's services map onto IAU
priority slots (slot = service index, priority = the service's SLO rank),
the planned hand-overs become timed ``submit()`` calls, and the VI
machinery provides pre-emption between SLO classes exactly as it does on
a single robot.

Everything here is picklable on purpose: a :class:`NodeAssignment` is
what a gateway worker (:mod:`repro.serve.worker`) replays, as
:func:`simulate_node` would, for each overlapping node of
``Farm.serve(max_workers=N)`` (on its private gateway) and of
``Farm.serve_durable``.  Workers receive model *names* (zoo builders)
rather than compiled networks — each worker compiles locally, which keeps
the dispatch payload tiny — and send their results back as one int64
block (:func:`encode_results`) rather than one pickled object per job.
The compile itself is reused two ways: within one process,
:func:`compiled_for_services` memoizes ``compile_tasks`` by (config,
model names) so epoch replays on the same node compile once; across
processes, the on-disk :mod:`repro.compiler.cache` (enabled via
``REPRO_COMPILE_CACHE``) makes even the first compile of a fresh worker a
cheap artefact load.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import numpy.typing as npt

from repro.errors import SchedulerError
from repro.hw.config import AcceleratorConfig
from repro.iau.context import JobRecord
from repro.obs.config import ObsConfig
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.farm.traffic import SloClass
from repro.zoo import build_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compile import CompiledNetwork


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


class NodeJobResult(NamedTuple):
    """Exact measured lifecycle of one job on one node (a tuple: one is
    made and pickled per served job)."""

    job_id: int
    node: int
    service: int
    dispatch_cycle: int
    start_cycle: int
    complete_cycle: int


_WIDTH = len(NodeJobResult._fields)

#: Little-endian int64 whatever the host: a block is also pickled into the
#: gateway's journal, a file that may be read on another machine.
_DTYPE = np.dtype("<i8")

Int64s = npt.NDArray[np.int64]  # a plan's or a day's columns


def encode_results(rows: Sequence[NodeJobResult]) -> bytes:
    """Rows as one little-endian int64 block: each :class:`NodeJobResult`
    as its six fields in order, row after row."""
    count = len(rows) * _WIDTH
    return np.fromiter(chain.from_iterable(rows), _DTYPE, count).tobytes()


def results_array(blocks: Iterable[bytes]) -> Int64s:
    """The rows :func:`encode_results` packed into ``blocks``, in order, as
    one int64 ``(n, 6)`` array (columns in :class:`NodeJobResult` field
    order) — what :func:`~repro.farm.metrics.join_outcomes` reads."""
    return np.frombuffer(b"".join(blocks), _DTYPE).reshape(-1, _WIDTH)


def decode_results(block: bytes) -> list[NodeJobResult]:
    """The rows :func:`encode_results` packed into ``block``, in order.

    Each row is built by ``tuple.__new__`` (C level: no Python-level
    ``__new__`` per row)."""
    ints = iter(np.frombuffer(block, _DTYPE).tolist())
    return list(map(tuple.__new__, repeat(NodeJobResult), zip(*[ints] * _WIDTH)))


#: Process-wide memo of :func:`compile_tasks` results keyed by
#: (config, model names).  Bounded LRU: a worker process only ever serves a
#: handful of node shapes, so a small cap keeps replays warm without
#: pinning every configuration a long campaign touches.
_COMPILE_MEMO: OrderedDict[
    tuple[AcceleratorConfig, tuple[str, ...]], list[CompiledNetwork]
] = OrderedDict()
_COMPILE_MEMO_MAX = 8


def compiled_for_services(
    config: AcceleratorConfig, services: tuple[ServiceSpec, ...]
) -> list[CompiledNetwork]:
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
    Each row is built by ``tuple.__new__`` (C level), from a completed
    record, which has both of its cycles set.
    """
    new = tuple.__new__
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
        yield new(
            NodeJobResult,
            (job_id, node, service, cycle, record.start_cycle, record.complete_cycle),
        )


def collect_assignment(
    assignment: NodeAssignment,
    system: MultiTaskSystem,
    per_slot: dict[int, list[tuple[int, int]]],
) -> list[NodeJobResult]:
    """Phase 2 of a replay: join a drained system's records with the plan,
    by slot, then FIFO."""
    results: list[NodeJobResult] = []
    for service, submitted in sorted(per_slot.items()):
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
    """Rebuild, simulate, measure (obs off): what a gateway worker computes
    for ``assignment``, in one process and without snapshots (the tests'
    oracle)."""
    system = build_node_system(
        assignment.config, assignment.services, assignment.vi_mode
    )
    return run_assignment(assignment, system)


def submit_order(plan: Int64s) -> Int64s:
    """``plan`` — a one-epoch day's hand-overs as ``(4, n)`` int64 columns:
    job id, service, node, dispatch cycle — sorted node by node into
    submit order, ``(dispatch_cycle, job_id)``."""
    ids, _, nodes, cycles = plan
    return plan[:, np.lexsort((ids, cycles, nodes))]


def overlapping(ordered: Int64s, ends: Int64s, free: Int64s | None = None) -> npt.NDArray[np.bool_]:
    """Which hand-overs of ``ordered`` (a plan in :func:`submit_order`)
    start before the job handed over before them on their node completes
    at its ``ends`` (exactly at it counts as after).  ``free``, if given,
    is each node's carried busy-until cycle: the first hand-over of a node
    overlaps when it starts before it."""
    _, _, nodes, cycles = ordered
    previous = np.full(len(cycles), np.iinfo(np.int64).min) if free is None else free[nodes]
    same = nodes[1:] == nodes[:-1]
    previous[1:][same] = ends[:-1][same]
    return cycles < previous


def answer_plan(ordered: Int64s, estimates: Int64s) -> tuple[Int64s, Int64s]:
    """The plan-exact nodes of a plan in :func:`submit_order`, answered by
    arithmetic (``estimates[node, service]``: the cycles of one job): their
    int64 ``(n, 6)`` result rows, and the other nodes' hand-overs, which
    must be simulated.  A node is plan-exact when no hand-over on it is
    :func:`overlapping`."""
    ids, services, nodes, cycles = ordered
    ends = cycles + estimates[nodes, services]
    simulated = np.isin(nodes, nodes[overlapping(ordered, ends)])
    rows = np.stack((ids, nodes, services, cycles, cycles, ends), axis=1)[~simulated]
    return rows, ordered[:, simulated]
