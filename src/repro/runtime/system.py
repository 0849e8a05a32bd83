"""Multi-task system: composed DDR + core + IAU + timed request injection.

This is the full-system harness the experiments drive: several compiled
networks attached to priority slots, inference requests arriving at given
cycle times (from the ROS layer or from an experiment script), and the IAU
arbitrating the single accelerator between them.

Observability is configured with one keyword-only options object::

    system = MultiTaskSystem(config, obs=ObsConfig(events=True, metrics=True))
    ...
    system.run()
    print(system.spans(0)[0].format())   # per-job span tree
    print(system.summary())              # per-task text table

Request arrival disciplines are unified behind :meth:`submit` +
:class:`ArrivalPolicy` (the pre-2.0 ``submit_if_free`` / ``submit_periodic``
wrappers and the ``functional:`` / ``trace:`` constructor booleans were
removed in v2.0 — see the README's "Migrating to 2.0").
"""

from __future__ import annotations

import enum
from array import array
from heapq import heappop, heappush
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Literal, Mapping, NamedTuple, Protocol

from repro.accel.core import AcceleratorCore
from repro.compiler.compile import CompiledNetwork, compile_network
from repro.errors import SchedulerError, StateError
from repro.faults.plan import DegradationPolicy, FaultPlan
from repro.hw.config import AcceleratorConfig
from repro.hw.ddr import Ddr
from repro.iau.context import JobRecord
from repro.iau.unit import Iau
from repro.obs.events import EventKind
from repro.nn.graph import NetworkGraph
from repro.obs.bus import EventBus
from repro.obs.config import ObsConfig
from repro.obs.export import summarize
from repro.obs.metrics import Metrics, MetricsSink
from repro.obs.spans import Span, job_spans
from repro.qos.admission import AdmissionController
from repro.qos.config import QosConfig
from repro.qos.monitor import InvariantMonitor
from repro.state import Stateful
from repro.units import MIB

if TYPE_CHECKING:
    from repro.compiler.cache import CompileCache


class ArrivalPolicy(enum.Enum):
    """How :meth:`MultiTaskSystem.submit` interprets a request."""

    #: Schedule one request at ``at_cycle`` (the default).
    AT = "at"
    #: Submit *now* only if the task has no pending or running work —
    #: the frame-dropping discipline soft-real-time nodes use.
    NOW_IF_FREE = "now_if_free"
    #: Schedule ``count`` requests ``period_cycles`` apart, starting at
    #: ``at_cycle``.
    PERIODIC = "periodic"


class TimedRequest(NamedTuple):
    """Something due at a future cycle: the one record of every driver's
    heap (a request's task slot, or a ROS callback, as ``payload``).

    A tuple, so a heap orders ``(cycle, sequence)`` with a C tuple compare
    (sequences are unique: the payload is never compared).
    """

    cycle: int
    sequence: int
    payload: Any


class Clocked(Protocol):
    """What :func:`advance` moves: an IAU, or a system-less ROS executor."""

    clock: int


def advance(
    clocked: Clocked,
    events: list[TimedRequest],
    deliver: Callable[[TimedRequest], object],
    run: Callable[[int | None], bool],
    until: int | None,
    max_steps: int,
) -> int:
    """The clock loop every driver runs on.

    Each iteration delivers every record of the ``events`` heap due by
    ``min(clock, until)``, stops once the clock reaches ``until``, and
    otherwise calls ``run(horizon)`` — one engine call bounded by the next
    record (and ``until``), True when it ran something.  When nothing ran,
    an idle clock fast-forwards to the next record, but only to one at or
    before ``until``; with none left the loop stops.  ``deliver`` may push
    new records (a ROS callback scheduling more work); it must not move the
    clock.

    Returns the number of ``run`` calls that did work, stopping as soon as
    that exceeds ``max_steps`` — the caller raises its own error then.
    """
    steps = 0
    while True:
        clock = clocked.clock
        if until is not None and clock >= until:
            while events and events[0].cycle <= until:
                deliver(heappop(events))
            return steps
        while events and events[0].cycle <= clock:
            deliver(heappop(events))
        horizon = until
        if events and (until is None or events[0].cycle < until):
            horizon = events[0].cycle
        if run(horizon):
            steps += 1
            if steps > max_steps:
                return steps
            continue
        if not events or (until is not None and events[0].cycle > until):
            return steps
        clocked.clock = events[0].cycle


def encode_requests(requests: list[TimedRequest]) -> array[int]:
    """The request heap as one int column of ``(cycle, sequence, task_id)``
    triples, in heap order."""
    # From a list, not the iterator: array's list path is the fast one.
    return array("q", list(chain.from_iterable(requests)))


def decode_requests(column: array[int]) -> list[TimedRequest]:
    """Fresh requests from :func:`encode_requests`: the same heap, entry
    for entry."""
    fields = iter(column)
    return list(map(TimedRequest, fields, fields, fields))


class MultiTaskSystem(Stateful):
    """One accelerator, up to four prioritised tasks, timed job arrivals."""

    #: Scheduler bookkeeping; the request heap is a column field, captured
    #: entry for entry in heap order.
    STATE = ("_requests", "_sequence", "_pending", "shed")
    COLUMNS = {"_requests": (encode_requests, decode_requests)}
    PARTS = ("ddr", "core", "iau", "bus", "metrics", "monitor", "admission", "faults")
    EXTRA = ("fingerprint",)

    def __init__(
        self,
        config: AcceleratorConfig,
        iau_mode: str = "virtual",
        *,
        obs: ObsConfig | None = None,
        faults: FaultPlan | None = None,
        degradation: DegradationPolicy | None = None,
        qos: QosConfig | None = None,
    ):
        self.config = config
        self.obs = obs if obs is not None else ObsConfig()
        self.ddr = Ddr()

        self.bus: EventBus | None = None
        self.metrics: Metrics | None = None
        if self.obs.enabled:
            self.bus = EventBus(record=self.obs.events, sinks=self.obs.sinks)
            if self.obs.metrics:
                self.metrics = Metrics()
                self.bus.attach(MetricsSink(self.metrics))

        #: QoS layer: admission controller + online invariant monitor
        #: (both None unless a QosConfig arms them — the pre-QoS fast path).
        self.qos = qos
        self.admission: AdmissionController | None = None
        self.monitor: InvariantMonitor | None = None
        if qos is not None and qos.wants_admission:
            self.admission = AdmissionController(qos, bus=self.bus)
        if qos is not None and qos.monitor:
            if self.bus is None:
                raise SchedulerError(
                    "qos.monitor needs the event bus: construct with "
                    "obs=ObsConfig(events=True)"
                )
            self.monitor = InvariantMonitor(mode=qos.monitor_mode, bus=self.bus)
            self.bus.attach(self.monitor)

        self.core = AcceleratorCore(config, self.ddr, obs=self.obs, bus=self.bus)
        self.iau = Iau(
            self.core,
            mode=iau_mode,
            bus=self.bus,
            faults=faults,
            qos=qos,
            admission=self.admission,
        )
        self.faults = faults
        self.degradation = degradation
        #: Requests shed by the degradation policy, per task.
        self.shed: dict[int, int] = {}
        self._requests: list[TimedRequest] = []
        self._sequence = 0
        self._task_ids: list[int] = []
        #: Undelivered requests per task (keeps NOW_IF_FREE cheap).
        self._pending: dict[int, int] = {}

    # -- setup -------------------------------------------------------------

    def add_task(
        self,
        task_id: int,
        compiled: CompiledNetwork,
        vi_mode: str = "vi",
        *,
        deadline_cycles: int | None = None,
        priority: int | None = None,
    ) -> None:
        """Attach a compiled network at a priority slot and map its DDR."""
        for region in compiled.layout.ddr.regions():
            self.ddr.adopt(region)
        self.iau.attach_task(
            task_id,
            compiled,
            vi_mode=vi_mode,
            deadline_cycles=deadline_cycles,
            priority=priority,
        )
        self._task_ids.append(task_id)
        self._pending[task_id] = 0
        self.shed[task_id] = 0
        if self.monitor is not None and self.qos is not None:
            if (
                self.qos.admission is not None
                and task_id >= self.qos.min_task_id
            ):
                self.monitor.expect_queue_bound(task_id, self.qos.queue_depth)
            self.monitor.expect_deadline(task_id, deadline_cycles)
            for region in compiled.layout.ddr.regions():
                self.monitor.own_region(region.name, task_id)

    # -- request injection ---------------------------------------------------

    def _schedule(self, task_id: int, at_cycle: int) -> None:
        now = self.iau.clock
        if at_cycle < now:
            raise SchedulerError(f"cannot submit in the past (at {at_cycle}, clock {now})")
        # C-level construction: no Python-level ``__new__`` per request.
        request = tuple.__new__(TimedRequest, (at_cycle, self._sequence, task_id))
        heappush(self._requests, request)
        self._sequence += 1
        self._pending[task_id] += 1

    def submit(
        self,
        task_id: int,
        at_cycle: int = 0,
        *,
        policy: ArrivalPolicy = ArrivalPolicy.AT,
        period_cycles: int | None = None,
        count: int | None = None,
    ) -> bool:
        """Schedule inference request(s) for ``task_id``.

        * ``policy=AT`` (default) — one request at ``at_cycle``;
        * ``policy=NOW_IF_FREE`` — submit at the current clock unless the
          task already has work pending, queued or running (returns whether
          the request was accepted);
        * ``policy=PERIODIC`` — ``count`` requests ``period_cycles`` apart,
          the first at ``at_cycle``.

        Returns True when at least one request was scheduled.  Nothing can
        be submitted before the IAU clock.
        """
        if task_id not in self._task_ids:
            raise SchedulerError(f"no task attached at slot {task_id}")
        if policy is ArrivalPolicy.PERIODIC:
            if period_cycles is None or count is None:
                raise SchedulerError("policy=PERIODIC requires period_cycles and count")
            if period_cycles <= 0:
                raise SchedulerError(f"period must be positive, got {period_cycles}")
            if count <= 0:
                raise SchedulerError(f"count must be positive, got {count}")
            for index in range(count):
                self._schedule(task_id, at_cycle + index * period_cycles)
            return True
        if period_cycles is not None or count is not None:
            raise SchedulerError("period_cycles/count require policy=PERIODIC")
        if policy is ArrivalPolicy.NOW_IF_FREE:
            if self._pending[task_id] or self.iau.context(task_id).runnable:
                return False
            at_cycle = self.iau.clock
        elif policy is not ArrivalPolicy.AT:
            raise SchedulerError(f"unknown arrival policy {policy!r}")  # pragma: no cover
        self._schedule(task_id, at_cycle)
        return True

    # -- simulation ---------------------------------------------------------------

    def _deliver(self, request: TimedRequest) -> None:
        task_id = request.payload
        self._pending[task_id] -= 1
        policy = self.degradation
        if policy is not None and self._degrade(policy, task_id):
            return
        # Back-date to the true arrival: the request may become visible
        # only after the in-flight instruction retires, but its latency
        # clock starts when the interrupt line was raised.
        self.iau.request(task_id, at_cycle=request.cycle)

    def _degrade(self, policy: DegradationPolicy, task_id: int) -> bool:
        """Apply the degradation policy to one arriving request.

        Returns True when the request was shed (not delivered).  May also
        flip the task between its full and down-tiered program depending on
        the backlog.
        """
        if task_id < policy.min_task_id:
            return False
        context = self.iau.context(task_id)
        backlog = context.pending_jobs
        if backlog >= policy.max_pending:
            self.shed[task_id] += 1
            if self.bus is not None:
                self.bus.emit(
                    EventKind.JOB_DEGRADED,
                    cycle=self.iau.clock,
                    task_id=task_id,
                    action="shed",
                    pending=backlog,
                )
            return True
        if policy.downtier_pending is not None:
            want = backlog >= policy.downtier_pending
            if want and not context.want_degraded:
                if context.degraded_program is None:
                    context.degraded_program = context.compiled.program_for(
                        policy.downtier_vi_mode
                    )
                if self.bus is not None:
                    self.bus.emit(
                        EventKind.JOB_DEGRADED,
                        cycle=self.iau.clock,
                        task_id=task_id,
                        action="downtier",
                        pending=backlog,
                    )
            context.want_degraded = want
        return False

    @property
    def done(self) -> bool:
        """True when every request has been delivered and every job drained."""
        return self.iau.idle and not self._requests

    @property
    def clock(self) -> int:
        return self.iau.clock

    def run(
        self,
        max_steps: int = 500_000_000,
        *,
        batched: bool = True,
        until_cycle: int | None = None,
    ) -> int:
        """Run until every request is delivered and every job drained.

        ``batched=True`` (the default) lets the IAU retire provably
        uninterruptible stretches in one step via
        :meth:`~repro.iau.unit.Iau.run_batched`, bounded by the next
        scheduled arrival; it is cycle- and event-exact against
        ``batched=False``, which forces the per-instruction ``step()`` loop
        (the differential-testing reference).

        ``max_steps`` bounds the engine calls that did work, per call of
        this method, not instructions: batched, one call retires a whole
        stretch or steps through one too short to batch.

        ``until_cycle`` pauses the run at the first step boundary at or past
        that clock instead of draining — the serving layer's snapshot
        points.  An accelerator that goes idle before the pause skips ahead
        to the next arrival, even one past the pause, so a snapshot loop or
        a farm epoch crosses a gap in the work in one call.  A chunked run
        (repeated ``until_cycle`` calls) is cycle- and event-exact against
        one uninterrupted ``run()``; check :attr:`done` to distinguish a
        pause from completion.

        Returns the final clock (cycles).
        """
        iau = self.iau
        requests = self._requests
        run = iau.run_batched if batched else lambda horizon: iau.step()
        if advance(iau, requests, self._deliver, run, until_cycle, max_steps) > max_steps:
            raise SchedulerError(f"simulation did not finish in {max_steps} steps")
        if until_cycle is not None and iau.clock < until_cycle and requests:
            iau.clock = requests[0].cycle  # idle before the pause: skip the gap
        if self.faults is not None and self.done:
            # End-of-run ECC scrub: latent DDR corruption must be corrected
            # (or escalate to EccError) before anyone reads results back.
            # A paused run keeps its pending flips — they are part of the
            # snapshot, and the final chunk scrubs exactly like one run.
            self.ddr.scrub()
        return self.iau.clock

    # -- snapshot/restore ------------------------------------------------------

    def _fingerprint(self) -> dict[str, Any]:
        """Structural identity a snapshot must match to be restorable here:
        the accelerator design, the execution mode and the attached task set
        (slot → program variant + length + regions).  All derived from
        construction arguments, never mutated by a run.  *Which* optional
        subsystems are armed needs no entry: it is the state's key set."""
        tasks: dict[int, dict[str, Any]] = {}
        for task_id in self._task_ids:
            context = self.iau.context(task_id)
            tasks[task_id] = {
                "variant": context.variant_key(context.base_program),
                "instructions": len(context.base_program),
                "regions": sorted(
                    region.name for region in context.compiled.layout.ddr.regions()
                ),
            }
        return {
            "config": repr(self.config),
            "iau_mode": self.iau.mode,
            "functional": self.core.functional,
            "degradation": repr(self.degradation),
            "tasks": tasks,
        }

    def state_view(self) -> dict[str, Any]:
        """The full mid-run state as one picklable dict, by reference
        (:meth:`capture_state` is its detached copy).

        Covers the DDR contents, every on-chip buffer, the IAU task table,
        the scheduler bookkeeping (undelivered requests, sequence numbers,
        shed counts) and — when armed — the event stream, metrics,
        invariant monitor, admission controller and fault-plan RNGs, so
        :meth:`restore_state` on an identically-built system continues
        bit-exactly.  See :mod:`repro.serve.snapshot` for the on-disk
        format.
        """
        if self.iau.on_complete is not None:
            raise SchedulerError(
                "cannot snapshot a system with an on_complete hook: "
                "callback closures (e.g. ROS executors) are not serializable"
            )
        state = super().state_view()
        state["fingerprint"] = self._fingerprint()
        return state

    def _check_state(self, state: Mapping[str, Any]) -> None:
        """The snapshot's armed subsystems and structural fingerprint must
        match exactly, otherwise :class:`~repro.errors.SchedulerError` is
        raised before anything is touched."""
        try:
            super()._check_state(state)
        except StateError as exc:
            raise SchedulerError(f"snapshot does not fit this system: {exc}") from exc
        if state["fingerprint"] != self._fingerprint():
            raise SchedulerError(
                "snapshot does not fit this system: the accelerator config, "
                "execution mode or attached task set differs from the "
                "capturing system"
            )

    # -- results -------------------------------------------------------------------

    def jobs(self, task_id: int) -> list[JobRecord]:
        return self.iau.context(task_id).completed

    def job(self, task_id: int, index: int = 0) -> JobRecord:
        completed = self.jobs(task_id)
        if index >= len(completed):
            raise SchedulerError(
                f"task {task_id} completed {len(completed)} job(s), wanted #{index}"
            )
        return completed[index]

    def spans(self, task_id: int | None = None) -> list[Span]:
        """Per-job span trees derived from the recorded events."""
        if self.bus is None:
            raise SchedulerError(
                "no events recorded: construct with obs=ObsConfig(events=True)"
            )
        return job_spans(self.bus, task_id)

    def summary(self) -> str:
        """Plain-text per-task observability summary."""
        if self.bus is None:
            raise SchedulerError(
                "no events recorded: construct with obs=ObsConfig(events=True)"
            )
        return summarize(self.bus)

    def seconds(self, cycles: int) -> float:
        return self.config.clock.cycles_to_s(cycles)


def compile_tasks(
    graphs: list[NetworkGraph],
    config: AcceleratorConfig,
    weights: str = "zeros",
    seed: int = 0,
    gap_bytes: int = 64 * MIB,
    cache: CompileCache | Literal[False] | None = None,
) -> list[CompiledNetwork]:
    """Compile several networks into disjoint DDR windows.

    Each network gets its own base address so a :class:`MultiTaskSystem` can
    adopt all regions into one flat address space.  ``cache`` is forwarded
    to :func:`~repro.compiler.compile.compile_network` (each network is a
    separate cache entry — the base address is part of the key, so any
    prefix change re-keys the networks behind it).
    """
    compiled: list[CompiledNetwork] = []
    base = 0
    for index, graph in enumerate(graphs):
        network = compile_network(
            graph,
            config,
            base_addr=base,
            weights=weights,
            seed=seed + index,
            cache=cache,
        )
        compiled.append(network)
        base = _align_up(network.layout.ddr.base + network.layout.ddr.used_bytes + gap_bytes)
    return compiled


def _align_up(value: int, alignment: int = 1 * MIB) -> int:
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder
