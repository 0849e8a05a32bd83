"""Online invariant monitor: the runtime watching itself on the event bus.

The monitor is an :class:`~repro.obs.bus.EventBus` sink that replays the
stack's own telemetry against invariants the simulator must hold no matter
what the arrival pattern or fault plan does:

* **cycle monotonicity** — no event may end before the latest stamp already
  seen (back-dated span events end at the emitter's clock, so a genuine
  clock regression is the only way to trip this);
* **preemption pairing** — ``PREEMPT_BEGIN``/``PREEMPT_END`` alternate per
  task, and a job never completes while its task is still marked preempted
  (a missing restore);
* **queue-depth bounds** — submitted-minus-started never goes negative,
  and never exceeds a declared per-task bound (admission control's promise);
* **DDR region ownership** — DMA bursts between a task's preemption and its
  resume must not touch that task's regions from another task's
  instructions (requires the region-owner map the runtime registers);
* **deadline bookkeeping** — ``JOB_COMPLETE`` arithmetic is consistent, a
  ``DEADLINE_MISS`` really overran, and a declared deadline that was
  overrun is never missing its event.

``mode="raise"`` raises :class:`~repro.errors.InvariantViolation` at the
offending event; ``mode="report"`` collects :class:`Violation` records (and
mirrors them as ``INVARIANT_VIOLATION`` bus events when attached to a bus)
so campaigns can count them.  :func:`scan_events` replays a recorded stream
offline — every seeded fault-campaign run is checked this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import InvariantViolation, QosError
from repro.obs.events import Event, EventKind
from repro.state import Stateful


@dataclass(frozen=True)
class Violation:
    """One invariant that did not hold."""

    check: str
    cycle: int
    task_id: int | None
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        task = f" task {self.task_id}" if self.task_id is not None else ""
        return f"[{self.check}]{task} @ {self.cycle}: {self.detail}"


class InvariantMonitor(Stateful):
    """Event-bus sink checking runtime invariants as they stream past."""

    #: The *runtime* state only: the expectation maps (bounds, deadlines,
    #: region owners) are wiring, re-registered by whoever rebuilds the
    #: system's task set.
    STATE = ("violations", "_floor", "_preempted", "_queued", "_missed", "_burst_regions")

    def __init__(
        self,
        *,
        mode: str = "raise",
        queue_bounds: Mapping[int, int] | None = None,
        deadlines: Mapping[int, int] | None = None,
        region_owners: Mapping[str, int] | None = None,
        bus=None,
    ):
        if mode not in ("raise", "report"):
            raise QosError(f"mode must be 'raise' or 'report', got {mode!r}")
        self.mode = mode
        self.queue_bounds = dict(queue_bounds or {})
        self.deadlines = dict(deadlines or {})
        self.region_owners = dict(region_owners or {})
        self.bus = bus
        self.violations: list[Violation] = []
        self._floor = 0
        self._preempted: set[int] = set()
        self._queued: dict[int, int] = {}
        self._missed: dict[int, int] = {}  # task -> DEADLINE_MISS events seen
        self._burst_regions: list[tuple[str, int]] = []  # (region, cycle) buffer

    # -- wiring ------------------------------------------------------------

    def expect_queue_bound(self, task_id: int, depth: int) -> None:
        self.queue_bounds[task_id] = depth

    def expect_deadline(self, task_id: int, deadline_cycles: int | None) -> None:
        if deadline_cycles is None:
            self.deadlines.pop(task_id, None)
        else:
            self.deadlines[task_id] = deadline_cycles

    def own_region(self, region_name: str, task_id: int) -> None:
        self.region_owners[region_name] = task_id

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- sink protocol -----------------------------------------------------

    def handle(self, event: Event) -> None:
        if event.kind is EventKind.INVARIANT_VIOLATION:
            return  # our own mirror events; never re-check them
        self._check_monotonic(event)
        kind = event.kind
        if kind is EventKind.DDR_BURST:
            region = event.data.get("region")
            if region is not None:
                self._burst_regions.append((region, event.cycle))
        elif kind in (EventKind.INSTR_RETIRE, EventKind.VI_EXPAND):
            self._check_burst_ownership(event)
        elif kind is EventKind.PREEMPT_BEGIN:
            self._check_preempt_begin(event)
        elif kind is EventKind.PREEMPT_END:
            self._check_preempt_end(event)
        elif kind is EventKind.JOB_SUBMIT:
            self._track_submit(event)
        elif kind is EventKind.JOB_START:
            self._track_start(event)
        elif kind is EventKind.ADMISSION_DENY:
            # Shed policies evict a job that already counted as submitted.
            if event.data.get("reason") in ("shed_oldest", "shed_newest"):
                task = event.task_id
                self._queued[task] = self._queued.get(task, 0) - 1
        elif kind is EventKind.DEADLINE_MISS:
            self._check_deadline_miss(event)
        elif kind is EventKind.JOB_COMPLETE:
            self._check_complete(event)

    # -- individual checks -------------------------------------------------

    def _fail(self, check: str, event: Event, detail: str) -> None:
        violation = Violation(
            check=check, cycle=event.cycle, task_id=event.task_id, detail=detail
        )
        if self.mode == "raise":
            raise InvariantViolation(str(violation))
        self.violations.append(violation)
        if self.bus is not None:
            self.bus.emit(
                EventKind.INVARIANT_VIOLATION,
                cycle=event.cycle,
                task_id=event.task_id,
                check=check,
                detail=detail,
            )

    def _check_monotonic(self, event: Event) -> None:
        if event.end_cycle < self._floor:
            self._fail(
                "cycle_monotonic",
                event,
                f"{event.kind.value} ends at {event.end_cycle}, "
                f"before the stream's high-water mark {self._floor}",
            )
        if event.cycle > self._floor:
            self._floor = event.cycle

    def _check_preempt_begin(self, event: Event) -> None:
        task = event.task_id
        if task in self._preempted:
            self._fail(
                "preempt_pairing",
                event,
                "PREEMPT_BEGIN while already preempted (no intervening END)",
            )
            return
        self._preempted.add(task)

    def _check_preempt_end(self, event: Event) -> None:
        task = event.task_id
        if task not in self._preempted:
            self._fail(
                "preempt_pairing", event, "PREEMPT_END without a matching BEGIN"
            )
            return
        self._preempted.discard(task)

    def _track_submit(self, event: Event) -> None:
        task = event.task_id
        depth = self._queued.get(task, 0) + 1
        self._queued[task] = depth
        bound = self.queue_bounds.get(task)
        if bound is not None and depth > bound:
            self._fail(
                "queue_bound",
                event,
                f"queue depth {depth} exceeds admission bound {bound}",
            )

    def _track_start(self, event: Event) -> None:
        task = event.task_id
        depth = self._queued.get(task, 0) - 1
        self._queued[task] = depth
        if depth < 0:
            self._fail(
                "queue_accounting", event, "JOB_START without a matching JOB_SUBMIT"
            )

    def _check_burst_ownership(self, event: Event) -> None:
        bursts, self._burst_regions = self._burst_regions, []
        if event.task_id is None or not self.region_owners:
            return
        for region, cycle in bursts:
            owner = self.region_owners.get(region)
            if owner is not None and owner != event.task_id:
                self._fail(
                    "ddr_ownership",
                    event,
                    f"task {event.task_id} burst touched region {region!r} "
                    f"owned by task {owner} (burst at {cycle})",
                )

    def _check_deadline_miss(self, event: Event) -> None:
        task = event.task_id
        self._missed[task] = self._missed.get(task, 0) + 1
        deadline = event.data.get("deadline_cycles")
        turnaround = event.data.get("turnaround_cycles")
        if deadline is not None and turnaround is not None and turnaround <= deadline:
            self._fail(
                "deadline_bookkeeping",
                event,
                f"DEADLINE_MISS with turnaround {turnaround} <= deadline {deadline}",
            )

    def _check_complete(self, event: Event) -> None:
        request = event.data.get("request_cycle")
        response = event.data.get("response_cycles")
        turnaround = event.data.get("turnaround_cycles")
        task = event.task_id
        if task in self._preempted:
            self._fail(
                "preempt_pairing",
                event,
                "JOB_COMPLETE while the task is still marked preempted",
            )
        if request is not None and turnaround is not None:
            if event.cycle - request != turnaround:
                self._fail(
                    "deadline_bookkeeping",
                    event,
                    f"turnaround {turnaround} != complete {event.cycle} - "
                    f"request {request}",
                )
        if response is not None and turnaround is not None and response > turnaround:
            self._fail(
                "deadline_bookkeeping",
                event,
                f"response {response} exceeds turnaround {turnaround}",
            )
        deadline = self.deadlines.get(task)
        if (
            deadline is not None
            and turnaround is not None
            and turnaround > deadline
            and self._missed.get(task, 0) < 1
        ):
            self._fail(
                "deadline_bookkeeping",
                event,
                f"turnaround {turnaround} overran deadline {deadline} "
                "with no DEADLINE_MISS event",
            )
        if deadline is not None and turnaround is not None and turnaround > deadline:
            # Consume one recorded miss so a later unreported overrun still trips.
            self._missed[task] = max(0, self._missed.get(task, 0) - 1)


def scan_events(
    events: Iterable[Event],
    *,
    queue_bounds: Mapping[int, int] | None = None,
    deadlines: Mapping[int, int] | None = None,
    region_owners: Mapping[str, int] | None = None,
) -> list[Violation]:
    """Replay a recorded event stream through a report-mode monitor."""
    monitor = InvariantMonitor(
        mode="report",
        queue_bounds=queue_bounds,
        deadlines=deadlines,
        region_owners=region_owners,
    )
    for event in events:
        monitor.handle(event)
    return monitor.violations
