"""Execution traces: what ran when, for latency analysis and debugging.

:class:`ExecutionTrace` predates the unified observability layer
(:mod:`repro.obs`) and is kept as a *thin adapter over the event bus*: it
is a bus sink that materialises ``INSTR_RETIRE`` events into the flat
:class:`TraceEvent` records its query helpers (and the timeline / Chrome
exporters built on them) always consumed.  New code should read bus events
or spans directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.opcodes import Opcode
from repro.state import Shared, Stateful

if TYPE_CHECKING:  # import cycle: obs is imported by accel.core at runtime
    from repro.obs.bus import EventBus
    from repro.obs.events import Event


@dataclass(frozen=True)
class TraceEvent(Shared):
    """One executed instruction with its time span (accelerator cycles)."""

    task_id: int
    program_index: int
    opcode: Opcode
    layer_id: int
    start_cycle: int
    cycles: int

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.cycles


@dataclass
class ExecutionTrace(Stateful):
    """An append-only instruction log with simple queries.

    Acts as an event-bus sink: attach it with ``bus.attach(trace)`` (or
    :meth:`from_bus`) and every ``INSTR_RETIRE`` event becomes a
    :class:`TraceEvent`.  Direct :meth:`record` calls still work for code
    that builds traces by hand.
    """

    STATE = ("events",)

    events: list[TraceEvent] = field(default_factory=list)
    enabled: bool = True

    @classmethod
    def from_bus(cls, bus: "EventBus") -> "ExecutionTrace":
        """Create a trace subscribed to ``bus``."""
        trace = cls()
        bus.attach(trace)
        return trace

    def record(self, event: TraceEvent) -> None:
        if self.enabled:
            self.events.append(event)

    def handle(self, event: "Event") -> None:
        """Bus-sink hook: adapt instruction-retire events, ignore the rest."""
        from repro.obs.events import EventKind

        if event.kind is not EventKind.INSTR_RETIRE:
            return
        self.record(
            TraceEvent(
                task_id=event.task_id if event.task_id is not None else 0,
                program_index=int(event.data.get("program_index", -1)),
                opcode=Opcode[event.data["opcode"]],
                layer_id=event.layer_id if event.layer_id is not None else 0,
                start_cycle=event.cycle,
                cycles=event.duration,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def for_task(self, task_id: int) -> list[TraceEvent]:
        return [event for event in self.events if event.task_id == task_id]

    def first_event_of_task(self, task_id: int) -> TraceEvent | None:
        for event in self.events:
            if event.task_id == task_id:
                return event
        return None

    def total_cycles(self) -> int:
        if not self.events:
            return 0
        return max(event.end_cycle for event in self.events)

    def busy_cycles(self, task_id: int | None = None) -> int:
        return sum(
            event.cycles
            for event in self.events
            if task_id is None or event.task_id == task_id
        )

    def layer_spans(self, task_id: int) -> dict[int, tuple[int, int]]:
        """layer_id -> (first start cycle, last end cycle) for one task."""
        spans: dict[int, tuple[int, int]] = {}
        for event in self.for_task(task_id):
            start, end = spans.get(event.layer_id, (event.start_cycle, event.end_cycle))
            spans[event.layer_id] = (min(start, event.start_cycle), max(end, event.end_cycle))
        return spans
