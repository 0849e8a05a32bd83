"""The event bus: one emission point, pluggable sinks.

Emitters (`Iau`, `AcceleratorCore`, the runtime, the ROS executor) hold a
bus reference that is ``None`` when observability is off, so the disabled
path costs one identity check per hook.  When a bus exists, ``emit``
constructs the :class:`~repro.obs.events.Event` and fans it out:

* to the bus's own in-memory list when ``record=True`` (the default the
  runtime uses — queries and exporters read ``bus.events``), and
* to every attached sink (``NullSink`` for overhead measurement,
  ``MetricsSink`` for the registry, the QoS invariant monitor, …).

The bus carries the emitter's clock (``bus.cycle``, advanced by whoever
owns time — the IAU or the straight-line runner) so components that have no
clock of their own, like the accelerator core, still stamp correctly.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.obs.events import Event, EventKind
from repro.state import Stateful


class Sink(Protocol):
    """Anything that consumes events."""

    def handle(self, event: Event) -> None: ...


class NullSink:
    """Swallows every event: the disabled-but-wired path.

    Used to measure the cost of *emission itself*, separate from the cost
    of recording.  Cycle accounting never depends on instrumentation, so a
    run with a null sink matches an un-instrumented run cycle-for-cycle.
    """

    def handle(self, event: Event) -> None:
        pass


class ListSink:
    """Appends every event to a list (the default recording sink)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)


class CallbackSink:
    """Adapts a plain callable into a sink."""

    def __init__(self, callback: Callable[[Event], None]):
        self._callback = callback

    def handle(self, event: Event) -> None:
        self._callback(event)


class EventBus(Stateful):
    """Cycle-stamped structured event stream with attached sinks."""

    #: The clock and the recorded stream.  Sinks are wiring, not state:
    #: whoever rebuilds the system reattaches them, a restore does *not*
    #: replay into them, and their own state is captured by their owners
    #: (e.g. :class:`~repro.obs.metrics.Metrics`).
    STATE = ("cycle", "events")

    def __init__(self, record: bool = True, sinks: tuple[Sink, ...] = ()):
        self.cycle = 0
        self._record = record
        self.events: list[Event] = []
        self._sinks: list[Sink] = list(sinks)

    # -- wiring ------------------------------------------------------------

    def attach(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Sink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return tuple(self._sinks)

    # -- emission ----------------------------------------------------------

    def advance(self, cycle: int) -> None:
        """Move the bus clock forward (time owners call this; never back)."""
        if cycle > self.cycle:
            self.cycle = cycle

    def emit(
        self,
        kind: EventKind,
        cycle: int | None = None,
        task_id: int | None = None,
        layer_id: int | None = None,
        duration: int = 0,
        **data: Any,
    ) -> Event:
        """Record one event, stamped at ``cycle`` (default: the bus clock)."""
        if cycle is None:
            cycle = self.cycle
        else:
            self.advance(cycle)
        event = Event(
            kind=kind,
            cycle=cycle,
            task_id=task_id,
            layer_id=layer_id,
            duration=duration,
            data=data,
        )
        if self._record:
            self.events.append(event)
        for sink in self._sinks:
            sink.handle(event)
        return event

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, *kinds: EventKind) -> list[Event]:
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    def for_task(self, task_id: int) -> list[Event]:
        return [event for event in self.events if event.task_id == task_id]
