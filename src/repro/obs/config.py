"""The options object configuring execution + observability.

``ObsConfig`` replaced the bare ``functional: bool`` / ``trace: bool``
constructor flags that used to be threaded through :class:`AcceleratorCore`
and :class:`MultiTaskSystem` (the booleans were removed in v2.0 — see the
README's "Migrating to 2.0").  One immutable object answers every "what
should this run record?" question:

* ``functional`` — run real int8 arithmetic (vs timing-only);
* ``events`` — record structured events on the system's :class:`EventBus`;
* ``metrics`` — maintain a :class:`~repro.obs.metrics.Metrics` registry;
* ``sinks`` — extra sinks attached to the bus (e.g. ``NullSink`` for
  overhead measurement, a streaming JSONL writer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.bus import Sink


@dataclass(frozen=True)
class ObsConfig:
    """Execution-mode + instrumentation options (keyword-only everywhere)."""

    functional: bool = False
    events: bool = False
    metrics: bool = False
    sinks: tuple[Sink, ...] = field(default_factory=tuple)

    @property
    def enabled(self) -> bool:
        """Whether any instrumentation (hence an event bus) is wanted."""
        return self.events or self.metrics or bool(self.sinks)

    @classmethod
    def off(cls, functional: bool = False) -> ObsConfig:
        """No instrumentation at all (the zero-overhead default)."""
        return cls(functional=functional)

    @classmethod
    def full(cls, functional: bool = False) -> ObsConfig:
        """Everything on: events + metrics."""
        return cls(functional=functional, events=True, metrics=True)
