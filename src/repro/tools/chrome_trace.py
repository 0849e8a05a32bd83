"""Chrome-tracing export of an execution's event stream.

Writes the ``chrome://tracing`` / Perfetto JSON format so a pre-emption
schedule can be inspected interactively: one row per task, one duration
event per executed instruction, DDR burst and VI expansion, instants for
pre-emptions and job / ROS traffic, microsecond timestamps at the
accelerator clock.

:func:`write_chrome_trace` accepts an :class:`~repro.obs.bus.EventBus` or a
plain list of :class:`~repro.obs.events.Event`.
"""

from repro.obs.export import write_chrome_trace_events as write_chrome_trace

__all__ = ["write_chrome_trace"]
