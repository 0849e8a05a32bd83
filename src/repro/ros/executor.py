"""Discrete-event executor co-simulating ROS callbacks with the accelerator.

Time is the accelerator's cycle counter.  The executor interleaves:

* dispatching due scheduled callbacks (timers, delayed work), which may
  publish messages and submit accelerator jobs, and
* advancing the :class:`~repro.runtime.system.MultiTaskSystem`'s IAU, whose
  job-completion hook schedules the corresponding node callbacks.

The executor's next event *is* the IAU's batch horizon: an instruction may
start while ``iau.clock`` is before the next scheduled callback (or the
``until_cycle`` pause point), which is word for word the contract of
:meth:`~repro.iau.unit.Iau.run_batched`.  Pre-emption eligibility only
changes at arrivals and completions, arrivals only happen inside callbacks,
and a completion is its own ``run_batched`` call — so each loop iteration
retires one whole event-bounded stretch, not one instruction, and stays
cycle- and event-exact against stepping (the ``ros`` / ``dslam`` cells of
``tests/conformance.py``).
Armed runs (event bus, ``FaultPlan``, QoS monitor) take the engine's own
fire-oracle / event-replay / ``step()`` bail-outs; nothing here special-cases
them.

The first mission on a freshly compiled pair pays each program's
:class:`~repro.iau.fastpath.ProgramMeta` build once (about 0.55 s for the
135,809-instruction E10 bench pair; a compile-cache hit arrives primed) and
is still faster cold than the stepped loop was warm (0.61 s against about
1.7 s); every later mission on the pair runs in about 0.06 s.

This reproduces the property INCA needs from ROS — independent threads
issuing accelerator requests at unpredictable times — with a deterministic,
repeatable timeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import RosError
from repro.faults.plan import FaultPlan, FaultSite
from repro.iau.context import JobRecord
from repro.obs.bus import EventBus
from repro.obs.events import EventKind
from repro.qos.config import BackpressureProfile, QueuePolicy
from repro.ros.topic import Delivery, Topic, TopicRegistry
from repro.runtime.system import MultiTaskSystem


@dataclass(order=True)
class _Event:
    cycle: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)


class Executor:
    """One agent's event loop, bound to that agent's accelerator system.

    When the attached system records observability events (or an explicit
    ``bus`` is given), the executor reports every publish and per-subscriber
    delivery on the same bus, stamped at the executor clock.
    """

    def __init__(
        self,
        system: MultiTaskSystem | None = None,
        *,
        bus: EventBus | None = None,
        faults: FaultPlan | None = None,
    ):
        self.system = system
        self.bus = bus if bus is not None else getattr(system, "bus", None)
        #: Message-level fault injection; defaults to the attached system's
        #: plan so one FaultPlan covers the whole agent.
        self.faults = faults if faults is not None else getattr(system, "faults", None)
        self.topics = TopicRegistry()
        self._events: list[_Event] = []
        self._sequence = 0
        self.clock = 0
        #: While dispatching an event, its scheduled cycle — job requests
        #: issued from the callback are back-dated to this (the accelerator
        #: may have been mid-instruction when the event "really" fired).
        self._dispatch_cycle: int | None = None
        self._completion_handlers: dict[int, list[Callable[[JobRecord], None]]] = {}
        if system is not None:
            system.iau.on_complete = self._job_completed

    # -- scheduling --------------------------------------------------------

    def schedule(self, at_cycle: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``at_cycle`` (>= now)."""
        if at_cycle < self.clock:
            raise RosError(
                f"cannot schedule in the past (at {at_cycle}, now {self.clock})"
            )
        heapq.heappush(self._events, _Event(at_cycle, self._sequence, callback))
        self._sequence += 1

    def schedule_after(self, delay_cycles: int, callback: Callable[[], None]) -> None:
        self.schedule(self.clock + delay_cycles, callback)

    def create_timer(
        self, period_cycles: int, callback: Callable[[], None], count: int, offset: int = 0
    ) -> None:
        """Fire ``callback`` ``count`` times, ``period_cycles`` apart.

        ``offset`` is relative to the current clock (the first firing lands
        ``offset`` cycles from now), matching :meth:`schedule_after`.
        """
        if period_cycles <= 0:
            raise RosError(f"timer period must be positive, got {period_cycles}")
        for index in range(count):
            self.schedule(self.clock + offset + index * period_cycles, callback)

    # -- pub/sub ----------------------------------------------------------------

    def set_qos(self, topic_name: str, profile: BackpressureProfile | None) -> None:
        """Attach (or clear) a backpressure profile on a topic.

        Profiled topics bound their in-flight queue and report each
        publish's fate as a :class:`~repro.ros.topic.Delivery`; reliable
        profiles additionally retry dropped transmissions with exponential
        backoff and acknowledge successful ones on the bus.
        """
        self.topics.topic(topic_name).qos = profile

    def publish(self, topic_name: str, message: object) -> Delivery | None:
        """Deliver a message to all subscribers immediately (same timestamp).

        With a fault plan attached, a publish may be dropped (the message is
        lost before delivery) or delayed (delivered ``ros_delay_cycles``
        late); both are recorded with the plan and mirrored on the bus.

        On a topic with a backpressure profile (see :meth:`set_qos`) the
        publish instead goes through the bounded queue and returns a
        :class:`~repro.ros.topic.Delivery`; unprofiled topics keep the
        legacy fire-and-forget path and return ``None``.
        """
        topic = self.topics.topic(topic_name)
        if topic.qos is not None:
            return self._publish_qos(topic, message)
        if self.faults is not None:
            if self.faults.fires(FaultSite.ROS_DROP):
                self._inject(FaultSite.ROS_DROP, topic=topic_name)
                return None
            if self.faults.fires(FaultSite.ROS_DELAY):
                delay = self.faults.ros_delay_cycles
                self._inject(FaultSite.ROS_DELAY, topic=topic_name, delay_cycles=delay)
                # Measure the delay from the dispatching event's logical
                # time, not the (possibly further advanced) wall clock.
                base = (
                    self._dispatch_cycle
                    if self._dispatch_cycle is not None
                    else self.clock
                )
                self.schedule(
                    max(base + delay, self.clock),
                    lambda: self._deliver(topic_name, message),
                )
                return None
        self._deliver(topic_name, message)
        return None

    # -- backpressure ------------------------------------------------------

    def _publish_qos(self, topic: Topic, message: object) -> Delivery:
        profile = topic.qos
        delivery = Delivery(
            topic=topic.name, message=message, enqueued_cycle=self.clock
        )
        if len(topic.pending) >= profile.depth:
            if profile.policy is QueuePolicy.DROP_NEWEST:
                delivery.status = "dropped"
                topic.dropped += 1
                self._emit_qos(
                    EventKind.ROS_QUEUE_DROP,
                    topic=topic.name,
                    policy=profile.policy.value,
                    depth=len(topic.pending),
                )
                return delivery
            victim = topic.pending.popleft()
            victim.status = "dropped"
            topic.dropped += 1
            self._emit_qos(
                EventKind.ROS_QUEUE_DROP,
                topic=topic.name,
                policy=profile.policy.value,
                depth=len(topic.pending) + 1,
            )
        topic.pending.append(delivery)
        self._attempt(topic, delivery)
        return delivery

    def _attempt(self, topic: Topic, delivery: Delivery) -> None:
        if delivery.status != "pending":
            return  # evicted while a retry was in flight
        profile = topic.qos
        delivery.attempts += 1
        if self.faults is not None and self.faults.fires(FaultSite.ROS_DROP):
            self._inject(FaultSite.ROS_DROP, topic=topic.name)
            if profile.reliable:
                self._schedule_retry(topic, delivery)
            else:
                self._finish(topic, delivery, "dropped")
            return
        delay = 0
        if self.faults is not None and self.faults.fires(FaultSite.ROS_DELAY):
            delay = self.faults.ros_delay_cycles
            self._inject(
                FaultSite.ROS_DELAY, topic=topic.name, delay_cycles=delay
            )
        if delay:
            base = (
                self._dispatch_cycle if self._dispatch_cycle is not None else self.clock
            )
            self.schedule(
                max(base + delay, self.clock),
                lambda: self._complete_delivery(topic, delivery),
            )
        else:
            self._complete_delivery(topic, delivery)

    def _complete_delivery(self, topic: Topic, delivery: Delivery) -> None:
        if delivery.status != "pending":
            return
        self._deliver(topic.name, delivery.message)
        delivery.delivered_cycle = self.clock
        self._finish(topic, delivery, "delivered")
        if topic.qos is not None and topic.qos.reliable:
            self._emit_qos(
                EventKind.ROS_ACK,
                topic=topic.name,
                attempts=delivery.attempts,
                latency_cycles=self.clock - delivery.enqueued_cycle,
            )

    def _schedule_retry(self, topic: Topic, delivery: Delivery) -> None:
        profile = topic.qos
        waited = self.clock - delivery.enqueued_cycle
        if (
            delivery.attempts > profile.max_retries
            or waited >= profile.retry_timeout_cycles
        ):
            self._finish(topic, delivery, "failed")
            return
        backoff = profile.retry_base_cycles * (2 ** (delivery.attempts - 1))
        self._emit_qos(
            EventKind.ROS_RETRY,
            topic=topic.name,
            attempt=delivery.attempts,
            backoff_cycles=backoff,
        )
        self.schedule(self.clock + backoff, lambda: self._attempt(topic, delivery))

    def _finish(self, topic: Topic, delivery: Delivery, status: str) -> None:
        delivery.status = status
        try:
            topic.pending.remove(delivery)
        except ValueError:
            pass  # already evicted from the bounded queue

    def _emit_qos(self, kind: EventKind, **data) -> None:
        if self.bus is not None:
            self.bus.emit(kind, cycle=self.clock, **data)

    def _deliver(self, topic_name: str, message: object) -> None:
        topic = self.topics.topic(topic_name)
        if self.bus is None:
            topic.deliver(message)
            return
        self.bus.advance(self.clock)
        self.bus.emit(
            EventKind.ROS_PUBLISH,
            cycle=self.clock,
            topic=topic_name,
            message=type(message).__name__,
            subscribers=len(topic.subscribers),
        )
        topic.deliver(
            message,
            observer=lambda callback: self.bus.emit(
                EventKind.ROS_DELIVER,
                cycle=self.clock,
                topic=topic_name,
                subscriber=getattr(callback, "__qualname__", repr(callback)),
            ),
        )

    def _inject(self, site: FaultSite, **detail) -> None:
        self.faults.record(site, self.clock, **detail)
        if self.bus is not None:
            self.bus.emit(EventKind.FAULT_INJECT, cycle=self.clock, site=site.value, **detail)

    def subscribe(self, topic_name: str, callback) -> None:
        self.topics.topic(topic_name).subscribe(callback)

    # -- accelerator integration ----------------------------------------------------

    def submit_job(
        self, task_id: int, on_done: Callable[[JobRecord], None] | None = None
    ) -> None:
        """Submit one inference on the agent's accelerator, now."""
        if self.system is None:
            raise RosError("this executor has no accelerator system attached")
        if on_done is not None:
            self._completion_handlers.setdefault(task_id, []).append(on_done)
        iau = self.system.iau
        if iau.idle:
            iau.clock = max(iau.clock, self.clock)
        arrival = self._dispatch_cycle if self._dispatch_cycle is not None else self.clock
        iau.request(task_id, at_cycle=arrival)

    def _job_completed(self, task_id: int, job: JobRecord) -> None:
        handlers = self._completion_handlers.get(task_id)
        if handlers:
            handler = handlers.pop(0)
            # Completion callbacks run at the completion timestamp.
            self.schedule(max(self.clock, job.complete_cycle), lambda: handler(job))

    # -- main loop --------------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """True when no event is scheduled and the accelerator is idle."""
        return not self._events and (self.system is None or self.system.iau.idle)

    def run(self, until_cycle: int | None = None, max_steps: int = 500_000_000) -> int:
        """Run events + accelerator until both are drained (or ``until_cycle``).

        A run paused by ``until_cycle`` and resumed by later calls is cycle-
        and event-exact against one uninterrupted ``run()``; check
        :attr:`drained` to distinguish a pause from completion.
        """
        iau = self.system.iau if self.system is not None else None
        steps = 0
        while True:
            steps += 1
            if steps > max_steps:
                raise RosError(f"executor did not finish within {max_steps} steps")
            # An instruction may start while ``iau.clock < horizon``: the
            # next event (or the pause point) is the batch horizon.
            horizon = self._events[0].cycle if self._events else None
            if until_cycle is not None:
                horizon = until_cycle if horizon is None else min(horizon, until_cycle)

            if (
                iau is not None
                and not iau.idle
                and (horizon is None or iau.clock < horizon)
            ):
                # One event-bounded stretch.  A job completion is its own
                # call, so the handlers it schedules are seen before
                # anything else runs.
                iau.run_batched(horizon)
                self.clock = max(self.clock, iau.clock)
                continue

            if not self._events:
                break
            event = self._events[0]
            if until_cycle is not None and event.cycle > until_cycle:
                break
            heapq.heappop(self._events)
            self.clock = max(self.clock, event.cycle)
            if iau is not None and iau.idle:
                iau.clock = max(iau.clock, self.clock)
            self._dispatch_cycle = event.cycle
            try:
                event.callback()
            finally:
                self._dispatch_cycle = None
        if until_cycle is not None:
            self.clock = max(self.clock, until_cycle)
        if iau is not None and self.system.faults is not None and self.drained:
            # The executor drives the IAU directly, bypassing the system's
            # run(); scrub latent DDR corruption here too.  Only once
            # drained: a paused run keeps its pending flips, exactly like
            # MultiTaskSystem.run.
            self.system.ddr.scrub()
        return self.clock
