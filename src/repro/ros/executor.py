"""Discrete-event executor co-simulating ROS callbacks with the accelerator.

Time is the accelerator's cycle counter.  Scheduled callbacks (timers,
delayed work, job-completion handlers) are
:class:`~repro.runtime.system.TimedRequest` records, and :meth:`Executor.run`
is the runtime's one clock loop, :func:`~repro.runtime.system.advance`, over
them and the attached system's IAU.  This module supplies only the loop's
``deliver`` — bring the executor clock up to the accelerator's, then run the
callback with its cycle as the logical time the jobs it submits are
back-dated to — and the pause contract: every callback due at or before
``until_cycle`` runs, and nothing moves past it.

The next callback is the IAU's batch horizon.  Pre-emption eligibility only
changes at arrivals and completions, arrivals only happen inside callbacks,
and a completion ends its ``run_batched`` call — so each iteration retires
one whole event-bounded stretch and stays cycle- and event-exact against
stepping (the ``ros`` / ``dslam`` cells of ``tests/conformance.py``).  Armed
runs (event bus, ``FaultPlan``, QoS monitor) take the engine's own
fire-oracle / event-replay / ``step()`` bail-outs; nothing here
special-cases them.  The ``dslam_ros`` workload of ``benchmarks/perf``
times a two-agent mission through this executor.

This reproduces the property INCA needs from ROS — independent threads
issuing accelerator requests at unpredictable times — with a deterministic,
repeatable timeline.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from repro.errors import RosError
from repro.faults.plan import FaultPlan, FaultSite
from repro.iau.context import JobRecord
from repro.obs.bus import EventBus
from repro.obs.events import EventKind
from repro.qos.config import BackpressureProfile, QueuePolicy
from repro.ros.topic import Callback, Delivery, Topic, TopicRegistry
from repro.runtime.system import Clocked, MultiTaskSystem, TimedRequest, advance


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
        self._events: list[TimedRequest] = []
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
        heappush(self._events, TimedRequest(at_cycle, self._sequence, callback))
        self._sequence += 1

    @property
    def _event_cycle(self) -> int:
        """The dispatching event's cycle, else the clock: the logical time
        of whatever a callback issues."""
        return self.clock if self._dispatch_cycle is None else self._dispatch_cycle

    def _delay(self, delay_cycles: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` a delay after the logical time, not after
        the (possibly further advanced) clock."""
        self.schedule(max(self._event_cycle + delay_cycles, self.clock), callback)

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
        backoff and acknowledge successful ones on the bus.  A message
        already published keeps retrying (and acknowledging) under the
        profile it was published with.
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
            return self._publish_qos(topic, topic.qos, message)
        if self.faults is not None:
            if self.faults.fires(FaultSite.ROS_DROP):
                self._inject(FaultSite.ROS_DROP, topic=topic_name)
                return None
            if self.faults.fires(FaultSite.ROS_DELAY):
                delay = self.faults.ros_delay_cycles
                self._inject(FaultSite.ROS_DELAY, topic=topic_name, delay_cycles=delay)
                self._delay(delay, lambda: self._deliver(topic_name, message))
                return None
        self._deliver(topic_name, message)
        return None

    # -- backpressure ------------------------------------------------------

    def _publish_qos(
        self, topic: Topic, profile: BackpressureProfile, message: object
    ) -> Delivery:
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
        self._attempt(topic, profile, delivery)
        return delivery

    def _attempt(
        self, topic: Topic, profile: BackpressureProfile, delivery: Delivery
    ) -> None:
        # ``profile`` is the one the message was published under: a later
        # ``set_qos`` changes new publishes, not a delivery's retry budget.
        if delivery.status != "pending":
            return  # evicted while a retry was in flight
        delivery.attempts += 1
        if self.faults is not None and self.faults.fires(FaultSite.ROS_DROP):
            self._inject(FaultSite.ROS_DROP, topic=topic.name)
            if profile.reliable:
                self._schedule_retry(topic, profile, delivery)
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
            self._delay(
                delay, lambda: self._complete_delivery(topic, profile, delivery)
            )
        else:
            self._complete_delivery(topic, profile, delivery)

    def _complete_delivery(
        self, topic: Topic, profile: BackpressureProfile, delivery: Delivery
    ) -> None:
        if delivery.status != "pending":
            return
        self._deliver(topic.name, delivery.message)
        delivery.delivered_cycle = self.clock
        self._finish(topic, delivery, "delivered")
        if profile.reliable:
            self._emit_qos(
                EventKind.ROS_ACK,
                topic=topic.name,
                attempts=delivery.attempts,
                latency_cycles=self.clock - delivery.enqueued_cycle,
            )

    def _schedule_retry(
        self, topic: Topic, profile: BackpressureProfile, delivery: Delivery
    ) -> None:
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
        self.schedule(
            self.clock + backoff, lambda: self._attempt(topic, profile, delivery)
        )

    def _finish(self, topic: Topic, delivery: Delivery, status: str) -> None:
        delivery.status = status
        try:
            topic.pending.remove(delivery)
        except ValueError:
            pass  # already evicted from the bounded queue

    def _emit_qos(self, kind: EventKind, **data: Any) -> None:
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

    def _inject(self, site: FaultSite, **detail: Any) -> None:
        self.faults.record(site, self.clock, **detail)
        if self.bus is not None:
            self.bus.emit(EventKind.FAULT_INJECT, cycle=self.clock, site=site.value, **detail)

    def subscribe(self, topic_name: str, callback: Callback) -> None:
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
        iau.request(task_id, at_cycle=self._event_cycle)

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

    def _dispatch(self, event: TimedRequest) -> None:
        """Run one due callback (``deliver`` of the clock loop): the event is
        due, so the clock the loop advances is at or past its cycle."""
        if self.system is not None:
            self.clock = max(self.clock, self.system.iau.clock)
        self._dispatch_cycle = event.cycle
        try:
            event.payload()
        finally:
            self._dispatch_cycle = None

    def run(self, until_cycle: int | None = None, max_steps: int = 500_000_000) -> int:
        """Run events + accelerator until both are drained (or ``until_cycle``).

        Every callback due at or before ``until_cycle`` runs, and nothing
        moves past it: an idle accelerator waits at the pause, so work
        scheduled before the next event still runs when it is due.  A run
        paused by ``until_cycle`` and resumed by later calls is cycle- and
        event-exact against one uninterrupted ``run()``; check
        :attr:`drained` to distinguish a pause from completion.
        ``max_steps`` bounds the engine calls that did work, per call.
        """
        system = self.system
        clocked: Clocked = self if system is None else system.iau
        engine = _idle if system is None else system.iau.run_batched
        steps = advance(clocked, self._events, self._dispatch, engine, until_cycle, max_steps)
        if steps > max_steps:
            raise RosError(f"executor did not finish within {max_steps} steps")
        self.clock = max(self.clock, clocked.clock)
        if until_cycle is not None:
            self.clock = max(self.clock, until_cycle)
        if system is not None and system.faults is not None and self.drained:
            # The executor drives the IAU directly, bypassing the system's
            # run(); scrub latent DDR corruption here too.  Only once
            # drained: a paused run keeps its pending flips, exactly like
            # MultiTaskSystem.run.
            system.ddr.scrub()
        return self.clock


def _idle(horizon: int | None) -> bool:
    """The engine of an executor with no accelerator: never any work."""
    return False
