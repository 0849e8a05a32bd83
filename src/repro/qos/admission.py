"""Admission control: bounded per-task queues with slack awareness.

The controller sits inside :meth:`repro.iau.unit.Iau.request` — the single
funnel every inference request passes through, whether it came from
:meth:`MultiTaskSystem.submit`, the ROS executor, or a test poking the IAU
directly.  It enforces two independent gates:

* a **depth gate** — at most ``queue_depth`` queued jobs per task, with the
  configured :class:`~repro.qos.config.AdmissionPolicy` deciding who loses
  when the queue is full;
* a **slack gate** — a request whose projected completion (static
  program-cycle estimate x backlog, measured against the declared deadline)
  is already hopeless is denied up front instead of wasting core cycles.

Every denial produces a typed :class:`AdmissionDenied` outcome attached to
the losing job's record, a per-task counter, and an ``ADMISSION_DENY`` bus
event — overload never manifests as a silently growing queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.estimate import estimate_job_cycles
from repro.obs.events import EventKind
from repro.qos.config import AdmissionPolicy, QosConfig
from repro.state import Stateful

__all__ = ["AdmissionController", "AdmissionDenied", "estimate_job_cycles"]


@dataclass(frozen=True)
class AdmissionDenied:
    """Typed outcome attached to a request the admission gate turned away."""

    task_id: int
    #: ``"queue_full"``, ``"shed_oldest"``, ``"shed_newest"`` or ``"no_slack"``.
    reason: str
    request_cycle: int
    queue_depth: int
    #: Projected completion overrun in cycles (slack denials only).
    projected_overrun_cycles: int | None = None


class AdmissionController(Stateful):
    """Bounded-queue + slack admission for the IAU's task slots."""

    STATE = ("denied", "outcomes", "_estimates", "_parked")

    def __init__(self, config: QosConfig, bus=None):
        self.config = config
        self.bus = bus
        #: Requests denied (rejected, shed, or slack-gated), per task.
        self.denied: dict[int, int] = {}
        #: Typed outcomes, in denial order (the audit trail).
        self.outcomes: list[AdmissionDenied] = []
        self._estimates: dict[int, int] = {}
        #: BLOCK-policy requests waiting for a queue slot (JobRecords, FIFO).
        self._parked: dict[int, deque] = {}

    # -- estimates ---------------------------------------------------------

    def estimate(self, context) -> int:
        """Cached static cycle estimate of one job on ``context``'s program."""
        cached = self._estimates.get(context.task_id)
        if cached is None:
            cached = estimate_job_cycles(
                context.compiled.config, context.compiled, context.base_program
            )
            self._estimates[context.task_id] = cached
        return cached

    # -- the gate ----------------------------------------------------------

    def admit(self, context, record, clock: int) -> bool:
        """Decide one arriving request.  True admits ``record``.

        May mutate the context's queue (shed policies evict a queued job)
        or park the record (BLOCK policy); every loser gets a typed
        :class:`AdmissionDenied` outcome and an ``ADMISSION_DENY`` event.
        """
        if context.task_id < self.config.min_task_id:
            return True
        if self.config.slack_admission and not self._has_slack(
            context, record, clock
        ):
            return False
        policy = self.config.admission
        if policy is None or len(context.queue) < self.config.queue_depth:
            return True
        if policy is AdmissionPolicy.REJECT:
            self._deny(context, record, "queue_full", clock)
            return False
        if policy is AdmissionPolicy.SHED_OLDEST:
            self._deny(context, context.queue.popleft(), "shed_oldest", clock)
            return True
        if policy is AdmissionPolicy.SHED_NEWEST:
            self._deny(context, context.queue.pop(), "shed_newest", clock)
            return True
        if policy is AdmissionPolicy.BLOCK:
            self._parked.setdefault(context.task_id, deque()).append(record)
            if self.bus is not None:
                self.bus.emit(
                    EventKind.ADMISSION_DENY,
                    cycle=clock,
                    task_id=context.task_id,
                    reason="parked",
                    policy=policy.value,
                    queue_depth=len(context.queue),
                )
            return False
        raise AssertionError(f"unhandled admission policy {policy!r}")  # pragma: no cover

    def release_parked(self, context):
        """A queue slot freed: the oldest parked request, if any (FIFO)."""
        parked = self._parked.get(context.task_id)
        if not parked:
            return None
        if (
            self.config.queue_depth is not None
            and len(context.queue) >= self.config.queue_depth
        ):
            return None
        return parked.popleft()

    def parked_count(self, task_id: int) -> int:
        return len(self._parked.get(task_id, ()))

    # -- internals ---------------------------------------------------------

    def _has_slack(self, context, record, clock: int) -> bool:
        if context.deadline_cycles is None:
            return True
        estimate = self.estimate(context)
        backlog = context.pending_jobs
        projected = clock + (backlog + 1) * estimate
        absolute_deadline = record.request_cycle + context.deadline_cycles
        if projected <= absolute_deadline:
            return True
        self._deny(
            context,
            record,
            "no_slack",
            clock,
            projected_overrun_cycles=projected - absolute_deadline,
        )
        return False

    def _deny(
        self,
        context,
        record,
        reason: str,
        clock: int,
        *,
        projected_overrun_cycles: int | None = None,
    ) -> None:
        outcome = AdmissionDenied(
            task_id=context.task_id,
            reason=reason,
            request_cycle=record.request_cycle,
            queue_depth=len(context.queue),
            projected_overrun_cycles=projected_overrun_cycles,
        )
        record.outcome = outcome
        self.outcomes.append(outcome)
        self.denied[context.task_id] = self.denied.get(context.task_id, 0) + 1
        if self.bus is not None:
            self.bus.emit(
                EventKind.ADMISSION_DENY,
                cycle=clock,
                task_id=context.task_id,
                reason=reason,
                queue_depth=outcome.queue_depth,
                request_cycle=record.request_cycle,
            )
