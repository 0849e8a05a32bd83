"""The observability event taxonomy.

Every layer of the stack reports what it does as cycle-stamped
:class:`Event` records on one shared :class:`~repro.obs.bus.EventBus`:

======================  =====================================================
kind                    emitted by / meaning
======================  =====================================================
``INSTR_RETIRE``        IAU / runner — one real instruction executed
``VI_EXPAND``           IAU — a virtual instruction expanded into a backup
                        transfer (``phase="backup"``) or a recovery load
                        re-executed on resume (``phase="recovery"``)
``PREEMPT_BEGIN``       IAU — a running task lost the accelerator
``PREEMPT_END``         IAU — a preempted task got the accelerator back
``DDR_BURST``           accelerator core — one DMA transfer (LOAD/SAVE)
``JOB_SUBMIT``          IAU — an inference request reached a task slot
``JOB_START``           IAU — a queued job issued its first instruction
``JOB_COMPLETE``        IAU — a job retired its last instruction
``ROS_PUBLISH``         ROS executor — a message was published to a topic
``ROS_DELIVER``         ROS executor — one subscriber callback received it
``FAULT_INJECT``        fault plan — an injector fired (``site`` names it)
``FAULT_DETECT``        tolerance layer — a guard noticed corruption (ECC,
                        checkpoint CRC, watchdog)
``FAULT_RECOVER``       tolerance layer — the fault was repaired (ECC
                        correction, rollback to the last good checkpoint)
``CHECKPOINT_RETRY``    IAU — a Vir_SAVE checkpoint failed CRC verification
                        on resume and a bounded retry was consumed
                        (``attempt``/``budget`` count against the plan's
                        ``max_checkpoint_retries``)
``JOB_DEGRADED``        runtime — the degradation policy shed or down-tiered
                        a low-priority job under overload
``DEADLINE_MISS``       IAU watchdog — a job overran its deadline (the job's
                        record carries the typed ``DeadlineMissed`` outcome)
``ADMISSION_DENY``      QoS admission control — a request was rejected, shed
                        or parked (``reason`` / ``policy`` name the cause)
``PRIORITY_INVERSION``  IAU — a lower-criticality job held the core past a
                        higher-criticality job's slack
``ROS_QUEUE_DROP``      ROS executor — a backpressured topic dropped a
                        message (queue overflow, unreliable drop, or retry
                        timeout; ``reason`` distinguishes them)
``ROS_RETRY``           ROS executor — a reliable delivery attempt failed
                        and was rescheduled with exponential backoff
``ROS_ACK``             ROS executor — a backpressured delivery completed
                        (``latency`` is publish-to-deliver cycles)
``INVARIANT_VIOLATION`` online monitor (report mode) — a runtime invariant
                        did not hold (``check`` names it)
``NODE_SUSPECT``        farm health — a node missed its heartbeat window
                        while holding work (``stalled_cycles`` says how long)
``NODE_DOWN``           farm health — a node was declared dead (missed the
                        dead-after window)
``JOB_MIGRATED``        farm resilience — a job stranded on a dead node was
                        re-planned onto a surviving node
``HEDGE_DISPATCH``      farm resilience — an overdue job on a suspect node
                        was speculatively duplicated on a healthy node
``HEDGE_WIN``           farm resilience — a hedged job's first result landed
                        (``source`` says which copy won)
``HEDGE_WASTED``        farm resilience — the losing copy of a hedged job
                        completed after the winner and was discarded
``MODE_SWITCH``         farm resilience — MESC-style criticality mode change
                        (``mode`` is ``degraded``/``normal``; capacity drop
                        sheds low-criticality classes)
``COMPILE_CACHE_HIT``   compiler — a compile was satisfied from the on-disk
                        cache (``key``/``graph``/``config`` identify the
                        artefact, ``seconds`` is the load wall time)
``COMPILE_CACHE_MISS``  compiler — no usable cache entry; a fresh compile
                        ran (``seconds`` is compile wall time, ``stored``
                        says whether the result was written back)
======================  =====================================================

``cycle`` is the accelerator clock at emission and is non-decreasing within
one system's event stream (back-dated request times travel in ``data``,
never in the stamp).  Kind-specific payloads live in the ``data`` mapping so
every event serialises to one flat JSON object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.state import Shared


class EventKind(enum.Enum):
    """The closed set of event types the stack emits."""

    INSTR_RETIRE = "instr_retire"
    VI_EXPAND = "vi_expand"
    PREEMPT_BEGIN = "preempt_begin"
    PREEMPT_END = "preempt_end"
    DDR_BURST = "ddr_burst"
    JOB_SUBMIT = "job_submit"
    JOB_START = "job_start"
    JOB_COMPLETE = "job_complete"
    ROS_PUBLISH = "ros_publish"
    ROS_DELIVER = "ros_deliver"
    FAULT_INJECT = "fault_inject"
    FAULT_DETECT = "fault_detect"
    FAULT_RECOVER = "fault_recover"
    CHECKPOINT_RETRY = "checkpoint_retry"
    JOB_DEGRADED = "job_degraded"
    DEADLINE_MISS = "deadline_miss"
    ADMISSION_DENY = "admission_deny"
    PRIORITY_INVERSION = "priority_inversion"
    ROS_QUEUE_DROP = "ros_queue_drop"
    ROS_RETRY = "ros_retry"
    ROS_ACK = "ros_ack"
    INVARIANT_VIOLATION = "invariant_violation"
    NODE_SUSPECT = "node_suspect"
    NODE_DOWN = "node_down"
    JOB_MIGRATED = "job_migrated"
    HEDGE_DISPATCH = "hedge_dispatch"
    HEDGE_WIN = "hedge_win"
    HEDGE_WASTED = "hedge_wasted"
    MODE_SWITCH = "mode_switch"
    COMPILE_CACHE_HIT = "compile_cache_hit"
    COMPILE_CACHE_MISS = "compile_cache_miss"


@dataclass(frozen=True)
class Event(Shared):
    """One cycle-stamped observation.

    ``duration`` is non-zero for events that span time (instruction
    execution, DMA bursts); instantaneous events keep it at 0.
    """

    kind: EventKind
    cycle: int
    task_id: int | None = None
    layer_id: int | None = None
    duration: int = 0
    data: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end_cycle(self) -> int:
        return self.cycle + self.duration

    def to_dict(self) -> dict[str, Any]:
        """Flatten to one JSON-serialisable dict (for the JSONL exporter)."""
        record: dict[str, Any] = {"kind": self.kind.value, "cycle": self.cycle}
        if self.task_id is not None:
            record["task_id"] = self.task_id
        if self.layer_id is not None:
            record["layer_id"] = self.layer_id
        if self.duration:
            record["duration"] = self.duration
        record.update(self.data)
        return record
