"""Per-task state of the Instruction Arrangement Unit.

The paper's IAU keeps, for each of four task slots: ``InstrAddr`` (resume
point), ``InputOffset``/``OutputOffset`` (software-configured I/O bases) and
``SaveID``/``SaveAddr``/``SaveLength`` (the interrupt-status registers that
drive SAVE rewriting).  Task 0 has the highest priority and is never
interrupted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.compiler.compile import CompiledNetwork
from repro.errors import IauError
from repro.faults.plan import DeadlineMissed
from repro.isa.instructions import NO_SAVE_ID
from repro.isa.program import Program
from repro.state import Stateful

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.accel.core import CoreSnapshot


@dataclass
class JobRecord:
    """Lifecycle of one inference request on one task slot."""

    task_id: int
    request_cycle: int
    start_cycle: int | None = None
    complete_cycle: int | None = None
    #: True when the degradation policy ran this job on its down-tiered
    #: program variant.
    degraded: bool = False
    #: Typed completion outcome beyond plain success (e.g.
    #: :class:`~repro.faults.plan.DeadlineMissed`); ``None`` when nominal.
    outcome: object | None = None
    #: Checkpoint CRC verifications that failed (and were retried) while
    #: this job ran — campaigns assert the retry budget from here.
    checkpoint_retries: int = 0

    @property
    def deadline_missed(self) -> bool:
        """True only for a watchdog miss — other typed outcomes (e.g. an
        ``AdmissionDenied``) are not deadline misses."""
        return isinstance(self.outcome, DeadlineMissed)

    @property
    def response_cycles(self) -> int:
        """Request-to-first-instruction latency (the paper's t_latency)."""
        if self.start_cycle is None:
            raise IauError("job has not started yet")
        return self.start_cycle - self.request_cycle

    @property
    def turnaround_cycles(self) -> int:
        if self.complete_cycle is None:
            raise IauError("job has not completed yet")
        return self.complete_cycle - self.request_cycle


@dataclass
class Checkpoint:
    """CRC-guarded record of one Vir_SAVE interrupt context.

    Created when a VIR_SAVE backs up a partial section to DDR; verified
    against the DDR contents when the task resumes (Vir_LOAD path).  A
    verified checkpoint becomes the task's rollback target: re-execution
    restarts at ``instr_index + 1`` (the recovery loads) with the recorded
    ``save_id`` / ``saved_chs`` registers.
    """

    #: Program index of the VIR_SAVE this checkpoint was taken at.
    instr_index: int
    save_id: int
    saved_chs: int
    #: DDR region + slice the backed-up context occupies.
    region_name: str
    row0: int
    rows: int
    ch0: int
    chs: int
    #: CRC32 of the slice bytes at backup time.
    crc: int
    verified: bool = False


@dataclass
class TaskContext(Stateful):
    """One IAU task slot."""

    #: Registers, queue and job records; ``queue`` / ``current_job`` /
    #: ``completed`` share records, which the single capture copy preserves.
    STATE = (
        "priority", "instr_index", "input_offset", "output_offset", "save_id",
        "saved_chs", "in_recovery", "active", "snapshot", "queue", "current_job",
        "completed", "busy_cycles", "deadline_cycles", "checkpoint",
        "good_checkpoint", "checkpoint_retries", "want_degraded",
    )
    #: Programs are captured by variant key (see :meth:`variant_key`).
    EXTRA = ("program", "base_program", "degraded_program")

    task_id: int
    compiled: CompiledNetwork
    program: Program
    #: Criticality level (0 = highest).  Defaults to the slot index, which
    #: reproduces the hardware's strict slot-priority arbitration; giving two
    #: slots the same level makes them peers the QoS layer may EDF-order.
    priority: int | None = None
    #: InstrAddr — next instruction to translate.
    instr_index: int = 0
    #: Software-configured base offsets (modelled registers; the runtime
    #: writes input data directly into the task's input region instead).
    input_offset: int = 0
    output_offset: int = 0
    #: SaveID / SaveLength registers: channels already stored for a section.
    save_id: int = NO_SAVE_ID
    saved_chs: int = 0
    #: True while re-executing the virtual recovery loads after a resume.
    in_recovery: bool = False
    #: Whether a job is currently in flight on this slot.
    active: bool = False
    #: CPU-like interrupts snapshot the whole core state here.
    snapshot: CoreSnapshot | None = None
    #: Pending (not yet started) requests.
    queue: deque[JobRecord] = field(default_factory=deque)
    #: The in-flight job's record.
    current_job: JobRecord | None = None
    #: Completed jobs, oldest first.
    completed: list[JobRecord] = field(default_factory=list)
    #: Cycles spent executing this task's instructions (incl. fetches).
    busy_cycles: int = 0
    #: Watchdog deadline (request -> complete bound, cycles); None disables.
    deadline_cycles: int | None = None
    #: Checkpoint awaiting CRC verification at the next resume.
    checkpoint: Checkpoint | None = None
    #: Last checkpoint whose CRC verified OK (the rollback target).
    good_checkpoint: Checkpoint | None = None
    #: Rollbacks performed for the current job (bounded by the fault plan).
    checkpoint_retries: int = 0
    #: Degradation: the program the job was attached with, the down-tiered
    #: variant, and whether the next job should use it.
    base_program: Program | None = None
    degraded_program: Program | None = None
    want_degraded: bool = False

    def __post_init__(self) -> None:
        self.base_program = self.program
        if self.priority is None:
            self.priority = self.task_id

    @property
    def runnable(self) -> bool:
        return self.active or bool(self.queue)

    @property
    def head_job(self) -> JobRecord | None:
        """The in-flight job, else the oldest queued one, else None."""
        if self.active:
            return self.current_job
        return self.queue[0] if self.queue else None

    def head_deadline(self) -> float:
        """Absolute deadline of the head job (inf when undeclared/idle)."""
        job = self.head_job
        if job is None or self.deadline_cycles is None:
            return float("inf")
        return job.request_cycle + self.deadline_cycles

    @property
    def pending_jobs(self) -> int:
        """Jobs queued or in flight (the degradation policy's load signal)."""
        return (1 if self.active else 0) + len(self.queue)

    def enqueue(self, record: JobRecord) -> None:
        self.queue.append(record)

    def begin_next_job(self) -> JobRecord:
        if self.active:
            raise IauError(f"task {self.task_id} already has a job in flight")
        if not self.queue:
            raise IauError(f"task {self.task_id} has no queued job to begin")
        self.current_job = self.queue.popleft()
        self.active = True
        if self.want_degraded and self.degraded_program is not None:
            self.program = self.degraded_program
            self.current_job.degraded = True
        else:
            self.program = self.base_program
        self.instr_index = 0
        self.in_recovery = False
        self.save_id = NO_SAVE_ID
        self.saved_chs = 0
        self.snapshot = None
        self.checkpoint = None
        self.good_checkpoint = None
        self.checkpoint_retries = 0
        return self.current_job

    def finish_job(self, clock: int) -> JobRecord:
        if not self.active or self.current_job is None:
            raise IauError(f"task {self.task_id} has no job to finish")
        job = self.current_job
        job.complete_cycle = clock
        self.completed.append(job)
        self.current_job = None
        self.active = False
        self.instr_index = 0
        self.in_recovery = False
        self.save_id = NO_SAVE_ID
        self.saved_chs = 0
        self.snapshot = None
        self.checkpoint = None
        self.good_checkpoint = None
        self.checkpoint_retries = 0
        return job

    def clear_save_state(self) -> None:
        self.save_id = NO_SAVE_ID
        self.saved_chs = 0

    # -- snapshot/restore ---------------------------------------------------

    def variant_key(self, program: Program) -> str:
        """The vi-mode key of ``program`` within this task's compiled network.

        Programs are captured *by reference key*, not by value: the restore
        side resolves the key against its own (identical) compiled network,
        which keeps snapshots small and guarantees the restored context runs
        the exact Program object the network's meta table describes.
        """
        key = self.compiled.variant_of(program)
        if key is not None:
            return key
        raise IauError(
            f"task {self.task_id}: program is not a variant of its compiled "
            "network (cannot snapshot a hand-built program)"
        )

    def capture_state(self) -> dict[str, Any]:
        """Picklable mid-run state of this slot (registers, queue, jobs)."""
        state = super().capture_state()
        for name in self.EXTRA:
            program = getattr(self, name)
            state[name] = None if program is None else self.variant_key(program)
        return state

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore this slot from a captured state (copied, reusable)."""
        super().restore_state(state)
        for name in self.EXTRA:
            key = state[name]
            setattr(self, name, None if key is None else self.compiled.program_for(key))
