"""The Instruction Arrangement Unit (IAU).

The IAU sits between the instruction spaces in DDR and the (unchanged)
accelerator core.  Each cycle chunk it fetches the next VI-ISA instruction of
the highest-priority runnable task and either

* **forwards** it to the core (real instructions; SAVEs may first be
  rewritten against the ``SaveID``/``SaveLength`` registers to skip bytes a
  VIR_SAVE already stored),
* **discards** it (virtual instruction, no pre-emption pending),
* **expands** it (virtual instruction, pre-emption pending: perform the
  backup it encodes, record the interrupt status, and switch tasks), or
* **re-executes** it (virtual recovery loads, while resuming a task).

Two interrupt disciplines are modelled on top of the same task table:

* ``mode="virtual"`` — the paper's method (also used for the layer-by-layer
  baseline, whose programs simply carry fewer interrupt points);
* ``mode="cpu"`` — the CPU-like baseline: switch after *any* instruction by
  spilling/restoring every on-chip buffer (paper §IV-B).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.accel.core import STAT_NAMES, AcceleratorCore
from repro.compiler.compile import CompiledNetwork
from repro.errors import CheckpointError, IauError
from repro.faults.plan import DeadlineMissed, FaultPlan, FaultSite
from repro.hw.timing import fetch_cycles, transfer_cycles
from repro.iau.context import Checkpoint, JobRecord, TaskContext
from repro.isa.instructions import NO_SAVE_ID, Instruction
from repro.isa.opcodes import Opcode
from repro.obs.bus import EventBus
from repro.obs.events import EventKind
from repro.qos.admission import AdmissionController
from repro.qos.config import QosConfig
from repro.state import Stateful

from repro.iau.fastpath import MIN_BATCH, region_touches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.iau.fastpath import ProgramMeta

#: Where a batch adds its ``ddr.stall`` cycles in a CoreStats delta.
_CYCLES_STAT = STAT_NAMES.index("cycles")
_STALL_STAT = {
    direction: STAT_NAMES.index(f"{direction}_cycles") for direction in ("load", "save")
}

#: Number of task slots in the hardware (paper's Fig. IAU).
MAX_TASKS = 4

#: Interrupt disciplines.
IAU_MODES = ("virtual", "cpu")

#: Keys of :attr:`Iau.dispatch_counts`: the bail reasons in the order
#: ``_bail_reason`` tests them, the three short-stretch bounds (a possible
#: fire, a pending ECC flip, the horizon), whole batches, the instructions
#: retired by batch / by step, and the ``ddr.stall`` fires retired inside
#: batches.  Timing-only and functional cores batch alike, so no key names
#: the core's mode.
DISPATCH_KEYS = (
    "recovery", "pending_save", "preempting_task",
    "short_fault", "short_flip", "short_horizon", "batched", "instr_batched",
    "instr_stepped", "stalls_batched",
)


class Iau(Stateful):
    """Behavioural model of the Instruction Arrangement Unit."""

    STATE = (
        "clock", "current", "backup_cycles", "restore_cycles", "num_switches",
        "num_rollbacks", "num_deadline_misses", "num_inversions", "_inversions_seen",
    )
    #: The slot table: a restore requires the same slots attached.
    PARTS = ("contexts",)

    def __init__(
        self,
        core: AcceleratorCore,
        mode: str = "virtual",
        *,
        bus: EventBus | None = None,
        faults: FaultPlan | None = None,
        qos: QosConfig | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        if mode not in IAU_MODES:
            raise IauError(f"mode must be one of {IAU_MODES}, got {mode!r}")
        self.core = core
        self.config = core.config
        self.mode = mode
        self.bus = bus
        self.clock = 0
        self.contexts: list[TaskContext | None] = [None] * MAX_TASKS
        #: The attached slots in (priority, slot) order (:meth:`_winner`).
        self._ranked: list[TaskContext] = []
        self.current: int | None = None
        #: Extra cycles spent on interrupt backup / restore transfers.
        self.backup_cycles = 0
        self.restore_cycles = 0
        self.num_switches = 0
        #: Fault machinery: the injection plan (None = no fault code runs),
        #: checkpoint rollbacks performed, watchdog deadline misses seen.
        self.faults = faults
        self.num_rollbacks = 0
        self.num_deadline_misses = 0
        if faults is not None and core.ddr.faults is None:
            core.ddr.attach_faults(faults, bus)
        #: QoS machinery (both None on the pre-QoS fast path).
        self.qos = qos
        self.admission = admission
        self._edf = qos is not None and qos.edf_tiebreak
        self._detect_inversion = qos is not None and qos.detect_inversion
        self.num_inversions = 0
        self._inversions_seen: set[tuple[int, int]] = set()
        #: Optional hook called as ``on_complete(task_id, job)`` whenever a
        #: job finishes (the ROS layer uses it to schedule callbacks).
        self.on_complete: Callable[[int, JobRecord], None] | None = None
        #: Why each :meth:`run_batched` call that dispatched instructions
        #: ended the way it did — one increment per call under ``batched``,
        #: a :meth:`_bail_reason`, or ``short_fault`` / ``short_flip`` /
        #: ``short_horizon`` (the bound that left less than ``MIN_BATCH`` to
        #: retire) — plus the instructions retired each way
        #: (``instr_batched`` / ``instr_stepped``) and the stalls retired
        #: inside batches (``stalls_batched``).  Host-side diagnostics only:
        #: outside ``STATE`` and off the bus, so batched and stepped runs
        #: keep identical event streams, metrics and snapshots.  A plain
        #: pre-seeded dict, not a
        #: ``collections.Counter``: a disarmed farm day makes two increments
        #: per job here, and a dict subclass pays ~3x per item update.
        self.dispatch_counts: dict[str, int] = dict.fromkeys(DISPATCH_KEYS, 0)

    # -- task management -----------------------------------------------------

    def attach_task(
        self,
        task_id: int,
        compiled: CompiledNetwork,
        vi_mode: str = "vi",
        *,
        deadline_cycles: int | None = None,
        priority: int | None = None,
    ) -> TaskContext:
        """Bind a compiled network to a priority slot (0 = highest).

        ``deadline_cycles`` arms the per-job watchdog: a job whose
        request-to-complete turnaround exceeds it gets a typed
        :class:`~repro.faults.plan.DeadlineMissed` outcome (and a
        ``deadline_miss`` event), without aborting the run.

        ``priority`` sets the criticality level independently of the slot
        index (default: the slot index, the hardware's strict ordering).
        Equal-priority slots never preempt each other; with the QoS layer's
        EDF tie-break they are picked by earliest absolute deadline.
        """
        if not 0 <= task_id < MAX_TASKS:
            raise IauError(f"task_id must be in [0, {MAX_TASKS}), got {task_id}")
        if self.contexts[task_id] is not None:
            raise IauError(f"task slot {task_id} already attached")
        if self.mode == "cpu" and vi_mode != "none":
            # The CPU-like discipline needs no virtual instructions.
            vi_mode = "none"
        context = TaskContext(
            task_id=task_id,
            compiled=compiled,
            program=compiled.program_for(vi_mode),
            priority=priority,
            deadline_cycles=deadline_cycles,
        )
        self.contexts[task_id] = context
        self._reset_derived()
        return context

    def context(self, task_id: int) -> TaskContext:
        context = self.contexts[task_id]
        if context is None:
            raise IauError(f"no task attached at slot {task_id}")
        return context

    def request(self, task_id: int, at_cycle: int | None = None) -> JobRecord:
        """A software thread asks for one inference on its task slot.

        ``at_cycle`` back-dates the request to its true arrival time when the
        caller delivers it mid-instruction (response latency is measured from
        arrival, exactly as a hardware interrupt line would be timed).
        """
        record = JobRecord(
            task_id=task_id,
            request_cycle=self.clock if at_cycle is None else at_cycle,
        )
        context = self.context(task_id)
        if self.admission is not None and not self.admission.admit(
            context, record, clock=self.clock
        ):
            # Denied (record.outcome carries the typed AdmissionDenied) or
            # parked by the BLOCK policy (admitted when a slot frees).
            return record
        self._enqueue(context, record)
        return record

    def _enqueue(self, context: TaskContext, record: JobRecord) -> None:
        context.enqueue(record)
        if self.bus is not None:
            self._emit(
                EventKind.JOB_SUBMIT,
                task_id=context.task_id,
                request_cycle=record.request_cycle,
            )

    def _emit(self, kind: EventKind, **kwargs: Any) -> None:
        """Emit one bus event stamped at the IAU clock (callers gate on bus)."""
        bus = self.bus
        assert bus is not None  # every call site checks the bus first
        cycle = kwargs.pop("cycle", self.clock)
        task_id = kwargs.pop("task_id", None)
        layer_id = kwargs.pop("layer_id", None)
        duration = kwargs.pop("duration", 0)
        bus.emit(
            kind,
            cycle=cycle,
            task_id=task_id,
            layer_id=layer_id,
            duration=duration,
            **kwargs,
        )

    # -- scheduling ---------------------------------------------------------

    def _winner(self, above: int | None = None) -> TaskContext | None:
        """The runnable slot that wins the core, or None: one walk over the
        slots in (priority, slot) order, the hardware's slot-order scan.

        With the QoS EDF tie-break, the first runnable priority group is
        ordered by the head job's absolute deadline (laxity order for
        equal-length jobs), undeclared deadlines last, then by slot.
        ``above`` admits only priorities strictly higher (numerically
        lower) than that level: the task that would preempt a running one
        of that priority, as equal-priority peers never preempt each other.
        """
        best: TaskContext | None = None
        for context in self._ranked:
            if above is not None and context.priority >= above:
                break
            if not context.runnable:
                continue
            if best is None:
                if not self._edf:
                    return context
                best = context
            elif context.priority != best.priority:
                break
            elif context.head_deadline() < best.head_deadline():
                best = context
        return best

    def _reset_derived(self) -> None:
        self._ranked = sorted(
            (context for context in self.contexts if context is not None),
            key=attrgetter("priority", "task_id"),
        )

    @property
    def idle(self) -> bool:
        return self._winner() is None

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Translate + execute one instruction; False when nothing is runnable."""
        if self.current is None:
            context = self._winner()
            if context is None:
                return False
            self._switch_in(context)
        context = self.context(self.current)

        if context.instr_index >= len(context.program):
            self._complete_job(context)
            return True

        instruction = context.program[context.instr_index]
        fetch = fetch_cycles(self.config)
        self.clock += fetch
        context.busy_cycles += fetch

        if self._detect_inversion:
            self._check_inversion(context)

        if self.mode == "cpu" and self._maybe_cpu_preempt(context):
            return True

        if instruction.is_virtual:
            self._handle_virtual(context, instruction)
        else:
            self._handle_real(context, instruction)
        return True

    # -- horizon-batched fast path --------------------------------------------

    #: Stretches shorter than this are not worth the batching overhead.
    _MIN_BATCH = MIN_BATCH

    def _bail_reason(self, context: TaskContext) -> str | None:
        """Why the fast path cannot engage here (a ``dispatch_counts`` key),
        or None when the run is provably uninterruptible from here.

        The task mid-stream clean (not replaying recovery loads, no pending
        SAVE rewriting) and no strictly-higher-priority task runnable.
        Arrivals are handled by the caller-provided horizon.  A functional
        core batches exactly where a timing-only one does: its arithmetic
        rides :meth:`AcceleratorCore.retire_batch`, which relies on no fault
        mutating DDR a stretch reads — what the fire oracle and the
        pending-flip bound guarantee.

        Armed features do not bail the fast path (see
        ``docs/static-analysis.md``, the INT rule family); they bound it:

        * a :class:`FaultPlan` is intersected per batch with the static
          fault-opportunity table and its fire oracle
          (``ProgramMeta.stop_for_faults``); ``ddr.stall`` fires are pure
          latency and are retired inside the batch
          (``ProgramMeta.stall_fires``);
        * a pending SECDED flip ends the batch before the first
          instruction touching its region (``RegionTouches``), where the
          ECC check or a write would act on it;
        * inversion detection is per-step a no-op whenever no
          higher-priority task is runnable — guaranteed here and unchanged
          for the whole batch, since arrivals bound the horizon;
        * the invariant monitor sees the replayed stream, which is
          byte-identical to what ``step()`` would emit, and checks it event
          by event as it would the stepped one.
        """
        if context.in_recovery:
            return "recovery"
        if context.save_id != NO_SAVE_ID:
            return "pending_save"
        if self._winner(context.priority) is not None:
            return "preempting_task"
        return None

    def run_batched(self, horizon: int | None = None) -> bool:
        """Retire a whole uninterruptible stretch of instructions at once.

        Cycle-exact and event-exact against :meth:`step`: the clock,
        :class:`~repro.accel.core.CoreStats`, ``busy_cycles`` and buffer
        bookkeeping advance in aggregate from metadata precomputed on the
        compiled network, an armed bus receives the identical event stream,
        and a functional core computes the stretch's results from DDR
        (bit-identical to the per-CALC arithmetic).  Falls back to a single
        :meth:`step` whenever the fast path cannot engage (recovery state,
        a pending SAVE rewrite, a runnable higher-priority task).

        ``horizon`` bounds the batch to instructions that *start* strictly
        before it — the caller's next scheduled arrival, after which
        delivery (and hence pre-emption eligibility) must be re-evaluated.
        With a :class:`FaultPlan` armed the batch also ends before the
        first possible fire that is not a ``ddr.stall`` and before the first
        instruction touching a region with a pending ECC flip; the stalls
        inside it are retired as priced events.  When these bounds leave
        fewer than ``MIN_BATCH`` instructions to retire, the call *steps
        out*: it ``step()``s through the bounding instruction instead of
        asking for the same bound again before every one of them.

        A completion ends the call: when the job's last instruction retires
        strictly before ``horizon``, the job completes in this call (no
        arrival can be delivered first, so the next call would only have
        completed it).  At ``clock == horizon`` it stays for the next call,
        after the caller has delivered what is due.

        Returns False when nothing is runnable, like :meth:`step`.
        """
        current = self.current
        if current is None:
            context = self._winner()
            if context is None:
                return False
            self._switch_in(context)  # the winner is now the running task
        else:
            context = self.context(current)
        counts = self.dispatch_counts

        meta = context.meta
        index = context.instr_index
        if index >= meta.length:
            self._complete_job(context)
            return True
        reason = self._bail_reason(context)
        if reason is not None:
            counts[reason] += 1
            counts["instr_stepped"] += 1
            return self.step()

        base = self.clock - meta.cum[index]
        stop = meta.stop_for_horizon(index, base, horizon)
        short = "short_horizon"
        stalls: list[int] = []
        plan = self.faults
        if plan is not None:
            # Intersect with the fire oracle: the batch may not reach the
            # instruction hosting the first possible fault fire ...
            fault_stop = meta.stop_for_faults(index, plan)
            if fault_stop < stop:
                stop, short = fault_stop, "short_fault"
            # ... nor one touching a region with a pending ECC flip.
            ddr = self.core.ddr
            if ddr.pending_flip_count:
                touches = region_touches(
                    meta, context.compiled, context.program, self.core.functional
                )
                flip_stop = min(touches.first(name, index) for name in ddr.flipped_regions())
                if flip_stop < stop:
                    stop, short = flip_stop, "short_flip"
            stall_stop, stalls = meta.stall_fires(index, stop, base, horizon, plan)
            if stall_stop < stop:
                stop, short = stall_stop, "short_horizon"
        # A batch may only end where no accumulator / output section is in
        # flight, so a later step() finds exactly the state it expects.
        boundary = meta.boundary_at_or_before(stop)
        if boundary - index < self._MIN_BATCH:
            counts[short] += 1
            self._step_out(context, stop, horizon)
            self._complete_before(context, horizon)
            return True

        counts["batched"] += 1
        counts["instr_batched"] += boundary - index
        delta, stats_delta, tiles = meta.stretch(index, boundary)
        if stalls:
            assert plan is not None  # only an armed plan fires
            del stalls[bisect_left(stalls, boundary):]
            counts["stalls_batched"] += len(stalls)
            stalled = list(stats_delta)
            for j in stalls:
                stalled[_STALL_STAT[meta.transfer(j)[0]]] += plan.ddr_stall_cycles
            stalled[_CYCLES_STAT] += plan.ddr_stall_cycles * len(stalls)
            stats_delta = tuple(stalled)
            delta += plan.ddr_stall_cycles * len(stalls)
        if self.bus is not None:
            self._replay_events(context, meta, index, boundary, stalls)
        else:
            for j in stalls:
                self._stall(meta, j)
        self.clock += delta
        context.busy_cycles += delta
        context.instr_index = boundary
        self.core.retire_batch(
            stats_delta,
            tiles,
            context.program.words[index:boundary],
            context.compiled.layer_config,
        )
        if plan is not None:
            # Land every site's RNG stream on the position the step-wise
            # path would have reached: burn the read-ahead draws the batch
            # covered (the oracle vouched that only its stalls fire).
            for site, count in meta.opportunity_counts(index, boundary).items():
                plan.burn(site, count, len(stalls) if site is FaultSite.DDR_STALL else 0)
        self._complete_before(context, horizon)
        return True

    def _complete_before(self, context: TaskContext, horizon: int | None) -> None:
        """Complete ``context``'s job if this call retired its last
        instruction strictly before ``horizon``: exactly what the next
        call would do first, with nothing due in between."""
        if (
            self.current == context.task_id
            and context.instr_index >= context.meta.length
            and (horizon is None or self.clock < horizon)
        ):
            self._complete_job(context)

    def _stall(self, meta: ProgramMeta, j: int) -> int:
        """Record (and, armed, report) the ``ddr.stall`` fire a batch
        retires at instruction ``j``, as the core's burst hook would."""
        direction, region = meta.transfer(j)
        return self.core.ddr.stall_fired(region, direction)

    def _step_out(self, context: TaskContext, stop: int, horizon: int | None) -> None:
        """``step()`` through the instruction at ``stop`` that bounds a
        stretch too short to batch.

        Returns at the first point where handing control back is what a
        one-``step()``-per-call loop does anyway: the running task changed
        (a fire pre-empted it), the job reached its last instruction (the
        caller completes it before the horizon: a completion ends the
        :meth:`run_batched` call, which the ROS executor relies on), the
        clock reached ``horizon`` (the caller's next arrival is due), or the
        index passed ``stop`` (the bound is spent and must be asked for
        again).  Between those points every caller would call straight back
        in, so the loop is ``step()``-exact by construction.
        """
        last = context.meta.length
        steps = 0
        while True:
            self.step()
            steps += 1
            index = context.instr_index
            if (
                self.current != context.task_id
                or index >= last
                or index > stop
                or (horizon is not None and self.clock >= horizon)
            ):
                break
        self.dispatch_counts["instr_stepped"] += steps

    def _replay_events(
        self, context: TaskContext, meta: ProgramMeta, start: int, stop: int, stalls: list[int]
    ) -> None:
        """Emit the exact FAULT_INJECT / DDR_BURST / INSTR_RETIRE stream
        step() would, a ``ddr.stall`` fire at each of ``stalls`` (ascending)
        lengthening its instruction and shifting the later ones."""
        bus = self.bus
        assert bus is not None  # callers gate on an armed bus
        base = self.clock - meta.cum[start]
        fetch = meta.fetch
        upcoming = iter(stalls)
        stall_at = next(upcoming, stop)
        for j in range(start, stop):
            spec = meta.events[j]
            if spec is None:
                continue  # a discarded virtual instruction emits nothing
            layer_id, opcode_name, cycles, direction, region, nbytes = spec
            cycle = base + meta.cum[j] + fetch
            if direction is not None:
                # Mirror the step-wise path exactly: _execute() advances the
                # bus (max-only) and the core stamps the fault and the burst
                # at the *bus* clock.
                bus.advance(cycle)
                if j == stall_at:
                    stall = self._stall(meta, j)
                    cycles += stall
                    base += stall  # every later instruction starts that much later
                    stall_at = next(upcoming, stop)
                bus.emit(
                    EventKind.DDR_BURST,
                    layer_id=layer_id,
                    duration=cycles,
                    direction=direction,
                    opcode=opcode_name,
                    bytes=nbytes,
                    region=region,
                )
            bus.emit(
                EventKind.INSTR_RETIRE,
                cycle=cycle,
                task_id=context.task_id,
                layer_id=layer_id,
                duration=cycles,
                opcode=opcode_name,
                program_index=j,
            )

    # -- switching ------------------------------------------------------------

    def _switch_in(self, context: TaskContext) -> None:
        """Make ``context`` the running task, starting a queued job if needed."""
        if self.current == context.task_id:
            return
        self.current = context.task_id
        self.num_switches += 1
        resumed = context.active
        if not context.active:
            job = context.begin_next_job()
            job.start_cycle = self.clock
            if self.bus is not None:
                self._emit(
                    EventKind.JOB_START,
                    task_id=context.task_id,
                    request_cycle=job.request_cycle,
                    response_cycles=job.response_cycles,
                )
            if self.admission is not None:
                # Starting a job freed a queue slot: admit BLOCK-parked requests.
                released = self.admission.release_parked(context)
                while released is not None:
                    self._enqueue(context, released)
                    released = self.admission.release_parked(context)
            if self.faults is not None and self.faults.fires(FaultSite.JOB_OVERRUN):
                stall = self.faults.overrun_cycles
                self.faults.record(
                    FaultSite.JOB_OVERRUN,
                    self.clock,
                    task_id=context.task_id,
                    stall_cycles=stall,
                )
                if self.bus is not None:
                    self._emit(
                        EventKind.FAULT_INJECT,
                        task_id=context.task_id,
                        site=FaultSite.JOB_OVERRUN.value,
                        duration=stall,
                        stall_cycles=stall,
                    )
                self.clock += stall
                context.busy_cycles += stall
        if resumed and context.checkpoint is not None:
            self._verify_checkpoint(context)
        if self.mode == "cpu" and context.snapshot is not None:
            # Restore every on-chip buffer from DDR.
            cycles = transfer_cycles(self.config, self.config.total_buffer_bytes)
            self.clock += cycles
            self.restore_cycles += cycles
            context.busy_cycles += cycles
            self.core.restore(context.snapshot)
            context.snapshot = None
        if resumed and self.bus is not None:
            self._emit(EventKind.PREEMPT_END, task_id=context.task_id)

    def _check_inversion(self, context: TaskContext) -> None:
        """Flag a lower-criticality job holding the core past a waiting
        higher-criticality job's slack (one event per waiting job)."""
        winner = self._winner(context.priority)
        if winner is None:
            return
        head = winner.head_job
        if head is None or winner.deadline_cycles is None:
            return
        estimate = self.admission.estimate(winner) if self.admission is not None else 0
        slack = head.request_cycle + winner.deadline_cycles - self.clock - estimate
        if slack >= 0:
            return
        key = (winner.task_id, head.request_cycle)
        if key in self._inversions_seen:
            return
        self._inversions_seen.add(key)
        self.num_inversions += 1
        if self.bus is not None:
            self._emit(
                EventKind.PRIORITY_INVERSION,
                task_id=winner.task_id,
                holder=context.task_id,
                slack_cycles=slack,
                request_cycle=head.request_cycle,
            )

    def _maybe_cpu_preempt(self, context: TaskContext) -> bool:
        """CPU-like discipline: check for a higher-priority task before every
        instruction, spilling the whole chip state on pre-emption."""
        winner = self._winner(context.priority)
        if winner is None:
            return False
        cycles = transfer_cycles(self.config, self.config.total_buffer_bytes)
        self.clock += cycles
        self.backup_cycles += cycles
        context.busy_cycles += cycles
        context.snapshot = self.core.snapshot()
        self.core.invalidate()
        self.current = None
        if self.bus is not None:
            self._emit(
                EventKind.PREEMPT_BEGIN,
                task_id=context.task_id,
                by=winner.task_id,
                backup_cycles=cycles,
            )
        return True

    def _complete_job(self, context: TaskContext) -> None:
        job = context.finish_job(self.clock)
        self.current = None
        # The head job this entry de-duplicated is done: drop it so
        # long-running periodic workloads don't grow the set without bound.
        self._inversions_seen.discard((context.task_id, job.request_cycle))
        if (
            context.deadline_cycles is not None
            and job.turnaround_cycles > context.deadline_cycles
        ):
            job.outcome = DeadlineMissed(
                task_id=context.task_id,
                deadline_cycles=context.deadline_cycles,
                turnaround_cycles=job.turnaround_cycles,
                request_cycle=job.request_cycle,
            )
            self.num_deadline_misses += 1
            if self.bus is not None:
                self._emit(
                    EventKind.DEADLINE_MISS,
                    task_id=context.task_id,
                    deadline_cycles=context.deadline_cycles,
                    turnaround_cycles=job.turnaround_cycles,
                )
        if self.bus is not None:
            self._emit(
                EventKind.JOB_COMPLETE,
                task_id=context.task_id,
                request_cycle=job.request_cycle,
                response_cycles=job.response_cycles,
                turnaround_cycles=job.turnaround_cycles,
            )
        if self.on_complete is not None:
            self.on_complete(context.task_id, job)

    # -- instruction handling -----------------------------------------------------

    def _handle_real(self, context: TaskContext, instruction: Instruction) -> None:
        if context.in_recovery:
            context.in_recovery = False
        if (
            instruction.opcode == Opcode.SAVE
            and instruction.save_id != NO_SAVE_ID
            and instruction.save_id == context.save_id
        ):
            rewritten = self._rewrite_save(context, instruction)
            context.clear_save_state()
            if rewritten is None:
                context.instr_index += 1
                return
            instruction = rewritten
        self._execute(context, instruction)
        context.instr_index += 1

    def _rewrite_save(
        self, context: TaskContext, instruction: Instruction
    ) -> Instruction | None:
        """Trim a SAVE by the channels its VIR_SAVE already stored."""
        remaining = instruction.chs - context.saved_chs
        if remaining < 0:
            raise IauError(
                f"task {context.task_id}: SaveLength {context.saved_chs} exceeds "
                f"SAVE window of {instruction.chs} channels"
            )
        if remaining == 0:
            return None  # everything already in DDR: drop the SAVE
        bytes_per_channel = instruction.length // instruction.chs
        return instruction.with_channel_range(
            ch0=instruction.ch0 + context.saved_chs,
            chs=remaining,
            length=bytes_per_channel * remaining,
        )

    def _handle_virtual(self, context: TaskContext, instruction: Instruction) -> None:
        is_recovery_load = instruction.opcode in (Opcode.VIR_LOAD_D, Opcode.VIR_LOAD_W)
        if context.in_recovery and is_recovery_load:
            # Resuming: materialize the recovery loads (this is t4).
            cycles = self._execute(context, instruction.materialized())
            self.restore_cycles += cycles
            if self.bus is not None:
                self._emit(
                    EventKind.VI_EXPAND,
                    cycle=self.clock - cycles,
                    task_id=context.task_id,
                    layer_id=instruction.layer_id,
                    duration=cycles,
                    phase="recovery",
                    opcode=instruction.opcode.name,
                )
            context.instr_index += 1
            return
        if context.in_recovery and not is_recovery_load:
            context.in_recovery = False

        can_switch = (
            instruction.is_switch_point
            and self._winner(context.priority) is not None
        )
        if self.faults is not None and instruction.is_switch_point:
            if can_switch and self.faults.fires(FaultSite.IAU_DROP_PREEMPT):
                # Interrupt line glitches low: the pending preemption is not
                # seen here; it fires at the next switch point instead.
                can_switch = False
                self._inject(
                    FaultSite.IAU_DROP_PREEMPT,
                    task_id=context.task_id,
                    program_index=context.instr_index,
                )
            elif not can_switch and self.faults.fires(FaultSite.IAU_SPURIOUS_PREEMPT):
                # Interrupt line glitches high: back up and switch away with
                # no higher-priority work, paying backup + recovery.
                can_switch = True
                self._inject(
                    FaultSite.IAU_SPURIOUS_PREEMPT,
                    task_id=context.task_id,
                    program_index=context.instr_index,
                )
        if not can_switch:
            context.instr_index += 1  # discard: no interrupt pending here
            return
        self._preempt_at(context, instruction)

    def _preempt_at(self, context: TaskContext, instruction: Instruction) -> None:
        """Perform the interrupt encoded by a virtual instruction."""
        backup_transfer_cycles = 0
        if instruction.opcode == Opcode.VIR_SAVE:
            already = context.saved_chs if context.save_id == instruction.save_id else 0
            backup_chs = instruction.chs - already
            if backup_chs > 0:
                bytes_per_channel = instruction.length // instruction.chs
                backup = instruction.materialized().with_channel_range(
                    ch0=instruction.ch0 + already,
                    chs=backup_chs,
                    length=bytes_per_channel * backup_chs,
                )
                backup_transfer_cycles = self._execute(context, backup)
                self.backup_cycles += backup_transfer_cycles
            context.save_id = instruction.save_id
            context.saved_chs = instruction.chs
            if self.faults is not None:
                self._take_checkpoint(context, instruction)
            context.instr_index += 1  # resume at the recovery loads that follow
            context.in_recovery = True
        elif instruction.opcode in (Opcode.VIR_LOAD_D, Opcode.VIR_LOAD_W):
            # Interrupt point after a SAVE: nothing to back up; on resume the
            # recovery loads (starting with this one) re-execute.
            context.in_recovery = True
        elif instruction.opcode == Opcode.VIR_BARRIER:
            context.instr_index += 1  # free switch point: nothing to recover
        else:  # pragma: no cover
            raise IauError(f"unexpected virtual opcode {instruction.opcode.name}")
        self.core.invalidate()
        self.current = None
        if self.bus is not None:
            winner = self._winner(context.priority)
            self._emit(
                EventKind.VI_EXPAND,
                cycle=self.clock - backup_transfer_cycles,
                task_id=context.task_id,
                layer_id=instruction.layer_id,
                duration=backup_transfer_cycles,
                phase="backup",
                opcode=instruction.opcode.name,
            )
            self._emit(
                EventKind.PREEMPT_BEGIN,
                task_id=context.task_id,
                by=None if winner is None else winner.task_id,
                backup_cycles=backup_transfer_cycles,
            )

    # -- checkpoints & fault helpers ------------------------------------------

    def _inject(self, site: FaultSite, **detail: Any) -> None:
        """Record one fired fault with the plan and mirror it on the bus."""
        assert self.faults is not None  # only an armed plan can fire
        self.faults.record(site, self.clock, **detail)
        if self.bus is not None:
            self._emit(EventKind.FAULT_INJECT, site=site.value, **detail)

    def _take_checkpoint(self, context: TaskContext, instruction: Instruction) -> None:
        """CRC the Vir_SAVE context just written to DDR (then maybe corrupt it).

        Called with ``instr_index`` still pointing at the VIR_SAVE.  The CRC
        covers the *whole* saved window ``[ch0, ch0 + chs)`` — including the
        part an earlier VIR_SAVE of the same section stored — because that is
        exactly what the recovery loads will read back.
        """
        layer = context.compiled.layer_config(instruction.layer_id)
        checkpoint = Checkpoint(
            instr_index=context.instr_index,
            save_id=context.save_id,
            saved_chs=context.saved_chs,
            region_name=layer.output_region,
            row0=instruction.row0,
            rows=instruction.rows,
            ch0=instruction.ch0,
            chs=instruction.chs,
            crc=0,
        )
        checkpoint.crc = self._checkpoint_crc(checkpoint)
        context.checkpoint = checkpoint
        assert self.faults is not None  # callers gate on an armed plan
        if self.faults.fires(FaultSite.CHECKPOINT_CORRUPT):
            self._corrupt_checkpoint(context, checkpoint)

    def _checkpoint_crc(self, checkpoint: Checkpoint) -> int:
        region = self.core.ddr.region(checkpoint.region_name)
        view = region.array[
            checkpoint.row0 : checkpoint.row0 + checkpoint.rows,
            :,
            checkpoint.ch0 : checkpoint.ch0 + checkpoint.chs,
        ]
        return zlib.crc32(np.ascontiguousarray(view).tobytes())

    def _corrupt_checkpoint(self, context: TaskContext, checkpoint: Checkpoint) -> None:
        """The backup burst writes a bad word with consistent ECC: only the
        checkpoint CRC can catch it, at the task's next resume."""
        region = self.core.ddr.region(checkpoint.region_name)
        view = region.array[
            checkpoint.row0 : checkpoint.row0 + checkpoint.rows,
            :,
            checkpoint.ch0 : checkpoint.ch0 + checkpoint.chs,
        ]
        assert self.faults is not None  # only an armed plan corrupts
        index = self.faults.draw_index(FaultSite.CHECKPOINT_CORRUPT, view.size)
        coords = np.unravel_index(index, view.shape)
        view[coords] = ~view[coords]
        self._inject(
            FaultSite.CHECKPOINT_CORRUPT,
            task_id=context.task_id,
            program_index=checkpoint.instr_index,
        )

    def _verify_checkpoint(self, context: TaskContext) -> None:
        """Verify the pending Vir_SAVE context on resume; roll back on mismatch.

        Retries are bounded per job by the plan's ``max_checkpoint_retries``;
        exhausting the budget raises :class:`~repro.errors.CheckpointError`
        (detected-fatal, never silent).
        """
        checkpoint = context.checkpoint
        assert checkpoint is not None  # the caller checks before verifying
        context.checkpoint = None
        if self._checkpoint_crc(checkpoint) == checkpoint.crc:
            checkpoint.verified = True
            context.good_checkpoint = checkpoint
            return
        if self.bus is not None:
            self._emit(
                EventKind.FAULT_DETECT,
                task_id=context.task_id,
                site=FaultSite.CHECKPOINT_CORRUPT.value,
                program_index=checkpoint.instr_index,
            )
        context.checkpoint_retries += 1
        if context.current_job is not None:
            # The retry count survives on the record even if the job later
            # completes (or the run dies): campaigns and the serving layer
            # read it from there, not from the transient context.
            context.current_job.checkpoint_retries = context.checkpoint_retries
        limit = self.faults.max_checkpoint_retries if self.faults is not None else 1
        if self.bus is not None:
            self._emit(
                EventKind.CHECKPOINT_RETRY,
                task_id=context.task_id,
                attempt=context.checkpoint_retries,
                budget=limit,
                program_index=checkpoint.instr_index,
            )
        if context.checkpoint_retries > limit:
            raise CheckpointError(
                f"task {context.task_id}: checkpoint at instruction "
                f"{checkpoint.instr_index} failed CRC verification "
                f"{context.checkpoint_retries} times (budget {limit})",
                attempts=context.checkpoint_retries,
            )
        self._rollback(context, checkpoint)

    def _rollback(self, context: TaskContext, failed: Checkpoint) -> None:
        """Re-execute from the last good checkpoint (or the job's start)."""
        good = context.good_checkpoint
        if good is not None and self._checkpoint_crc(good) != good.crc:
            # The corruption reaches into the rollback target itself.
            context.good_checkpoint = good = None
        if good is not None:
            context.instr_index = good.instr_index + 1
            context.save_id = good.save_id
            context.saved_chs = good.saved_chs
            context.in_recovery = True
        else:
            context.instr_index = 0
            context.clear_save_state()
            context.in_recovery = False
        self.core.invalidate()
        self.num_rollbacks += 1
        if self.bus is not None:
            self._emit(
                EventKind.FAULT_RECOVER,
                task_id=context.task_id,
                site=FaultSite.CHECKPOINT_CORRUPT.value,
                action="rollback",
                from_index=failed.instr_index,
                to_index=context.instr_index,
            )

    def _execute(self, context: TaskContext, instruction: Instruction) -> int:
        layer = context.compiled.layer_config(instruction.layer_id)
        if self.bus is not None:
            self.bus.advance(self.clock)  # stamp core-side DDR bursts correctly
        cycles = self.core.execute(instruction, layer)
        if self.bus is not None:
            self._emit(
                EventKind.INSTR_RETIRE,
                task_id=context.task_id,
                layer_id=instruction.layer_id,
                duration=cycles,
                opcode=instruction.opcode.name,
                program_index=context.instr_index,
            )
        self.clock += cycles
        context.busy_cycles += cycles
        return cycles
