"""The serve worker: one journaled job executed (or resumed) in a process.

A job is a :class:`JobSpec` — a farm :class:`~repro.farm.node.NodeAssignment`
plus execution options.  :func:`execute_job` runs it the same way
:func:`~repro.farm.node.simulate_node` would, but in snapshot-bounded
chunks: every ``snapshot_every_cycles`` simulated cycles the full system
state is written through :func:`~repro.serve.snapshot.snapshot_system` and
recorded in the journal.  When the process hosting this function is killed
— ``kill -9``, OOM, power loss — the gateway notices the death, re-launches
the job, and :func:`execute_job` finds the journal's last snapshot and
resumes from it instead of replaying from cycle zero.  Because snapshots
capture the request heap, the event stream and every armed subsystem's
state, the resumed run is bit-identical to an uninterrupted one.

:func:`worker_main` is the process entry point, run in a
:class:`WorkerProcess` forked from the gateway's fork server (which
preloads this module, so a launch imports nothing); it owns all journal
writes a live worker can make (start/snapshot/complete/fail).
Deaths are necessarily journaled by the gateway — a SIGKILLed process
writes nothing.
"""

from __future__ import annotations

import gc
import io
import os
import traceback
from dataclasses import dataclass, field
from multiprocessing import forkserver, popen_forkserver, reduction, spawn, util
from multiprocessing.context import ForkServerProcess, set_spawning_popen
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any

from repro.errors import ServeError, SnapshotError
from repro.farm.node import (
    NodeAssignment,
    NodeJobResult,
    build_node_system,
    collect_assignment,
    decode_results,
    encode_results,
    expected_per_slot,
    submit_assignment,
)
from repro.obs.config import ObsConfig
from repro.obs.events import Event
from repro.runtime.system import MultiTaskSystem
from repro.serve.journal import (
    FAILED, SNAPSHOT_CORRUPT, SNAPSHOT_WRITE_FAILED, JobJournal, JobState, JournalRecord,
)
from repro.serve.snapshot import restore_system, snapshot_system

#: Exit code of a worker that simulated a hard crash (test hook).
CRASH_EXIT_CODE = 113

#: The preparation-data keys that make a child re-run the caller's main
#: module (as ``__mp_main__``) before it unpickles its target.
_MAIN_KEYS = ("init_main_from_path", "init_main_from_name")


def _close_fds(*fds: int) -> None:
    for fd in fds:
        os.close(fd)


class _LaunchPopen(popen_forkserver.Popen):
    """A fork-server launch whose preparation data names no main module.

    ``popen_forkserver.Popen._launch`` with one change: the
    ``init_main_from_*`` keys are dropped, so the forked child does not
    re-run the caller's script.  A worker needs nothing from ``__main__``:
    its target and arguments live in this module.
    """

    #: File descriptors passed to the child (``duplicate_for_child``).
    _fds: list[int]

    def _launch(self, process_obj: BaseProcess) -> None:
        prep_data = spawn.get_preparation_data(process_obj.name)
        for key in _MAIN_KEYS:
            prep_data.pop(key, None)
        buf = io.BytesIO()
        set_spawning_popen(self)
        try:
            reduction.dump(prep_data, buf)
            reduction.dump(process_obj, buf)
        finally:
            set_spawning_popen(None)
        self.sentinel, w = forkserver.connect_to_new_process(self._fds)
        # The parent keeps a duplicate of the data pipe's write end: the
        # child's sentinel of its parent.
        parent_w = os.dup(w)
        self.finalizer = util.Finalize(self, _close_fds, (parent_w, self.sentinel))
        with open(w, "wb", closefd=True) as f:
            f.write(buf.getbuffer())
        self.pid = forkserver.read_signed(self.sentinel)


class WorkerProcess(ForkServerProcess):
    """A fork-server process launched through :class:`_LaunchPopen`."""

    @staticmethod
    def _Popen(process_obj: BaseProcess) -> _LaunchPopen:
        return _LaunchPopen(process_obj)


@dataclass(frozen=True)
class JobSpec:
    """Everything one worker process needs (picklable, journal-stored)."""

    assignment: NodeAssignment
    #: Run real int8 arithmetic (enables :attr:`inputs` / output capture).
    functional: bool = False
    #: Record the structured event stream (returned in the result).
    events: bool = False
    #: Snapshot cadence in simulated cycles; 0 disables checkpointing.
    snapshot_every_cycles: int = 0
    #: ``(slot, HWC int8 array)`` inputs for functional jobs.
    inputs: tuple[tuple[int, Any], ...] = field(default_factory=tuple)
    #: Test hook: on the *first* attempt only, die like ``kill -9`` (no
    #: journal writes, ``os._exit``) after this many snapshots.
    crash_after_snapshots: int | None = None


@dataclass(frozen=True)
class JobResult:
    """What a completed job returns (pickled into the journal)."""

    job_id: str
    node: int
    records: tuple[NodeJobResult, ...]
    final_cycle: int
    #: ``(slot, output array)`` for functional jobs, else empty.
    outputs: tuple[tuple[int, Any], ...] = field(default_factory=tuple)
    #: Recorded event stream when :attr:`JobSpec.events` was set.
    events: tuple[Event, ...] = field(default_factory=tuple)
    #: Cycle the executing attempt resumed from (0 = ran from scratch).
    resumed_from_cycle: int = 0
    snapshots_written: int = 0

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickle :attr:`records` as one int64 block (:func:`encode_results`;
        little-endian, so a journal reads the same on any host).

        A result pickled field by field, as journals written before this
        codec hold them, still loads: unpickling that form never calls
        this method."""
        state = dict(vars(self))
        state["records"] = encode_results(self.records)
        return _load_job_result, (state,)


def _load_job_result(state: dict[str, Any]) -> JobResult:
    state["records"] = tuple(decode_results(state["records"]))
    return JobResult(**state)


def _build_system(spec: JobSpec) -> MultiTaskSystem:
    obs = ObsConfig(functional=spec.functional, events=spec.events)
    return build_node_system(
        spec.assignment.config,
        spec.assignment.services,
        spec.assignment.vi_mode,
        obs=obs,
    )


def _apply_inputs(system: MultiTaskSystem, spec: JobSpec) -> None:
    for slot, array in spec.inputs:
        system.iau.context(slot).compiled.set_input(array)


def _collect_outputs(
    system: MultiTaskSystem, spec: JobSpec
) -> tuple[tuple[int, Any], ...]:
    if not spec.functional:
        return ()
    slots = sorted({slot for slot, _ in spec.inputs})
    return tuple(
        (slot, system.iau.context(slot).compiled.get_output()) for slot in slots
    )


def execute_job(
    record: JournalRecord,
    journal: JobJournal,
    snapshot_dir: str | Path,
    *,
    attempt: int = 1,
) -> JobResult:
    """Run (or resume) one job to completion; returns its result.

    ``record`` is the job's journal row as the attempt found it: its
    :class:`JobSpec`, and the snapshot to resume from, if any.

    Fresh start: build the node system, submit the dispatch plan, run.
    Resume: build the *same* system, restore the journal's last snapshot
    (which carries the pending request heap — the plan is NOT re-submitted),
    continue from the captured cycle.  A snapshot that fails to restore —
    deleted, truncated write, bit rot, another format version, poisoned by
    a chaos plan — is not fatal: the corruption is journaled
    (``snapshot_corrupt``), the snapshot is discarded from the journal, and
    the attempt falls back to a fresh start (exactness is preserved; only
    the resume shortcut is lost).  Either way the run proceeds in ``snapshot_every_cycles`` chunks
    with a journaled snapshot at each boundary; a snapshot that cannot be
    *written* is journaled (``snapshot_write_failed``) and skipped.
    """
    job_id, spec = record.job_id, record.spec
    assignment = spec.assignment
    system = _build_system(spec)

    resumed_from = 0
    resumed = False
    if record.snapshot_path:
        try:
            restore_system(system, record.snapshot_path)
        except SnapshotError as exc:
            journal.record_event(
                job_id,
                SNAPSHOT_CORRUPT,
                {
                    "attempt": attempt,
                    "path": record.snapshot_path,
                    "error": str(exc),
                },
            )
            journal.clear_snapshot(job_id)
            system = _build_system(spec)
        else:
            per_slot = expected_per_slot(assignment)
            resumed_from = system.clock
            resumed = True
    if not resumed:
        if spec.functional:
            _apply_inputs(system, spec)
        per_slot = submit_assignment(assignment, system)

    snapshot_path = Path(snapshot_dir) / f"{job_id}.snap"
    snapshots = 0
    if spec.snapshot_every_cycles > 0:
        while not system.done:
            system.run(until_cycle=system.clock + spec.snapshot_every_cycles)
            if system.done:
                break
            try:
                snapshot_system(
                    system,
                    snapshot_path,
                    meta={"job_id": job_id, "attempt": attempt},
                )
            except SnapshotError as exc:
                # Full disk, read-only directory: the job keeps running
                # un-checkpointed (the previous snapshot, if any, stays
                # valid) instead of burning the gateway's retry budget.
                journal.record_event(
                    job_id,
                    SNAPSHOT_WRITE_FAILED,
                    {"attempt": attempt, "cycle": system.clock, "error": str(exc)},
                )
                continue
            journal.record_snapshot(job_id, str(snapshot_path), system.clock)
            snapshots += 1
            if (
                spec.crash_after_snapshots is not None
                and attempt == 1
                and snapshots >= spec.crash_after_snapshots
            ):
                # Simulated kill -9: vanish without flushing anything.
                os._exit(CRASH_EXIT_CODE)
    else:
        system.run()

    records = collect_assignment(assignment, system, per_slot)
    events: tuple[Event, ...] = ()
    if spec.events and system.bus is not None:
        events = tuple(system.bus.events)
    return JobResult(
        job_id=job_id,
        node=assignment.node,
        records=tuple(sorted(records, key=lambda r: r.job_id)),
        final_cycle=system.clock,
        outputs=_collect_outputs(system, spec),
        events=events,
        resumed_from_cycle=resumed_from,
        snapshots_written=snapshots,
    )


def worker_main(job_id: str, journal_path: str, snapshot_dir: str) -> None:
    """Process entry point: load the spec from the journal, run, journal
    the outcome.  Exit code 0 = completed, 1 = failed (journaled), negative
    (a signal) or :data:`CRASH_EXIT_CODE` = death the gateway must handle.
    """
    # The worker forked with the fork server's whole heap; freezing it keeps
    # the collector from walking those objects (milliseconds per pass) on
    # the way to journaling the attempt.
    gc.freeze()
    journal = JobJournal(journal_path)
    record = journal.get(job_id)
    resumed = bool(record.snapshot_path)
    attempt = journal.start_attempt(job_id, resumed=resumed)
    try:
        result = execute_job(record, journal, snapshot_dir, attempt=attempt)
    except ServeError:
        raise
    except Exception as exc:  # journal, then die visibly
        journal.transition(
            job_id,
            JobState.FAILED,
            kind=FAILED,
            detail={"attempt": attempt, "error": repr(exc)},
            error="".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
        )
        raise SystemExit(1)
    journal.complete(job_id, result)


def load_result(journal: JobJournal, job_id: str) -> JobResult:
    """The completed job's :class:`JobResult` (typed accessor; decodes the
    result BLOB alone)."""
    state = journal.state(job_id)
    if state is not JobState.COMPLETED:
        raise ServeError(f"job {job_id!r} is {state.value}, not completed")
    result = journal.result(job_id)
    if not isinstance(result, JobResult):
        raise ServeError(f"job {job_id!r} journaled a foreign result: {type(result)!r}")
    return result


__all__ = [
    "CRASH_EXIT_CODE",
    "JobResult",
    "JobSpec",
    "execute_job",
    "load_result",
    "worker_main",
]
