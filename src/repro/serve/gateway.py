"""The durable serving gateway: submit / status / cancel / result.

:class:`ServeGateway` accepts :class:`~repro.serve.worker.JobSpec` jobs,
journals them (:mod:`repro.serve.journal`), and executes each in its own
``spawn``-context process running :func:`~repro.serve.worker.worker_main`.
A dispatcher thread watches the worker processes:

* **clean exit** — the worker journaled its own result; nothing to do;
* **journaled failure** (exit 1) — the worker hit a Python exception and
  recorded it; the job is terminally FAILED (exceptions are deterministic,
  retrying replays them);
* **death** — negative exit code (a signal: ``kill -9`` shows up as
  ``-SIGKILL``) or any exit that left the journal mid-flight.  The gateway
  records a ``worker_death`` event and, attempts permitting, re-launches
  the job after an exponential backoff.  The relaunched worker finds the
  journal's last snapshot and resumes mid-replay instead of starting over.

Deadlines are wall-clock budgets measured from submission: a running job
that overruns is killed and FAILED; a backoff that cannot fit in the
remaining budget fails immediately instead of waiting.

Construction replays the journal: jobs a *previous* gateway process left
RUNNING (the gateway itself was killed) are treated as worker deaths and
resumed — durability holds across gateway reboots, not just worker crashes.

``inline=True`` executes jobs synchronously in-process — no threads, no
child processes — for deterministic unit tests of the journal/snapshot
machinery.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
import uuid
from collections import deque
from pathlib import Path

from repro.errors import ServeError
from repro.serve.journal import (
    CANCELLED,
    FAILED,
    RETRY,
    WORKER_DEATH,
    JobJournal,
    JobState,
    JournalRecord,
)
from repro.serve.worker import JobResult, JobSpec, execute_job, load_result, worker_main


def classify_exit(exitcode: int | None) -> str:
    """One taxonomy for worker deaths: ``signal N`` / ``exit code N``.

    Negative exit codes are deaths by signal (``kill -9`` → ``signal 9``);
    anything else is the raw exit status.  The gateway journals this string
    as the ``reason`` of its ``worker_death`` events.
    """
    if exitcode is not None and exitcode < 0:
        return f"signal {-exitcode}"
    return f"exit code {exitcode}"


class ServeGateway:
    """Durable async job gateway over one journal directory."""

    def __init__(
        self,
        root: str | Path,
        *,
        workers: int = 1,
        max_attempts: int = 3,
        backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
        poll_s: float = 0.01,
        inline: bool = False,
    ):
        if workers < 1:
            raise ServeError("workers must be >= 1")
        if max_attempts < 1:
            raise ServeError("max_attempts must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_dir = self.root / "snapshots"
        self.snapshot_dir.mkdir(exist_ok=True)
        self.journal = JobJournal(self.root / "journal.db")
        self.workers = workers
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.backoff_factor = backoff_factor
        self.poll_s = poll_s
        self.inline = inline

        self._lock = threading.Lock()
        self._pending: deque[str] = deque()
        self._retry_at: list[tuple[float, str]] = []
        self._active: dict[str, multiprocessing.process.BaseProcess] = {}
        self._deadlines: dict[str, float] = {}  # job_id -> absolute deadline
        self._stop = threading.Event()
        self._mp = multiprocessing.get_context("spawn")
        self._dispatcher: threading.Thread | None = None

        self._recover()
        if not inline:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serve-dispatcher", daemon=True
            )
            self._dispatcher.start()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ServeGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop dispatching and terminate any still-running workers."""
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
            self._dispatcher = None
        with self._lock:
            active = dict(self._active)
        for process in active.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    def _recover(self) -> None:
        """Resume jobs a dead gateway left behind (journal is the truth)."""
        for record in self.journal.jobs(JobState.RUNNING):
            self.journal.record_event(
                record.job_id,
                WORKER_DEATH,
                {"reason": "gateway_reboot", "attempt": record.attempts},
            )
            with self._lock:
                self._track_deadline(record)
            self._handle_death(record, reason="gateway_reboot")
        for record in self.journal.jobs(JobState.PENDING):
            with self._lock:
                self._pending.append(record.job_id)
                self._track_deadline(record)

    # -- public API --------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        job_id: str | None = None,
        max_attempts: int | None = None,
        deadline_s: float | None = None,
    ) -> str:
        """Journal a job and queue it; returns its id immediately."""
        if job_id is None:
            job_id = f"job-{uuid.uuid4().hex[:12]}"
        self.journal.submit(
            job_id,
            spec,
            max_attempts=max_attempts or self.max_attempts,
            deadline_s=deadline_s,
        )
        if self.inline:
            self._run_inline(job_id)
            return job_id
        with self._lock:
            self._pending.append(job_id)
            if deadline_s is not None:
                self._deadlines[job_id] = time.monotonic() + deadline_s
        return job_id

    def status(self, job_id: str) -> JournalRecord:
        return self.journal.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Stop a pending or running job.  True if the cancel took effect."""
        with self._lock:
            process = self._active.pop(job_id, None)
            try:
                self._pending.remove(job_id)
            except ValueError:
                pass
            self._retry_at = [
                entry for entry in self._retry_at if entry[1] != job_id
            ]
            self._deadlines.pop(job_id, None)
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        record = self.journal.get(job_id)
        if record.state in (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED):
            return False
        self.journal.transition(job_id, JobState.CANCELLED, kind=CANCELLED)
        return True

    def result(self, job_id: str, *, timeout: float | None = None) -> JobResult:
        """Block until the job settles; returns its result or raises."""
        limit = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.journal.get(job_id)
            if record.state is JobState.COMPLETED:
                return load_result(self.journal, job_id)
            if record.state is JobState.FAILED:
                raise ServeError(
                    f"job {job_id!r} failed: {record.error or 'unknown error'}"
                )
            if record.state is JobState.CANCELLED:
                raise ServeError(f"job {job_id!r} was cancelled")
            if limit is not None and time.monotonic() >= limit:
                raise ServeError(
                    f"timed out after {timeout}s waiting for job {job_id!r} "
                    f"(state {record.state.value})"
                )
            time.sleep(self.poll_s)

    async def result_async(
        self, job_id: str, *, timeout: float | None = None
    ) -> JobResult:
        """Awaitable :meth:`result` (runs the poll off the event loop)."""
        return await asyncio.to_thread(self.result, job_id, timeout=timeout)

    def worker_pid(self, job_id: str) -> int | None:
        """The live worker's pid (the crash-recovery benchmark's kill target)."""
        with self._lock:
            process = self._active.get(job_id)
        if process is None or not process.is_alive():
            return None
        return process.pid

    # -- inline execution --------------------------------------------------

    def _run_inline(self, job_id: str) -> None:
        record = self.journal.get(job_id)
        while True:
            resumed = bool(record.snapshot_path)
            attempt = self.journal.start_attempt(job_id, resumed=resumed)
            try:
                result = execute_job(
                    job_id,
                    record.spec,
                    self.journal,
                    self.snapshot_dir,
                    attempt=attempt,
                )
            except Exception as exc:
                if attempt >= record.max_attempts:
                    self.journal.transition(
                        job_id,
                        JobState.FAILED,
                        kind=FAILED,
                        detail={"attempt": attempt},
                        error=repr(exc),
                    )
                    return
                self.journal.record_event(
                    job_id, RETRY, {"attempt": attempt, "error": repr(exc)}
                )
                record = self.journal.get(job_id)
                continue
            self.journal.complete(job_id, result)
            return

    # -- the dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self._promote_retries()
            self._reap()
            self._enforce_deadlines()
            self._launch()
            time.sleep(self.poll_s)

    def _promote_retries(self) -> None:
        now = time.monotonic()
        with self._lock:
            due = [job_id for at, job_id in self._retry_at if at <= now]
            self._retry_at = [
                entry for entry in self._retry_at if entry[0] > now
            ]
            self._pending.extend(due)

    def _launch(self) -> None:
        while True:
            with self._lock:
                if len(self._active) >= self.workers or not self._pending:
                    return
                job_id = self._pending.popleft()
            process = self._mp.Process(
                target=worker_main,
                args=(job_id, str(self.journal.path), str(self.snapshot_dir)),
                daemon=True,
            )
            process.start()
            with self._lock:
                self._active[job_id] = process

    def _reap(self) -> None:
        with self._lock:
            finished = [
                (job_id, process)
                for job_id, process in self._active.items()
                if not process.is_alive()
            ]
            for job_id, _ in finished:
                del self._active[job_id]
        for job_id, process in finished:
            process.join()
            record = self.journal.get(job_id)
            if record.state in (
                JobState.COMPLETED,
                JobState.FAILED,
                JobState.CANCELLED,
            ):
                with self._lock:
                    self._deadlines.pop(job_id, None)
                continue
            # The worker died without journaling an outcome: a crash.
            exitcode = process.exitcode
            reason = classify_exit(exitcode)
            self.journal.record_event(
                job_id,
                WORKER_DEATH,
                {
                    "reason": reason,
                    "exitcode": exitcode,
                    "attempt": record.attempts,
                    "snapshot_cycle": record.snapshot_cycle,
                },
            )
            self._handle_death(record, reason=reason)

    def _handle_death(self, record: JournalRecord, *, reason: str) -> None:
        job_id = record.job_id
        if record.attempts >= record.max_attempts:
            self.journal.transition(
                job_id,
                JobState.FAILED,
                kind=FAILED,
                detail={"attempt": record.attempts, "reason": reason},
                error=f"worker died ({reason}) and the retry budget "
                f"({record.max_attempts}) is spent",
            )
            with self._lock:
                self._deadlines.pop(job_id, None)
            return
        delay = self.backoff_s * (self.backoff_factor ** max(0, record.attempts - 1))
        with self._lock:
            deadline = self._deadlines.get(job_id)
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._fail_deadline(job_id, record)
                return
            delay = min(delay, remaining)
        self.journal.record_event(
            job_id,
            RETRY,
            {
                "attempt": record.attempts,
                "delay_s": delay,
                "reason": reason,
                "from_snapshot_cycle": record.snapshot_cycle,
            },
        )
        with self._lock:
            self._retry_at.append((time.monotonic() + delay, job_id))

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        with self._lock:
            overdue = [
                job_id
                for job_id, deadline in self._deadlines.items()
                if deadline <= now
            ]
        for job_id in overdue:
            with self._lock:
                process = self._active.pop(job_id, None)
                try:
                    self._pending.remove(job_id)
                except ValueError:
                    pass
                self._retry_at = [
                    entry for entry in self._retry_at if entry[1] != job_id
                ]
                self._deadlines.pop(job_id, None)
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            record = self.journal.get(job_id)
            if record.state in (
                JobState.COMPLETED,
                JobState.FAILED,
                JobState.CANCELLED,
            ):
                continue
            self._fail_deadline(job_id, record)

    def _fail_deadline(self, job_id: str, record: JournalRecord) -> None:
        self.journal.transition(
            job_id,
            JobState.FAILED,
            kind=FAILED,
            detail={"attempt": record.attempts, "reason": "deadline"},
            error=f"deadline of {record.deadline_s}s exceeded",
        )
        with self._lock:
            self._deadlines.pop(job_id, None)

    def _track_deadline(self, record: JournalRecord) -> None:
        """Re-arm a recovered job's deadline from its original submit time."""
        if record.deadline_s is None:
            return
        elapsed = time.time() - record.submitted_at
        remaining = record.deadline_s - elapsed
        self._deadlines[record.job_id] = time.monotonic() + max(0.0, remaining)


__all__ = ["ServeGateway", "classify_exit"]
