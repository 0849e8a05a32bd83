"""Persistent job journal: the gateway's single source of truth.

One SQLite database (WAL mode) records every job the gateway has ever
accepted, every state transition, every snapshot written, and every worker
death observed.  The journal — not gateway memory — defines what exists:
after the gateway process itself is killed and rebooted, :meth:`JobJournal.
orphaned` lists the jobs that were mid-flight and the recovery machinery
resumes them from their last recorded snapshot.

Design rules:

* **WAL journal mode** so the dispatcher thread, worker-observing code and
  status queries never block each other on reads.
* **One connection per thread per process.**  Each thread opens its own
  connection on first use and keeps it (the two PRAGMAs run once, not per
  call); a forked child opens a new one instead of touching its parent's.
  So every method stays usable from any thread or process, and no sqlite3
  connection is ever used by two threads.  :meth:`JobJournal.close`
  closes every connection this process opened (the gateway calls it once
  its threads have stopped); a later call opens a fresh one.
* **Append-only events.**  The ``jobs`` row is the current state; the
  ``events`` table is the full history (used by tests and the recovery
  latency report).

Timestamps are ``time.monotonic()`` deltas where durations matter and
``time.time()`` epochs where wall-clock ordering matters; the journal
stores epochs.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import ServeError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id        TEXT PRIMARY KEY,
    state         TEXT NOT NULL,
    spec          BLOB NOT NULL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL DEFAULT 1,
    deadline_s    REAL,
    submitted_at  REAL NOT NULL,
    updated_at    REAL NOT NULL,
    snapshot_path TEXT,
    snapshot_cycle INTEGER,
    result        BLOB,
    error         TEXT
);
CREATE TABLE IF NOT EXISTS events (
    id      INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id  TEXT NOT NULL,
    kind    TEXT NOT NULL,
    at      REAL NOT NULL,
    detail  TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS events_by_job ON events (job_id, id);
"""


class JobState(str, Enum):
    """Lifecycle of one journaled job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: Journal event kinds (free-form strings in the table; these are the
#: vocabulary the gateway writes).
SUBMITTED = "submitted"
STARTED = "started"
SNAPSHOT = "snapshot"
WORKER_DEATH = "worker_death"
SNAPSHOT_CORRUPT = "snapshot_corrupt"
SNAPSHOT_DISCARDED = "snapshot_discarded"
SNAPSHOT_WRITE_FAILED = "snapshot_write_failed"
RESUMED = "resumed"
RETRY = "retry"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"


@dataclass(frozen=True)
class JournalRecord:
    """One ``jobs`` row, decoded."""

    job_id: str
    state: JobState
    spec: Any
    attempts: int
    max_attempts: int
    deadline_s: float | None
    submitted_at: float
    updated_at: float
    snapshot_path: str | None
    snapshot_cycle: int | None
    result: Any
    error: str | None


@dataclass(frozen=True)
class JournalEvent:
    """One ``events`` row, decoded."""

    id: int
    job_id: str
    kind: str
    at: float
    detail: Mapping[str, Any]


class JobJournal:
    """Durable job table + event log over one SQLite file."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every connection opened and not yet closed, with its process.
        self._opened: list[tuple[int, sqlite3.Connection]] = []
        #: Bumped by :meth:`close`: a thread's older connection is closed.
        self._generation = 0
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    # -- connection plumbing ----------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """This thread's connection, opened on its first call in this
        process (or since :meth:`close`).  ``with`` on it is one
        transaction."""
        local = self._local
        owner = (os.getpid(), self._generation)
        if getattr(local, "owner", None) != owner:
            # Used by this thread only; another closes it in close().
            conn = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with self._lock:
                self._opened.append((owner[0], conn))
            local.conn, local.owner = conn, owner
        return local.conn

    def close(self) -> None:
        """Close every connection this process opened, in every thread.
        Call it once no other thread uses the journal; any later call
        opens a fresh connection."""
        pid = os.getpid()
        with self._lock:
            self._generation += 1
            mine = [conn for owner, conn in self._opened if owner == pid]
            self._opened = [entry for entry in self._opened if entry[0] != pid]
        for conn in mine:
            conn.close()

    # -- writes ------------------------------------------------------------

    def submit(
        self,
        job_id: str,
        spec: Any,
        *,
        max_attempts: int = 1,
        deadline_s: float | None = None,
    ) -> None:
        now = time.time()
        blob = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            with self._connect() as conn:
                conn.execute(
                    "INSERT INTO jobs (job_id, state, spec, attempts, max_attempts,"
                    " deadline_s, submitted_at, updated_at)"
                    " VALUES (?, ?, ?, 0, ?, ?, ?, ?)",
                    (job_id, JobState.PENDING.value, blob, max_attempts,
                     deadline_s, now, now),
                )
                self._event(conn, job_id, SUBMITTED, {})
        except sqlite3.IntegrityError as exc:
            raise ServeError(f"job {job_id!r} already exists in the journal") from exc

    def transition(
        self,
        job_id: str,
        state: JobState,
        *,
        kind: str | None = None,
        detail: Mapping[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Move a job to ``state`` and append a matching event."""
        now = time.time()
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE jobs SET state = ?, updated_at = ?, error = ?"
                " WHERE job_id = ?",
                (state.value, now, error, job_id),
            )
            if updated.rowcount == 0:
                raise ServeError(f"unknown job {job_id!r}")
            self._event(conn, job_id, kind or state.value, dict(detail or {}))

    def start_attempt(self, job_id: str, *, resumed: bool = False) -> int:
        """Mark a job RUNNING, bump its attempt counter; returns the attempt."""
        now = time.time()
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE jobs SET state = ?, attempts = attempts + 1,"
                " updated_at = ? WHERE job_id = ?",
                (JobState.RUNNING.value, now, job_id),
            )
            if updated.rowcount == 0:
                raise ServeError(f"unknown job {job_id!r}")
            attempt = conn.execute(
                "SELECT attempts FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()[0]
            self._event(
                conn,
                job_id,
                RESUMED if resumed else STARTED,
                {"attempt": attempt},
            )
        return attempt

    def record_snapshot(self, job_id: str, path: str, cycle: int) -> None:
        now = time.time()
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE jobs SET snapshot_path = ?, snapshot_cycle = ?,"
                " updated_at = ? WHERE job_id = ?",
                (path, cycle, now, job_id),
            )
            if updated.rowcount == 0:
                raise ServeError(f"unknown job {job_id!r}")
            self._event(conn, job_id, SNAPSHOT, {"path": path, "cycle": cycle})

    def clear_snapshot(self, job_id: str) -> None:
        """Forget a job's snapshot (it is corrupt or stale) — the next
        attempt starts from scratch instead of resuming."""
        now = time.time()
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE jobs SET snapshot_path = NULL, snapshot_cycle = NULL,"
                " updated_at = ? WHERE job_id = ?",
                (now, job_id),
            )
            if updated.rowcount == 0:
                raise ServeError(f"unknown job {job_id!r}")
            self._event(conn, job_id, SNAPSHOT_DISCARDED, {})

    def complete(self, job_id: str, result: Any) -> None:
        now = time.time()
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE jobs SET state = ?, result = ?, updated_at = ?"
                " WHERE job_id = ?",
                (JobState.COMPLETED.value, blob, now, job_id),
            )
            if updated.rowcount == 0:
                raise ServeError(f"unknown job {job_id!r}")
            self._event(conn, job_id, COMPLETED, {})

    def record_event(
        self, job_id: str, kind: str, detail: Mapping[str, Any] | None = None
    ) -> None:
        with self._connect() as conn:
            self._event(conn, job_id, kind, dict(detail or {}))

    def _event(
        self, conn: sqlite3.Connection, job_id: str, kind: str, detail: dict
    ) -> None:
        conn.execute(
            "INSERT INTO events (job_id, kind, at, detail) VALUES (?, ?, ?, ?)",
            (job_id, kind, time.time(), json.dumps(detail, sort_keys=True)),
        )

    # -- reads -------------------------------------------------------------

    def _column(self, job_id: str, column: str) -> Any:
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT {column} FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise ServeError(f"unknown job {job_id!r}")
        return row[0]

    def state(self, job_id: str) -> JobState:
        """The job's state column alone (a poll that decodes no BLOB)."""
        return JobState(self._column(job_id, "state"))

    def result(self, job_id: str) -> Any:
        """The job's result BLOB alone, decoded (``None`` until it completes)."""
        blob = self._column(job_id, "result")
        return pickle.loads(blob) if blob is not None else None

    def get(self, job_id: str) -> JournalRecord:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT job_id, state, spec, attempts, max_attempts, deadline_s,"
                " submitted_at, updated_at, snapshot_path, snapshot_cycle,"
                " result, error FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            raise ServeError(f"unknown job {job_id!r}")
        return self._decode(row)

    def jobs(self, state: JobState | None = None) -> list[JournalRecord]:
        query = (
            "SELECT job_id, state, spec, attempts, max_attempts, deadline_s,"
            " submitted_at, updated_at, snapshot_path, snapshot_cycle,"
            " result, error FROM jobs"
        )
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state.value,)
        query += " ORDER BY submitted_at"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [self._decode(row) for row in rows]

    def orphaned(self) -> list[JournalRecord]:
        """Jobs the journal says were mid-flight when the gateway died."""
        return self.jobs(JobState.RUNNING) + self.jobs(JobState.PENDING)

    def events(self, job_id: str | None = None) -> Iterator[JournalEvent]:
        query = "SELECT id, job_id, kind, at, detail FROM events"
        params: tuple = ()
        if job_id is not None:
            query += " WHERE job_id = ?"
            params = (job_id,)
        query += " ORDER BY id"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        for row in rows:
            yield JournalEvent(
                id=row[0],
                job_id=row[1],
                kind=row[2],
                at=row[3],
                detail=json.loads(row[4]),
            )

    @staticmethod
    def _decode(row: tuple) -> JournalRecord:
        return JournalRecord(
            job_id=row[0],
            state=JobState(row[1]),
            spec=pickle.loads(row[2]),
            attempts=row[3],
            max_attempts=row[4],
            deadline_s=row[5],
            submitted_at=row[6],
            updated_at=row[7],
            snapshot_path=row[8],
            snapshot_cycle=row[9],
            result=pickle.loads(row[10]) if row[10] is not None else None,
            error=row[11],
        )
