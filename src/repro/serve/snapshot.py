"""Versioned, CRC-checked system snapshots on disk.

A snapshot file is the durable form of
:meth:`~repro.runtime.system.MultiTaskSystem.capture_state`: the full
mid-run state of one system (DDR contents, on-chip buffers, IAU task table,
scheduler bookkeeping, and — when armed — the event stream, metrics,
monitor, admission and fault-plan RNG states), written atomically so a
worker killed mid-write can never leave a half-snapshot that passes
validation.

The file is one :mod:`repro.container` frame (magic ``INCASNAP``; header
table and validation reasons in ``docs/architecture.md`` §Persistence)
around a pickle of ``{"meta": ..., "state": ...}``.  The CRC covers the
pickled payload, so truncation, torn writes and bit rot are all caught
before unpickling; any validation failure raises a typed
:class:`~repro.errors.SnapshotError`.  ``meta`` is a small caller-owned
mapping (job id, cycle, attempt) readable without restoring anything.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.container import HEADER, frame, unframe, write_atomic
from repro.errors import IncaError, SnapshotError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.system import MultiTaskSystem

MAGIC = b"INCASNAP"
#: v2: the state is laid out by :class:`repro.state.Stateful` declarations.
#: v3: pending requests (``MultiTaskSystem._requests``) pickle as tuples; a
#: v2 file's request records would not unpickle into them.
#: v4: the request heap and each slot's completed jobs are int columns
#: (:data:`repro.state.Stateful.COLUMNS`); a v3 file holds object lists.
VERSION = 4


@dataclass(frozen=True)
class SnapshotInfo:
    """What :func:`write_snapshot` produced (and header probes return)."""

    path: str
    version: int
    crc: int
    payload_bytes: int
    meta: Mapping[str, Any]


def _info(path: Path, blob: bytes, meta: Mapping[str, Any]) -> SnapshotInfo:
    _magic, version, _flags, crc, length = HEADER.unpack_from(blob)
    return SnapshotInfo(str(path), version, crc, length, meta)


def write_snapshot(
    path: str | Path,
    state: dict[str, Any],
    *,
    meta: Mapping[str, Any] | None = None,
) -> SnapshotInfo:
    """Serialize ``state`` to ``path`` atomically (tmp file + rename).

    The rename is the commit point: a crash at any earlier moment leaves
    either the previous snapshot or a ``.tmp`` leftover, never a corrupt
    file under the final name.
    """
    path = Path(path)
    meta = dict(meta or {})
    try:
        payload = pickle.dumps(
            {"meta": meta, "state": state}, protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:
        raise SnapshotError(f"snapshot state is not picklable: {exc}") from exc
    blob = frame(MAGIC, VERSION, payload)
    try:
        write_atomic(path, blob)
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
    return _info(path, blob, meta)


def _read(path: Path) -> tuple[bytes, dict[str, Any]]:
    """One read of ``path`` → ``(raw blob, validated payload document)``."""
    try:
        blob = path.read_bytes()
        document = pickle.loads(unframe(blob, MAGIC, VERSION))
    except Exception as exc:  # OSError, any unframe reason, any unpickle failure
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(document, dict) or "state" not in document:
        raise SnapshotError(f"snapshot {path} payload has no state document")
    return blob, document


def read_snapshot(path: str | Path) -> tuple[Mapping[str, Any], dict[str, Any]]:
    """Validate and load one snapshot file → ``(meta, state)``.

    Every failure mode — missing file, any :func:`repro.container.unframe`
    reason (short header, wrong magic, older or newer version, flags,
    truncation, CRC mismatch), unpicklable payload — raises
    :class:`~repro.errors.SnapshotError` with a message naming the cause.
    """
    _blob, document = _read(Path(path))
    return document.get("meta", {}), document["state"]


def probe_snapshot(path: str | Path) -> SnapshotInfo:
    """Validity check returning the header fields + meta.

    The payload is one pickle, so the whole file is read, CRC-checked and
    unpickled (once); nothing is restored into any system.
    """
    blob, document = _read(Path(path))
    return _info(Path(path), blob, document.get("meta", {}))


def snapshot_system(
    system: "MultiTaskSystem",
    path: str | Path,
    *,
    meta: Mapping[str, Any] | None = None,
) -> SnapshotInfo:
    """Capture ``system`` and write it in one call.

    The live :meth:`~repro.state.Stateful.state_view` is pickled directly:
    the pickle is already the detached copy, so no ``deepcopy`` precedes it.
    """
    meta = {"cycle": system.clock, **(meta or {})}
    return write_snapshot(path, system.state_view(), meta=meta)


def restore_system(system: "MultiTaskSystem", path: str | Path) -> Mapping[str, Any]:
    """Load a snapshot into an identically-built ``system``; returns meta.

    Every restore-time refusal of a CRC-clean file (different task set,
    config, armed subsystems, DDR regions, IAU slots) surfaces as
    :class:`~repro.errors.SnapshotError`.
    """
    meta, state = read_snapshot(path)
    try:
        system.restore_state(state)
    except IncaError as exc:
        raise SnapshotError(f"snapshot {path} does not fit: {exc}") from exc
    return meta
