"""The one framed container under snapshots, cache entries and programs.

Every artefact this package persists — ``INCASNAP`` system snapshots
(:mod:`repro.serve.snapshot`), ``INCACCHE`` compile-cache entries
(:mod:`repro.compiler.cache`) and ``INCAPROG`` ``instruction.bin`` files
(:mod:`repro.isa.program`) — is one payload behind the same header
(big-endian)::

    offset  size  field
    ------  ----  --------------------------------------------------
    0       8     magic (names the format)
    8       2     format version (exact match required)
    10      2     flags (reserved, must be 0)
    12      4     CRC32 of the payload bytes
    16      8     payload length in bytes
    24      n     payload

:func:`unframe` validates in that order and raises :class:`ContainerError`
with a machine-readable ``reason``; the callers own only their *policy*
(typed error vs counted miss).  :func:`write_atomic` is the single
tmp + fsync + ``os.replace`` in the package.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

from repro.errors import ContainerError

HEADER = struct.Struct(">8sHHIQ")


def frame(magic: bytes, version: int, payload: bytes) -> bytes:
    """``payload`` behind a header naming ``magic`` / ``version``."""
    return HEADER.pack(magic, version, 0, zlib.crc32(payload), len(payload)) + payload


def unframe(blob: bytes, magic: bytes, version: int) -> bytes:
    """The validated payload of ``blob``, or :class:`ContainerError`.

    Reasons, in check order: ``short_header``, ``magic``, ``version``
    (older *and* newer — a layout bump must never reach an unpickler that
    expects the other layout), ``flags``, ``length`` (truncated or trailing
    bytes), ``crc``.
    """
    if len(blob) < HEADER.size:
        raise ContainerError(
            "short_header", f"truncated: {len(blob)} bytes, need the {HEADER.size}-byte header"
        )
    found_magic, found_version, flags, crc, length = HEADER.unpack_from(blob)
    if found_magic != magic:
        raise ContainerError("magic", f"bad magic {found_magic!r}, expected {magic!r}")
    if found_version != version:
        raise ContainerError(
            "version", f"format version {found_version}; this build reads only {version}"
        )
    if flags:
        raise ContainerError("flags", f"reserved flags must be 0, got {flags:#x}")
    payload = blob[HEADER.size :]
    if len(payload) != length:
        raise ContainerError(
            "length",
            f"truncated or padded: header promises {length} payload bytes, found {len(payload)}",
        )
    if zlib.crc32(payload) != crc:
        raise ContainerError(
            "crc", f"CRC mismatch (header {crc:#010x}, payload {zlib.crc32(payload):#010x})"
        )
    return payload


def write_atomic(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via tmp file + fsync + rename.

    The rename is the commit point: a crash (or an ``OSError``, which is
    re-raised after the tmp file is removed) at any earlier moment leaves
    the previous file intact, never a torn one under the final name.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass  # the write failure is the error worth reporting
        raise
