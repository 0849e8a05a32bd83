"""The one framed container: every validation reason, for every format.

``repro.container`` sits under snapshots (``INCASNAP``), compile-cache
entries (``INCACCHE``) and ``instruction.bin`` (``INCAPROG``); this suite
fuzzes the *mechanism* once, parametrised over the three (magic, version)
pairs.  The per-format test files keep only their policy assertions (typed
error vs counted miss) and borrow :data:`MUTATIONS` from here.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

import pytest

from repro.compiler import cache as cache_format
from repro.container import HEADER, frame, unframe, write_atomic
from repro.errors import ContainerError, IncaError
from repro.isa import program as program_format
from repro.serve import snapshot as snapshot_format

FORMATS = {
    "snapshot": (snapshot_format.MAGIC, snapshot_format.VERSION),
    "cache": (cache_format.MAGIC, cache_format.VERSION),
    "program": (program_format._MAGIC, program_format._VERSION),
}

#: Header fields as ``name -> (first byte, one past the last byte)``.
FIELDS = {
    "magic": (0, 8),
    "version": (8, 10),
    "flags": (10, 12),
    "crc": (12, 16),
    "length": (16, 24),
}

PAYLOAD = bytes(range(256)) * 3


def flip_bit(blob: bytes, offset: int, bit: int = 0) -> bytes:
    raw = bytearray(blob)
    raw[offset] ^= 1 << bit
    return bytes(raw)


def set_version(blob: bytes, version: int) -> bytes:
    return blob[:8] + version.to_bytes(2, "big") + blob[10:]


#: ``name -> (expected reason, blob -> damaged blob)``: one representative
#: of every way a frame can be wrong.  Version skew is relative, so it
#: works for any format's current version.
MUTATIONS = {
    "empty": ("short_header", lambda blob: b""),
    "short_header": ("short_header", lambda blob: blob[: HEADER.size - 1]),
    "magic": ("magic", lambda blob: b"NOTAFILE" + blob[8:]),
    "past_version": (
        "version",
        lambda blob: set_version(blob, int.from_bytes(blob[8:10], "big") - 1),
    ),
    "future_version": ("version", lambda blob: set_version(blob, 999)),
    "flags": ("flags", lambda blob: flip_bit(blob, 11)),
    "truncated": ("length", lambda blob: blob[:-10]),
    "trailing": ("length", lambda blob: blob + b"\x00garbage"),
    "payload_bit": ("crc", lambda blob: flip_bit(blob, len(blob) - 5, 6)),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    return FORMATS[request.param]


class TestFrame:
    def test_round_trip(self, fmt):
        magic, version = fmt
        for payload in (b"", b"x", PAYLOAD):
            blob = frame(magic, version, payload)
            assert len(blob) == HEADER.size + len(payload)
            assert unframe(blob, magic, version) == payload

    def test_header_layout_is_the_format_contract(self, fmt):
        magic, version = fmt
        assert HEADER.format == ">8sHHIQ" and HEADER.size == 24
        assert len(magic) == 8
        found = HEADER.unpack_from(frame(magic, version, PAYLOAD))
        assert found[:3] == (magic, version, 0) and found[4] == len(PAYLOAD)

    def test_formats_do_not_read_each_other(self):
        for name, (magic, version) in FORMATS.items():
            blob = frame(magic, version, PAYLOAD)
            for other, (other_magic, other_version) in FORMATS.items():
                if other != name:
                    with pytest.raises(ContainerError) as caught:
                        unframe(blob, other_magic, other_version)
                    assert caught.value.reason == "magic"


class TestUnframeRefusals:
    def refused(self, blob: bytes, fmt) -> str:
        with pytest.raises(ContainerError) as caught:
            unframe(blob, *fmt)
        assert isinstance(caught.value, IncaError)
        return caught.value.reason

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_named_mutations(self, fmt, mutation):
        reason, damage = MUTATIONS[mutation]
        assert self.refused(damage(frame(*fmt, PAYLOAD)), fmt) == reason

    def test_truncation_at_every_boundary(self, fmt):
        blob = frame(*fmt, PAYLOAD)
        boundaries = sorted({edge for span in FIELDS.values() for edge in span})
        for cut in boundaries + [HEADER.size - 1]:
            if cut < HEADER.size:
                assert self.refused(blob[:cut], fmt) == "short_header"
        for cut in (HEADER.size, HEADER.size + len(PAYLOAD) // 2, len(blob) - 1):
            assert self.refused(blob[:cut], fmt) == "length"

    def test_one_flipped_bit_anywhere_is_caught(self, fmt):
        blob = frame(*fmt, PAYLOAD)
        for field, (first, last) in FIELDS.items():
            for offset in range(first, last):
                for bit in (0, 7):
                    assert self.refused(flip_bit(blob, offset, bit), fmt) == field
        for offset in range(HEADER.size, len(blob), 37):
            assert self.refused(flip_bit(blob, offset, offset % 8), fmt) == "crc"

    def test_version_match_is_exact(self, fmt):
        magic, version = fmt
        blob = frame(magic, version, PAYLOAD)
        for skew in (-1, +1):
            assert self.refused(set_version(blob, version + skew), fmt) == "version"
            with pytest.raises(ContainerError, match=f"version {version}"):
                unframe(blob, magic, version + skew)


class TestWriteAtomic:
    def leftovers(self, directory: Path) -> list[str]:
        return sorted(p.name for p in directory.iterdir() if ".tmp." in p.name)

    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "a.bin"
        write_atomic(path, b"first")
        write_atomic(path, b"second")
        assert path.read_bytes() == b"second"
        assert self.leftovers(tmp_path) == []

    @pytest.mark.parametrize("call", ["fsync", "replace"])
    def test_interrupted_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch, call
    ):
        path = tmp_path / "a.bin"
        write_atomic(path, b"previous")

        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, call, fail)
        with pytest.raises(OSError) as caught:
            write_atomic(path, b"torn")
        assert caught.value.errno == errno.ENOSPC
        assert path.read_bytes() == b"previous"
        assert self.leftovers(tmp_path) == []

    def test_failed_cleanup_does_not_mask_the_write_error(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "a.bin"

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        def read_only(*args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system")

        monkeypatch.setattr(os, "fsync", no_space)
        monkeypatch.setattr(Path, "unlink", read_only)
        with pytest.raises(OSError) as caught:
            write_atomic(path, b"torn")
        assert caught.value.errno == errno.ENOSPC
        assert not path.exists()

    def test_unwritable_directory(self, tmp_path):
        with pytest.raises(OSError):
            write_atomic(tmp_path / "absent" / "a.bin", b"x")
