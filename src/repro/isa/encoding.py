"""Binary encoding of instruction words (the ``instruction.bin`` format).

Each instruction encodes to exactly :data:`INSTRUCTION_BYTES` bytes,
little-endian.  The layout matches the field table in
:mod:`repro.isa.instructions`; two reserved u16 fields pad the word to a
power-of-two size, as a DMA-friendly hardware instruction fetcher wants.

:data:`WORD_DTYPE` is the same layout as a numpy structured dtype, so a
whole stream is one array (:func:`words_from_bytes`) whose fields are
columns; :func:`decode_word` turns one element back into an
:class:`Instruction` and is the only place that does.  The compiler goes
the other way without objects: it computes :data:`COLUMN_DTYPE` rows (the
same fields, all int64) and :func:`pack_words` narrows them, which is where
the field-width check of ``Instruction.__post_init__`` lives for streams.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import IsaError
from repro.isa.instructions import NO_SAVE_ID, Instruction
from repro.isa.opcodes import Opcode

#: struct layout: opcode, flags(u8), layer, save_id, shift(i16), addr, length,
#: row0, rows, ch0, chs, in_ch0, in_chs, reserved x2 -> 32 bytes.
_WORD = struct.Struct("<BBHHhIIHHHHHHHH")

INSTRUCTION_BYTES = _WORD.size
assert INSTRUCTION_BYTES == 32

#: :data:`_WORD` field for field (packed, little-endian).
WORD_DTYPE = np.dtype(
    [("opcode", "u1"), ("flags", "u1"), ("layer_id", "<u2"), ("save_id", "<u2"),
     ("shift", "<i2"), ("ddr_addr", "<u4"), ("length", "<u4"), ("row0", "<u2"),
     ("rows", "<u2"), ("ch0", "<u2"), ("chs", "<u2"), ("in_ch0", "<u2"),
     ("in_chs", "<u2"), ("reserved0", "<u2"), ("reserved1", "<u2")]
)
assert WORD_DTYPE.itemsize == INSTRUCTION_BYTES

#: The instruction fields of :data:`WORD_DTYPE`, each widened to int64, so a
#: value too large for its field survives until :func:`pack_words` names it.
COLUMN_DTYPE = np.dtype(
    [(name, "<i8") for name in WORD_DTYPE.names if not name.startswith("reserved")]
)

_FIELD_MIN, _FIELD_MAX = np.array(
    [
        (np.iinfo(WORD_DTYPE[name]).min, np.iinfo(WORD_DTYPE[name]).max)
        for name in COLUMN_DTYPE.names
    ],
    dtype=np.int64,
).T

_OPCODES = {int(opcode): opcode for opcode in Opcode}
_KNOWN_OPCODE = np.zeros(256, dtype=bool)
_KNOWN_OPCODE[list(_OPCODES)] = True


def encode_instruction(instruction: Instruction) -> bytes:
    """Encode one instruction to its 32-byte word."""
    return _WORD.pack(
        instruction.opcode,
        instruction.flags,
        instruction.layer_id,
        instruction.save_id,
        instruction.shift,
        instruction.ddr_addr,
        instruction.length,
        instruction.row0,
        instruction.rows,
        instruction.ch0,
        instruction.chs,
        instruction.in_ch0,
        instruction.in_chs,
        0,
        0,
    )


def words_from_bytes(blob: bytes) -> np.ndarray:
    """A concatenated stream as a read-only :data:`WORD_DTYPE` array over
    ``blob`` (no copy).  One vectorised pass refuses what no encoder emits:
    an unknown opcode byte or a non-zero reserved field."""
    if len(blob) % INSTRUCTION_BYTES != 0:
        raise IsaError(
            f"stream length {len(blob)} is not a multiple of {INSTRUCTION_BYTES}"
        )
    words = np.frombuffer(blob, dtype=WORD_DTYPE)
    bad = ~_KNOWN_OPCODE[words["opcode"]]
    if bad.any():
        index = int(bad.argmax())
        raise IsaError(
            f"unknown opcode byte {int(words['opcode'][index]):#04x} at word {index}"
        )
    reserved = (words["reserved0"] | words["reserved1"]) != 0
    if reserved.any():
        raise IsaError(f"reserved bits set in word {int(reserved.argmax())}")
    return words


def column_rows(count: int, opcode: Opcode, **fields: Any) -> np.ndarray:
    """``count`` :data:`COLUMN_DTYPE` rows of one opcode; ``fields`` are
    scalars or per-row arrays, every other field the instruction default."""
    rows = np.zeros(count, dtype=COLUMN_DTYPE)
    rows["opcode"] = opcode
    rows["save_id"] = NO_SAVE_ID
    for name, value in fields.items():
        rows[name] = value
    return rows


def pack_words(columns: np.ndarray) -> np.ndarray:
    """:data:`COLUMN_DTYPE` rows narrowed to a :data:`WORD_DTYPE` array.

    Every value is range-checked against its field's width before the cast,
    so an overflowing one is the :class:`IsaError` that building its row as
    an :class:`Instruction` raises — never a wrapped word."""
    values = np.ascontiguousarray(columns).view(np.int64).reshape(-1, len(COLUMN_DTYPE))
    bad = ((values < _FIELD_MIN) | (values > _FIELD_MAX)).any(axis=1)
    if bad.any():
        index = int(bad.argmax())
        fields = dict(zip(COLUMN_DTYPE.names, columns[index].item()))
        code = fields.pop("opcode")
        if code not in _OPCODES:
            raise IsaError(f"unknown opcode byte {code:#04x} at word {index}")
        Instruction(_OPCODES[code], **fields)  # raises, naming the field
    words = np.zeros(len(columns), dtype=WORD_DTYPE)
    for name in COLUMN_DTYPE.names:
        words[name] = columns[name]
    return words


#: One int object per distinct value of the fields that usually exceed
#: CPython's small-int cache.  Programs draw these from a small alphabet
#: (region bases, per-layer lengths, channel offsets, ``NO_SAVE_ID``), so
#: sharing them takes a decoded instruction from ~200 to ~140 bytes.
_SHARED: dict[int, int] = {}
_SHARED_LIMIT = 1 << 16


def decode_word(word: np.void) -> Instruction:
    """One checked :data:`WORD_DTYPE` element as an :class:`Instruction`."""
    (opcode, flags, layer_id, save_id, shift, ddr_addr, length,
     row0, rows, ch0, chs, in_ch0, in_chs, _, _) = word.item()
    shared: Callable[[int, int], int] = (
        _SHARED.setdefault if len(_SHARED) < _SHARED_LIMIT else _SHARED.get
    )
    return Instruction(
        _OPCODES[opcode], layer_id, shared(save_id, save_id),
        shared(ddr_addr, ddr_addr), shared(length, length),
        row0, rows, shared(ch0, ch0), chs, shared(in_ch0, in_ch0), in_chs, shift, flags,
    )


def decode_instruction(word: bytes) -> Instruction:
    """Decode one 32-byte word back into an :class:`Instruction`."""
    if len(word) != INSTRUCTION_BYTES:
        raise IsaError(f"instruction word must be {INSTRUCTION_BYTES} bytes, got {len(word)}")
    return decode_word(words_from_bytes(word)[0])


def encode_stream(instructions: list[Instruction] | tuple[Instruction, ...]) -> bytes:
    """Concatenate the encodings of a whole instruction sequence (joined in
    chunks, so the per-word ``bytes`` objects of a 100k-instruction program
    never all exist at once)."""
    return b"".join(
        b"".join(map(encode_instruction, instructions[start : start + 4096]))
        for start in range(0, len(instructions), 4096)
    )


def decode_stream(blob: bytes) -> list[Instruction]:
    """Decode a concatenated instruction stream."""
    return [decode_word(word) for word in words_from_bytes(blob)]
