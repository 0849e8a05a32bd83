"""Binary encoding of instruction words (the ``instruction.bin`` format).

Each instruction encodes to exactly :data:`INSTRUCTION_BYTES` bytes,
little-endian.  The layout matches the field table in
:mod:`repro.isa.instructions`; two reserved u16 fields pad the word to a
power-of-two size, as a DMA-friendly hardware instruction fetcher wants.

:data:`WORD_DTYPE` is the same layout as a numpy structured dtype, so a
whole stream is one array (:func:`words_from_bytes`) whose fields are
columns; :func:`decode_word` turns one element back into an
:class:`Instruction` and is the only place that does.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import IsaError
from repro.isa.instructions import Instruction
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


def decode_word(word: np.void) -> Instruction:
    """One checked :data:`WORD_DTYPE` element as an :class:`Instruction`."""
    (opcode, flags, layer_id, save_id, shift, ddr_addr, length,
     row0, rows, ch0, chs, in_ch0, in_chs, _, _) = word.item()
    return Instruction(
        _OPCODES[opcode], layer_id, save_id, ddr_addr, length,
        row0, rows, ch0, chs, in_ch0, in_chs, shift, flags,
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
