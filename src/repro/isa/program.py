"""Program container and ``instruction.bin`` serialization.

A :class:`Program` is an ordered instruction sequence for one network, as
dumped by the compiler and loaded into the FPGA's DDR instruction space in
the paper's flow.  It *is* its ``instruction.bin``: one packed array of
32-byte words (:data:`~repro.isa.encoding.WORD_DTYPE`), and the on-disk
format is one :mod:`repro.container` frame (magic ``INCAPROG``) around
exactly those bytes.  :class:`Instruction` objects are a view, decoded on
demand and kept; whole-program scans read the array's fields as columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from repro.container import frame, unframe
from repro.errors import ContainerError, IsaError, ProgramError
from repro.isa.encoding import WORD_DTYPE, decode_word, encode_stream, words_from_bytes
from repro.isa.instructions import FLAG_OPERAND_B, FLAG_SWITCH_POINT, Instruction
from repro.isa.opcodes import VIRTUAL_OPCODES, Opcode

_MAGIC = b"INCAPROG"
#: v2 added a CRC32 of the body so any corruption of a stored
#: ``instruction.bin`` is caught at load time, before decode; v3 is the
#: shared 24-byte :mod:`repro.container` header.
_VERSION = 3

_VIRTUAL_OPCODE = np.zeros(256, dtype=bool)
_VIRTUAL_OPCODE[list(VIRTUAL_OPCODES)] = True


class Program:
    """An immutable instruction sequence plus its identity.

    ``words`` is the read-only word array; ``program[i]``, iteration and
    ``.instructions`` decode :class:`Instruction` objects from it on first
    use (a program built from objects starts with all of them; the compiler
    builds from words and starts with none).  Equality, hashing and pickling
    go through ``(name, word bytes)``.
    """

    def __init__(self, name: str, instructions: Iterable[Instruction]) -> None:
        objects = list(instructions)
        self._adopt(name, encode_stream(objects))
        self._objects[:] = objects

    def _adopt(self, name: str, body: bytes) -> None:
        words = words_from_bytes(body)
        if not len(words):
            raise ProgramError(f"program {name!r} is empty")
        self.name = name
        #: The packed words, a read-only view over ``_body`` (no copy).
        self.words = words
        self._body = body
        #: The decoded view, filled on demand.
        self._objects: list[Instruction | None] = [None] * len(words)

    @classmethod
    def _from_body(cls, name: str, body: bytes) -> "Program":
        program = cls.__new__(cls)
        program._adopt(name, body)
        return program

    @classmethod
    def from_words(cls, name: str, words: np.ndarray) -> "Program":
        """Adopt a :data:`~repro.isa.encoding.WORD_DTYPE` array (copied once
        into the program's bytes) under the same opcode and reserved-field
        check as :meth:`from_bytes`; nothing is decoded."""
        if words.dtype != WORD_DTYPE:
            raise ProgramError(f"program {name!r}: words have dtype {words.dtype}")
        return cls._from_body(name, words.tobytes())

    def __len__(self) -> int:
        return len(self._objects)

    def __getitem__(self, index: int) -> Instruction:
        instruction = self._objects[index]
        if instruction is None:
            instruction = self._objects[index] = decode_word(self.words[index])
        return instruction

    def __iter__(self) -> Iterator[Instruction]:
        return map(self.__getitem__, range(len(self)))

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.name == other.name and self._body == other._body

    def __hash__(self) -> int:
        return hash((self.name, self._body))

    def __reduce__(self) -> tuple[Any, ...]:
        return Program.from_bytes, (self.to_bytes(), self.name)

    def __repr__(self) -> str:
        return f"Program(name={self.name!r}, {len(self)} instructions)"

    # -- queries -----------------------------------------------------------

    @cached_property
    def virtual_mask(self) -> np.ndarray:
        """Per-instruction: is it a virtual (IAU-only) instruction?"""
        mask: np.ndarray = _VIRTUAL_OPCODE[self.words["opcode"]]
        return mask

    def opcode_histogram(self) -> dict[Opcode, int]:
        """Instruction count per opcode, in order of first appearance."""
        codes, first, counts = np.unique(
            self.words["opcode"], return_index=True, return_counts=True
        )
        return {
            Opcode(int(codes[k])): int(counts[k]) for k in np.argsort(first)
        }

    def kinds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct instruction *kinds*, as ``(first, inverse, counts)``
        of one ``np.unique``.

        A kind is (opcode, layer, ``length``, has-``chs``, operand-B,
        switch-point): everything an instruction's cycles, event template
        and fault draws depend on.  ``program[first[k]]`` stands for all
        ``counts[k]`` instructions of kind ``k`` and ``table[inverse]``
        spreads a per-kind table back over the program; a 100k-instruction
        network has a few hundred kinds.
        """
        words = self.words
        flags = words["flags"]
        kind = (
            words["opcode"]
            | (words["layer_id"].astype(np.int64) << 8)
            | ((words["chs"] != 0).astype(np.int64) << 24)
            | (((flags & FLAG_OPERAND_B) != 0).astype(np.int64) << 25)
            | (((flags & FLAG_SWITCH_POINT) != 0).astype(np.int64) << 26)
            | (words["length"].astype(np.int64) << 27)
        )
        _, first, inverse, counts = np.unique(
            kind, return_index=True, return_inverse=True, return_counts=True
        )
        return first, inverse, counts

    @cached_property
    def virtual_indices(self) -> tuple[int, ...]:
        """Indices of all virtual instructions (computed once, cached)."""
        return tuple(np.flatnonzero(self.virtual_mask).tolist())

    @cached_property
    def switch_point_indices(self) -> tuple[int, ...]:
        """Indices at which a pending pre-emption may actually fire.

        A subset of :attr:`virtual_indices`: recovery loads trailing a
        VIR_SAVE carry no switch-point flag (switching there would skip the
        backup the VIR_SAVE encodes).
        """
        flagged = (self.words["flags"] & FLAG_SWITCH_POINT) != 0
        return tuple(np.flatnonzero(self.virtual_mask & flagged).tolist())

    def num_virtual(self) -> int:
        return len(self.virtual_indices)

    def interrupt_points(self) -> list[int]:
        """Indices at which the IAU may switch tasks (virtual instructions)."""
        return list(self.virtual_indices)

    def layer_span(self, layer_id: int) -> tuple[int, int]:
        """(first, last+1) instruction indices belonging to ``layer_id``."""
        indices = np.flatnonzero(self.words["layer_id"] == layer_id)
        if not len(indices):
            raise ProgramError(f"program {self.name!r} has no layer {layer_id}")
        return int(indices[0]), int(indices[-1]) + 1

    def without_virtual(self) -> "Program":
        """The original-ISA view of this program (virtual instructions dropped)."""
        real = self.words[~self.virtual_mask]
        if not len(real):
            raise ProgramError(f"program {self.name!r} has no real instructions")
        return Program._from_body(self.name, real.tobytes())

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        return frame(_MAGIC, _VERSION, self._body)

    @classmethod
    def from_bytes(cls, blob: bytes, name: str = "loaded") -> "Program":
        """Adopt an ``instruction.bin`` blob without copying or decoding it;
        every header bit, opcode byte and reserved bit is load-bearing, so
        any damage is a :class:`ProgramError`."""
        try:
            return cls._from_body(name, unframe(blob, _MAGIC, _VERSION))
        except (ContainerError, IsaError) as exc:
            raise ProgramError(f"not a loadable instruction.bin: {exc}") from exc

    def dump(self, path: str | Path) -> Path:
        """Write ``instruction.bin`` to disk; returns the path."""
        path = Path(path)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Program":
        path = Path(path)
        return cls.from_bytes(path.read_bytes(), name=path.stem)
