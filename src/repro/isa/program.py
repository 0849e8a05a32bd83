"""Program container and ``instruction.bin`` serialization.

A :class:`Program` is an ordered instruction sequence for one network, as
dumped by the compiler and loaded into the FPGA's DDR instruction space in
the paper's flow.  The on-disk format is one :mod:`repro.container` frame
(magic ``INCAPROG``) around the packed 32-byte instruction words.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.container import frame, unframe
from repro.errors import ContainerError, ProgramError
from repro.isa.encoding import decode_stream, encode_stream
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode

_MAGIC = b"INCAPROG"
#: v2 added a CRC32 of the body so any corruption of a stored
#: ``instruction.bin`` is caught at load time, before decode; v3 is the
#: shared 24-byte :mod:`repro.container` header.
_VERSION = 3


@dataclass(frozen=True)
class Program:
    """An immutable instruction sequence plus its identity."""

    name: str
    instructions: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ProgramError(f"program {self.name!r} is empty")

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # -- queries -----------------------------------------------------------

    def opcode_histogram(self) -> dict[Opcode, int]:
        counts: dict[Opcode, int] = {}
        for instruction in self.instructions:
            counts[instruction.opcode] = counts.get(instruction.opcode, 0) + 1
        return counts

    @cached_property
    def virtual_indices(self) -> tuple[int, ...]:
        """Indices of all virtual instructions (computed once, cached)."""
        return tuple(
            index
            for index, instruction in enumerate(self.instructions)
            if instruction.is_virtual
        )

    @cached_property
    def switch_point_indices(self) -> tuple[int, ...]:
        """Indices at which a pending pre-emption may actually fire.

        A subset of :attr:`virtual_indices`: recovery loads trailing a
        VIR_SAVE carry no switch-point flag (switching there would skip the
        backup the VIR_SAVE encodes).
        """
        return tuple(
            index
            for index in self.virtual_indices
            if self.instructions[index].is_switch_point
        )

    def num_virtual(self) -> int:
        return len(self.virtual_indices)

    def interrupt_points(self) -> list[int]:
        """Indices at which the IAU may switch tasks (virtual instructions)."""
        return list(self.virtual_indices)

    def layer_span(self, layer_id: int) -> tuple[int, int]:
        """(first, last+1) instruction indices belonging to ``layer_id``."""
        indices = [
            index
            for index, instruction in enumerate(self.instructions)
            if instruction.layer_id == layer_id
        ]
        if not indices:
            raise ProgramError(f"program {self.name!r} has no layer {layer_id}")
        return indices[0], indices[-1] + 1

    def without_virtual(self) -> "Program":
        """The original-ISA view of this program (virtual instructions dropped)."""
        real = tuple(
            instruction for instruction in self.instructions if not instruction.is_virtual
        )
        if not real:
            raise ProgramError(f"program {self.name!r} has no real instructions")
        return Program(name=self.name, instructions=real)

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        return frame(_MAGIC, _VERSION, encode_stream(self.instructions))

    @classmethod
    def from_bytes(cls, blob: bytes, name: str = "loaded") -> "Program":
        """Decode an ``instruction.bin`` blob; every header bit is
        load-bearing, so any damage is a :class:`ProgramError`."""
        try:
            body = unframe(blob, _MAGIC, _VERSION)
        except ContainerError as exc:
            raise ProgramError(f"not a loadable instruction.bin: {exc}") from exc
        return cls(name=name, instructions=tuple(decode_stream(body)))

    def dump(self, path: str | Path) -> Path:
        """Write ``instruction.bin`` to disk; returns the path."""
        path = Path(path)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Program":
        path = Path(path)
        return cls.from_bytes(path.read_bytes(), name=path.stem)
