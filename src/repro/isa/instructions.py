"""Instruction word of the (VI-)ISA.

All opcodes share one fixed 32-byte word with opcode-dependent field use,
mirroring how real instruction-driven accelerators pack their words:

====================  =======================================================
field                 meaning
====================  =======================================================
``layer_id``          index into the compiled network's layer-config table
``save_id``           identity linking a VIR_SAVE to the real SAVE it may
                      pre-empt (SAVE rewriting); ``NO_SAVE_ID`` elsewhere
``ddr_addr``          base address of the DDR region touched
``length``            transfer size in bytes (LOAD/SAVE timing)
``row0, rows``        spatial row range — input rows for LOAD_D, output rows
                      for CALC/SAVE
``ch0, chs``          channel range — output channels for LOAD_W/CALC/SAVE,
                      feature-map channels for LOAD_D
``in_ch0, in_chs``    input-channel range consumed by a CALC / weight chunk
``shift``             requantization right-shift applied by CALC_F
``flags``             bit 0 ReLU, bit 1 bias add, bit 2 last-save-of-layer
====================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import IsaError
from repro.isa.opcodes import Opcode, is_calc, is_load, is_virtual

#: ``save_id`` value meaning "not participating in SAVE rewriting".
NO_SAVE_ID = 0xFFFF

FLAG_RELU = 1 << 0
FLAG_BIAS = 1 << 1
FLAG_LAST_SAVE_OF_LAYER = 1 << 2
#: LOAD_D loads the second operand of an element-wise layer (residual add).
FLAG_OPERAND_B = 1 << 3
#: This virtual instruction is a legal task-switch point.  Recovery loads
#: that merely trail a VIR_SAVE are *not* switch points themselves: switching
#: there would skip the backup that VIR_SAVE encodes.
FLAG_SWITCH_POINT = 1 << 4

#: ``flags`` is the one u8 field of the encoded word.
_U8 = 0xFF
_U16 = 0xFFFF
_U32 = 0xFFFFFFFF


@dataclass(frozen=True, slots=True)
class Instruction:
    """One 32-byte (VI-)ISA instruction word."""

    opcode: Opcode
    layer_id: int = 0
    save_id: int = NO_SAVE_ID
    ddr_addr: int = 0
    length: int = 0
    row0: int = 0
    rows: int = 0
    ch0: int = 0
    chs: int = 0
    in_ch0: int = 0
    in_chs: int = 0
    shift: int = 0
    flags: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.opcode, Opcode):
            raise IsaError(f"opcode must be an Opcode, got {self.opcode!r}")
        # One OR-mask range test: every field is shifted so that "fits its
        # encoded width" means "fits in 16 bits" (flags is a u8, the two u32s
        # lose their low half, shift is biased to unsigned), and a negative
        # value sign-extends into the masked bits.  The per-field walk below
        # runs only to name the offender.
        if (
            self.layer_id | self.save_id | self.row0 | self.rows
            | self.ch0 | self.chs | self.in_ch0 | self.in_chs
            | self.flags << 8
            | (self.ddr_addr | self.length) >> 16
            | self.shift + 0x8000
        ) & -0x10000:
            self._raise_out_of_range()

    def _raise_out_of_range(self) -> None:
        for name, limit in (
            ("layer_id", _U16),
            ("save_id", _U16),
            ("row0", _U16),
            ("rows", _U16),
            ("ch0", _U16),
            ("chs", _U16),
            ("in_ch0", _U16),
            ("in_chs", _U16),
            ("flags", _U8),
        ):
            value = getattr(self, name)
            if not 0 <= value <= limit:
                raise IsaError(f"{name}={value} outside [0, {limit}]")
        for name in ("ddr_addr", "length"):
            value = getattr(self, name)
            if not 0 <= value <= _U32:
                raise IsaError(f"{name}={value} outside u32 range")
        raise IsaError(f"shift={self.shift} outside i16 range")

    # -- classification ----------------------------------------------------

    @property
    def is_virtual(self) -> bool:
        return is_virtual(self.opcode)

    @property
    def is_calc(self) -> bool:
        return is_calc(self.opcode)

    @property
    def is_load(self) -> bool:
        return is_load(self.opcode)

    @property
    def relu(self) -> bool:
        return bool(self.flags & FLAG_RELU)

    @property
    def bias(self) -> bool:
        return bool(self.flags & FLAG_BIAS)

    @property
    def is_last_save_of_layer(self) -> bool:
        return bool(self.flags & FLAG_LAST_SAVE_OF_LAYER)

    @property
    def operand_b(self) -> bool:
        return bool(self.flags & FLAG_OPERAND_B)

    @property
    def is_switch_point(self) -> bool:
        return bool(self.flags & FLAG_SWITCH_POINT)

    # -- helpers -----------------------------------------------------------

    def with_channel_range(self, ch0: int, chs: int, length: int) -> "Instruction":
        """Copy with a rewritten channel window (IAU SAVE rewriting)."""
        return replace(self, ch0=ch0, chs=chs, length=length)

    def materialized(self) -> "Instruction":
        """Real counterpart of a virtual instruction (IAU expansion)."""
        mapping = {
            Opcode.VIR_SAVE: Opcode.SAVE,
            Opcode.VIR_LOAD_D: Opcode.LOAD_D,
            Opcode.VIR_LOAD_W: Opcode.LOAD_W,
        }
        if self.opcode not in mapping:
            raise IsaError(f"{self.opcode.name} has no real counterpart")
        return replace(self, opcode=mapping[self.opcode])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{self.opcode.name:<11} L{self.layer_id}"]
        if self.rows:
            parts.append(f"rows[{self.row0}:{self.row0 + self.rows})")
        if self.chs:
            parts.append(f"ch[{self.ch0}:{self.ch0 + self.chs})")
        if self.in_chs:
            parts.append(f"in_ch[{self.in_ch0}:{self.in_ch0 + self.in_chs})")
        if self.length:
            parts.append(f"{self.length}B")
        if self.save_id != NO_SAVE_ID:
            parts.append(f"sid={self.save_id}")
        return " ".join(parts)
