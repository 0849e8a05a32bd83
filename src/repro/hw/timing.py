"""Per-instruction timing model, calibrated against the paper.

The MAC array retires ``Para_in x Para_out x Para_height`` MACs per cycle.
One CALC instruction convolves ``Para_height`` output lines across the full
output width for one (input-channel group x output-channel group) pair, so

    cycles(CALC) = W_out * K_h * K_w  (+ fixed pipeline overhead)

which matches the paper's statement that a single CALC's time grows with the
feature-map width, and — at 300 MHz — reproduces the per-layer numbers in the
paper's backup-vs-convolution table (e.g. the 30x40x512->512 3x3 layer:
32 CALCs x 40 x 9 cycles = 38.4 us vs the paper's 39.36 us).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.errors import HardwareError
from repro.hw.config import AcceleratorConfig
from repro.isa.opcodes import Opcode
from repro.units import ceil_div

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.layer_config import LayerConfig
    from repro.isa.instructions import Instruction
    from repro.isa.program import Program


def calc_cycles(
    config: AcceleratorConfig,
    out_width: int,
    kernel: tuple[int, int],
) -> int:
    """Cycles of one CALC instruction (either CALC_I or CALC_F)."""
    if out_width <= 0:
        raise HardwareError(f"out_width must be positive, got {out_width}")
    kh, kw = kernel
    if kh <= 0 or kw <= 0:
        raise HardwareError(f"kernel must be positive, got {kernel}")
    return out_width * kh * kw + config.calc_overhead_cycles


def layer_calc_instruction_cycles(config: AcceleratorConfig, layer: "LayerConfig") -> int:
    """Cycles of one CALC of ``layer`` — the price the core charges and
    every estimator quotes.

    conv / depthwise / pool share the MAC-array formula; an elementwise add
    is a 1x1 window per output column; global pooling sweeps the whole input
    plane, one position per cycle.
    """
    if layer.kind == "global":
        return calc_cycles(config, layer.in_shape.height * layer.in_shape.width, (1, 1))
    kernel = (1, 1) if layer.kind == "add" else layer.kernel
    return calc_cycles(config, layer.out_shape.width, kernel)


def blob_calc_count(in_channels: int, para_in: int) -> int:
    """CALC instructions per CalcBlob: ceil(Ch_in / Para_in)."""
    return ceil_div(in_channels, para_in)


def blob_cycles(
    config: AcceleratorConfig,
    in_channels: int,
    out_width: int,
    kernel: tuple[int, int],
) -> int:
    """Worst-case wait to finish the in-flight CalcBlob (the VI method's t1)."""
    return blob_calc_count(in_channels, config.para_in) * calc_cycles(config, out_width, kernel)


def layer_calc_cycles(
    config: AcceleratorConfig,
    in_channels: int,
    out_channels: int,
    out_height: int,
    out_width: int,
    kernel: tuple[int, int],
) -> int:
    """Total CALC time of a whole convolution layer (the layer-by-layer t1
    upper bound): blobs = ceil(Cout/Para_out) x ceil(H/Para_height)."""
    blobs = ceil_div(out_channels, config.para_out) * ceil_div(out_height, config.para_height)
    return blobs * blob_cycles(config, in_channels, out_width, kernel)


def transfer_cycles(config: AcceleratorConfig, num_bytes: int) -> int:
    """Cycles of one DMA descriptor moving ``num_bytes`` between DDR and chip."""
    return config.ddr.transfer_cycles(num_bytes)


def instruction_cycles(
    config: AcceleratorConfig,
    instruction: "Instruction",
    layer: "LayerConfig",
) -> int:
    """Execution cycles of one instruction, excluding its fetch.

    This is the single source of truth the core's cycle accounting, the
    admission estimator and the horizon-batched fast path all agree on:
    LOAD/SAVE pay the DMA descriptor time, CALC pays MAC-array occupancy,
    and virtual instructions cost nothing here (on the uninterrupted path
    the IAU discards them after the fetch, which is charged separately).
    """
    if instruction.is_virtual:
        return 0
    opcode = instruction.opcode
    if opcode in (Opcode.LOAD_D, Opcode.LOAD_W):
        return transfer_cycles(config, instruction.length)
    if opcode == Opcode.SAVE:
        # A fully pre-saved SAVE (chs == 0) retires for free.
        return transfer_cycles(config, instruction.length) if instruction.chs else 0
    if opcode in (Opcode.CALC_I, Opcode.CALC_F):
        return layer_calc_instruction_cycles(config, layer)
    raise HardwareError(f"no timing model for opcode {opcode.name}")


class KindCycles(NamedTuple):
    """A program priced kind by kind (see :func:`kind_cycles`)."""

    #: Execute cycles of each instruction kind, excluding its fetch (int64).
    cycles: np.ndarray
    #: The kind table it was priced from: ``program[first[k]]`` stands for
    #: kind ``k``, ``cycles[inverse]`` is the per-instruction column and
    #: ``cycles @ counts`` the program's execute total.
    first: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray


def kind_cycles(
    config: AcceleratorConfig,
    layer_of: Callable[[int], "LayerConfig | None"],
    program: "Program",
) -> KindCycles:
    """Price ``program`` on ``config``: one :func:`instruction_cycles` per
    instruction *kind* (:meth:`~repro.isa.program.Program.kinds`), so a
    100k-instruction network decodes a few hundred instructions.

    ``layer_of`` maps a layer id to its config (``compiled.layer_config``,
    or a verifier's ``layers.get``); a CALC whose layer it does not know
    prices at 0 — the verifier has already reported the id (PRG004).

    Every straight-line price — the job estimate, the static WCIRL and the
    latency profiles, ``ProgramMeta``'s prefix sums, the compile report and
    the roofline — is a gather or a weighted sum over this one table.
    """
    first, inverse, counts = program.kinds()
    cycles: list[int] = []
    for index in first.tolist():
        ins = program[index]  # one decode per kind
        layer = layer_of(ins.layer_id)
        if layer is None and ins.opcode in (Opcode.CALC_I, Opcode.CALC_F):
            cycles.append(0)
        else:
            cycles.append(instruction_cycles(config, ins, layer))  # type: ignore[arg-type]
    return KindCycles(np.array(cycles, dtype=np.int64), first, inverse, counts)


def fetch_cycles(config: AcceleratorConfig, num_instructions: int = 1) -> int:
    """Instruction-fetch cost the IAU pays, including for skipped virtual
    instructions — the source of the (<=0.3 %) multi-tasking degradation."""
    if num_instructions < 0:
        raise HardwareError("cannot fetch a negative number of instructions")
    return config.instruction_fetch_cycles * num_instructions
