"""Energy model: per-inference and per-interrupt energy estimates.

The paper's motivation is energy-efficient CNN processing on embedded
robots, so the reproduction carries a first-order energy model in the style
of accelerator papers: per-operation energy coefficients (8-bit MAC, on-chip
SRAM access, DDR transfer) at 28 nm-class technology, plus static power.

Coefficients are defaults in :class:`EnergyModel` — swap them for measured
numbers if you have them.  The interesting *relative* results are robust to
the absolute values: the VI method's interrupt energy overhead is tiny
because it moves almost no extra data, while the CPU-like method pays a full
on-chip spill/restore in DRAM energy every switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.config import AcceleratorConfig
from repro.isa.opcodes import Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids hw<->compiler cycle)
    from repro.compiler.compile import CompiledNetwork


@dataclass(frozen=True)
class EnergyModel:
    """First-order energy coefficients (joules)."""

    #: Energy of one 8-bit MAC (datapath + local registers), ~0.2 pJ @28nm.
    mac_j: float = 0.2e-12
    #: Energy per byte read/written to on-chip SRAM (~6 pJ/B for large BRAM).
    sram_byte_j: float = 6e-12
    #: Energy per byte moved over DDR (~80 pJ/B including PHY + DRAM core).
    ddr_byte_j: float = 80e-12
    #: Static (leakage + clocking) power of the accelerator domain, watts.
    static_w: float = 0.8


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy breakdown of one execution."""

    label: str
    compute_j: float
    sram_j: float
    ddr_j: float
    static_j: float

    @property
    def total_j(self) -> float:
        return self.compute_j + self.sram_j + self.ddr_j + self.static_j

    @property
    def total_mj(self) -> float:
        return self.total_j * 1e3

    def format(self) -> str:
        parts = [
            f"energy of {self.label}: {self.total_mj:.2f} mJ",
            f"  compute : {self.compute_j * 1e3:.2f} mJ",
            f"  sram    : {self.sram_j * 1e3:.2f} mJ",
            f"  ddr     : {self.ddr_j * 1e3:.2f} mJ",
            f"  static  : {self.static_j * 1e3:.2f} mJ",
        ]
        return "\n".join(parts)


def inference_energy(
    compiled: CompiledNetwork,
    total_cycles: int,
    model: EnergyModel | None = None,
) -> EnergyEstimate:
    """Energy of one inference from its MAC count, DDR traffic and runtime.

    ``total_cycles`` should come from a simulation (it sets the static
    energy); traffic is read from the compiled program, MACs from the graph.
    """
    model = model or EnergyModel()
    macs = compiled.graph.total_macs()
    ddr_bytes = _program_traffic_bytes(compiled)
    # Every DDR byte also lands in (or leaves) an on-chip buffer, and each
    # MAC reads an activation + weight pair from SRAM banks (amortised by
    # the parallel broadcast across the array's lanes).
    broadcast = compiled.config.para_out
    sram_bytes = ddr_bytes + 2 * macs / max(broadcast, 1)
    seconds = compiled.config.clock.cycles_to_s(total_cycles)
    return EnergyEstimate(
        label=compiled.graph.name,
        compute_j=macs * model.mac_j,
        sram_j=sram_bytes * model.sram_byte_j,
        ddr_j=ddr_bytes * model.ddr_byte_j,
        static_j=seconds * model.static_w,
    )


def interrupt_energy_overhead(
    config: AcceleratorConfig,
    backup_bytes: int,
    restore_bytes: int,
    extra_cycles: int,
    model: EnergyModel | None = None,
) -> float:
    """Joules one interrupt adds: its extra DDR traffic + stretched runtime."""
    model = model or EnergyModel()
    traffic = (backup_bytes + restore_bytes) * (model.ddr_byte_j + model.sram_byte_j)
    static = config.clock.cycles_to_s(max(extra_cycles, 0)) * model.static_w
    return traffic + static


def cpu_like_switch_energy(config: AcceleratorConfig, model: EnergyModel | None = None) -> float:
    """Energy of one CPU-like context switch: spill + restore all caches."""
    model = model or EnergyModel()
    spill_bytes = 2 * config.total_buffer_bytes
    spill_cycles = 2 * config.ddr.transfer_cycles(config.total_buffer_bytes)
    return interrupt_energy_overhead(config, spill_bytes // 2, spill_bytes // 2, spill_cycles, model)


def _program_traffic_bytes(compiled: CompiledNetwork) -> int:
    return sum(
        instruction.length
        for instruction in compiled.programs["none"]
        if instruction.opcode in (Opcode.LOAD_D, Opcode.LOAD_W, Opcode.SAVE)
    )
