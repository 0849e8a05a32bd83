"""Roofline-style bandwidth/compute analysis of compiled networks.

Classifies each layer as compute- or memory-bound on the configured
accelerator by comparing its CALC cycles against its DMA cycles, and
summarises where the network's time goes.  This is the analysis that
explains the overlap ablation (GeM's 1x1-heavy stages are memory-bound, so
perfect prefetch hides a quarter of the runtime) and guides hardware sizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.compiler.compile import CompiledNetwork
from repro.hw.timing import kind_cycles
from repro.isa.opcodes import Opcode


@dataclass(frozen=True)
class LayerRoofline:
    """DMA vs compute cycles of one layer."""

    name: str
    kind: str
    calc_cycles: int
    dma_cycles: int

    @property
    def bound(self) -> str:
        return "memory" if self.dma_cycles > self.calc_cycles else "compute"

    @property
    def intensity(self) -> float:
        """Compute-to-traffic cycle ratio (>1 means compute-bound)."""
        return self.calc_cycles / max(self.dma_cycles, 1)


@dataclass(frozen=True)
class RooflineReport:
    network: str
    layers: list[LayerRoofline]

    def memory_bound_fraction(self) -> float:
        """Share of total cycles spent in memory-bound layers."""
        total = sum(layer.calc_cycles + layer.dma_cycles for layer in self.layers)
        bound = sum(
            layer.calc_cycles + layer.dma_cycles
            for layer in self.layers
            if layer.bound == "memory"
        )
        return bound / total if total else 0.0

    def total_calc_cycles(self) -> int:
        return sum(layer.calc_cycles for layer in self.layers)

    def total_dma_cycles(self) -> int:
        return sum(layer.dma_cycles for layer in self.layers)

    def format(self, top: int | None = 15) -> str:
        ordered = sorted(
            self.layers, key=lambda layer: -(layer.calc_cycles + layer.dma_cycles)
        )
        if top is not None:
            ordered = ordered[:top]
        rows = [
            [
                layer.name,
                layer.kind,
                layer.calc_cycles,
                layer.dma_cycles,
                f"{layer.intensity:.2f}",
                layer.bound,
            ]
            for layer in ordered
        ]
        title = (
            f"roofline of {self.network}: {self.total_calc_cycles()} calc / "
            f"{self.total_dma_cycles()} dma cycles, "
            f"{self.memory_bound_fraction() * 100:.0f}% of time in memory-bound layers"
        )
        return format_table(
            ["layer", "kind", "calc cycles", "dma cycles", "intensity", "bound"],
            rows,
            title=title,
        )


def roofline_report(compiled: CompiledNetwork) -> RooflineReport:
    """Per-layer CALC and DMA cycles of the original program: its kind
    prices (the simulator's own) times their counts, summed by layer."""
    program = compiled.programs["none"]
    priced = kind_cycles(compiled.config, compiled, program)
    totals = priced.cycles * priced.counts
    opcode = program.words["opcode"][priced.first]
    layer_id = program.words["layer_id"][priced.first]
    num_ids = max(layer.layer_id for layer in compiled.layer_configs) + 1

    def by_layer(opcodes: tuple[Opcode, ...]) -> np.ndarray:
        mask = np.isin(opcode, opcodes)
        sums = np.zeros(num_ids, dtype=np.int64)
        np.add.at(sums, layer_id[mask], totals[mask])
        return sums

    calc = by_layer((Opcode.CALC_I, Opcode.CALC_F))
    dma = by_layer((Opcode.LOAD_D, Opcode.LOAD_W, Opcode.SAVE))
    layers = [
        LayerRoofline(
            name=layer.name,
            kind=layer.kind,
            calc_cycles=int(calc[layer.layer_id]),
            dma_cycles=int(dma[layer.layer_id]),
        )
        for layer in compiled.layer_configs
    ]
    return RooflineReport(network=compiled.graph.name, layers=layers)
