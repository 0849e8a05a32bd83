"""Hardware design-space exploration.

Sweeps accelerator configurations (parallelism, buffers, bandwidth) against
a workload and reports, per design point: throughput, VI interrupt latency,
FPGA resources, and energy per inference.  This is the study a deployment
team runs before committing an INCA configuration to silicon — and it shows
the reproduction's models composing: compiler, timing, latency profile,
resource estimator and energy model all feed one table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.accel.runner import run_program
from repro.analysis.latency import whole_program_profile
from repro.compiler.compile import compile_network
from repro.errors import CompileError
from repro.hw.config import AcceleratorConfig
from repro.hw.energy import EnergyModel, inference_energy
from repro.hw.resources import estimate_accelerator
from repro.interrupt.base import VIRTUAL_INSTRUCTION
from repro.nn.graph import NetworkGraph
from repro.tables import format_table


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration and its measured qualities."""

    config: AcceleratorConfig
    fps: float
    inference_ms: float
    vi_mean_latency_us: float
    dsp: int
    bram: int
    energy_mj: float

    @property
    def fps_per_dsp(self) -> float:
        return self.fps / max(self.dsp, 1)


@dataclass(frozen=True)
class DesignSpaceResult:
    network: str
    points: list[DesignPoint]

    def best_by_fps(self) -> DesignPoint:
        return max(self.points, key=lambda point: point.fps)

    def best_by_efficiency(self) -> DesignPoint:
        return max(self.points, key=lambda point: point.fps_per_dsp)

    def format(self) -> str:
        rows = [
            [
                point.config.name,
                f"{point.config.para_in}/{point.config.para_out}/{point.config.para_height}",
                f"{point.fps:.1f}",
                f"{point.inference_ms:.1f} ms",
                f"{point.vi_mean_latency_us:.1f} us",
                point.dsp,
                point.bram,
                f"{point.energy_mj:.1f} mJ",
                f"{point.fps_per_dsp * 1000:.1f}",
            ]
            for point in self.points
        ]
        return format_table(
            ["design", "Para i/o/h", "fps", "latency", "VI response", "DSP", "BRAM",
             "energy/inf", "fps/kDSP"],
            rows,
            title=f"design-space exploration on {self.network}",
        )


def default_design_grid() -> list[AcceleratorConfig]:
    """A small but representative grid around the paper's configurations."""
    big = AcceleratorConfig.big()
    small = AcceleratorConfig.small()
    double = replace(
        big,
        name="angel-eye-2x",
        para_in=32,
        para_out=16,
        para_height=8,
    )
    wide_bw = replace(big, name="angel-eye-hbw", ddr=replace(big.ddr, bytes_per_cycle=16.0))
    return [small, big, wide_bw, double]


def explore(
    graph: NetworkGraph,
    configs: list[AcceleratorConfig] | None = None,
    energy_model: EnergyModel | None = None,
) -> DesignSpaceResult:
    """Compile + evaluate ``graph`` on every configuration.

    Configurations whose buffers cannot fit the network are skipped (the
    compiler's capacity errors are the DSE's infeasibility oracle).
    """
    configs = configs if configs is not None else default_design_grid()
    points = []
    for config in configs:
        try:
            compiled = compile_network(graph, config, weights="zeros", verify="off")
        except CompileError:
            continue  # infeasible design point
        run = run_program(compiled, vi_mode="vi", functional=False)
        profile = whole_program_profile(compiled, VIRTUAL_INSTRUCTION)
        resources = estimate_accelerator(config)
        energy = inference_energy(compiled, run.total_cycles, energy_model)
        milliseconds = config.clock.cycles_to_ms(run.total_cycles)
        points.append(
            DesignPoint(
                config=config,
                fps=1000.0 / milliseconds,
                inference_ms=milliseconds,
                vi_mean_latency_us=profile.mean_us(compiled),
                dsp=resources.dsp,
                bram=resources.bram,
                energy_mj=energy.total_mj,
            )
        )
    if not points:
        raise CompileError(f"no feasible design point for {graph.name!r}")
    return DesignSpaceResult(network=graph.name, points=points)
