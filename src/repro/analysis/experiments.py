"""Experiment drivers: one function per paper table/figure (E1-E9, A3).

Each driver returns structured results and offers a formatted rendering, so
the benchmark suite, the examples and EXPERIMENTS.md all share one source of
truth.  The DSLAM experiment (E10) lives in :mod:`repro.dslam.system` since
it needs the ROS substrate.

Scale note: drivers accept the networks/configs to run on, so tests exercise
them with small models while the benchmarks run the paper's full workloads
(GeM/ResNet-101 480x640 interrupted by SuperPoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.accel.runner import run_program
from repro.analysis.latency import (
    PARTS,
    LatencyProfile,
    layer_latency_profiles,
    whole_program_profile,
)
from repro.compiler.compile import CompiledNetwork
from repro.farm.farm import Farm
from repro.farm.node import ServiceSpec
from repro.farm.scheduler import Dispatch, FarmView, StaticPartitionScheduler
from repro.farm.traffic import Job, SloClass
from repro.hw.config import AcceleratorConfig
from repro.hw.resources import ResourceEstimate, resource_table
from repro.hw.timing import blob_cycles, transfer_cycles
from repro.interrupt.analytic import LayerGeometry, latency_reduction_ratio, measured_ratio
from repro.interrupt.base import (
    LAYER_BY_LAYER,
    METHODS,
    VIRTUAL_INSTRUCTION,
    InterruptMethod,
)
from repro.interrupt.measure import (
    InterruptMeasurement,
    measure_interrupt,
    run_alone,
    sample_positions,
)
from repro.isa.opcodes import INSTRUCTION_TABLE
from repro.obs.config import ObsConfig
from repro.runtime.stats import summarize_jobs
from repro.tables import format_table, format_us


# -- E1: interrupt latency & cost at sampled positions (Fig. barresult(a)) ----


@dataclass(frozen=True)
class PositionResult:
    """All methods' measurements for one interrupt position."""

    request_cycle: int
    measurements: dict[str, InterruptMeasurement]


@dataclass(frozen=True)
class E1Result:
    low_name: str
    high_name: str
    config: AcceleratorConfig
    positions: list[PositionResult]

    def mean_response_us(self, method: str) -> float:
        values = [
            position.measurements[method].response_us(self.config)
            for position in self.positions
        ]
        return sum(values) / len(values)

    def mean_cost_us(self, method: str) -> float:
        values = [
            position.measurements[method].extra_cost_us(self.config)
            for position in self.positions
        ]
        return sum(values) / len(values)

    def format(self) -> str:
        headers = ["position"] + [
            f"{method.name} {metric}"
            for method in METHODS
            for metric in ("latency", "cost")
        ]
        clock = self.config.clock.hz
        rows = []
        for position in self.positions:
            row: list[object] = [format_us(position.request_cycle, clock)]
            for method in METHODS:
                m = position.measurements[method.name]
                row.append(format_us(m.response_cycles, clock))
                row.append(format_us(max(m.extra_cost_cycles, 0), clock))
            rows.append(row)
        mean_row: list[object] = ["mean"]
        for method in METHODS:
            mean_row.append(f"{self.mean_response_us(method.name):.1f} us")
            mean_row.append(f"{max(self.mean_cost_us(method.name), 0.0):.1f} us")
        rows.append(mean_row)
        return format_table(
            headers,
            rows,
            title=(
                f"E1: interrupt response latency & extra cost — "
                f"{self.low_name} interrupted by {self.high_name} on {self.config.name}"
            ),
        )


def experiment_interrupt_positions(
    low: CompiledNetwork,
    high: CompiledNetwork,
    num_positions: int = 12,
    seed: int = 2020,
    methods: tuple[InterruptMethod, ...] = METHODS,
) -> E1Result:
    """Reproduce Fig. barresult(a): sample positions, measure every method."""
    alone_low = {method.name: run_alone(low, method) for method in methods}
    alone_high = {method.name: run_alone(high, method) for method in methods}
    cycles = sample_positions(
        min(alone_low.values()), count=num_positions, seed=seed
    )
    positions = []
    for request_cycle in cycles:
        measurements = {
            method.name: measure_interrupt(
                low,
                high,
                method,
                request_cycle,
                low_alone_cycles=alone_low[method.name],
                high_alone_cycles=alone_high[method.name],
            )
            for method in methods
        }
        positions.append(PositionResult(request_cycle, measurements))
    return E1Result(
        low_name=low.graph.name,
        high_name=high.graph.name,
        config=low.config,
        positions=positions,
    )


# -- E2: per-layer latency across networks and accelerators (Fig. barresult(b)) --


@dataclass(frozen=True)
class E2Row:
    network: str
    config: str
    method: str
    mean_layer_latency_us: float
    worst_layer_latency_us: float
    #: Share of the mean latency spent waiting in a LOAD_D (the tile DMA).
    load_d_share: float


@dataclass(frozen=True)
class E2Result:
    rows: list[E2Row]

    def row(self, network: str, config: str, method: str) -> E2Row:
        for candidate in self.rows:
            if (candidate.network, candidate.config, candidate.method) == (
                network,
                config,
                method,
            ):
                return candidate
        raise KeyError(f"no row for ({network}, {config}, {method})")

    def reduction_orders(self, network: str, config: str) -> float:
        """Orders of magnitude between layer-by-layer and VI mean latency."""
        import math

        lbl = self.row(network, config, LAYER_BY_LAYER.name).mean_layer_latency_us
        vi = self.row(network, config, VIRTUAL_INSTRUCTION.name).mean_layer_latency_us
        return math.log10(lbl / vi)

    def format(self) -> str:
        headers = [
            "network", "accelerator", "method", "mean latency", "worst latency", "LOAD_D share"
        ]
        rows = [
            [
                row.network,
                row.config,
                row.method,
                f"{row.mean_layer_latency_us:.1f} us",
                f"{row.worst_layer_latency_us:.1f} us",
                f"{100 * row.load_d_share:.0f} %",
            ]
            for row in self.rows
        ]
        return format_table(headers, rows, title="E2: per-layer interrupt latency")


def experiment_network_sweep(
    compiled_networks: list[CompiledNetwork],
    methods: tuple[InterruptMethod, ...] = (LAYER_BY_LAYER, VIRTUAL_INSTRUCTION),
) -> E2Result:
    """Reproduce Fig. barresult(b): mean per-layer latency for each network."""
    rows = []
    for compiled in compiled_networks:
        for method in methods:
            profiles = layer_latency_profiles(
                compiled, method, kinds=("conv", "depthwise")
            )
            mean_us = sum(p.mean_us(compiled) for p in profiles) / len(profiles)
            worst_us = max(p.worst_us(compiled) for p in profiles)
            load_d = sum(p.mean_parts["LOAD_D"] for p in profiles)
            rows.append(
                E2Row(
                    network=compiled.graph.name,
                    config=compiled.config.name,
                    method=method.name,
                    mean_layer_latency_us=mean_us,
                    worst_layer_latency_us=worst_us,
                    load_d_share=load_d / sum(p.mean_cycles for p in profiles),
                )
            )
    return E2Result(rows=rows)


# -- E3: the instruction table (paper Table 1) ------------------------------------


def experiment_instruction_table() -> str:
    """Regenerate Table 1 from the ISA's own metadata."""
    rows = [
        [info.opcode.name, info.description, info.backup, info.recovery]
        for info in INSTRUCTION_TABLE
    ]
    return format_table(
        ["Type", "Description", "Backups", "Recovery"],
        rows,
        title="E3: basic instruction set (paper Table 1)",
    )


# -- E4: the worked example of Eq. 1 ------------------------------------------------


@dataclass(frozen=True)
class E4Result:
    analytic_ratio: float
    model_ratio: float

    def format(self) -> str:
        return (
            "E4: Eq. 1 worked example (80x60 map, 48->32 channels, Para 8/8/4)\n"
            f"  analytic R_l  = {self.analytic_ratio * 100:.2f} %  (paper: 1.7 %)\n"
            f"  cycle-model   = {self.model_ratio * 100:.2f} %"
        )


def experiment_worked_example() -> E4Result:
    config = AcceleratorConfig.worked_example()
    layer = LayerGeometry(in_channels=48, out_channels=32, out_height=60, out_width=80)
    return E4Result(
        analytic_ratio=latency_reduction_ratio(config, layer),
        model_ratio=measured_ratio(config, layer),
    )


# -- E5: t1 distribution inside one example layer ---------------------------------


@dataclass(frozen=True)
class E5Result:
    layer_name: str
    profiles: dict[str, LatencyProfile]
    clock_hz: float

    def reduction(self) -> float:
        vi = self.profiles[VIRTUAL_INSTRUCTION.name]
        lbl = self.profiles[LAYER_BY_LAYER.name]
        return vi.worst_cycles / lbl.worst_cycles

    def format(self) -> str:
        rows = [
            [
                name,
                format_us(profile.worst_cycles, self.clock_hz),
                format_us(profile.mean_cycles, self.clock_hz),
            ]
            for name, profile in self.profiles.items()
        ]
        split = [
            [f"{name} {stat}", *(f"{value:.{digits}f}" for value in (total, *parts.values()))]
            for name, p in self.profiles.items()
            for stat, total, parts, digits in (
                ("worst", p.worst_cycles, p.worst_parts, 0),
                ("mean", p.mean_cycles, p.mean_parts, 1),
            )
        ]
        return (
            format_table(
                ["method", "worst t1", "mean t1"],
                rows,
                title=f"E5: waiting time in layer {self.layer_name!r} "
                f"(VI worst = {self.reduction() * 100:.1f}% of layer-by-layer)",
            )
            + "\n\nby the instruction kind that holds the wait, plus the backup\n"
            + format_table(["response (cycles)", "total", *PARTS], split)
        )


def experiment_t1_distribution(compiled: CompiledNetwork, layer_name: str) -> E5Result:
    """Waiting-time profile for one convolution layer, both methods."""
    target = next(
        cfg for cfg in compiled.layer_configs if cfg.name == layer_name
    )
    profiles = {}
    for method in (LAYER_BY_LAYER, VIRTUAL_INSTRUCTION):
        layer_profiles = layer_latency_profiles(compiled, method, kinds=None)
        profiles[method.name] = next(
            profile for profile in layer_profiles if profile.label == target.name
        )
    return E5Result(
        layer_name=layer_name, profiles=profiles, clock_hz=compiled.config.clock.hz
    )


# -- E6: backup vs convolution time (commented paper table) -------------------------


#: The paper's five example layers: (H, W, Cin, Cout, K, stride).
E6_LAYERS = (
    (480, 640, 3, 64, 7, 2),
    (120, 160, 128, 128, 3, 1),
    (30, 40, 1024, 2048, 1, 1),
    (30, 40, 512, 512, 3, 1),
    (16, 20, 512, 512, 3, 1),
)

#: The paper's measured values for the same rows: (backup us, conv us).
E6_PAPER_VALUES = ((26.29, 52.38), (8.77, 41.18), (1.25, 8.75), (1.42, 39.36), (0.75, 20.16))


@dataclass(frozen=True)
class E6Row:
    height: int
    width: int
    in_channels: int
    out_channels: int
    kernel: int
    backup_us: float
    conv_us: float

    @property
    def ratio(self) -> float:
        return self.backup_us / self.conv_us


@dataclass(frozen=True)
class E6Result:
    rows: list[E6Row]

    def format(self) -> str:
        table_rows = []
        for row, (paper_backup, paper_conv) in zip(self.rows, E6_PAPER_VALUES):
            table_rows.append(
                [
                    f"{row.height}x{row.width}",
                    row.in_channels,
                    row.out_channels,
                    f"{row.kernel}x{row.kernel}",
                    f"{row.backup_us:.2f}",
                    f"{row.conv_us:.2f}",
                    f"{row.ratio * 100:.1f}%",
                    f"{paper_backup:.2f}/{paper_conv:.2f}",
                ]
            )
        return format_table(
            ["map", "Cin", "Cout", "kernel", "backup t2 (us)", "conv t1 (us)", "t2/t1", "paper t2/t1 (us)"],
            table_rows,
            title="E6: data backup vs calculation time",
        )


def experiment_backup_vs_conv(config: AcceleratorConfig | None = None) -> E6Result:
    """Reproduce the backup-vs-conv table: t1 = one CalcBlob, t2 = one
    output-channel group's stripe results."""
    config = config or AcceleratorConfig.big()
    rows = []
    for height, width, cin, cout, kernel, stride in E6_LAYERS:
        out_width = (width + 2 * (kernel // 2) - kernel) // stride + 1
        conv_cycles = blob_cycles(config, cin, out_width, (kernel, kernel))
        backup_bytes = config.para_height * out_width * config.para_out
        backup_cycles = transfer_cycles(config, backup_bytes)
        rows.append(
            E6Row(
                height=height,
                width=width,
                in_channels=cin,
                out_channels=cout,
                kernel=kernel,
                backup_us=config.clock.cycles_to_us(backup_cycles),
                conv_us=config.clock.cycles_to_us(conv_cycles),
            )
        )
    return E6Result(rows=rows)


# -- E7: FPGA resource table --------------------------------------------------------


@dataclass(frozen=True)
class E7Result:
    estimates: list[ResourceEstimate]

    def iau_fraction_of_accelerator(self) -> float:
        accel = next(e for e in self.estimates if e.name == "CNN accelerator")
        iau = next(e for e in self.estimates if e.name == "IAU")
        return iau.lut / accel.lut

    def format(self) -> str:
        rows = [[e.name, e.dsp, e.lut, e.ff, e.bram] for e in self.estimates]
        return format_table(
            ["block", "DSP", "LUT", "FF", "BRAM"],
            rows,
            title="E7: hardware consumption (ZU9 model)",
        )


def experiment_resource_table(config: AcceleratorConfig | None = None) -> E7Result:
    config = config or AcceleratorConfig.big()
    return E7Result(estimates=resource_table(config))


# -- E8: no-interrupt degradation of the VI-ISA ------------------------------------


@dataclass(frozen=True)
class E8Row:
    network: str
    baseline_cycles: int
    vi_cycles: int

    @property
    def degradation_percent(self) -> float:
        return 100.0 * (self.vi_cycles - self.baseline_cycles) / self.baseline_cycles


@dataclass(frozen=True)
class E8Result:
    rows: list[E8Row]

    def worst_degradation(self) -> float:
        return max(row.degradation_percent for row in self.rows)

    def format(self) -> str:
        table_rows = [
            [row.network, row.baseline_cycles, row.vi_cycles, f"{row.degradation_percent:.3f}%"]
            for row in self.rows
        ]
        return format_table(
            ["network", "original cycles", "VI-ISA cycles", "degradation"],
            table_rows,
            title="E8: multi-task support overhead with no interrupts (paper: <=0.3%)",
        )


def experiment_degradation(compiled_networks: list[CompiledNetwork]) -> E8Result:
    """Measure the pure cost of deploying the VI-ISA (extra virtual fetches)."""
    rows = []
    for compiled in compiled_networks:
        baseline = run_program(compiled, vi_mode="none", functional=False).total_cycles
        vi = run_program(compiled, vi_mode="vi", functional=False).total_cycles
        rows.append(E8Row(compiled.graph.name, baseline, vi))
    return E8Result(rows=rows)


# -- E9: VI latency as a fraction of layer-by-layer --------------------------------


@dataclass(frozen=True)
class E9Result:
    network: str
    vi_mean_cycles: float
    layer_mean_cycles: float
    #: ``vi_mean_cycles`` split into :data:`~repro.analysis.latency.PARTS`.
    vi_mean_parts: dict[str, float]

    @property
    def ratio_percent(self) -> float:
        return 100.0 * self.vi_mean_cycles / self.layer_mean_cycles

    def format(self) -> str:
        return (
            f"E9: mean response latency over the whole {self.network} run\n"
            f"  layer-by-layer : {self.layer_mean_cycles:.0f} cycles\n"
            f"  VI method      : {self.vi_mean_cycles:.0f} cycles\n"
            f"  ratio          : {self.ratio_percent:.2f} %  (paper: ~2 %)\n"
            "  VI mean, by the instruction kind that holds the wait:\n"
            + "\n".join(
                f"    {part:<6} : {cycles:8.1f} cycles "
                f"({100 * cycles / self.vi_mean_cycles:4.1f} %)"
                for part, cycles in self.vi_mean_parts.items()
            )
        )


def experiment_latency_ratio(compiled: CompiledNetwork) -> E9Result:
    """Reproduce the abstract's headline: VI latency ~= 2% of layer-by-layer."""
    vi = whole_program_profile(compiled, VIRTUAL_INSTRUCTION)
    layer = whole_program_profile(compiled, LAYER_BY_LAYER)
    return E9Result(
        network=compiled.graph.name,
        vi_mean_cycles=vi.mean_cycles,
        layer_mean_cycles=layer.mean_cycles,
        vi_mean_parts=vi.mean_parts,
    )


# -- A3: multi-core multi-tasking (the paper's §VI future work) ----------------------


@dataclass(frozen=True)
class ScalingRow:
    """One deployment's outcome."""

    label: str
    num_cores: int
    placement: str
    high_mean_response_cycles: float
    high_max_turnaround_cycles: int
    high_deadline_misses: int
    low_jobs_completed: int
    makespan_cycles: int
    core_busy_cycles: tuple[int, ...]

    def utilisation(self) -> float:
        return sum(self.core_busy_cycles) / (self.num_cores * self.makespan_cycles)


@dataclass(frozen=True)
class ScalingResult:
    rows: list[ScalingRow]
    clock_hz: float

    def row(self, label: str) -> ScalingRow:
        for candidate in self.rows:
            if candidate.label == label:
                return candidate
        raise KeyError(f"no deployment {label!r}")

    def format(self) -> str:
        table = []
        for row in self.rows:
            table.append(
                [
                    row.label,
                    row.num_cores,
                    row.placement,
                    f"{row.high_mean_response_cycles * 1e6 / self.clock_hz:.1f} us",
                    row.high_deadline_misses,
                    row.low_jobs_completed,
                    f"{row.makespan_cycles * 1e3 / self.clock_hz:.1f} ms",
                    f"{row.utilisation() * 100:.0f}%",
                ]
            )
        return format_table(
            ["deployment", "cores", "placement", "FE mean response", "FE misses",
             "PR jobs done", "makespan", "utilisation"],
            table,
            title="Multi-core multi-tasking (paper future work)",
        )


class _AtArrival:
    """Every job handed over at its arrival: to an idle node if one exists,
    else to the node with the fewest unfinished jobs by estimate, ties to the
    lower index.  A busy node's IAU pre-empts or queues: the farm simulates it."""

    name = "at-arrival"

    def dispatch(self, jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
        nodes = range(view.num_nodes)
        # Estimated completions per node, FIFO, after the cycle it frees up.
        ends = [[free] for free in view.available]
        plan = []
        for job in jobs:
            now = job.arrival_cycle
            node = min(nodes, key=lambda n: (sum(end > now for end in ends[n]), n))
            ends[node].append(max(now, ends[node][-1]) + view.estimate(node, job.service))
            plan.append(Dispatch(job, node, now))
        return plan


def _fe_pr_day(
    fe_model: str, pr_model: str, period_cycles: int, fe_count: int, pr_count: int
) -> tuple[tuple[ServiceSpec, ServiceSpec], list[Job]]:
    """A3's services and jobs, in arrival order: FE (rank 0, deadline one
    period) arrives every period, ``fe_count`` times; PR (rank 1) has
    ``pr_count`` jobs queued at cycle 0."""
    services = (
        ServiceSpec("fe", fe_model, SloClass("gold", rank=0, weight=8.0,
                                             deadline_cycles=period_cycles)),
        ServiceSpec("pr", pr_model, SloClass("best-effort", rank=1, weight=1.0,
                                             deadline_cycles=period_cycles * fe_count)),
    )
    jobs = [Job(index * period_cycles, index, 0, 0) for index in range(fe_count)]
    jobs += [Job(0, fe_count + index, 1, 1) for index in range(pr_count)]
    return services, sorted(jobs, key=attrgetter("arrival_cycle", "job_id"))


def experiment_multicore(
    config: AcceleratorConfig,
    fe_model: str,
    pr_model: str,
    period_cycles: int,
    fe_count: int = 20,
    pr_count: int = 4,
) -> ScalingResult:
    """A3: one pre-emptive core vs two spatially isolated cores vs two cores
    fed at arrival, each a :class:`~repro.farm.Farm` day of :func:`_fe_pr_day`
    whose node systems (per-node obs simulates every node) give its row."""
    services, jobs = _fe_pr_day(fe_model, pr_model, period_cycles, fe_count, pr_count)
    deployments = [
        ("1-core (INCA, pre-emptive)", "static", _AtArrival(), 1),
        ("2-core (spatial isolation)", "static", StaticPartitionScheduler(), 2),
        ("2-core (dynamic dispatch)", "least-loaded", _AtArrival(), 2),
    ]
    rows = []
    for label, placement, scheduler, cores in deployments:
        farm = Farm([config] * cores, services, scheduler, obs=ObsConfig())
        farm.serve(jobs)
        systems = farm.node_systems
        assert systems is not None and None not in systems
        high = [job for system in systems for job in system.jobs(0)]
        stats = summarize_jobs(0, high, deadline_cycles=period_cycles)
        rows.append(ScalingRow(
            label=label,
            num_cores=cores,
            placement=placement,
            high_mean_response_cycles=stats.mean_response,
            high_max_turnaround_cycles=stats.max_turnaround,
            high_deadline_misses=stats.deadline_misses,
            low_jobs_completed=sum(len(system.jobs(1)) for system in systems),
            makespan_cycles=max(system.clock for system in systems),
            core_busy_cycles=tuple(
                sum(context.busy_cycles for context in system.iau.contexts if context)
                for system in systems
            ),
        ))
    return ScalingResult(rows=rows, clock_hz=config.clock.hz)
