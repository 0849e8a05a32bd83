#!/usr/bin/env python
"""Multi-tenant scheduling: four ROS nodes sharing one CNN accelerator.

Beyond the paper's two-task DSLAM deployment, the IAU supports four priority
slots.  This example runs four periodic "ROS node" workloads of different
priorities and periods on one accelerator and reports per-task response
latency and deadline behaviour — the multi-tenant scenario the introduction
motivates (many developers' components sharing the accelerator without
knowing about each other).

Run:  python examples/multi_tenant_scheduling.py
"""

from __future__ import annotations

from repro.hw.config import AcceleratorConfig
from repro.nn import GraphBuilder, TensorShape
from repro.obs import ObsConfig
from repro.runtime import ArrivalPolicy, MultiTaskSystem, compile_tasks, summarize_jobs
from repro.tables import format_table


def make_workload(name: str, size: int, channels: int):
    """A small conv stack; size/channels set its duty length."""
    builder = GraphBuilder(name, input_shape=TensorShape(size, size, 8))
    builder.conv("conv1", out_channels=channels, kernel=3, padding=1)
    builder.conv("conv2", out_channels=channels, kernel=3, padding=1)
    builder.conv("conv3", out_channels=channels, kernel=1)
    return builder.build()


def main() -> None:
    config = AcceleratorConfig.big()
    graphs = [
        make_workload("safety_stop", 32, 16),     # priority 0: small & urgent
        make_workload("detector", 64, 32),        # priority 1
        make_workload("segmenter", 96, 32),       # priority 2
        make_workload("logger", 128, 48),         # priority 3: big & lazy
    ]
    compiled = compile_tasks(graphs, config, weights="zeros")

    system = MultiTaskSystem(config, iau_mode="virtual", obs=ObsConfig(events=True))
    periods_ms = [10.0, 25.0, 60.0, 200.0]
    counts = [40, 16, 7, 2]
    for task_id, (network, period_ms, count) in enumerate(zip(compiled, periods_ms, counts)):
        system.add_task(task_id, network, vi_mode="vi")
        system.submit(
            task_id,
            policy=ArrivalPolicy.PERIODIC,
            period_cycles=config.clock.us_to_cycles(period_ms * 1000),
            count=count,
        )

    total = system.run()
    print(f"simulated {config.clock.cycles_to_ms(total):.1f} ms of wall time "
          f"({total} cycles)\n")

    rows = []
    for task_id, (network, period_ms) in enumerate(zip(compiled, periods_ms)):
        deadline = config.clock.us_to_cycles(period_ms * 1000)
        stats = summarize_jobs(task_id, system.jobs(task_id), deadline_cycles=deadline)
        rows.append(
            [
                task_id,
                network.graph.name,
                stats.jobs,
                f"{config.clock.cycles_to_us(stats.mean_response):.1f} us",
                f"{config.clock.cycles_to_us(stats.max_response):.1f} us",
                f"{config.clock.cycles_to_ms(stats.max_turnaround):.2f} ms",
                stats.deadline_misses,
            ]
        )
    print(format_table(
        ["prio", "task", "jobs", "mean response", "max response", "max turnaround", "misses"],
        rows,
        title="four-tenant schedule on one accelerator (VI interrupts)",
    ))
    print(f"\ntask switches: {system.iau.num_switches}, "
          f"backup traffic: {system.iau.backup_cycles} cycles, "
          f"recovery traffic: {system.iau.restore_cycles} cycles")

    # The observability layer has the same story, per job: one span tree per
    # inference with its layers, pre-emptions, and VI save/restore work.
    print("\nfirst safety_stop job, as a span tree:")
    print(system.spans(0)[0].format())


if __name__ == "__main__":
    main()
