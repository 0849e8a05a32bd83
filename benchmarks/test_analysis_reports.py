"""Analysis reports on the paper workloads: roofline, energy, schedulability.

Not figures from the paper, but the design-analysis companions DESIGN.md
promises: where GeM's time goes (roofline), what an inference and an
interrupt cost in joules, and the schedulability argument behind "FE always
meets its deadline".
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.analysis.roofline import roofline_report
from repro.dslam.camera import frame_period_cycles
from repro.hw.energy import cpu_like_switch_energy, inference_energy, interrupt_energy_overhead
from repro.interrupt import VIRTUAL_INSTRUCTION, run_alone
from repro.runtime.policies import (
    PeriodicTask,
    rate_monotonic_order,
    response_time_analysis,
    total_utilisation,
)


@pytest.fixture(scope="module")
def alone_cycles(paper_workloads):
    gem, _, superpoint_small = paper_workloads
    return {
        "gem": run_alone(gem, VIRTUAL_INSTRUCTION),
        "fe": run_alone(superpoint_small, VIRTUAL_INSTRUCTION),
    }


def test_roofline_of_gem(benchmark, paper_workloads):
    gem, _, _ = paper_workloads
    report = benchmark.pedantic(lambda: roofline_report(gem), rounds=1, iterations=1)
    write_result("report_roofline_gem", report.format(top=20))
    # GeM's 1x1-dominated stages plus the per-stripe weight reloads make
    # almost the whole run memory-bound — the runtime side of the latency
    # floor, where tile LOAD_Ds hold 71 % of the VI mean wait (E9).
    assert report.memory_bound_fraction() > 0.5


def test_energy_report(benchmark, paper_workloads, alone_cycles, big_config):
    gem, _, superpoint_small = paper_workloads
    gem_energy = benchmark.pedantic(
        lambda: inference_energy(gem, alone_cycles["gem"]), rounds=1, iterations=1
    )
    fe_energy = inference_energy(superpoint_small, alone_cycles["fe"])
    vi_switch = interrupt_energy_overhead(
        big_config, backup_bytes=40 * 1024, restore_bytes=512 * 1024, extra_cycles=100_000
    )
    cpu_switch = cpu_like_switch_energy(big_config)
    lines = [
        gem_energy.format(),
        "",
        fe_energy.format(),
        "",
        f"one VI interrupt  : {vi_switch * 1e6:.1f} uJ",
        f"one CPU-like switch: {cpu_switch * 1e6:.1f} uJ "
        f"({cpu_switch / vi_switch:.1f}x the VI cost)",
    ]
    write_result("report_energy", "\n".join(lines))
    # A PR inference costs orders of magnitude more than one VI interrupt.
    assert vi_switch < gem_energy.total_j / 100
    assert cpu_switch > vi_switch


def test_schedulability_of_dslam(benchmark, paper_workloads, alone_cycles, big_config):
    """Response-time analysis certifies the paper's FE deadline claim before
    any simulation runs (and E10 then confirms it empirically)."""
    gem, _, superpoint_small = paper_workloads
    period = frame_period_cycles(big_config.clock.hz, 20.0)
    tasks = rate_monotonic_order(
        [
            PeriodicTask("fe", superpoint_small, period, alone_cycles["fe"]),
            # PR runs continuously; model it as periodic at its own runtime.
            PeriodicTask("pr", gem, int(alone_cycles["gem"] * 1.25), alone_cycles["gem"]),
        ]
    )
    results = benchmark.pedantic(
        lambda: response_time_analysis(tasks), rounds=1, iterations=1
    )
    lines = [f"utilisation: {total_utilisation(tasks) * 100:.1f}%"]
    for task, result in zip(tasks, results):
        lines.append(
            f"{task.name}: response {result.response_cycles / 3e5:.2f} ms, "
            f"deadline {result.deadline_cycles / 3e5:.2f} ms, "
            f"schedulable={result.schedulable}"
        )
    write_result("report_schedulability", "\n".join(lines))
    fe_result = next(r for r in results if r.name == "fe")
    assert fe_result.schedulable
