"""Ablation — interrupt-point density (the "where to interrupt" design axis).

The paper inserts a point after every SAVE/CALC_F.  Thinning the CALC_F
points trades response latency (E9 axis) against no-interrupt overhead
(E8 axis).  This sweep quantifies the trade-off on GeM/ResNet-101 and shows
the paper's choice (stride 1) sits at negligible overhead already — i.e.
there is no reason to thin.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.accel.runner import run_program
from repro.analysis import whole_program_profile
from repro.compiler import ViPolicy, compile_network
from repro.interrupt.base import VIRTUAL_INSTRUCTION
from repro.nn import TensorShape
from repro.tables import format_table
from repro.zoo import build_gem

STRIDES = (1, 2, 4, 16)


@pytest.fixture(scope="module")
def density_rows(big_config):
    graph = build_gem(TensorShape(480, 640, 3))
    rows = []
    baseline_cycles = None
    for stride in STRIDES:
        compiled = compile_network(
            graph,
            big_config,
            weights="zeros",
            verify="off",
            vi_policy=ViPolicy(calc_f_stride=stride),
        )
        if baseline_cycles is None:
            baseline_cycles = run_program(compiled, "none", functional=False).total_cycles
        vi_cycles = run_program(compiled, "vi", functional=False).total_cycles
        profile = whole_program_profile(compiled, VIRTUAL_INSTRUCTION)
        rows.append(
            {
                "stride": stride,
                "points": compiled.program.num_virtual(),
                "degradation": 100.0 * (vi_cycles - baseline_cycles) / baseline_cycles,
                "mean_latency_us": profile.mean_us(compiled),
                "worst_latency_us": profile.worst_us(compiled),
            }
        )
        del compiled
    return rows


def test_ablation_table(benchmark, density_rows):
    benchmark(lambda: len(density_rows))
    table = format_table(
        ["CALC_F stride", "interrupt points", "degradation", "mean latency", "worst latency"],
        [
            [
                row["stride"],
                row["points"],
                f"{row['degradation']:.3f}%",
                f"{row['mean_latency_us']:.1f} us",
                f"{row['worst_latency_us']:.1f} us",
            ]
            for row in density_rows
        ],
        title="Ablation: interrupt-point density on GeM/ResNet-101",
    )
    write_result("ablation_vi_density", table)


def test_degradation_decreases_with_stride(benchmark, density_rows):
    benchmark(lambda: density_rows[0]["degradation"])
    degradations = [row["degradation"] for row in density_rows]
    assert degradations == sorted(degradations, reverse=True)
    # All configurations stay within the paper's 0.3% envelope.
    assert degradations[0] <= 0.3


def test_latency_increases_with_stride(benchmark, density_rows):
    benchmark(lambda: density_rows[0]["mean_latency_us"])
    latencies = [row["mean_latency_us"] for row in density_rows]
    assert latencies[-1] > latencies[0]


def test_stride_one_is_the_right_choice(benchmark, density_rows):
    """The paper's design point: full density costs <0.3% — thinning buys
    almost nothing while hurting latency."""
    benchmark(lambda: density_rows[0])
    dense = density_rows[0]
    sparse = density_rows[-1]
    saved_overhead = dense["degradation"] - sparse["degradation"]
    assert saved_overhead < 0.3  # thinning saves under 0.3 points...
    assert sparse["mean_latency_us"] > dense["mean_latency_us"]  # ...and waits longer
