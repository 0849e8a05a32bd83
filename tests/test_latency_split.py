"""The response-latency split: each profile's wait divided by the kind of
the instruction that holds it, plus the backup (``LatencyProfile.mean_parts``
and ``worst_parts``)."""

from __future__ import annotations

import bisect

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.latency import (
    PARTS,
    WAIT_KINDS,
    layer_latency_profiles,
    switch_events,
    whole_program_profile,
    window_profile,
)
from repro.compiler import compile_network
from repro.hw.config import AcceleratorConfig
from repro.interrupt import CPU_LIKE, LAYER_BY_LAYER, VIRTUAL_INSTRUCTION
from repro.nn import TensorShape
from repro.zoo import build_gem, build_tiny_cnn, build_tiny_conv, build_tiny_residual

METHODS = (VIRTUAL_INSTRUCTION, LAYER_BY_LAYER, CPU_LIKE)
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def timelines():
    """(network, method) -> SwitchEvents over the tiny zoo networks."""
    config = AcceleratorConfig.worked_example()
    table = {}
    for build in (build_tiny_conv, build_tiny_cnn, build_tiny_residual):
        compiled = compile_network(build(), config, weights="zeros")
        for method in METHODS:
            table[compiled.graph.name, method.name] = (method, switch_events(compiled, method))
    return table


def _draw_window(data, timelines, max_width):
    method, events = timelines[data.draw(st.sampled_from(sorted(timelines)))]
    total = int(events.ends[-1])
    start = data.draw(st.integers(0, total - 1))
    stop = data.draw(st.integers(start + 1, min(total, start + max_width)))
    return method, events, (start, stop)


def _assert_parts_sum(profile):
    assert list(profile.mean_parts) == list(PARTS) == list(profile.worst_parts)
    assert sum(profile.mean_parts.values()) == pytest.approx(profile.mean_cycles, rel=1e-9)
    assert sum(profile.worst_parts.values()) == profile.worst_cycles


def _midpoint_oracle(events, window):
    """Walk from every arrival ``t + 0.5`` in the window to the next switch
    opportunity, adding up the cycles left in each instruction on the way.

    Every breakpoint is an integer cycle, so each wait is linear on
    ``[t, t + 1)`` and the midpoint rule is exact.  The worst response is the
    walk from ``t`` itself (the limit from the right) at its largest.
    """
    starts, ends = events.starts.tolist(), events.ends.tolist()
    kinds, times, backups = events.kinds.tolist(), events.times.tolist(), events.backups.tolist()
    start, stop = window
    mean = dict.fromkeys(PARTS, 0.0)
    worst: dict[str, int] = {}
    for t in range(start, stop):
        opportunity = bisect.bisect_right(times, t)
        index = bisect.bisect_right(ends, t)
        held = WAIT_KINDS[kinds[index]]
        parts = dict.fromkeys(WAIT_KINDS, 0)
        while index < len(ends) and ends[index] <= times[opportunity]:
            parts[WAIT_KINDS[kinds[index]]] += ends[index] - max(starts[index], t)
            index += 1
        parts["backup"] = backups[opportunity]
        if sum(parts.values()) > sum(worst.values()):
            worst = parts
        for part, cycles in parts.items():
            mean[part] += cycles
        mean[held] -= 0.5
    return {part: total / (stop - start) for part, total in mean.items()}, worst


@SETTINGS
@given(data=st.data())
def test_parts_sum_to_the_response(timelines, data):
    method, events, window = _draw_window(data, timelines, max_width=40_000)
    _assert_parts_sum(window_profile("window", method, events, window))


@SETTINGS
@given(data=st.data())
def test_split_matches_midpoint_walk(timelines, data):
    method, events, window = _draw_window(data, timelines, max_width=5_000)
    profile = window_profile("window", method, events, window)
    mean, worst = _midpoint_oracle(events, window)
    assert profile.worst_parts == worst
    assert profile.mean_parts == pytest.approx(mean, rel=1e-12, abs=1e-9)


@pytest.fixture(scope="module")
def gem_vga():
    """GeM/ResNet-101 at 480x640 on the big (Para 16/16/8) accelerator."""
    return compile_network(
        build_gem(TensorShape(480, 640, 3)), AcceleratorConfig.big(),
        weights="zeros", verify="off",
    )


def test_gem_vga_split_is_pinned(gem_vga):
    """The E9 and E5 gaps to the paper, by cause: the VI floor is the tile
    load (``LOAD_D``), not the CALC blob."""
    whole = whole_program_profile(gem_vga, VIRTUAL_INSTRUCTION)
    assert whole.mean_cycles == pytest.approx(13_520.6, abs=0.05)
    assert {part: round(cycles, 1) for part, cycles in whole.mean_parts.items()} == {
        "LOAD_D": 9603.3, "LOAD_W": 557.3, "CALC_I": 1582.2, "CALC_F": 338.0,
        "SAVE": 798.2, "fetch": 4.0, "backup": 637.5,
    }
    (layer,) = [
        profile for profile in layer_latency_profiles(gem_vga, VIRTUAL_INSTRUCTION)
        if profile.label == "res2_0_conv2"
    ]
    assert layer.worst_cycles == 32_868
    assert layer.worst_parts == {
        "LOAD_D": 23_140, "LOAD_W": 1_260, "CALC_I": 4_356, "CALC_F": 1_452,
        "SAVE": 0, "fetch": 4, "backup": 2_656,
    }


@pytest.mark.parametrize("method", [VIRTUAL_INSTRUCTION, LAYER_BY_LAYER])
def test_gem_vga_parts_sum_in_every_window(gem_vga, method):
    _assert_parts_sum(whole_program_profile(gem_vga, method))
    for profile in layer_latency_profiles(gem_vga, method):
        _assert_parts_sum(profile)
