"""Deterministic latency profiles computed from compiled programs.

For large networks (ResNet-101 has ~400k instructions) simulating an
interrupt at every layer is wasteful: with no interrupts in flight the
execution is straight-line, so per-instruction completion times are a prefix
sum.  A request arriving at time ``t`` is served at the first *switch
opportunity* at or after ``t`` plus that opportunity's backup cost:

* virtual-instruction method — opportunities are the VIR_SAVE / first
  recovery load / VIR_BARRIER points; VIR_SAVE pays its backup DMA;
* layer-by-layer — opportunities are the end-of-layer barriers, free;
* CPU-like — every instruction boundary, paying a full buffer spill.

The profiles here are exact under that straight-line model and are
cross-validated against full IAU simulations in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.compile import CompiledNetwork
from repro.hw import timing
from repro.interrupt.base import InterruptMethod
from repro.isa.opcodes import Opcode


@dataclass(frozen=True)
class LatencyProfile:
    """Interrupt response-latency statistics over an arrival window."""

    label: str
    method: str
    worst_cycles: float
    mean_cycles: float
    switch_points: int

    def worst_us(self, compiled: CompiledNetwork) -> float:
        return compiled.config.clock.cycles_to_us(self.worst_cycles)

    def mean_us(self, compiled: CompiledNetwork) -> float:
        return compiled.config.clock.cycles_to_us(self.mean_cycles)


def instruction_cycles(compiled: CompiledNetwork, vi_mode: str) -> np.ndarray:
    """Duration of each instruction in straight-line (no-interrupt) flow.

    Virtual instructions cost only their fetch; real instructions cost fetch
    plus execution, matching the IAU's accounting: the per-kind prices of
    :func:`repro.hw.timing.kind_cycles` spread back over the program.
    """
    config = compiled.config
    priced = timing.kind_cycles(config, compiled, compiled.program_for(vi_mode))
    return priced.cycles[priced.inverse] + timing.fetch_cycles(config)


def switch_events(
    compiled: CompiledNetwork,
    method: InterruptMethod,
    durations: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """(per-instruction durations, [(opportunity time, backup cycles), ...]).

    Opportunity times are completion times along the straight-line schedule
    (or along ``durations``, for a caller with a timeline of its own).
    """
    config = compiled.config
    if durations is None:
        durations = instruction_cycles(compiled, method.vi_mode)
    ends = np.cumsum(durations)
    program = compiled.program_for(method.vi_mode)

    events: list[tuple[int, int]] = []
    if method.iau_mode == "cpu":
        spill = timing.transfer_cycles(config, config.total_buffer_bytes)
        events = [(int(end), spill) for end in ends]
    else:
        for index in program.switch_point_indices:
            instruction = program[index]
            backup = 0
            if instruction.opcode == Opcode.VIR_SAVE:
                backup = timing.transfer_cycles(config, instruction.length)
            events.append((int(ends[index]), backup))
    # The end of the program is always a free opportunity (the task is done).
    events.append((int(ends[-1]), 0))
    return durations, events


def window_profile(
    label: str,
    method: InterruptMethod,
    events: list[tuple[int, int]],
    window: tuple[int, int],
) -> LatencyProfile:
    """Latency stats for arrivals uniform over ``window`` = [start, stop)."""
    start, stop = window
    if stop <= start:
        raise ValueError(f"empty arrival window [{start}, {stop})")
    total_area = 0.0
    worst = 0.0
    count = 0
    cursor = start
    for time, backup in events:
        if time < start:
            continue
        if cursor >= stop:
            break
        segment_end = min(time, stop)
        if segment_end > cursor:
            width = segment_end - cursor
            # Integral of (time - t + backup) for t in [cursor, segment_end).
            total_area += (time + backup) * width - (segment_end**2 - cursor**2) / 2.0
            worst = max(worst, time - cursor + backup)
            count += 1
        cursor = max(cursor, time)
    if cursor < stop:
        raise ValueError(
            f"no switch opportunity after cycle {cursor}; events end too early"
        )
    return LatencyProfile(
        label=label,
        method=method.name,
        worst_cycles=worst,
        mean_cycles=total_area / (stop - start),
        switch_points=count,
    )


def layer_windows(compiled: CompiledNetwork, vi_mode: str, durations: np.ndarray) -> dict[int, tuple[int, int]]:
    """layer_id -> (start, stop) cycle window along the straight-line run."""
    layer_id = compiled.program_for(vi_mode).words["layer_id"]
    ends = np.cumsum(durations)
    starts = ends - durations
    windows: dict[int, tuple[int, int]] = {}
    for layer in np.unique(layer_id).tolist():
        mask = layer_id == layer
        windows[layer] = (int(starts[mask].min()), int(ends[mask].max()))
    return windows


def layer_latency_profiles(
    compiled: CompiledNetwork, method: InterruptMethod, kinds: tuple[str, ...] | None = None
) -> list[LatencyProfile]:
    """Per-layer response-latency profiles (paper Fig. barresult(b) data)."""
    durations, events = switch_events(compiled, method)
    windows = layer_windows(compiled, method.vi_mode, durations)
    profiles = []
    for layer in compiled.layer_configs:
        if kinds is not None and layer.kind not in kinds:
            continue
        profiles.append(
            window_profile(layer.name, method, events, windows[layer.layer_id])
        )
    return profiles


def whole_program_profile(
    compiled: CompiledNetwork, method: InterruptMethod
) -> LatencyProfile:
    """Latency profile for arrivals anywhere in the network's execution."""
    durations, events = switch_events(compiled, method)
    total = int(np.sum(durations))
    return window_profile(compiled.graph.name, method, events, (0, total))


def response_at(
    compiled: CompiledNetwork, method: InterruptMethod, request_cycle: int
) -> int:
    """Predicted response latency for one arrival time (cross-validation)."""
    _, events = switch_events(compiled, method)
    for time, backup in events:
        if time >= request_cycle:
            return int(time - request_cycle + backup)
    raise ValueError(f"request at {request_cycle} falls after the program ends")
