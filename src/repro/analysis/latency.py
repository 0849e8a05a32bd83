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

Every profile also splits its response latency by cause: the wait, by the
kind of the instruction that holds it (:data:`WAIT_KINDS`), plus the
backup.  On GeM/ResNet-101 at 480x640 (Para 16/16/8) the VI mean response
of 13,520.6 cycles is 9,603 cycles of ``LOAD_D`` (71 %), 1,920 of CALC,
798 of SAVE, 557 of ``LOAD_W``, 4 of virtual fetch and 637.5 of backup:
the VI floor is the non-interruptible tile load, not the CALC blob that
Eq. 1 prices.

The profiles here are exact under that straight-line model — computed from
the same timeline columns as the verifier's static WCIRL
(:mod:`repro.verify.wcirl`) — and are cross-validated against full IAU
simulations in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.compile import CompiledNetwork
from repro.hw import timing
from repro.interrupt.base import InterruptMethod
from repro.isa.opcodes import Opcode
from repro.verify.wcirl import straight_line_cycles, switch_opportunities

#: What a wait is split by: the opcode of the instruction that holds it,
#: with every virtual instruction (a fetch the IAU discards) as ``fetch``.
WAIT_KINDS = ("LOAD_D", "LOAD_W", "CALC_I", "CALC_F", "SAVE", "fetch")
#: The parts of a response latency: the wait kinds, then the backup.
PARTS = WAIT_KINDS + ("backup",)

_KIND_OF_OPCODE = np.full(256, WAIT_KINDS.index("fetch"), dtype=np.int64)
for _code, _name in enumerate(WAIT_KINDS[:-1]):
    _KIND_OF_OPCODE[Opcode[_name]] = _code


@dataclass(frozen=True)
class LatencyProfile:
    """Interrupt response-latency statistics over an arrival window."""

    label: str
    method: str
    worst_cycles: float
    mean_cycles: float
    switch_points: int
    #: ``mean_cycles`` split into :data:`PARTS`; the parts sum to it.
    mean_parts: dict[str, float]
    #: The worst response split the same way; the parts sum to it exactly.
    worst_parts: dict[str, int]

    def worst_us(self, compiled: CompiledNetwork) -> float:
        return compiled.config.clock.cycles_to_us(self.worst_cycles)

    def mean_us(self, compiled: CompiledNetwork) -> float:
        return compiled.config.clock.cycles_to_us(self.mean_cycles)


@dataclass(frozen=True)
class SwitchEvents:
    """The straight-line run of one program under one interrupt method."""

    #: Start and end cycle of each instruction, its fetch included (int64).
    starts: np.ndarray
    ends: np.ndarray
    #: :data:`WAIT_KINDS` index of each instruction.
    kinds: np.ndarray
    #: Switch opportunity cycles, ascending, the program end last (a free
    #: opportunity: the task is done), and the backup cycles of each.
    times: np.ndarray
    backups: np.ndarray


def instruction_cycles(compiled: CompiledNetwork, vi_mode: str) -> np.ndarray:
    """Duration of each instruction in straight-line (no-interrupt) flow:
    :func:`repro.verify.wcirl.straight_line_cycles`, the column the static
    WCIRL bound is computed from."""
    return straight_line_cycles(
        compiled.program_for(vi_mode), compiled.config, compiled.layer_config
    )


def switch_events(compiled: CompiledNetwork, method: InterruptMethod) -> SwitchEvents:
    """The instruction timeline and switch opportunities of ``method``'s
    program; opportunity times are completion times along it."""
    config = compiled.config
    program = compiled.program_for(method.vi_mode)
    durations = instruction_cycles(compiled, method.vi_mode)
    ends = np.cumsum(durations)
    if method.iau_mode == "cpu":
        spill = timing.transfer_cycles(config, config.total_buffer_bytes)
        times, backups = ends, np.full(len(ends), spill, dtype=np.int64)
    else:
        indices, backups = switch_opportunities(program, config)
        times = ends[indices]
    return SwitchEvents(
        starts=ends - durations,
        ends=ends,
        kinds=_KIND_OF_OPCODE[program.words["opcode"]],
        times=np.append(times, ends[-1]),
        backups=np.append(backups, 0),
    )


def _doubled_wait(x: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Twice ``integral_0^x min(duration, y) dy``: the wait an instruction
    holds, integrated over the arrivals up to ``x`` cycles before its end."""
    return np.where(x <= duration, x * x, duration * (2 * x - duration))


def window_profile(
    label: str,
    method: InterruptMethod,
    events: SwitchEvents,
    window: tuple[int, int],
) -> LatencyProfile:
    """Latency stats for arrivals uniform over ``window`` = [start, stop).

    The mean and the worst come from the gaps between opportunities.  Their
    split comes from one pass over the instructions an arrival in the
    window can wait in: an instruction ending at ``e`` holds an arrival at
    ``t`` in its gap for ``min(duration, e - t)`` cycles (all of it before
    it starts, the remainder inside it, nothing after it), integrated in
    closed form over the gap's arrivals clipped to the window.  Every
    breakpoint is an integer cycle, so the doubled areas are exact integers.
    """
    start, stop = window
    if stop <= start:
        raise ValueError(f"empty arrival window [{start}, {stop})")
    times, backups = events.times, events.backups
    # The opportunities that serve an arrival in the window: the first after
    # ``start`` through the first at or after ``stop``.
    first = int(np.searchsorted(times, start, side="right"))
    last = int(np.searchsorted(times, stop, side="left"))
    if last == len(times):
        raise ValueError(f"no switch opportunity at or after cycle {stop}")
    serve, backup = times[first : last + 1], backups[first : last + 1]
    opens = np.concatenate(([start], times[first:last]))
    widths = np.minimum(serve, stop) - opens  # 0 for a duplicate opportunity time
    # Arrivals at t in [open, open + width) respond in serve - t + backup.
    doubled_area = int(
        ((serve - opens) ** 2 - (serve - opens - widths) ** 2).sum() + 2 * (backup @ widths)
    )
    responses = np.where(widths > 0, serve - opens + backup, -1)
    worst = int(np.argmax(responses))

    # The split, instruction by instruction: from the one running at
    # ``start`` to the one that ends at the last serving opportunity.
    low = int(np.searchsorted(events.ends, start, side="right"))
    high = int(np.searchsorted(events.ends, times[last], side="left")) + 1
    end = events.ends[low:high]
    duration = end - events.starts[low:high]
    gap = np.searchsorted(serve, end, side="left")
    opened = opens[gap]
    inside = end - np.maximum(np.minimum(end, stop), opened)
    area = _doubled_wait(end - opened, duration) - _doubled_wait(inside, duration)
    held = np.where(gap == worst, np.clip(end - opens[worst], 0, duration), 0)

    kinds = events.kinds[low:high]
    doubled_width = 2 * (stop - start)
    mean_parts: dict[str, float] = {}
    worst_parts: dict[str, int] = {}
    for code, name in enumerate(WAIT_KINDS):
        mask = kinds == code
        mean_parts[name] = int(area[mask].sum()) / doubled_width
        worst_parts[name] = int(held[mask].sum())
    mean_parts["backup"] = int(backup @ widths) / (stop - start)
    worst_parts["backup"] = int(backup[worst])
    return LatencyProfile(
        label=label,
        method=method.name,
        worst_cycles=int(responses[worst]),
        mean_cycles=doubled_area / doubled_width,
        switch_points=int(np.count_nonzero(widths)),
        mean_parts=mean_parts,
        worst_parts=worst_parts,
    )


def layer_latency_profiles(
    compiled: CompiledNetwork, method: InterruptMethod, kinds: tuple[str, ...] | None = None
) -> list[LatencyProfile]:
    """Per-layer response-latency profiles (paper Fig. barresult(b) data),
    each over the layer's (start, stop) window along the straight-line run."""
    events = switch_events(compiled, method)
    layer_id = compiled.program_for(method.vi_mode).words["layer_id"]
    profiles: list[LatencyProfile] = []
    for layer in compiled.layer_configs:
        if kinds is None or layer.kind in kinds:
            mask = layer_id == layer.layer_id
            window = (int(events.starts[mask].min()), int(events.ends[mask].max()))
            profiles.append(window_profile(layer.name, method, events, window))
    return profiles


def whole_program_profile(
    compiled: CompiledNetwork, method: InterruptMethod
) -> LatencyProfile:
    """Latency profile for arrivals anywhere in the network's execution."""
    events = switch_events(compiled, method)
    return window_profile(compiled.graph.name, method, events, (0, int(events.ends[-1])))


def response_at(
    compiled: CompiledNetwork, method: InterruptMethod, request_cycle: int
) -> int:
    """Predicted response latency for one arrival time (cross-validation)."""
    events = switch_events(compiled, method)
    index = int(np.searchsorted(events.times, request_cycle, side="left"))
    if index == len(events.times):
        raise ValueError(f"request at {request_cycle} falls after the program ends")
    return int(events.times[index] - request_cycle + events.backups[index])
