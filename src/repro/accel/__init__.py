"""Cycle-approximate, functionally bit-exact accelerator simulator."""

from repro.accel.core import (
    AcceleratorCore,
    Accumulator,
    CoreStats,
    DataTile,
    OutputGroup,
    OutputSection,
    WeightTile,
)
from repro.accel.pipelined import (
    PipelinedSchedule,
    engine_busy_cycles,
    pipelined_schedule,
)

__all__ = [
    "AcceleratorCore",
    "Accumulator",
    "CoreStats",
    "DataTile",
    "OutputGroup",
    "OutputSection",
    "PipelinedSchedule",
    "WeightTile",
    "engine_busy_cycles",
    "pipelined_schedule",
]
