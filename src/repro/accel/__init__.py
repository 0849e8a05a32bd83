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

__all__ = [
    "AcceleratorCore",
    "Accumulator",
    "CoreStats",
    "DataTile",
    "OutputGroup",
    "OutputSection",
    "WeightTile",
]
