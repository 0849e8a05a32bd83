"""Hardware models: configuration, DDR, timing, energy, resources."""

from repro.hw.config import AcceleratorConfig, DdrConfig
from repro.hw.ddr import DDR_ALIGNMENT, Ddr, DdrRegion
from repro.hw.energy import (
    EnergyEstimate,
    EnergyModel,
    cpu_like_switch_energy,
    inference_energy,
    interrupt_energy_overhead,
)
from repro.hw.resources import (
    BRAM36_BYTES,
    ZU9_RESOURCES,
    ResourceEstimate,
    estimate_accelerator,
    estimate_fe_postprocessing,
    estimate_iau,
    resource_table,
)
from repro.hw.timing import (
    blob_calc_count,
    blob_cycles,
    calc_cycles,
    fetch_cycles,
    layer_calc_cycles,
    transfer_cycles,
)

__all__ = [
    "AcceleratorConfig",
    "BRAM36_BYTES",
    "DDR_ALIGNMENT",
    "Ddr",
    "DdrConfig",
    "DdrRegion",
    "EnergyEstimate",
    "EnergyModel",
    "ResourceEstimate",
    "cpu_like_switch_energy",
    "inference_energy",
    "interrupt_energy_overhead",
    "ZU9_RESOURCES",
    "blob_calc_count",
    "blob_cycles",
    "calc_cycles",
    "estimate_accelerator",
    "estimate_fe_postprocessing",
    "estimate_iau",
    "fetch_cycles",
    "layer_calc_cycles",
    "resource_table",
    "transfer_cycles",
]
