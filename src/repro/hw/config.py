"""Accelerator hardware configuration.

The paper evaluates Angel-Eye on a ZU9 MPSoC at 300 MHz with parallelism
``Para_height=8, Para_in=16, Para_out=16`` (the "big" accelerator) and also
reports a "small accelerator with small parallelism".  The Section IV-C
worked example uses ``Para_in=8, Para_out=8, Para_height=4``.

All three are provided as named constructors so experiments can reference
them symbolically.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import HardwareError
from repro.units import KIB, MIB, Frequency


@dataclass(frozen=True)
class DdrConfig:
    """External memory model parameters.

    ``bytes_per_cycle`` is the *effective* DMA bandwidth at the accelerator
    clock; ``burst_overhead_cycles`` is paid once per DMA descriptor, which
    reproduces the paper's small-transfer inefficiency (e.g. the first-layer
    backup costing half a convolution).
    """

    bytes_per_cycle: float = 8.0
    burst_overhead_cycles: int = 96

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise HardwareError(f"bytes_per_cycle must be positive, got {self.bytes_per_cycle}")
        if self.burst_overhead_cycles < 0:
            raise HardwareError("burst_overhead_cycles must be non-negative")

    def transfer_cycles(self, num_bytes: int) -> int:
        """Cycles to move ``num_bytes`` over one DMA descriptor."""
        if num_bytes < 0:
            raise HardwareError(f"cannot transfer {num_bytes} bytes")
        if num_bytes == 0:
            return 0
        return self.burst_overhead_cycles + int(-(-num_bytes // self.bytes_per_cycle))


@dataclass(frozen=True)
class AcceleratorConfig:
    """Static parameters of one accelerator instance."""

    name: str
    para_in: int
    para_out: int
    para_height: int
    data_buffer_bytes: int
    weight_buffer_bytes: int
    output_buffer_bytes: int
    clock: Frequency = field(default_factory=lambda: Frequency.mhz(300))
    ddr: DdrConfig = field(default_factory=DdrConfig)
    #: Cycles the IAU spends fetching one 32-byte instruction word from DDR.
    instruction_fetch_cycles: int = 4
    #: Fixed pipeline fill/drain cycles per CALC instruction (calibrated so
    #: the paper's per-layer CALC timings, including 1x1 kernels, land within
    #: ~15 %).
    calc_overhead_cycles: int = 8
    #: Output-row stripes sharing one input-tile LOAD_D.  Small tiles keep
    #: individual DMA descriptors short (a LOAD_D is not interruptible), at
    #: the price of reloading halo rows — the streaming behaviour of the real
    #: accelerator.
    max_stripes_per_tile: int = 2
    #: Output-channel groups drained by one SAVE.  Bounds how much
    #: finalized-but-unsaved data a VIR_SAVE may need to back up (the paper's
    #: example drains two CALC_F per SAVE).
    max_groups_per_save: int = 2

    def __post_init__(self) -> None:
        for name in ("para_in", "para_out", "para_height"):
            if getattr(self, name) <= 0:
                raise HardwareError(f"{name} must be positive")
        for name in ("data_buffer_bytes", "weight_buffer_bytes", "output_buffer_bytes"):
            if getattr(self, name) <= 0:
                raise HardwareError(f"{name} must be positive")
        if self.instruction_fetch_cycles < 0 or self.calc_overhead_cycles < 0:
            raise HardwareError("cycle overheads must be non-negative")
        if self.max_stripes_per_tile <= 0:
            raise HardwareError("max_stripes_per_tile must be positive")
        if self.max_groups_per_save <= 0:
            raise HardwareError("max_groups_per_save must be positive")

    @property
    def macs_per_cycle(self) -> int:
        """MACs the array retires per cycle: Para_in x Para_out x Para_height."""
        return self.para_in * self.para_out * self.para_height

    @property
    def total_buffer_bytes(self) -> int:
        """Total on-chip cache the CPU-like interrupt must spill/restore."""
        return self.data_buffer_bytes + self.weight_buffer_bytes + self.output_buffer_bytes

    # -- named configurations ------------------------------------------------

    @classmethod
    def big(cls) -> "AcceleratorConfig":
        """The paper's evaluation accelerator: Para 16/16/8 on a ZU9-class
        part at 300 MHz with ~2.2 MiB of on-chip caches."""
        return cls(
            name="angel-eye-zu9",
            para_in=16,
            para_out=16,
            para_height=8,
            data_buffer_bytes=1 * MIB,
            weight_buffer_bytes=768 * KIB,
            output_buffer_bytes=512 * KIB,
        )

    @classmethod
    def small(cls) -> "AcceleratorConfig":
        """A small-parallelism accelerator (Fig. barresult(b)'s second device)."""
        return cls(
            name="angel-eye-small",
            para_in=8,
            para_out=8,
            para_height=4,
            # 384 KiB: the smallest data buffer that still fits one stripe of
            # a VGA-scale residual add (2 operands x 4 rows x 160 x 256).
            data_buffer_bytes=384 * KIB,
            weight_buffer_bytes=128 * KIB,
            output_buffer_bytes=128 * KIB,
            ddr=DdrConfig(bytes_per_cycle=4.0),
        )

    @classmethod
    def worked_example(cls) -> "AcceleratorConfig":
        """Section IV-C's example: Para_in=8, Para_out=8, Para_height=4."""
        return cls(
            name="worked-example",
            para_in=8,
            para_out=8,
            para_height=4,
            data_buffer_bytes=512 * KIB,
            weight_buffer_bytes=256 * KIB,
            output_buffer_bytes=256 * KIB,
        )


#: Named configurations the report and verifier CLIs accept.
CONFIGS: dict[str, Callable[[], AcceleratorConfig]] = {
    "big": AcceleratorConfig.big,
    "small": AcceleratorConfig.small,
    "example": AcceleratorConfig.worked_example,
}
