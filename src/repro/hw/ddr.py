"""DDR model: named regions with numpy backing and a bump allocator.

The simulator addresses DDR through *regions* (feature maps, weight blobs,
instruction spaces).  Each region has a base address in one flat address
space — instructions carry the base address, exactly as the compiled
``instruction.bin`` would — and a numpy array holding its contents, so the
functional simulation reads and writes real data.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.errors import EccError, MemoryMapError
from repro.state import Stateful

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> hw)
    from repro.faults.plan import FaultPlan
    from repro.obs.bus import EventBus

#: Alignment of every allocation (DMA burst friendly).
DDR_ALIGNMENT = 64


@dataclass
class DdrRegion:
    """One allocated region: a base address plus its backing array."""

    name: str
    base: int
    size: int
    array: np.ndarray

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass
class _PendingFlip:
    """One injected bit flip awaiting ECC detection at the next read."""

    region_name: str
    index: int
    original: int
    corrupted: int
    uncorrectable: bool


@dataclass
class Ddr(Stateful):
    """A flat DDR address space with named, non-overlapping regions.

    When a :class:`~repro.faults.plan.FaultPlan` is attached (see
    :meth:`attach_faults`), every DMA burst becomes a fault-injection
    opportunity: bursts may stall, and reads may flip a bit in the touched
    region.  Detection models SECDED ECC — a single flipped bit is detected
    and corrected at the next read of its region (or by :meth:`scrub`), an
    uncorrectable flip raises :class:`~repro.errors.EccError`.  With no plan
    attached none of this code runs.
    """

    STATE = ("_cursor", "_pending_flips")
    #: Region arrays are copied out and written back *in place* by hand.
    EXTRA = ("regions",)

    capacity: int = 1 << 32
    base: int = 0
    _cursor: int = field(init=False)
    _regions: dict[str, DdrRegion] = field(init=False, default_factory=dict)
    _by_base: dict[int, DdrRegion] = field(init=False, default_factory=dict)
    #: Region bases in ascending order: the index adopt() checks overlap in.
    _bases: list[int] = field(init=False, default_factory=list)
    faults: "FaultPlan | None" = field(init=False, default=None)
    bus: "EventBus | None" = field(init=False, default=None)
    _pending_flips: list[_PendingFlip] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise MemoryMapError(f"DDR capacity must be positive, got {self.capacity}")
        self._cursor = self.base

    # -- allocation ----------------------------------------------------------

    def allocate(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.int8,
    ) -> DdrRegion:
        """Reserve an aligned region backed by a zeroed array of ``shape``."""
        if name in self._regions:
            raise MemoryMapError(f"region {name!r} already allocated")
        array = np.zeros(shape, dtype=dtype)
        size = _aligned(array.nbytes)
        if self._cursor + size > self.base + self.capacity:
            raise MemoryMapError(
                f"DDR exhausted allocating {name!r} "
                f"({size} bytes at {self._cursor:#x}, capacity {self.capacity:#x})"
            )
        region = DdrRegion(name=name, base=self._cursor, size=size, array=array)
        self._insert(region)
        self._cursor += size
        return region

    def adopt(self, region: DdrRegion) -> DdrRegion:
        """Register a region allocated by another :class:`Ddr` (multi-network
        composition: each compiled network brings its own regions)."""
        if region.name in self._regions:
            raise MemoryMapError(f"region {region.name!r} already present")
        self._insert(region)
        return region

    def _insert(self, region: DdrRegion) -> None:
        """Index ``region``, refusing any overlap with a present one.

        Present regions are disjoint and sorted by base, so only the two
        neighbours of the new base can overlap it: everything before the
        predecessor ends at or before the predecessor's base, and a region
        reaching past its successor overlaps the successor first.
        """
        position = bisect_right(self._bases, region.base)
        for base in self._bases[max(position - 1, 0) : position + 1]:
            existing = self._by_base[base]
            if region.base < existing.end and existing.base < region.end:
                raise MemoryMapError(
                    f"region {region.name!r} [{region.base:#x}, {region.end:#x}) "
                    f"overlaps {existing.name!r} [{existing.base:#x}, {existing.end:#x})"
                )
        self._bases.insert(position, region.base)
        self._regions[region.name] = region
        self._by_base[region.base] = region

    # -- lookup ----------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(region.size for region in self._regions.values())

    def region(self, name: str) -> DdrRegion:
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryMapError(f"no DDR region named {name!r}") from None

    def region_at(self, base: int) -> DdrRegion:
        """Resolve an instruction's ``ddr_addr`` to its region (exact base)."""
        try:
            return self._by_base[base]
        except KeyError:
            raise MemoryMapError(f"no DDR region based at address {base:#x}") from None

    def regions(self) -> list[DdrRegion]:
        return [self._by_base[base] for base in self._bases]

    # -- snapshot/restore ------------------------------------------------------

    def capture_state(self) -> dict[str, Any]:
        """Picklable mid-run state: region contents + pending ECC flips.

        The region *layout* (names, bases, sizes) is structural — it is
        rebuilt by re-adopting the compiled networks and checked by the
        system-level snapshot fingerprint — so only the mutable payload is
        captured here.
        """
        state = super().capture_state()
        state["regions"] = {
            name: region.array.copy() for name, region in self._regions.items()
        }
        return state

    def _check_state(self, state: Mapping[str, Any]) -> None:
        super()._check_state(state)
        regions = state["regions"]
        if set(regions) != set(self._regions):
            raise MemoryMapError(
                f"snapshot regions {sorted(regions)} do not match this DDR's "
                f"{sorted(self._regions)}"
            )
        for name, array in regions.items():
            region = self._regions[name]
            if region.array.shape != array.shape or region.array.dtype != array.dtype:
                raise MemoryMapError(
                    f"snapshot region {name!r} has shape {array.shape} "
                    f"{array.dtype}, expected {region.array.shape} "
                    f"{region.array.dtype}"
                )

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Overwrite region contents *in place* from a captured state.

        In-place writes matter: compiled networks keep references to the
        same backing arrays (``compiled.layout.ddr``), so both views of the
        address space observe the restore.
        """
        super().restore_state(state)
        for name, array in state["regions"].items():
            self._regions[name].array[...] = array

    # -- fault injection (ECC model) -----------------------------------------

    def attach_faults(self, plan: "FaultPlan", bus: "EventBus | None" = None) -> None:
        """Arm the DDR injectors; ``bus`` receives the fault events."""
        self.faults = plan
        self.bus = bus

    def burst_faults(self, region_name: str, direction: str) -> int:
        """Fault hook for one DMA burst; returns extra stall cycles.

        Reads first pass the ECC check (pending flips in the region are
        detected, and corrected or escalated) — ECC runs before the data
        leaves DDR, so the hook must precede the functional read.  Then the
        burst may stall.  Write bursts may also deposit a fresh bit flip
        (the write lands first, then the disturbance); read-disturb flips
        are injected by :meth:`read_disturb` *after* the functional read,
        because disturbance corrupts the cell, not the data in flight.
        Called by the accelerator core only when a plan is attached.
        """
        from repro.faults.plan import FaultSite

        plan = self.faults
        if direction == "load":
            self._ecc_check(region_name)
        extra = 0
        if plan.fires(FaultSite.DDR_STALL):
            extra = plan.ddr_stall_cycles
            self._record_and_emit(
                FaultSite.DDR_STALL,
                region=region_name,
                direction=direction,
                stall_cycles=extra,
            )
        if direction != "load" and plan.fires(FaultSite.DDR_BIT_FLIP):
            self._inject_flip(region_name)
        return extra

    def note_write(self, region_name: str, row0: int, rows: int, ch0: int, chs: int) -> None:
        """A burst overwrote ``[row0:row0+rows, :, ch0:ch0+chs]`` of a region.

        A write recomputes the stored ECC code word, so pending flips under
        the write are retired *unconditionally* — comparing byte values
        instead would alias whenever the newly written byte happens to equal
        the corrupted value (common with small power-of-two activations)
        and "correct" legitimate data back to a stale original.
        """
        if not self._pending_flips:
            return
        array = self.region(region_name).array
        _, width, channels = array.shape
        itemsize = array.itemsize
        remaining: list[_PendingFlip] = []
        for flip in self._pending_flips:
            if flip.region_name == region_name:
                element = flip.index // itemsize
                row = element // (width * channels)
                channel = element % channels
                if row0 <= row < row0 + rows and ch0 <= channel < ch0 + chs:
                    continue  # the write refreshed this word's ECC code
            remaining.append(flip)
        self._pending_flips = remaining

    def read_disturb(self, region_name: str) -> None:
        """Post-read fault hook: a read burst may disturb a cell it touched.

        The flip lands *after* the functional read consumed correct data; it
        is detected (and corrected, or escalated) at the region's next ECC
        pass, exactly like a write-path flip.
        """
        from repro.faults.plan import FaultSite

        if self.faults.fires(FaultSite.DDR_BIT_FLIP):
            self._inject_flip(region_name)

    def _inject_flip(self, region_name: str) -> None:
        from repro.faults.plan import FaultSite

        plan = self.faults
        region = self.region(region_name)
        flat = region.array.reshape(-1).view(np.uint8)
        index = plan.draw_index(FaultSite.DDR_BIT_FLIP, flat.size)
        bit = 1 << plan.draw_index(FaultSite.DDR_BIT_FLIP, 8)
        original = int(flat[index])
        flat[index] = original ^ bit
        uncorrectable = plan.draw_uncorrectable()
        self._pending_flips.append(
            _PendingFlip(
                region_name=region_name,
                index=index,
                original=original,
                corrupted=original ^ bit,
                uncorrectable=uncorrectable,
            )
        )
        self._record_and_emit(
            FaultSite.DDR_BIT_FLIP,
            region=region_name,
            byte_index=index,
            bit=bit,
            uncorrectable=uncorrectable,
        )

    def _ecc_check(self, region_name: str) -> None:
        """Detect pending flips in ``region_name``: correct or escalate.

        A flip whose byte was overwritten since injection is silently
        retired — the write replaced the corrupted word (and its ECC code).
        """
        from repro.faults.plan import FaultSite

        remaining: list[_PendingFlip] = []
        for flip in self._pending_flips:
            if flip.region_name != region_name:
                remaining.append(flip)
                continue
            flat = self.region(region_name).array.reshape(-1).view(np.uint8)
            if int(flat[flip.index]) != flip.corrupted:
                continue  # overwritten since injection: nothing to correct
            self._emit_fault(
                "fault_detect",
                FaultSite.DDR_BIT_FLIP,
                region=region_name,
                byte_index=flip.index,
                uncorrectable=flip.uncorrectable,
            )
            if flip.uncorrectable:
                raise EccError(
                    f"uncorrectable DDR corruption in region {region_name!r} "
                    f"at byte {flip.index}"
                )
            flat[flip.index] = flip.original
            self._emit_fault(
                "fault_recover",
                FaultSite.DDR_BIT_FLIP,
                region=region_name,
                byte_index=flip.index,
                action="ecc_correct",
            )
        self._pending_flips = remaining

    def scrub(self) -> int:
        """End-of-run ECC scrubber: check every region with pending flips.

        Returns the number of corrections applied; raises
        :class:`~repro.errors.EccError` on an uncorrectable flip.  Run
        harnesses call this before reading results back so latent
        corruption can never masquerade as a valid output.
        """
        before = len(self._pending_flips)
        for name in {flip.region_name for flip in self._pending_flips}:
            self._ecc_check(name)
        return before - len(self._pending_flips)

    @property
    def pending_flip_count(self) -> int:
        return len(self._pending_flips)

    def _record_and_emit(self, site, **detail) -> None:
        cycle = self.bus.cycle if self.bus is not None else 0
        self.faults.record(site, cycle, **detail)
        self._emit_fault("fault_inject", site, **detail)

    def _emit_fault(self, kind_value: str, site, **detail) -> None:
        if self.bus is None:
            return
        from repro.obs.events import EventKind

        self.bus.emit(EventKind(kind_value), site=site.value, **detail)


def _aligned(num_bytes: int) -> int:
    remainder = num_bytes % DDR_ALIGNMENT
    if remainder == 0:
        return max(num_bytes, DDR_ALIGNMENT)
    return num_bytes + DDR_ALIGNMENT - remainder
