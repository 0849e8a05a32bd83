"""Hardware models: config, DDR, timing, resources."""

import numpy as np
import pytest

from repro.errors import HardwareError, MemoryMapError
from repro.hw import (
    AcceleratorConfig,
    Ddr,
    DdrConfig,
    DdrRegion,
    ZU9_RESOURCES,
    blob_calc_count,
    blob_cycles,
    calc_cycles,
    estimate_accelerator,
    estimate_iau,
    fetch_cycles,
    layer_calc_cycles,
    resource_table,
    transfer_cycles,
)


class TestAcceleratorConfig:
    def test_big_matches_paper_parallelism(self):
        config = AcceleratorConfig.big()
        assert (config.para_in, config.para_out, config.para_height) == (16, 16, 8)
        assert config.clock.hz == 300e6

    def test_worked_example_matches_paper(self):
        config = AcceleratorConfig.worked_example()
        assert (config.para_in, config.para_out, config.para_height) == (8, 8, 4)

    def test_small_is_smaller(self):
        big, small = AcceleratorConfig.big(), AcceleratorConfig.small()
        assert small.macs_per_cycle < big.macs_per_cycle
        assert small.total_buffer_bytes < big.total_buffer_bytes

    def test_macs_per_cycle(self):
        assert AcceleratorConfig.big().macs_per_cycle == 16 * 16 * 8

    def test_total_buffer_near_paper_2_2mb(self):
        total = AcceleratorConfig.big().total_buffer_bytes
        assert 2.0 * 1024**2 <= total <= 2.5 * 1024**2

    def test_rejects_bad_parallelism(self):
        with pytest.raises(HardwareError):
            AcceleratorConfig("x", 0, 8, 8, 1024, 1024, 1024)

    def test_rejects_bad_buffers(self):
        with pytest.raises(HardwareError):
            AcceleratorConfig("x", 8, 8, 8, 0, 1024, 1024)


class TestDdrConfig:
    def test_transfer_includes_burst_overhead(self):
        ddr = DdrConfig(bytes_per_cycle=8, burst_overhead_cycles=96)
        assert ddr.transfer_cycles(800) == 96 + 100

    def test_transfer_rounds_up(self):
        ddr = DdrConfig(bytes_per_cycle=8, burst_overhead_cycles=0)
        assert ddr.transfer_cycles(9) == 2

    def test_zero_bytes_is_free(self):
        assert DdrConfig().transfer_cycles(0) == 0

    def test_rejects_negative(self):
        with pytest.raises(HardwareError):
            DdrConfig().transfer_cycles(-1)


class TestTiming:
    def test_calc_cycles_scale_with_width(self):
        config = AcceleratorConfig.big()
        narrow = calc_cycles(config, 40, (3, 3))
        wide = calc_cycles(config, 640, (3, 3))
        assert wide > narrow

    def test_calc_cycles_formula(self):
        config = AcceleratorConfig.big()
        assert calc_cycles(config, 40, (3, 3)) == 40 * 9 + config.calc_overhead_cycles

    def test_paper_layer_timing_30x40x512(self):
        """The paper's 30x40, 512->512, 3x3 layer: one CalcBlob ~= 39.36 us."""
        config = AcceleratorConfig.big()
        cycles = blob_cycles(config, 512, 40, (3, 3))
        micros = config.clock.cycles_to_us(cycles)
        assert micros == pytest.approx(39.36, rel=0.05)

    def test_paper_layer_timing_16x20x512(self):
        config = AcceleratorConfig.big()
        micros = config.clock.cycles_to_us(blob_cycles(config, 512, 20, (3, 3)))
        assert micros == pytest.approx(20.16, rel=0.12)

    def test_paper_stem_timing(self):
        """ResNet stem (7x7 s2, 3->64) at 480x640: one CALC ~= 52.38 us."""
        config = AcceleratorConfig.big()
        micros = config.clock.cycles_to_us(blob_cycles(config, 3, 320, (7, 7)))
        assert micros == pytest.approx(52.38, rel=0.05)

    def test_blob_calc_count(self):
        assert blob_calc_count(512, 16) == 32
        assert blob_calc_count(3, 16) == 1

    def test_layer_cycles_formula(self):
        config = AcceleratorConfig.big()
        total = layer_calc_cycles(config, 512, 512, 30, 40, (3, 3))
        blobs = 32 * 4  # ceil(512/16) out groups x ceil(30/8) stripes
        assert total == blobs * blob_cycles(config, 512, 40, (3, 3))

    def test_fetch_cycles(self):
        config = AcceleratorConfig.big()
        assert fetch_cycles(config, 10) == 10 * config.instruction_fetch_cycles

    def test_transfer_cycles_delegates(self):
        config = AcceleratorConfig.big()
        assert transfer_cycles(config, 800) == config.ddr.transfer_cycles(800)

    def test_rejects_bad_width(self):
        with pytest.raises(HardwareError):
            calc_cycles(AcceleratorConfig.big(), 0, (3, 3))


class TestDdr:
    def test_allocate_and_lookup(self):
        ddr = Ddr()
        region = ddr.allocate("a", (4, 4, 2))
        assert ddr.region("a") is region
        assert ddr.region_at(region.base) is region
        assert region.array.shape == (4, 4, 2)

    def test_alignment(self):
        ddr = Ddr()
        first = ddr.allocate("a", (3,))
        second = ddr.allocate("b", (3,))
        assert second.base % 64 == 0
        assert second.base >= first.base + 64

    def test_base_offset_respected(self):
        ddr = Ddr(base=0x1000)
        assert ddr.allocate("a", (4,)).base == 0x1000

    def test_duplicate_name_rejected(self):
        ddr = Ddr()
        ddr.allocate("a", (4,))
        with pytest.raises(MemoryMapError):
            ddr.allocate("a", (4,))

    def test_capacity_enforced(self):
        ddr = Ddr(capacity=128)
        ddr.allocate("a", (64,))
        with pytest.raises(MemoryMapError):
            ddr.allocate("b", (128,))

    def test_unknown_region_rejected(self):
        with pytest.raises(MemoryMapError):
            Ddr().region("ghost")
        with pytest.raises(MemoryMapError):
            Ddr().region_at(0x123)

    def test_adopt_disjoint(self):
        donor = Ddr(base=0x0)
        region = donor.allocate("x", (16,))
        host = Ddr()
        host_region = host.allocate("local", (16,))
        assert host_region.base == 0
        other = Ddr(base=0x10000)
        foreign = other.allocate("y", (16,))
        host.adopt(foreign)
        assert host.region("y") is foreign

    def test_adopt_rejects_overlap(self):
        a = Ddr(base=0)
        region_a = a.allocate("a", (128,))
        b = Ddr(base=32)
        region_b = b.allocate("b", (128,))
        host = Ddr()
        host.adopt(region_a)
        with pytest.raises(MemoryMapError):
            host.adopt(region_b)

    def test_used_bytes(self):
        ddr = Ddr()
        ddr.allocate("a", (100,))
        assert ddr.used_bytes == 128  # aligned up


def region(name: str, base: int, size: int) -> DdrRegion:
    return DdrRegion(name=name, base=base, size=size, array=np.zeros(size, dtype=np.int8))


class TestDdrAdoptIndex:
    """adopt() looks only at the two neighbours in its base-sorted index;
    every overlap is still refused."""

    @staticmethod
    def host() -> Ddr:
        ddr = Ddr()
        for name, base in (("c", 0x300), ("a", 0x100), ("b", 0x200)):  # out of order
            ddr.adopt(region(name, base, 0x80))
        return ddr

    @pytest.mark.parametrize(
        "base, size",
        [
            (0x140, 0x80),  # tail of the predecessor
            (0x1C0, 0x80),  # head of the successor
            (0x210, 0x20),  # fully inside one region
            (0x200, 0x80),  # exactly one region
            (0x180, 0x100),  # swallows a whole region
            (0x0C0, 0x300),  # spans all of them
            (0x17F, 0x2),  # one byte into the predecessor
            (0x1FF, 0x2),  # one byte into the successor
        ],
    )
    def test_overlap_refused(self, base, size):
        ddr = self.host()
        with pytest.raises(MemoryMapError, match="overlaps"):
            ddr.adopt(region("new", base, size))
        assert [r.name for r in ddr.regions()] == ["a", "b", "c"]  # nothing indexed

    def test_duplicate_name_refused_even_when_disjoint(self):
        with pytest.raises(MemoryMapError, match="already present"):
            self.host().adopt(region("b", 0x1000, 0x80))

    def test_adjacent_regions_accepted(self):
        ddr = self.host()
        ddr.adopt(region("gap_ab", 0x180, 0x80))  # touches both neighbours
        ddr.adopt(region("before", 0x80, 0x80))
        ddr.adopt(region("after", 0x380, 0x80))
        assert [r.name for r in ddr.regions()] == [
            "before", "a", "gap_ab", "b", "c", "after",
        ]

    def test_lookup_unchanged_by_adoption_order(self):
        ddr = self.host()
        assert [r.base for r in ddr.regions()] == [0x100, 0x200, 0x300]
        for found in ddr.regions():
            assert ddr.region_at(found.base) is found is ddr.region(found.name)
        with pytest.raises(MemoryMapError):
            ddr.region_at(0x140)  # exact bases only
        assert ddr.used_bytes == 3 * 0x80

    def test_allocate_refuses_an_adopted_window(self):
        ddr = Ddr()
        ddr.adopt(region("foreign", 0x40, 0x80))
        ddr.allocate("fits", (0x40,))  # [0, 0x40): adjacent
        with pytest.raises(MemoryMapError, match="overlaps"):
            ddr.allocate("collides", (0x40,))


class TestResources:
    def test_accelerator_close_to_paper(self):
        estimate = estimate_accelerator(AcceleratorConfig.big())
        assert estimate.dsp == pytest.approx(1282, rel=0.02)
        assert estimate.lut == pytest.approx(74569, rel=0.02)
        assert estimate.ff == pytest.approx(171416, rel=0.02)
        assert estimate.bram == pytest.approx(499, rel=0.05)

    def test_iau_matches_paper(self):
        estimate = estimate_iau(num_tasks=4)
        assert estimate.dsp == 0
        assert estimate.lut == 2268
        assert estimate.ff == 4633
        assert estimate.bram == 4

    def test_iau_is_under_4_percent_of_accelerator(self):
        accel = estimate_accelerator(AcceleratorConfig.big())
        iau = estimate_iau()
        assert iau.lut / accel.lut < 0.04
        assert iau.ff / accel.ff < 0.04

    def test_everything_fits_the_board(self):
        rows = resource_table(AcceleratorConfig.big())
        board, *blocks = rows
        for metric in ("dsp", "lut", "ff", "bram"):
            used = sum(getattr(block, metric) for block in blocks)
            assert used <= getattr(board, metric)

    def test_small_config_uses_fewer_resources(self):
        big = estimate_accelerator(AcceleratorConfig.big())
        small = estimate_accelerator(AcceleratorConfig.small())
        assert small.dsp < big.dsp
        assert small.bram < big.bram

    def test_utilisation_fractions(self):
        estimate = estimate_accelerator(AcceleratorConfig.big())
        utilisation = estimate.utilisation(ZU9_RESOURCES)
        assert 0 < utilisation["dsp"] < 1

    def test_iau_rejects_bad_task_count(self):
        with pytest.raises(ValueError):
            estimate_iau(0)
