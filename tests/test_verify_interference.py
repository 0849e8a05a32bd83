"""Interference rules (INT001-INT005): a triggering and a passing fixture each.

The artefact under test is the ``ProgramMeta`` a compiled network keeps per
variant, so the triggering fixtures tamper with one (``compiled.metas`` is a
plain dict) or with the program it describes, and the passing fixture is the
untampered compile.  INT003's ground truth is the verifier's one replay of
each variant through the core's buffer machine; the last class pins that the
replay happens once.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import replace

import pytest

from repro.compiler.compile import CompiledNetwork, compile_network
from repro.faults.plan import FaultSite
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify import BufferSim, Report, Severity, verify_network, verify_program
from repro.verify.engine import layer_table
from repro.zoo import build_tiny_cnn


@pytest.fixture(scope="module")
def pristine(big_config) -> CompiledNetwork:
    return compile_network(build_tiny_cnn(), big_config, weights="zeros")


@pytest.fixture()
def compiled(pristine) -> CompiledNetwork:
    """A copy whose ``metas`` table a test may tamper with."""
    return replace(pristine, metas={mode: pristine.meta(mode) for mode in pristine.programs})


def tampered(compiled: CompiledNetwork, mode: str, **changes) -> None:
    """Install a copy of the ``mode`` meta with ``changes`` applied."""
    meta = copy.copy(compiled.metas[mode])
    for name, value in changes.items():
        setattr(meta, name, value)
    compiled.metas[mode] = meta


def findings(report: Report, rule: str) -> list[tuple[Severity, int | None]]:
    return [(d.severity, d.index) for d in report.by_rule(rule)]


def test_untampered_network_has_no_int_finding(compiled):
    report = verify_network(compiled)
    assert not {rule for rule in report.rule_ids() if rule.startswith("INT")}
    assert len(report) == 0


class TestOpportunityAccounting:
    def first_draw(self, compiled, site: FaultSite) -> int:
        opp = compiled.metas["vi"].opportunities[site.value]
        return next(index for index in range(len(opp) - 1) if opp[index + 1] > opp[index])

    def test_int001_table_one_draw_short(self, compiled):
        site = FaultSite.DDR_STALL
        index = self.first_draw(compiled, site)
        opportunities = dict(compiled.metas["vi"].opportunities)
        opp = opportunities[site.value]
        short = array("q", [count - 1 for count in opp[index + 1 :]])
        opportunities[site.value] = opp[: index + 1] + short
        tampered(compiled, "vi", opportunities=opportunities)
        report = verify_network(compiled)
        assert "INT001" in report.rule_ids()
        # one finding, at the instruction whose draw the table lost
        assert findings(report, "INT001") == [(Severity.ERROR, index)]
        assert f"draws 1x {site.value}" in report.by_rule("INT001")[0].message

    def test_int001_findings_come_in_site_order_not_walk_order(self, compiled):
        """One walk compares every site; each is still reported once, at its
        first drift, in the order of the site names."""
        late, early = FaultSite.DDR_BIT_FLIP, FaultSite.DDR_STALL
        assert late.value < early.value
        first = self.first_draw(compiled, early)
        opportunities = dict(compiled.metas["vi"].opportunities)
        for site, index in ((late, first + 2), (early, first)):
            opp = opportunities[site.value]
            over = array("q", [n + 1 for n in opp[index + 1 :]])
            opportunities[site.value] = opp[: index + 1] + over
        tampered(compiled, "vi", opportunities=opportunities)
        report = verify_network(compiled)
        assert findings(report, "INT001") == [(Severity.ERROR, first + 2), (Severity.ERROR, first)]
        assert late.value in report.by_rule("INT001")[0].message
        assert early.value in report.by_rule("INT001")[1].message

    def test_int001_missing_and_bogus_site_keys(self, compiled):
        opportunities = dict(compiled.metas["none"].opportunities)
        dropped = opportunities.pop(FaultSite.IAU_SPURIOUS_PREEMPT.value)
        opportunities["bogus.site"] = dropped
        tampered(compiled, "none", opportunities=opportunities)
        report = verify_network(compiled)
        assert "INT001" in report.rule_ids()
        messages = [d.message for d in report.by_rule("INT001")]
        assert any("tracks 'bogus.site'" in message for message in messages)
        assert any("is missing site" in message for message in messages)


class TestMonitorStream:
    def burst(self, compiled) -> int:
        events = compiled.metas["vi"].events
        return next(i for i, spec in enumerate(events) if spec is not None and spec[3])

    def test_int002_burst_without_region(self, compiled):
        index = self.burst(compiled)
        events = list(compiled.metas["vi"].events)
        events[index] = (*events[index][:4], None, events[index][5])
        tampered(compiled, "vi", events=events)
        report = verify_network(compiled)
        assert "INT002" in report.rule_ids()
        assert findings(report, "INT002") == [(Severity.ERROR, index)]

    def test_int002_negative_cycles(self, compiled):
        index = self.burst(compiled)
        events = list(compiled.metas["vi"].events)
        events[index] = (*events[index][:2], -1, *events[index][3:])
        tampered(compiled, "vi", events=events)
        report = verify_network(compiled)
        assert "INT002" in report.rule_ids()
        assert (Severity.ERROR, index) in findings(report, "INT002")


class TestBoundaries:
    """INT003 sees what the core sees: both ERROR fixtures report nothing on
    a verifier that checks the meta against a copy of its builder."""

    def test_int003_save_of_the_wrong_section_leaves_the_core_unclean(self, pristine):
        program = pristine.program_for("none")
        instructions = list(program.instructions)
        index = next(i for i, ins in enumerate(instructions) if ins.opcode == Opcode.SAVE)
        assert index == 3
        instructions[index] = replace(instructions[index], row0=instructions[index].row0 + 1)
        broken = replace(
            pristine,
            programs={**pristine.programs, "none": Program(program.name, instructions)},
            metas={},
        )
        report = verify_network(broken)
        assert findings(report, "BUF006") == [(Severity.ERROR, 3)]
        assert findings(report, "BUF007") == [(Severity.ERROR, 5)]
        # The builder drains by channel range whatever section the SAVE names
        # and lists 4 and 5 as clean; the machine still holds the section.
        assert {4, 5} <= set(broken.meta("none").boundaries)
        assert "INT003" in report.rule_ids()
        assert findings(report, "INT003") == [(Severity.ERROR, 4), (Severity.ERROR, 5)]

    def test_int003_tampered_boundary_tile(self, compiled):
        meta = compiled.metas["vi"]
        position, boundary = next(
            (k, b) for k, b in enumerate(meta.boundaries) if meta._tiles[meta._tile_ids[k]][0]
        )
        data, weight = meta._tiles[meta._tile_ids[position]]
        (slot, (layer_id, row0, *rest)), *others = data
        tiles = [*meta._tiles, (((slot, (layer_id, row0 + 1, *rest)), *others), weight)]
        tile_ids = array("q", meta._tile_ids)
        tile_ids[position] = len(tiles) - 1
        tampered(compiled, "vi", _tiles=tiles, _tile_ids=tile_ids)
        report = verify_network(compiled)
        assert "INT003" in report.rule_ids()
        assert findings(report, "INT003") == [(Severity.ERROR, boundary)]
        assert "tiles" in report.by_rule("INT003")[0].message

    def test_int003_missing_clean_index_is_a_warning(self, compiled):
        meta = compiled.metas["vi"]
        boundaries, tile_ids = array("q", meta.boundaries), array("q", meta._tile_ids)
        dropped = boundaries.pop(len(boundaries) // 2)
        tile_ids.pop(len(tile_ids) // 2)
        tampered(compiled, "vi", boundaries=boundaries, _tile_ids=tile_ids)
        report = verify_network(compiled)
        assert findings(report, "INT003") == [(Severity.WARNING, dropped)]
        assert report.ok


def test_int004_surface_that_omits_a_transfer(compiled, monkeypatch):
    from repro.verify import interference

    real = interference.fault_surface
    monkeypatch.setattr(
        interference,
        "fault_surface",
        lambda ins: () if ins.opcode == Opcode.LOAD_D else real(ins),
    )
    report = verify_network(compiled)
    assert "INT004" in report.rule_ids()
    loads = {
        index
        for program in compiled.programs.values()
        for index, ins in enumerate(program)
        if ins.opcode == Opcode.LOAD_D
    }
    assert {d.index for d in report.by_rule("INT004")} == loads


def test_int005_coverage_floor_is_a_warning(compiled):
    n = len(compiled.program_for("vi"))
    meta = compiled.metas["vi"]
    clean = dict(zip(meta.boundaries, meta._tile_ids))
    tampered(  # every stretch < MIN_BATCH; each clean index keeps its tiles
        compiled,
        "vi",
        boundaries=array("q", range(n + 1)),
        _tile_ids=array("q", [clean.get(index, 0) for index in range(n + 1)]),
    )
    report = verify_network(compiled)
    assert "INT005" in report.rule_ids()
    assert [d.severity for d in report.by_rule("INT005")] == [Severity.WARNING]
    assert {d.rule for d in report.errors} == {"INT003"}  # the unclean boundaries


class TestOneReplay:
    """Each real instruction meets the buffer machine once per verification."""

    @pytest.fixture()
    def steps(self, monkeypatch) -> list[int]:
        counted: list[int] = []
        real = BufferSim.step

        def step(self, index, instruction):
            counted.append(index)
            real(self, index, instruction)

        monkeypatch.setattr(BufferSim, "step", step)
        return counted

    def test_verify_program_steps_each_real_instruction_once(self, pristine, steps):
        program = pristine.program_for("vi")
        verify_program(program, config=pristine.config, layers=layer_table(pristine))
        assert steps == [i for i, ins in enumerate(program) if not ins.is_virtual]

    def test_verify_network_replays_each_variant_once(self, compiled, steps):
        verify_network(compiled)
        assert len(steps) == sum(
            len(program) - program.num_virtual() for program in compiled.programs.values()
        )
