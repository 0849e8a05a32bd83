"""Static verifier: every rule has a triggering and a passing fixture.

The triggering fixtures are targeted mutations of real compiled programs —
the same artefacts the IAU would execute — so each rule is exercised against
the exact instruction idiom the compiler emits.  Passing fixtures are the
unmutated programs (the zoo-clean tests) plus per-rule "the fix heals it"
checks where the mutation is local enough to invert.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.compiler.compile import compile_network
from repro.errors import CompileError, ProgramError
from repro.isa.instructions import (
    FLAG_SWITCH_POINT,
    NO_SAVE_ID,
    Instruction,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.validate import validate_program
from repro.verify import (
    RULES,
    Report,
    Severity,
    rule_info,
    verify_network,
    verify_program,
    verify_task_set,
    wcirl_bound,
)
from repro.verify.engine import layer_table
from repro.zoo import build_tiny_cnn, build_tiny_conv

#: Every structural pass below also runs the per-instruction walk it
#: replaced and must report the same diagnostics (see conftest.py).
pytestmark = pytest.mark.usefixtures("structural_oracle")


# -- program surgery helpers -------------------------------------------------


def replace_at(program: Program, index: int, **changes) -> Program:
    instructions = list(program.instructions)
    instructions[index] = replace(instructions[index], **changes)
    return Program(name=program.name, instructions=tuple(instructions))


def drop_at(program: Program, index: int) -> Program:
    instructions = list(program.instructions)
    del instructions[index]
    return Program(name=program.name, instructions=tuple(instructions))


def insert_at(program: Program, index: int, instruction: Instruction) -> Program:
    instructions = list(program.instructions)
    instructions.insert(index, instruction)
    return Program(name=program.name, instructions=tuple(instructions))


def first_index(program: Program, opcode: Opcode, predicate=None) -> int:
    for index, instruction in enumerate(program):
        if instruction.opcode == opcode and (
            predicate is None or predicate(instruction)
        ):
            return index
    raise AssertionError(f"no {opcode.name} matching predicate in {program.name}")


def ctx(compiled) -> dict:
    return dict(
        config=compiled.config,
        layers=layer_table(compiled),
        layout=compiled.layout,
    )


@pytest.fixture(scope="module")
def compiled(example_config):
    return compile_network(build_tiny_cnn(), example_config, weights="zeros")


@pytest.fixture(scope="module")
def vi_program(compiled) -> Program:
    return compiled.program_for("vi")


# -- clean artefacts verify clean --------------------------------------------


class TestCleanPrograms:
    def test_compiled_network_verifies_clean(self, compiled):
        report = verify_network(compiled)
        assert report.ok
        assert len(report) == 0

    def test_structural_only_run_is_clean(self, vi_program):
        assert verify_program(vi_program).ok

    def test_validate_program_wrapper_accepts_clean(self, vi_program):
        validate_program(vi_program)  # must not raise


# -- structural rules (PRG / VI) ---------------------------------------------


class TestStructuralRules:
    def test_prg001_layer_ordering(self, compiled, vi_program):
        bad = replace_at(vi_program, len(vi_program) - 1, layer_id=0)
        report = verify_program(bad, **ctx(compiled))
        assert "PRG001" in report.rule_ids()

    def test_prg002_zero_length_transfer(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.LOAD_D)
        report = verify_program(replace_at(vi_program, index, length=0), **ctx(compiled))
        assert "PRG002" in report.rule_ids()

    def test_prg003_unterminated_blob(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.CALC_F)
        bad = replace_at(vi_program, index, opcode=Opcode.CALC_I)
        report = verify_program(bad, **ctx(compiled))
        assert "PRG003" in report.rule_ids()

    def test_prg004_unknown_layer(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.LOAD_D)
        bad = replace_at(vi_program, index, layer_id=999)
        report = verify_program(bad, **ctx(compiled))
        assert "PRG004" in report.rule_ids()
        # deduplicated: one finding for the unknown id, not one per instruction
        assert len(report.by_rule("PRG004")) == 1

    def test_vi001_illegal_virtual_position(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.CALC_I)
        barrier = Instruction(
            opcode=Opcode.VIR_BARRIER,
            layer_id=vi_program[index].layer_id,
            flags=FLAG_SWITCH_POINT,
        )
        # after a CALC_I (mid-blob) is never a legal interrupt point
        bad = insert_at(vi_program, index + 1, barrier)
        report = verify_program(bad, **ctx(compiled))
        assert "VI001" in report.rule_ids()

    def test_vi002_vir_save_without_id(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.VIR_SAVE)
        bad = replace_at(vi_program, index, save_id=NO_SAVE_ID)
        report = verify_program(bad, **ctx(compiled))
        assert "VI002" in report.rule_ids()

    def test_vi003_unpaired_vir_save(self, compiled, vi_program):
        vir_index = first_index(vi_program, Opcode.VIR_SAVE)
        save_id = vi_program[vir_index].save_id
        save_index = first_index(
            vi_program, Opcode.SAVE, lambda ins: ins.save_id == save_id
        )
        bad = replace_at(vi_program, save_index, save_id=NO_SAVE_ID)
        report = verify_program(bad, **ctx(compiled))
        assert "VI003" in report.rule_ids()


# -- buffer dataflow rules (BUF) ---------------------------------------------


class TestBufferRules:
    def test_buf001_use_before_load(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.LOAD_D)
        report = verify_program(drop_at(vi_program, index), **ctx(compiled))
        assert "BUF001" in report.rule_ids()

    def test_buf002_weights_not_resident(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.LOAD_W)
        report = verify_program(drop_at(vi_program, index), **ctx(compiled))
        assert "BUF002" in report.rule_ids()

    def test_buf003_data_buffer_overflow(self, compiled, vi_program):
        longest = max(
            ins.length for ins in vi_program if ins.opcode == Opcode.LOAD_D
        )
        shrunk = replace(compiled.config, data_buffer_bytes=longest - 1)
        report = verify_program(
            vi_program,
            config=shrunk,
            layers=layer_table(compiled),
            layout=compiled.layout,
        )
        assert "BUF003" in report.rule_ids()

    def test_buf004_weight_buffer_overflow(self, compiled, vi_program):
        longest = max(
            ins.length for ins in vi_program if ins.opcode == Opcode.LOAD_W
        )
        shrunk = replace(compiled.config, weight_buffer_bytes=longest - 1)
        report = verify_program(
            vi_program,
            config=shrunk,
            layers=layer_table(compiled),
            layout=compiled.layout,
        )
        assert "BUF004" in report.rule_ids()

    def test_buf005_output_buffer_overflow(self, compiled, vi_program):
        shrunk = replace(compiled.config, output_buffer_bytes=1)
        report = verify_program(
            vi_program,
            config=shrunk,
            layers=layer_table(compiled),
            layout=compiled.layout,
        )
        assert "BUF005" in report.rule_ids()

    def test_buf006_save_coverage_gap(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.SAVE, lambda ins: ins.chs > 0)
        save = vi_program[index]
        grown = replace_at(
            vi_program,
            index,
            chs=save.chs + 8,
            length=(save.length // save.chs) * (save.chs + 8),
        )
        report = verify_program(grown, **ctx(compiled))
        assert "BUF006" in report.rule_ids()

    def test_buf007_unsaved_output_at_end(self, compiled, vi_program):
        last_save = max(
            index
            for index, ins in enumerate(vi_program)
            if ins.opcode == Opcode.SAVE and ins.chs > 0
        )
        report = verify_program(drop_at(vi_program, last_save), **ctx(compiled))
        assert "BUF007" in report.rule_ids()


# -- DDR rules ---------------------------------------------------------------


class TestDdrRules:
    def test_ddr001_wrong_base_address(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.LOAD_D)
        bad = replace_at(vi_program, index, ddr_addr=vi_program[index].ddr_addr + 64)
        report = verify_program(bad, **ctx(compiled))
        assert "DDR001" in report.rule_ids()

    def test_ddr003_transfer_exceeds_region(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.LOAD_D)
        layer = layer_table(compiled)[vi_program[index].layer_id]
        region = compiled.layout.ddr.region(layer.input_region)
        bad = replace_at(vi_program, index, length=region.size + 1)
        report = verify_program(bad, **ctx(compiled))
        assert "DDR003" in report.rule_ids()

    def test_ddr002_cross_task_overlap(self, example_config):
        first = compile_network(build_tiny_cnn(), example_config, weights="zeros")
        second = compile_network(build_tiny_conv(), example_config, weights="zeros")
        report = verify_task_set([first, second])
        assert "DDR002" in report.rule_ids()

    def test_ddr002_disjoint_tasks_clean(self, example_config):
        first = compile_network(build_tiny_cnn(), example_config, weights="zeros")
        second = compile_network(
            build_tiny_conv(),
            example_config,
            weights="zeros",
            base_addr=first.layout.ddr.used_bytes + (1 << 20),
        )
        report = verify_task_set([first, second])
        assert report.ok
        assert "DDR002" not in report.rule_ids()


# -- checkpoint-coverage rules (CHK) -----------------------------------------


class TestCheckpointRules:
    def test_chk001_switch_point_with_unsaved_output(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.VIR_SAVE)
        barrier = Instruction(
            opcode=Opcode.VIR_BARRIER,
            layer_id=vi_program[index].layer_id,
            flags=FLAG_SWITCH_POINT,
        )
        # a free barrier standing where the VIR_SAVE stands has finalized
        # groups resident and nothing backing them up
        bad = insert_at(drop_at(vi_program, index), index, barrier)
        report = verify_program(bad, **ctx(compiled))
        assert "CHK001" in report.rule_ids()

    def test_chk001_shrunk_backup_window(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.VIR_SAVE, lambda ins: ins.chs > 1)
        vir = vi_program[index]
        per_channel = vir.length // vir.chs
        bad = replace_at(
            vi_program, index, chs=vir.chs - 1, length=per_channel * (vir.chs - 1)
        )
        report = verify_program(bad, **ctx(compiled))
        assert "CHK001" in report.rule_ids()

    def test_chk002_missing_recovery_load(self, compiled, vi_program):
        index = first_index(
            vi_program,
            Opcode.VIR_SAVE,
            lambda ins: True,
        )
        # find a VIR_SAVE whose pack restores a live tile, then delete the pack
        for index, instruction in enumerate(vi_program):
            if instruction.opcode == Opcode.VIR_SAVE and (
                index + 1 < len(vi_program)
                and vi_program[index + 1].opcode == Opcode.VIR_LOAD_D
            ):
                report = verify_program(
                    drop_at(vi_program, index + 1), **ctx(compiled)
                )
                assert "CHK002" in report.rule_ids()
                return
        pytest.skip("no VIR_SAVE with a recovery pack in this schedule")

    def test_chk002_mismatched_recovery_load(self, compiled, vi_program):
        for index, instruction in enumerate(vi_program):
            if instruction.opcode == Opcode.VIR_LOAD_D:
                bad = replace_at(vi_program, index, row0=instruction.row0 + 1)
                report = verify_program(bad, **ctx(compiled))
                assert "CHK002" in report.rule_ids()
                return
        pytest.skip("no VIR_LOAD_D in this schedule")

    def test_chk003_live_accumulator_at_switch_point(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.CALC_I)
        barrier = Instruction(
            opcode=Opcode.VIR_BARRIER,
            layer_id=vi_program[index].layer_id,
            flags=FLAG_SWITCH_POINT,
        )
        bad = insert_at(vi_program, index + 1, barrier)
        report = verify_program(bad, **ctx(compiled))
        assert "CHK003" in report.rule_ids()

    def test_chk004_broken_expansion_arithmetic(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.VIR_SAVE)
        bad = replace_at(vi_program, index, length=vi_program[index].length + 1)
        report = verify_program(bad, **ctx(compiled))
        assert "CHK004" in report.rule_ids()


# -- WCIRL rules -------------------------------------------------------------


class TestWcirlRules:
    def test_wcl001_no_switch_points(self, compiled):
        original = compiled.program_for("none")
        report = verify_program(
            original, **ctx(compiled), expect_interruptible=True
        )
        assert "WCL001" in report.rule_ids()

    def test_wcl002_budget_exceeded(self, compiled, vi_program):
        report = verify_program(vi_program, **ctx(compiled), max_response_cycles=1)
        assert "WCL002" in report.rule_ids()

    def test_wcl002_budget_met(self, compiled, vi_program):
        bound = wcirl_bound(
            vi_program, compiled.config, layer_table(compiled)
        )
        report = verify_program(
            vi_program,
            **ctx(compiled),
            max_response_cycles=bound.worst_response_cycles,
        )
        assert "WCL002" not in report.rule_ids()

    def test_bound_fields_consistent(self, compiled, vi_program):
        bound = wcirl_bound(vi_program, compiled.config, layer_table(compiled))
        assert bound.switch_points == len(vi_program.switch_point_indices)
        assert bound.worst_response_cycles >= bound.worst_gap_cycles
        assert 0 < bound.worst_response_cycles <= bound.total_cycles
        assert bound.worst_us(compiled.config) > 0


# -- engine / report / wiring ------------------------------------------------


class TestEngineBehaviour:
    def test_report_collects_multiple_findings(self, compiled, vi_program):
        load_d = first_index(vi_program, Opcode.LOAD_D)
        bad = replace_at(vi_program, load_d, length=0)
        vir = first_index(bad, Opcode.VIR_SAVE)
        bad = replace_at(bad, vir, save_id=NO_SAVE_ID)
        report = verify_program(bad, **ctx(compiled))
        assert {"PRG002", "VI002"} <= report.rule_ids()
        assert len(report.errors) >= 2

    def test_validate_program_raises_with_report(self, vi_program):
        index = first_index(vi_program, Opcode.LOAD_D)
        bad = replace_at(vi_program, index, length=0)
        with pytest.raises(ProgramError) as excinfo:
            validate_program(bad)
        assert excinfo.value.report is not None
        assert "PRG002" in excinfo.value.report.rule_ids()
        assert "PRG002" in str(excinfo.value)

    def test_error_message_truncates_to_top_findings(self, compiled, vi_program):
        bad = vi_program
        for index, instruction in enumerate(vi_program):
            if instruction.opcode == Opcode.LOAD_D:
                bad = replace_at(bad, index, length=0)
        report = verify_program(bad, **ctx(compiled))
        assert len(report.errors) > 3
        with pytest.raises(ProgramError) as excinfo:
            report.raise_if_errors()
        assert "more error(s)" in str(excinfo.value)

    def test_structural_only_without_context(self, vi_program):
        report = verify_program(vi_program)
        # without config/layers/layout only structural rules can fire
        assert report.ok

    def test_report_format_and_json(self, compiled, vi_program):
        index = first_index(vi_program, Opcode.LOAD_D)
        report = verify_program(
            replace_at(vi_program, index, length=0), **ctx(compiled)
        )
        text = report.format(limit=1)
        assert "PRG002" in text
        payload = report.to_json()
        assert payload["ok"] is False
        assert payload["errors"] == len(report.errors)
        assert all("rule" in item for item in payload["diagnostics"])

    def test_empty_report_formats(self):
        report = Report()
        assert report.ok
        assert "no findings" in report.format()
        report.raise_if_errors()  # no error findings: must not raise

    def test_warnings_do_not_fail(self):
        report = Report()
        report.add("CHK002", "suspicious", program="p", severity=Severity.WARNING)
        assert report.ok
        assert len(report.warnings) == 1
        report.raise_if_errors()

    def test_rule_catalog_covers_all_emitted_ids(self):
        for rule in RULES:
            info = rule_info(rule)
            assert info.title and info.invariant and info.paper

    def test_every_cataloged_rule_has_a_triggering_fixture(self):
        """No rule ships unseen to fire: for each ID in the catalog some test
        under ``tests/`` asserts it ``in`` a report's ``rule_ids()``."""
        sources = "".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
        untested = [rule for rule in RULES if f'"{rule}" in report.rule_ids()' not in sources]
        assert untested == []


class TestCompileWiring:
    def test_compile_full_verify_clean(self, example_config):
        compiled = compile_network(
            build_tiny_conv(), example_config, weights="zeros", verify="full"
        )
        assert verify_network(compiled).ok

    def test_compile_verify_off(self, example_config):
        compile_network(
            build_tiny_conv(), example_config, weights="zeros", verify="off"
        )

    def test_compile_unknown_verify_mode(self, example_config):
        with pytest.raises(CompileError):
            compile_network(
                build_tiny_conv(), example_config, weights="zeros", verify="bogus"
            )

    def test_legacy_validate_flag_removed(self, example_config):
        with pytest.raises(TypeError):
            compile_network(
                build_tiny_conv(), example_config, weights="zeros", validate=False
            )


class TestCli:
    def test_cli_clean_model_exits_zero(self, capsys):
        from repro.verify.cli import main

        assert main(["--model", "tiny_cnn", "--config", "example"]) == 0
        out = capsys.readouterr().out
        assert "tiny_cnn/example: ok" in out

    def test_cli_json_output(self, capsys):
        import json

        from repro.verify.cli import main

        assert main(["--model", "tiny_cnn", "--config", "example", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["model"] == "tiny_cnn"
        assert payload[0]["ok"] is True
        assert "vi" in payload[0]["wcirl"]

    def test_cli_budget_failure_exits_one(self, capsys):
        from repro.verify.cli import main

        assert (
            main(
                [
                    "--model",
                    "tiny_cnn",
                    "--config",
                    "example",
                    "--max-response-us",
                    "0.001",
                ]
            )
            == 1
        )
        assert "WCL002" in capsys.readouterr().out
