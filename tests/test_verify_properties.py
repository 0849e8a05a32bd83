"""Property-based mutation fuzzing of the static verifier.

Hypothesis draws targeted mutations of real compiled programs — drop a
referenced SAVE, park a virtual instruction at an illegal point, shrink a
buffer below the largest load, overlap two tasks' DDR windows — and the
verifier must flag each with the right rule ID, while the unmutated program
keeps verifying clean (no false positives introduced by the fuzzing axes).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.compile import compile_network
from repro.isa.instructions import FLAG_SWITCH_POINT, NO_SAVE_ID, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify import verify_program, verify_task_set
from repro.verify.engine import layer_table
from repro.zoo import build_tiny_cnn, build_tiny_conv

#: Every structural pass below also runs the per-instruction walk it
#: replaced and must report the same diagnostics (see conftest.py).
pytestmark = pytest.mark.usefixtures("structural_oracle")

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def compiled(example_config):
    return compile_network(build_tiny_cnn(), example_config, weights="zeros")


@pytest.fixture(scope="module")
def context(compiled):
    return dict(
        config=compiled.config,
        layers=layer_table(compiled),
        layout=compiled.layout,
    )


def _mutate(program: Program, index: int, **changes) -> Program:
    instructions = list(program.instructions)
    instructions[index] = replace(instructions[index], **changes)
    return Program(name=program.name, instructions=tuple(instructions))


def _drop(program: Program, index: int) -> Program:
    instructions = list(program.instructions)
    del instructions[index]
    return Program(name=program.name, instructions=tuple(instructions))


def _indices(program: Program, *opcodes: Opcode, predicate=None) -> list[int]:
    return [
        index
        for index, ins in enumerate(program)
        if ins.opcode in opcodes and (predicate is None or predicate(ins))
    ]


class TestMutationsAreCaught:
    @SETTINGS
    @given(data=st.data())
    def test_dropped_referenced_save_fires_vi003(self, data, compiled, context):
        program = compiled.program_for("vi")
        referenced = {
            ins.save_id for ins in program if ins.opcode == Opcode.VIR_SAVE
        }
        candidates = _indices(
            program, Opcode.SAVE, predicate=lambda ins: ins.save_id in referenced
        )
        index = data.draw(st.sampled_from(candidates))
        report = verify_program(_drop(program, index), **context)
        assert "VI003" in report.rule_ids()

    @SETTINGS
    @given(data=st.data())
    def test_virtual_at_illegal_point_fires_vi001(self, data, compiled, context):
        program = compiled.program_for("vi")
        # inserting a barrier after a CALC_I or a LOAD is never legal
        candidates = _indices(program, Opcode.CALC_I, Opcode.LOAD_D, Opcode.LOAD_W)
        index = data.draw(st.sampled_from(candidates))
        barrier = Instruction(
            opcode=Opcode.VIR_BARRIER,
            layer_id=program[index].layer_id,
            flags=FLAG_SWITCH_POINT,
        )
        instructions = list(program.instructions)
        instructions.insert(index + 1, barrier)
        mutated = Program(name=program.name, instructions=tuple(instructions))
        report = verify_program(mutated, **context)
        assert "VI001" in report.rule_ids()

    @SETTINGS
    @given(data=st.data())
    def test_shrunk_data_buffer_fires_buf003(self, data, compiled, context):
        program = compiled.program_for("vi")
        longest = max(ins.length for ins in program if ins.opcode == Opcode.LOAD_D)
        # A zero-byte buffer is rejected by AcceleratorConfig itself, so the
        # shrunk-but-valid range stops one byte short of the largest load.
        deficit = data.draw(st.integers(min_value=1, max_value=longest - 1))
        shrunk = replace(compiled.config, data_buffer_bytes=longest - deficit)
        report = verify_program(
            program,
            config=shrunk,
            layers=context["layers"],
            layout=context["layout"],
        )
        assert "BUF003" in report.rule_ids()

    @SETTINGS
    @given(data=st.data())
    def test_zeroed_transfer_fires_prg002(self, data, compiled, context):
        program = compiled.program_for("vi")
        candidates = _indices(
            program,
            Opcode.LOAD_D,
            Opcode.LOAD_W,
            predicate=lambda ins: ins.length > 0,
        )
        index = data.draw(st.sampled_from(candidates))
        report = verify_program(_mutate(program, index, length=0), **context)
        assert "PRG002" in report.rule_ids()

    @SETTINGS
    @given(data=st.data())
    def test_corrupted_ddr_addr_fires_ddr001(self, data, compiled, context):
        program = compiled.program_for("vi")
        candidates = _indices(program, Opcode.LOAD_D, Opcode.LOAD_W, Opcode.SAVE)
        index = data.draw(st.sampled_from(candidates))
        offset = data.draw(st.integers(min_value=1, max_value=1 << 20))
        report = verify_program(
            _mutate(program, index, ddr_addr=program[index].ddr_addr + offset),
            **context,
        )
        assert "DDR001" in report.rule_ids()

    @SETTINGS
    @given(data=st.data())
    def test_dropped_load_d_fires_buf001(self, data, compiled, context):
        program = compiled.program_for("vi")
        candidates = _indices(program, Opcode.LOAD_D)
        index = data.draw(st.sampled_from(candidates))
        report = verify_program(_drop(program, index), **context)
        assert "BUF001" in report.rule_ids()

    @SETTINGS
    @given(base=st.integers(min_value=0, max_value=1 << 16))
    def test_overlapping_layouts_fire_ddr002(self, base, example_config):
        # both tasks allocated from the same base: guaranteed overlap
        first = compile_network(
            build_tiny_cnn(), example_config, weights="zeros", base_addr=base
        )
        second = compile_network(
            build_tiny_conv(), example_config, weights="zeros", base_addr=base
        )
        report = verify_task_set([first, second])
        assert "DDR002" in report.rule_ids()


class TestNoFalsePositives:
    @SETTINGS
    @given(vi_mode=st.sampled_from(["none", "vi", "layer"]))
    def test_unmutated_program_stays_clean(self, vi_mode, compiled, context):
        program = compiled.program_for(vi_mode)
        report = verify_program(
            program, **context, expect_interruptible=vi_mode != "none"
        )
        assert report.ok, report.format()

    @SETTINGS
    @given(vi_mode=st.sampled_from(["none", "vi", "layer"]))
    def test_verification_is_deterministic(self, vi_mode, compiled, context):
        program = compiled.program_for(vi_mode)
        first = verify_program(program, **context)
        second = verify_program(program, **context)
        assert [d.to_json() for d in first] == [d.to_json() for d in second]
