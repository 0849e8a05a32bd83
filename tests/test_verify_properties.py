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
from repro.nn import GraphBuilder, TensorShape
from repro.verify import BufferSim, Report, verify_program, verify_task_set
from repro.verify.engine import layer_table
from repro.zoo import build_tiny_cnn, build_tiny_conv, build_tiny_residual

from tests.conftest import core_error_index

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


# -- verifier and core run one buffer machine ---------------------------------


def _depthwise_net():
    builder = GraphBuilder("dwnet", input_shape=TensorShape(16, 16, 8))
    builder.depthwise("dw1", kernel=3, stride=1, padding=1)
    builder.conv("pw1", out_channels=16, kernel=1)
    return builder.build()


NETWORKS = {
    "tiny_cnn": build_tiny_cnn,
    "tiny_residual": build_tiny_residual,
    "depthwise": _depthwise_net,
}


def _swap(program: Program, index: int) -> Program:
    instructions = list(program.instructions)
    instructions[index : index + 2] = instructions[index + 1], instructions[index]
    return Program(name=program.name, instructions=tuple(instructions))


def _buffer_mutations(program: Program) -> dict[str, list[int]]:
    """Mutation kind -> the program indices it may be applied at."""
    loads_d = _indices(program, Opcode.LOAD_D)
    chained = [
        index
        for index in _indices(program, Opcode.CALC_I)
        if program[index + 1].is_calc
    ]
    kinds = {
        "intact": [0],
        "drop_load_d": loads_d,
        "drop_load_w": _indices(program, Opcode.LOAD_W),
        "drop_save": _indices(program, Opcode.SAVE),
        "shift_rows": [i for i in loads_d if program[i].rows > 1],
        "halve_channels": [i for i in loads_d if program[i].chs > 1],
        "swap_chain": chained,
        "shrink_data_buffer": [0],
        "shrink_weight_buffer": [0],
        "shrink_output_buffer": [0],
    }
    return {kind: indices for kind, indices in kinds.items() if indices}


def _apply(data, program: Program, config, kind: str, index: int):
    """(mutated program, mutated config) for one drawn mutation."""
    if kind.startswith("drop_"):
        return _drop(program, index), config
    if kind == "shift_rows":
        load = program[index]
        return _mutate(program, index, row0=load.row0 + 1, rows=load.rows - 1), config
    if kind == "halve_channels":
        return _mutate(program, index, chs=program[index].chs // 2), config
    if kind == "swap_chain":
        return _swap(program, index), config
    if kind.startswith("shrink_"):
        field, opcode = {
            "shrink_data_buffer": ("data_buffer_bytes", Opcode.LOAD_D),
            "shrink_weight_buffer": ("weight_buffer_bytes", Opcode.LOAD_W),
            "shrink_output_buffer": ("output_buffer_bytes", Opcode.SAVE),
        }[kind]
        largest = max(ins.length for ins in program if ins.opcode == opcode)
        size = data.draw(st.integers(min_value=1, max_value=largest - 1))
        return program, replace(config, **{field: size})
    return program, config


@pytest.fixture(scope="module")
def buffer_networks(example_config):
    return {
        name: compile_network(build(), example_config, weights="random", seed=11)
        for name, build in NETWORKS.items()
    }


@pytest.mark.parametrize("network", sorted(NETWORKS))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_verifier_and_core_trip_at_the_same_instruction(network, data, buffer_networks):
    """The verifier's first mid-stream BUF finding sits at the instruction
    where the core raises — timing-only and functional alike — and a program
    with no such finding runs to completion."""
    compiled = buffer_networks[network]
    vi_mode = data.draw(st.sampled_from(["none", "vi"]))
    program = compiled.program_for(vi_mode)
    candidates = _buffer_mutations(program)
    kind = data.draw(st.sampled_from(sorted(candidates)))
    index = data.draw(st.sampled_from(candidates[kind]))
    mutated, config = _apply(data, program, compiled.config, kind, index)

    report = Report()
    sim = BufferSim(mutated, config, layer_table(compiled), report)
    for position, instruction in enumerate(mutated):
        if not instruction.is_virtual:
            sim.step(position, instruction)
    expected = report.diagnostics[0].index if report.diagnostics else None
    assert all(d.rule.startswith("BUF00") for d in report)

    for functional in (False, True):
        raised = core_error_index(
            compiled, mutated, functional=functional, config=config
        )
        assert raised == expected, (kind, index, functional, report.format())
    if kind == "intact":
        assert expected is None

