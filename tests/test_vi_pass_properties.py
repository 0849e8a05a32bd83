"""Property-based VI-pass tests on randomly generated original-ISA programs.

Rather than relying only on compiler-produced programs, these tests generate
synthetic-but-wellformed LOAD/CALC/SAVE sequences and check the VI pass's
contract on all of them: real instructions preserved verbatim (modulo
save-id annotation), validator-clean output, interrupt points only at legal
positions, and deterministic output.

The generators hand-build ``Instruction`` lists; the pass is fed their word
array (``Program(...).words``) and its output is read back through
``Program.from_words``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.vi_pass import ViPolicy, insert_layer_barriers, insert_virtual_instructions
from repro.isa import (
    FLAG_LAST_SAVE_OF_LAYER,
    Instruction,
    NO_SAVE_ID,
    Opcode,
    Program,
    validate_program,
)


@st.composite
def synthetic_layer(draw, layer_id: int) -> list[Instruction]:
    """One layer's worth of well-formed original ISA."""
    instructions: list[Instruction] = []
    num_tiles = draw(st.integers(1, 2))
    group_width = 8
    for tile in range(num_tiles):
        rows = draw(st.integers(1, 8))
        instructions.append(
            Instruction(
                opcode=Opcode.LOAD_D,
                layer_id=layer_id,
                length=rows * 64,
                row0=tile * 8,
                rows=rows,
                chs=draw(st.integers(1, 16)),
            )
        )
        num_sections = draw(st.integers(1, 2))
        for section in range(num_sections):
            groups = draw(st.integers(1, 3))
            for group in range(groups):
                ch0 = (section * 3 + group) * group_width
                steps = draw(st.integers(1, 3))
                instructions.append(
                    Instruction(
                        opcode=Opcode.LOAD_W,
                        layer_id=layer_id,
                        length=group_width * 9,
                        row0=tile * 8,
                        rows=4,
                        ch0=ch0,
                        chs=group_width,
                        in_chs=8,
                    )
                )
                for step in range(steps):
                    is_final = step == steps - 1
                    instructions.append(
                        Instruction(
                            opcode=Opcode.CALC_F if is_final else Opcode.CALC_I,
                            layer_id=layer_id,
                            row0=tile * 8,
                            rows=4,
                            ch0=ch0,
                            chs=group_width,
                            in_ch0=step * 8,
                            in_chs=8,
                        )
                    )
            section_ch0 = section * 3 * group_width
            section_chs = groups * group_width
            instructions.append(
                Instruction(
                    opcode=Opcode.SAVE,
                    layer_id=layer_id,
                    ddr_addr=0,
                    length=4 * 16 * section_chs,
                    row0=tile * 8,
                    rows=4,
                    ch0=section_ch0,
                    chs=section_chs,
                )
            )
    # Flag the layer's last SAVE.
    for index in range(len(instructions) - 1, -1, -1):
        if instructions[index].opcode == Opcode.SAVE:
            instructions[index] = replace(
                instructions[index],
                flags=instructions[index].flags | FLAG_LAST_SAVE_OF_LAYER,
            )
            break
    return instructions


@st.composite
def synthetic_program(draw) -> list[Instruction]:
    layers = draw(st.integers(1, 3))
    instructions: list[Instruction] = []
    for layer_id in range(layers):
        instructions.extend(draw(synthetic_layer(layer_id)))
    return instructions


def vi_pass(original: list[Instruction], policy: ViPolicy = ViPolicy()) -> Program:
    words = insert_virtual_instructions(Program("fuzz", original).words, policy)
    return Program.from_words("fuzz", words)


@settings(max_examples=60, deadline=None)
@given(original=synthetic_program())
def test_vi_pass_output_validates(original):
    validate_program(vi_pass(original))


@settings(max_examples=60, deadline=None)
@given(original=synthetic_program())
def test_vi_pass_preserves_real_instructions(original):
    result = vi_pass(original)
    reals = [replace(i, save_id=NO_SAVE_ID) for i in result if not i.is_virtual]
    assert reals == [replace(i, save_id=NO_SAVE_ID) for i in original]


@settings(max_examples=60, deadline=None)
@given(original=synthetic_program())
def test_vi_pass_deterministic(original):
    words = Program("fuzz", original).words
    assert np.array_equal(
        insert_virtual_instructions(words), insert_virtual_instructions(words)
    )


@settings(max_examples=40, deadline=None)
@given(original=synthetic_program(), stride=st.integers(1, 5))
def test_policy_monotone_in_stride(original, stride):
    """A larger stride never yields more virtual instructions."""
    dense = vi_pass(original, ViPolicy(calc_f_stride=1))
    sparse = vi_pass(original, ViPolicy(calc_f_stride=stride))
    assert sparse.num_virtual() <= dense.num_virtual()
    validate_program(sparse)


@settings(max_examples=60, deadline=None)
@given(original=synthetic_program())
def test_layer_barriers_one_per_layer(original):
    result = Program.from_words(
        "fuzz", insert_layer_barriers(Program("fuzz", original).words)
    )
    layers = {i.layer_id for i in original}
    barriers = [i for i in result if i.opcode == Opcode.VIR_BARRIER]
    assert len(barriers) == len(layers)
    validate_program(result)


@settings(max_examples=60, deadline=None)
@given(original=synthetic_program())
def test_every_switch_point_recoverable(original):
    """After any switch point, the remaining stream must re-establish its
    data before the next CALC: either the switch point starts a recovery
    pack, or the next same-layer CALC is preceded by a LOAD_D."""
    result = vi_pass(original).instructions
    for index, instruction in enumerate(result):
        if not (instruction.is_virtual and instruction.is_switch_point):
            continue
        if instruction.opcode in (Opcode.VIR_SAVE, Opcode.VIR_LOAD_D):
            continue  # recovery encoded right here
        # VIR_BARRIER: the next real same-layer instruction block must begin
        # with a LOAD (same layer) or belong to a later layer.
        for follower in result[index + 1 :]:
            if follower.is_virtual:
                continue
            if follower.layer_id != instruction.layer_id:
                break
            assert follower.opcode in (Opcode.LOAD_D, Opcode.LOAD_W), follower
            break
