"""The compiler emits words: lowering and the VI pass build
``isa.encoding.WORD_DTYPE`` arrays directly, with no ``Instruction`` made.

What holds them to the object-building compiler they replaced is
``tests/data/program_digests.json`` — the sha256 of ``to_bytes()`` for every
zoo network x variant x accelerator x ``calc_f_stride``, generated on the
commit named in the file by ``tests/regen_program_digests.py``.  The rest
covers what a digest of well-formed networks cannot reach: the ``save_id``
wrap, recovery state across a layer change, and the field-width check that
used to live in ``Instruction.__post_init__``.  (The random-stream contracts
of the VI pass are ``tests/test_vi_pass_properties.py``, fed word arrays.)
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.accel.runner import run_program
from repro.compiler import compile_network
from repro.compiler.vi_pass import (
    _SAVE_ID_LIMIT,
    insert_layer_barriers,
    insert_virtual_instructions,
)
from repro.errors import CompileError, IsaError, ProgramError
from repro.estimate import estimate_job_cycles
from repro.hw.config import AcceleratorConfig
from repro.hw.timing import fetch_cycles, instruction_cycles
from repro.isa import NO_SAVE_ID, Instruction, Opcode, Program, validate_program
from repro.isa.encoding import COLUMN_DTYPE, WORD_DTYPE, column_rows, pack_words
from repro.nn import GraphBuilder, TensorShape
from repro.zoo import build_tiny_cnn, build_tiny_residual
from tests.regen_program_digests import FIXTURE, cases, digests

# -- byte identity ---------------------------------------------------------------

PINNED = json.loads(FIXTURE.read_text())


def test_fixture_names_its_commit_and_covers_every_case():
    assert len(PINNED["commit"]) == 40
    assert len(PINNED["digests"]) == 3 * len(list(cases()))


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: "|".join(map(str, case)))
def test_program_bytes_match_the_pinned_digests(case):
    for key, digest in digests(*case).items():
        assert digest == PINNED["digests"][key], key


# -- the VI pass on arrays ---------------------------------------------------------


def words_of(*instructions: Instruction) -> np.ndarray:
    return Program("hand-built", instructions).words


def test_save_id_wraps_below_no_save_id():
    """More SAVEs than ids: the counter wraps to 0, never reaching
    ``NO_SAVE_ID``, and each VIR_SAVE still names the SAVE right behind it."""
    blob = dict(layer_id=0, row0=0, rows=4)
    section = words_of(
        Instruction(Opcode.LOAD_W, length=72, chs=8, in_chs=8, **blob),
        Instruction(Opcode.CALC_F, chs=8, in_chs=8, **blob),
        Instruction(Opcode.LOAD_W, length=72, ch0=8, chs=8, in_chs=8, **blob),
        Instruction(Opcode.CALC_F, ch0=8, chs=8, in_chs=8, **blob),
        Instruction(Opcode.SAVE, length=4 * 16 * 16, chs=16, **blob),
    )
    saves = _SAVE_ID_LIMIT + 7
    load = words_of(Instruction(Opcode.LOAD_D, length=512, rows=8, chs=16))
    result = insert_virtual_instructions(np.concatenate([load] + [section] * saves))

    save_ids = result["save_id"][result["opcode"] == Opcode.SAVE]
    assert len(save_ids) == saves > 65_534
    assert np.array_equal(save_ids, np.arange(saves) % _SAVE_ID_LIMIT)
    assert save_ids.max() == _SAVE_ID_LIMIT - 1 < NO_SAVE_ID
    backups = result["save_id"][result["opcode"] == Opcode.VIR_SAVE]
    assert np.array_equal(backups, save_ids)  # one per section, the same id
    others = ~np.isin(result["opcode"], (Opcode.SAVE, Opcode.VIR_SAVE))
    assert (result["save_id"][others] == NO_SAVE_ID).all()


def test_operand_b_recovery_does_not_leak_into_the_next_layer(example_config):
    """A residual add keeps two live LOAD_Ds (operands A and B); the plain
    layer behind it must replay only its own single load."""
    builder = GraphBuilder("residual_then_plain", input_shape=TensorShape(16, 16, 16))
    trunk = builder.tail
    builder.conv("conv1", out_channels=16, kernel=3, padding=1)
    main = builder.conv("conv2", out_channels=16, kernel=3, padding=1, relu=False)
    builder.add("add", main, trunk)
    builder.conv("conv3", out_channels=32, kernel=3, padding=1)
    compiled = compile_network(builder.build(), example_config, weights="zeros", cache=False)
    kinds = {cfg.layer_id: cfg.kind for cfg in compiled.layer_configs}

    packs: dict[int, list[list[Instruction]]] = {}
    pack: list[Instruction] = []
    for instruction in compiled.program:
        if instruction.opcode == Opcode.VIR_LOAD_D:
            pack.append(instruction)
        elif pack:
            packs.setdefault(pack[0].layer_id, []).append(pack)
            pack = []
    add_id, plain_id = max(kinds) - 1, max(kinds)
    assert kinds[add_id] == "add" and kinds[plain_id] == "conv"
    assert packs[add_id] and packs[plain_id]
    for clones in packs[add_id]:
        assert [clone.operand_b for clone in clones] == [False, True]
    for clones in packs[plain_id]:
        (clone,) = clones
        assert not clone.operand_b and clone.layer_id == plain_id


def test_malformed_streams_keep_their_compile_errors():
    blob = dict(layer_id=0, rows=4, chs=8, in_chs=8)
    load = Instruction(Opcode.LOAD_D, length=512, rows=8, chs=16)
    calc_f = Instruction(Opcode.CALC_F, **blob)
    with pytest.raises(CompileError, match="CALC_F at 1 has no covering SAVE — malformed lowering"):
        insert_virtual_instructions(words_of(load, calc_f, calc_f))
    save = Instruction(Opcode.SAVE, layer_id=0, length=512, rows=4, ch0=8, chs=8)
    with pytest.raises(
        CompileError,
        match=r"CALC_F channels \[0, 8\) fall outside covering SAVE section \[8, 16\)",
    ):
        insert_virtual_instructions(words_of(load, calc_f, calc_f, save))


# -- the range check: IsaError, never a wrapped word -------------------------------


def rows_with(name: str, value: int) -> np.ndarray:
    """Three default SAVE rows, the middle one carrying ``value`` in ``name``."""
    rows = column_rows(3, Opcode.SAVE)
    rows[name][1] = value
    return rows


@pytest.mark.parametrize(
    "name, value",
    [(name, np.iinfo(WORD_DTYPE[name]).max + 1) for name in COLUMN_DTYPE.names[1:]]
    + [(name, np.iinfo(WORD_DTYPE[name]).min - 1) for name in COLUMN_DTYPE.names[1:]],
)
def test_a_value_past_its_field_raises_what_instruction_raises(name, value):
    with pytest.raises(IsaError) as from_object:
        Instruction(Opcode.SAVE, **{name: int(value)})
    with pytest.raises(IsaError) as from_columns:
        pack_words(rows_with(name, value))
    assert str(from_columns.value) == str(from_object.value)
    assert name in str(from_columns.value)
    in_range = pack_words(rows_with(name, np.iinfo(WORD_DTYPE[name]).max))
    assert in_range[name][1] == np.iinfo(WORD_DTYPE[name]).max


def test_an_overflowing_network_is_an_isa_error_naming_the_field(example_config):
    """End to end: a DDR base past u32 reaches ``ddr_addr`` columns."""
    with pytest.raises(IsaError, match=r"ddr_addr=\d+ outside u32 range"):
        compile_network(
            build_tiny_cnn(), example_config, base_addr=1 << 32, weights="zeros", cache=False
        )


def test_a_vir_save_wider_than_its_field_is_an_isa_error():
    """The VI pass computes VIR_SAVE ``chs`` / ``length`` itself, so it
    range-checks them itself: CALC_F channels may end past u16."""
    blob = dict(layer_id=0, rows=4, in_chs=8)
    stream = words_of(
        Instruction(Opcode.LOAD_D, length=512, rows=8, chs=16),
        Instruction(Opcode.CALC_F, ch0=0xFFFF, chs=0xFFFF, **blob),
        Instruction(Opcode.CALC_F, ch0=0xFFFF, chs=0xFFFF, **blob),
        Instruction(Opcode.SAVE, layer_id=0, length=64, rows=4, chs=8),
    )
    with pytest.raises(IsaError, match=r"chs=131070 outside \[0, 65535\]"):
        insert_virtual_instructions(stream)


# -- pricing a fresh compile ---------------------------------------------------------


@pytest.mark.parametrize("mode", ["none", "vi", "layer"])
def test_estimate_without_meta_prices_kinds_like_the_walk_and_the_run(mode, example_config):
    compiled = compile_network(build_tiny_residual(), example_config, weights="zeros", cache=False)
    program = compiled.program_for(mode)
    for config in (example_config, AcceleratorConfig.small()):  # its own and a foreign one
        walked = fetch_cycles(config) * len(program) + sum(
            instruction_cycles(config, ins, compiled.layer_config(ins.layer_id))
            for ins in Program.from_words("walk", program.words)
        )
        assert compiled.cached_mode_meta(mode) is None
        assert estimate_job_cycles(config, compiled, program) == walked
    held = sum(slot is not None for slot in program._objects)
    assert 0 < held < len(program) / 2  # one decode per kind, even on a tiny program
    assert estimate_job_cycles(example_config, compiled, program) == run_program(
        compiled, mode, functional=False
    ).total_cycles


# -- Program.from_words ------------------------------------------------------------


def test_from_words_is_the_program_the_objects_build(tiny_cnn_compiled):
    for built in tiny_cnn_compiled.programs.values():
        adopted = Program.from_words(built.name, built.words)
        assert adopted == built and adopted.to_bytes() == built.to_bytes()
        assert all(slot is None for slot in adopted._objects)
        assert not adopted.words.flags.writeable
        validate_program(adopted)


def test_from_words_refuses_what_from_bytes_refuses(tiny_cnn_compiled):
    words = tiny_cnn_compiled.program.words.copy()
    with pytest.raises(ProgramError, match="dtype"):
        Program.from_words("p", words.view(np.uint8))
    words["opcode"][3] = 0x7F
    with pytest.raises(IsaError, match="unknown opcode byte 0x7f at word 3"):
        Program.from_words("p", words)
    words["opcode"][3] = Opcode.SAVE
    words["reserved1"][5] = 1
    with pytest.raises(IsaError, match="reserved bits set in word 5"):
        Program.from_words("p", words)


def test_layer_barriers_follow_each_last_save(tiny_cnn_compiled):
    original = tiny_cnn_compiled.programs["none"]
    result = Program.from_words("layer", insert_layer_barriers(original.words))
    assert result == Program.from_words("layer", tiny_cnn_compiled.programs["layer"].words)
    for index in result.virtual_indices:
        assert result[index].opcode == Opcode.VIR_BARRIER and result[index].is_switch_point
        assert result[index - 1].is_last_save_of_layer
