"""Instruction words, binary encoding, programs, and the validator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import HEADER, frame
from repro.errors import IsaError, ProgramError
from repro.isa import (
    FLAG_BIAS,
    FLAG_LAST_SAVE_OF_LAYER,
    FLAG_RELU,
    INSTRUCTION_BYTES,
    INSTRUCTION_TABLE,
    Instruction,
    NO_SAVE_ID,
    Opcode,
    Program,
    decode_instruction,
    decode_stream,
    encode_instruction,
    encode_stream,
    is_calc,
    is_load,
    is_virtual,
    validate_program,
)
from repro.isa import program as program_format
from repro.isa.instructions import FLAG_OPERAND_B, FLAG_SWITCH_POINT
from tests.test_container import MUTATIONS


def reframed(program: Program, offset: int, value: int) -> bytes:
    """``program``'s ``instruction.bin`` with one body byte overwritten and
    the frame rebuilt, so the CRC is valid for the damaged body."""
    body = bytearray(program.to_bytes()[HEADER.size :])
    body[offset] = value
    return frame(program_format._MAGIC, program_format._VERSION, bytes(body))


#: What no encoder emits but a CRC cannot see, as ``(byte offset, value)``
#: in the second word: a reserved bit, an unknown opcode byte.
UNENCODABLE = {"reserved_bit": (32 + 29, 0x01), "unknown_opcode": (32, 0xEE)}


def make(opcode=Opcode.CALC_F, **kwargs):
    defaults = dict(layer_id=1, rows=4, chs=8, length=0)
    if opcode in (Opcode.LOAD_D, Opcode.LOAD_W, Opcode.SAVE, Opcode.VIR_SAVE, Opcode.VIR_LOAD_D):
        defaults["length"] = 64
    defaults.update(kwargs)
    return Instruction(opcode=opcode, **defaults)


class TestOpcodes:
    def test_virtual_classification(self):
        assert is_virtual(Opcode.VIR_SAVE)
        assert is_virtual(Opcode.VIR_BARRIER)
        assert not is_virtual(Opcode.SAVE)

    def test_calc_classification(self):
        assert is_calc(Opcode.CALC_I)
        assert is_calc(Opcode.CALC_F)
        assert not is_calc(Opcode.SAVE)

    def test_load_classification(self):
        assert is_load(Opcode.LOAD_D)
        assert is_load(Opcode.LOAD_W)
        assert not is_load(Opcode.VIR_LOAD_D)

    def test_instruction_table_covers_original_isa(self):
        documented = {info.opcode for info in INSTRUCTION_TABLE}
        assert documented == {
            Opcode.LOAD_W,
            Opcode.LOAD_D,
            Opcode.CALC_I,
            Opcode.CALC_F,
            Opcode.SAVE,
        }

    def test_calc_f_backs_up_final_results(self):
        row = next(info for info in INSTRUCTION_TABLE if info.opcode == Opcode.CALC_F)
        assert "Final results" in row.backup


class TestInstruction:
    def test_flags_decode(self):
        instruction = make(flags=FLAG_RELU | FLAG_BIAS)
        assert instruction.relu and instruction.bias
        assert not instruction.is_last_save_of_layer

    def test_operand_b_flag(self):
        assert make(opcode=Opcode.LOAD_D, flags=FLAG_OPERAND_B).operand_b

    def test_switch_point_flag(self):
        assert make(opcode=Opcode.VIR_BARRIER, flags=FLAG_SWITCH_POINT).is_switch_point

    def test_materialize_vir_save(self):
        virtual = make(opcode=Opcode.VIR_SAVE, save_id=3)
        real = virtual.materialized()
        assert real.opcode == Opcode.SAVE
        assert real.save_id == 3

    def test_materialize_vir_load(self):
        assert make(opcode=Opcode.VIR_LOAD_D).materialized().opcode == Opcode.LOAD_D

    def test_materialize_rejects_barrier(self):
        with pytest.raises(IsaError):
            make(opcode=Opcode.VIR_BARRIER).materialized()

    def test_with_channel_range(self):
        save = make(opcode=Opcode.SAVE, ch0=0, chs=32, length=320)
        trimmed = save.with_channel_range(16, 16, 160)
        assert (trimmed.ch0, trimmed.chs, trimmed.length) == (16, 16, 160)

    def test_field_range_checks(self):
        with pytest.raises(IsaError):
            make(layer_id=70000)
        with pytest.raises(IsaError):
            make(length=-1)
        with pytest.raises(IsaError):
            make(ddr_addr=1 << 33)

    def test_str_mentions_opcode(self):
        assert "CALC_F" in str(make())

    def test_unencodable_flags_cannot_be_constructed(self):
        """The word has a u8: ``flags=0x100`` used to construct, validate
        and pickle into the cache, then fail in ``to_bytes``."""
        with pytest.raises(IsaError, match=r"flags=256 outside \[0, 255\]"):
            Instruction(opcode=Opcode.SAVE, flags=0x100)
        assert Instruction(opcode=Opcode.SAVE, flags=0xFF).flags == 0xFF

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("layer_id", -1, r"layer_id=-1 outside \[0, 65535\]"),
            ("in_chs", 1 << 16, r"in_chs=65536 outside \[0, 65535\]"),
            ("flags", -1, r"flags=-1 outside \[0, 255\]"),
            ("ddr_addr", 1 << 32, "ddr_addr=4294967296 outside u32 range"),
            ("length", -5, "length=-5 outside u32 range"),
            ("shift", 1 << 15, "shift=32768 outside i16 range"),
            ("shift", -(1 << 15) - 1, "shift=-32769 outside i16 range"),
        ],
    )
    def test_range_errors_name_the_field(self, field, value, message):
        with pytest.raises(IsaError, match=message):
            Instruction(opcode=Opcode.SAVE, **{field: value})


class TestEncoding:
    def test_word_size(self):
        assert INSTRUCTION_BYTES == 32
        assert len(encode_instruction(make())) == 32

    def test_roundtrip_simple(self):
        original = make(
            opcode=Opcode.SAVE,
            layer_id=7,
            save_id=42,
            ddr_addr=0x1000,
            length=640,
            row0=8,
            rows=8,
            ch0=16,
            chs=16,
            flags=FLAG_LAST_SAVE_OF_LAYER,
        )
        assert decode_instruction(encode_instruction(original)) == original

    def test_stream_roundtrip(self):
        stream = [make(opcode=Opcode.LOAD_D), make(opcode=Opcode.CALC_I), make()]
        assert decode_stream(encode_stream(stream)) == stream

    def test_decode_rejects_bad_length(self):
        with pytest.raises(IsaError):
            decode_instruction(b"\x00" * 31)

    def test_decode_rejects_unknown_opcode(self):
        blob = bytearray(encode_instruction(make()))
        blob[0] = 0xEE
        with pytest.raises(IsaError):
            decode_instruction(bytes(blob))

    def test_stream_rejects_misaligned(self):
        with pytest.raises(IsaError):
            decode_stream(b"\x00" * 33)

    @settings(max_examples=100, deadline=None)
    @given(
        opcode=st.sampled_from(list(Opcode)),
        layer_id=st.integers(0, 0xFFFF),
        save_id=st.integers(0, 0xFFFF),
        ddr_addr=st.integers(0, 0xFFFFFFFF),
        length=st.integers(0, 0xFFFFFFFF),
        row0=st.integers(0, 0xFFFF),
        rows=st.integers(0, 0xFFFF),
        ch0=st.integers(0, 0xFFFF),
        chs=st.integers(0, 0xFFFF),
        in_ch0=st.integers(0, 0xFFFF),
        in_chs=st.integers(0, 0xFFFF),
        shift=st.integers(-32768, 32767),
        flags=st.integers(0, 0xFF),
    )
    def test_roundtrip_property(self, **fields):
        original = Instruction(**fields)
        assert decode_instruction(encode_instruction(original)) == original


class TestProgram:
    def make_program(self):
        return Program(
            name="p",
            instructions=(
                make(opcode=Opcode.LOAD_D, layer_id=0),
                make(opcode=Opcode.LOAD_W, layer_id=0),
                make(opcode=Opcode.CALC_F, layer_id=0),
                make(opcode=Opcode.VIR_BARRIER, layer_id=0, flags=FLAG_SWITCH_POINT),
                make(opcode=Opcode.SAVE, layer_id=0, flags=FLAG_LAST_SAVE_OF_LAYER),
            ),
        )

    def test_len_and_index(self):
        program = self.make_program()
        assert len(program) == 5
        assert program[0].opcode == Opcode.LOAD_D

    def test_histogram(self):
        histogram = self.make_program().opcode_histogram()
        assert histogram[Opcode.LOAD_D] == 1
        assert histogram[Opcode.VIR_BARRIER] == 1

    def test_interrupt_points(self):
        assert self.make_program().interrupt_points() == [3]

    def test_without_virtual(self):
        stripped = self.make_program().without_virtual()
        assert stripped.num_virtual() == 0
        assert len(stripped) == 4

    def test_layer_span(self):
        assert self.make_program().layer_span(0) == (0, 5)

    def test_layer_span_missing(self):
        with pytest.raises(ProgramError):
            self.make_program().layer_span(9)

    def test_empty_rejected(self):
        with pytest.raises(ProgramError):
            Program(name="empty", instructions=())

    def test_serialization_roundtrip(self, tmp_path):
        program = self.make_program()
        path = program.dump(tmp_path / "instruction.bin")
        loaded = Program.load(path)
        assert loaded.instructions == program.instructions

    def test_from_bytes_rejects_bad_magic(self):
        with pytest.raises(ProgramError, match="bad magic"):
            Program.from_bytes(b"NOPE" + b"\x00" * 64)

    def test_from_bytes_rejects_truncated_body(self):
        blob = self.make_program().to_bytes()
        with pytest.raises(ProgramError, match="truncated"):
            Program.from_bytes(blob[:-1])

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_container_refusal_is_a_program_error(self, mutation):
        """Program *policy* (the mechanism is fuzzed in test_container): a
        v2 ``instruction.bin``, a flipped flag, ... are all ProgramError."""
        damaged = MUTATIONS[mutation][1](self.make_program().to_bytes())
        with pytest.raises(ProgramError, match="not a loadable instruction.bin"):
            Program.from_bytes(damaged)

    @pytest.mark.parametrize("damage", sorted(UNENCODABLE))
    def test_crc_clean_but_unencodable_stream_is_refused(self, damage):
        """``decode`` used to drop the reserved halves, so such a file loaded
        and ``from_bytes(b).to_bytes() != b``."""
        program = self.make_program()
        assert Program.from_bytes(program.to_bytes()).to_bytes() == program.to_bytes()
        with pytest.raises(ProgramError, match="not a loadable instruction.bin"):
            Program.from_bytes(reframed(program, *UNENCODABLE[damage]))

    def test_v2_instruction_bin_is_refused(self):
        """The pre-container layout (``<4sHHII``: 4-byte magic, count, CRC)."""
        import struct
        import zlib

        body = self.make_program().to_bytes()[24:]
        v2 = struct.pack("<4sHHII", b"INCA", 2, 0, len(body) // 32, zlib.crc32(body))
        with pytest.raises(ProgramError):
            Program.from_bytes(v2 + body)


class TestValidator:
    def test_accepts_wellformed(self, tiny_cnn_compiled):
        validate_program(tiny_cnn_compiled.program)

    def test_accepts_all_variants(self, tiny_residual_compiled):
        for mode in ("none", "vi", "layer"):
            validate_program(tiny_residual_compiled.program_for(mode))

    def test_rejects_layer_disorder(self):
        program = Program(
            name="bad",
            instructions=(
                make(opcode=Opcode.SAVE, layer_id=2),
                make(opcode=Opcode.SAVE, layer_id=1),
            ),
        )
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_rejects_zero_length_transfer(self):
        program = Program(
            name="bad",
            instructions=(make(opcode=Opcode.LOAD_D, length=0),),
        )
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_rejects_unterminated_blob(self):
        program = Program(
            name="bad",
            instructions=(
                make(opcode=Opcode.LOAD_D),
                make(opcode=Opcode.CALC_I, ch0=0, chs=8),
            ),
        )
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_rejects_save_during_open_blob(self):
        program = Program(
            name="bad",
            instructions=(
                make(opcode=Opcode.CALC_I, ch0=0, chs=8),
                make(opcode=Opcode.SAVE),
            ),
        )
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_rejects_calc_f_window_mismatch(self):
        program = Program(
            name="bad",
            instructions=(
                make(opcode=Opcode.CALC_I, ch0=0, chs=8),
                make(opcode=Opcode.CALC_F, ch0=8, chs=8),
                make(opcode=Opcode.SAVE),
            ),
        )
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_rejects_virtual_after_load(self):
        program = Program(
            name="bad",
            instructions=(
                make(opcode=Opcode.LOAD_D),
                make(opcode=Opcode.LOAD_D),
                make(opcode=Opcode.VIR_SAVE, save_id=0),
                make(opcode=Opcode.SAVE, save_id=0),
            ),
        )
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_rejects_vir_save_without_id(self):
        program = Program(
            name="bad",
            instructions=(
                make(opcode=Opcode.CALC_F),
                make(opcode=Opcode.VIR_SAVE, save_id=NO_SAVE_ID),
                make(opcode=Opcode.SAVE),
            ),
        )
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_rejects_unpaired_vir_save(self):
        program = Program(
            name="bad",
            instructions=(
                make(opcode=Opcode.CALC_F),
                make(opcode=Opcode.VIR_SAVE, save_id=5),
            ),
        )
        with pytest.raises(ProgramError):
            validate_program(program)
