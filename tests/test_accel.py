"""Accelerator core: functional bit-exactness, buffer policing, timing."""

from dataclasses import replace

import numpy as np
import pytest

from repro.accel import AcceleratorCore
from repro.accel.core import require_whole_finals
from repro.accel.reference import golden_inference, golden_output
from repro.accel.runner import run_program
from repro.compiler import VI_MODES, compile_network
from repro.compiler.layer_config import LayerConfig
from repro.errors import CompileError, ExecutionError
from repro.isa.instructions import FLAG_RELU, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.nn import GraphBuilder, TensorShape
from repro.obs import EventBus, EventKind, ObsConfig

from tests.conftest import core_error_index, random_input
from tests.test_pricing_agreement import ZOO, compiled_for


class TestBitExactness:
    @pytest.mark.parametrize("fixture_name", ["tiny_conv_compiled", "tiny_cnn_compiled", "tiny_residual_compiled"])
    def test_simulation_matches_golden(self, fixture_name, request):
        compiled = request.getfixturevalue(fixture_name)
        data = random_input(compiled, seed=17)
        golden = golden_output(compiled, data)
        run_program(compiled, vi_mode="none", functional=True, input_map=data)
        assert np.array_equal(compiled.get_output(), golden)

    def test_vi_program_same_result(self, tiny_cnn_compiled):
        data = random_input(tiny_cnn_compiled, seed=18)
        golden = golden_output(tiny_cnn_compiled, data)
        run_program(tiny_cnn_compiled, vi_mode="vi", functional=True, input_map=data)
        assert np.array_equal(tiny_cnn_compiled.get_output(), golden)

    def test_every_intermediate_layer_matches(self, tiny_cnn_compiled):
        data = random_input(tiny_cnn_compiled, seed=19)
        golden = golden_inference(tiny_cnn_compiled, data)
        run_program(tiny_cnn_compiled, vi_mode="none", functional=True, input_map=data)
        ddr = tiny_cnn_compiled.layout.ddr
        for layer in tiny_cnn_compiled.layer_configs:
            simulated = ddr.region(layer.output_region).array
            assert np.array_equal(simulated, golden[layer.name]), layer.name

    def test_depthwise_network(self, example_config):
        builder = GraphBuilder("dwnet", input_shape=TensorShape(16, 16, 8))
        builder.depthwise("dw1", kernel=3, stride=1, padding=1)
        builder.conv("pw1", out_channels=16, kernel=1)
        compiled = compile_network(builder.build(), example_config, weights="random", seed=5)
        data = random_input(compiled, seed=20)
        golden = golden_output(compiled, data)
        run_program(compiled, vi_mode="none", functional=True, input_map=data)
        assert np.array_equal(compiled.get_output(), golden)

    def test_strided_conv_network(self, example_config):
        builder = GraphBuilder("strided", input_shape=TensorShape(17, 23, 5))
        builder.conv("conv1", out_channels=12, kernel=3, stride=2, padding=1)
        builder.conv("conv2", out_channels=8, kernel=1)
        compiled = compile_network(builder.build(), example_config, weights="random", seed=6)
        data = random_input(compiled, seed=21)
        golden = golden_output(compiled, data)
        run_program(compiled, vi_mode="none", functional=True, input_map=data)
        assert np.array_equal(compiled.get_output(), golden)

    def test_global_pool_and_fc(self, example_config):
        builder = GraphBuilder("head", input_shape=TensorShape(8, 8, 16))
        builder.conv("conv", out_channels=32, kernel=3, padding=1)
        builder.global_pool("gap", mode="avg")
        builder.fc("fc", out_features=10)
        compiled = compile_network(builder.build(), example_config, weights="random", seed=7)
        data = random_input(compiled, seed=22)
        golden = golden_output(compiled, data)
        run_program(compiled, vi_mode="none", functional=True, input_map=data)
        assert np.array_equal(compiled.get_output(), golden)

    def test_avg_pool_layer(self, example_config):
        builder = GraphBuilder("avg", input_shape=TensorShape(16, 16, 8))
        builder.pool("pool", kernel=2, stride=2, mode="avg")
        builder.conv("conv", out_channels=8, kernel=1)
        compiled = compile_network(builder.build(), example_config, weights="random", seed=8)
        data = random_input(compiled, seed=23)
        golden = golden_output(compiled, data)
        run_program(compiled, vi_mode="none", functional=True, input_map=data)
        assert np.array_equal(compiled.get_output(), golden)

    def test_gem_pool_layer(self, example_config):
        builder = GraphBuilder("gem", input_shape=TensorShape(8, 8, 16))
        builder.global_pool("gp", mode="gem", p=3.0)
        compiled = compile_network(builder.build(), example_config, weights="random", seed=9)
        data = random_input(compiled, seed=24)
        golden = golden_output(compiled, data)
        run_program(compiled, vi_mode="none", functional=True, input_map=data)
        assert np.array_equal(compiled.get_output(), golden)


class TestRunResult:
    def test_timing_only_matches_functional_cycles(self, tiny_cnn_compiled):
        data = random_input(tiny_cnn_compiled, seed=25)
        functional = run_program(tiny_cnn_compiled, "none", functional=True, input_map=data)
        timing = run_program(tiny_cnn_compiled, "none", functional=False)
        assert functional.total_cycles == timing.total_cycles

    def test_vi_overhead_is_fetch_only(self, tiny_cnn_compiled):
        baseline = run_program(tiny_cnn_compiled, "none", functional=False)
        vi = run_program(tiny_cnn_compiled, "vi", functional=False)
        extra_instructions = len(tiny_cnn_compiled.programs["vi"]) - len(
            tiny_cnn_compiled.programs["none"]
        )
        expected = extra_instructions * tiny_cnn_compiled.config.instruction_fetch_cycles
        assert vi.total_cycles - baseline.total_cycles == expected
        assert vi.compute_cycles == baseline.compute_cycles

    def test_seconds_helper(self, tiny_cnn_compiled):
        result = run_program(tiny_cnn_compiled, "none", functional=False)
        assert result.seconds(tiny_cnn_compiled) == pytest.approx(
            result.total_cycles / 300e6
        )

    def test_trace_records_all_real_instructions(self, tiny_conv_compiled):
        bus = EventBus()
        result = run_program(tiny_conv_compiled, "none", functional=False, bus=bus)
        retires = bus.of_kind(EventKind.INSTR_RETIRE)
        assert len(retires) == result.instructions
        assert max(event.end_cycle for event in retires) == result.total_cycles


class TestCorePolicing:
    def test_calc_without_load_rejected(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        program = tiny_conv_compiled.programs["none"]
        calc = next(ins for ins in program if ins.is_calc)
        layer = tiny_conv_compiled.layer_config(calc.layer_id)
        with pytest.raises(ExecutionError):
            core.execute(calc, layer)

    def test_calc_without_weights_rejected(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        program = tiny_conv_compiled.programs["none"]
        load_d = next(ins for ins in program if ins.opcode == Opcode.LOAD_D)
        calc = next(ins for ins in program if ins.is_calc)
        layer = tiny_conv_compiled.layer_config(calc.layer_id)
        core.execute(load_d, layer)
        with pytest.raises(ExecutionError):
            core.execute(calc, layer)

    def test_virtual_opcode_rejected(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        layer = tiny_conv_compiled.layer_configs[0]
        with pytest.raises(ExecutionError):
            core.execute(
                Instruction(opcode=Opcode.VIR_BARRIER, layer_id=layer.layer_id), layer
            )

    def test_oversized_load_rejected(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        layer = tiny_conv_compiled.layer_configs[0]
        huge = Instruction(
            opcode=Opcode.LOAD_D,
            layer_id=layer.layer_id,
            length=tiny_conv_compiled.config.data_buffer_bytes + 1,
            rows=1,
            chs=1,
        )
        with pytest.raises(ExecutionError):
            core.execute(huge, layer)

    def test_save_without_finalized_results_rejected(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        program = tiny_conv_compiled.programs["none"]
        save = next(ins for ins in program if ins.opcode == Opcode.SAVE)
        layer = tiny_conv_compiled.layer_config(save.layer_id)
        with pytest.raises(ExecutionError):
            core.execute(save, layer)

    @pytest.mark.parametrize("functional", [False, True], ids=["timing", "functional"])
    @pytest.mark.parametrize(
        "shrink",
        [
            lambda load: dict(row0=load.row0 + 1, rows=load.rows - 1),
            lambda load: dict(chs=load.chs // 2),
        ],
        ids=["missing_row0", "missing_top_channel_group"],
    )
    def test_short_residual_second_operand_rejected(
        self, tiny_residual_compiled, shrink, functional
    ):
        """The residual operand-B tile is coverage-checked like operand A: a
        recovery pack that restores too little of it must raise at the first
        CALC reading the missing part — in timing-only mode too, and never
        as a numpy broadcast error."""
        program = tiny_residual_compiled.programs["none"]
        instructions = list(program)
        load_b = next(i for i, ins in enumerate(instructions) if ins.operand_b)
        instructions[load_b] = replace(
            instructions[load_b], **shrink(instructions[load_b])
        )
        mutated = Program(name=program.name, instructions=tuple(instructions))
        raised = core_error_index(
            tiny_residual_compiled, mutated, functional=functional
        )
        assert raised is not None and mutated[raised].is_calc
        assert load_b < raised < load_b + 3  # one of the stripe's first two CALCs

    @pytest.mark.parametrize("functional", [False, True], ids=["timing", "functional"])
    def test_unsatisfiable_calc_rows_rejected(self, tiny_conv_compiled, functional):
        """Output rows that read no input row are a buffer-rule violation,
        not whatever ``LayerConfig.input_rows_for`` happens to raise."""
        program = tiny_conv_compiled.programs["none"]
        instructions = list(program)
        calc = next(i for i, ins in enumerate(instructions) if ins.is_calc)
        instructions[calc] = replace(instructions[calc], row0=1000)
        mutated = Program(name=program.name, instructions=tuple(instructions))
        assert core_error_index(
            tiny_conv_compiled, mutated, functional=functional
        ) == calc

    def test_invalidate_forces_reload(self, tiny_conv_compiled):
        """After an invalidate (= task switch), CALC must fail until LOAD_D."""
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        program = tiny_conv_compiled.programs["none"]
        layer = tiny_conv_compiled.layer_configs[0]
        instructions = iter(program)
        first_calc = None
        for instruction in instructions:
            if instruction.is_calc:
                first_calc = instruction
                break
            core.execute(instruction, layer)
        core.invalidate()
        with pytest.raises(ExecutionError):
            core.execute(first_calc, layer)

    def test_snapshot_restore_roundtrip(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        program = tiny_conv_compiled.programs["none"]
        layer = tiny_conv_compiled.layer_configs[0]
        executed = []
        for instruction in program:
            if instruction.is_calc:
                break
            core.execute(instruction, layer)
            executed.append(instruction)
        state = core.snapshot()
        core.invalidate()
        core.restore(state)
        # The pending CALC now succeeds because state was restored.
        calc = next(ins for ins in program if ins.is_calc)
        core.execute(calc, layer)

    def test_stats_accumulate(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        program = tiny_conv_compiled.programs["none"]
        for instruction in program:
            core.execute(instruction, tiny_conv_compiled.layer_config(instruction.layer_id))
        assert core.stats.instructions == len(program)
        assert core.stats.cycles > 0
        assert core.stats.bytes_loaded > 0
        assert core.stats.bytes_saved > 0


class TestBatchedStretchPrecondition:
    """What a functional core's batched stretch assumes when it computes the
    stretch's SAVEs from DDR: no layer writes a region it reads, and every
    ``CALC_F`` closes its layer's full input depth with the layer's flags."""

    @pytest.mark.parametrize("network", sorted(ZOO))
    def test_every_zoo_program_meets_it(self, network):
        compiled = compiled_for(network, "big")
        for layer in compiled.layer_configs:
            assert layer.output_region not in (layer.input_region, layer.input2_region)
        for variant in VI_MODES:
            require_whole_finals(compiled.program_for(variant).words, compiled.layer_config)

    @pytest.mark.parametrize(
        "layer_name, field, change",
        [
            ("conv1", "shift", 1),
            ("conv2", "flags", FLAG_RELU),
            ("conv1", "in_chs", -1),
            ("add", "flags", FLAG_RELU),
            ("add", "in_ch0", 1),
        ],
    )
    def test_a_final_it_cannot_recompute_is_refused(
        self, tiny_residual_compiled, layer_name, field, change
    ):
        compiled = tiny_residual_compiled
        (layer,) = [cfg for cfg in compiled.layer_configs if cfg.name == layer_name]
        words = compiled.program_for("vi").words.copy()
        require_whole_finals(words, compiled.layer_config)
        finals = np.flatnonzero(
            (words["opcode"] == Opcode.CALC_F) & (words["layer_id"] == layer.layer_id)
        )
        index = finals[len(finals) // 2]
        value = int(words[field][index])
        words[field][index] = value ^ change if field == "flags" else value + change
        with pytest.raises(ExecutionError, match=layer_name):
            require_whole_finals(words, compiled.layer_config)

    @pytest.mark.parametrize("operand", ["input_region", "input2_region"])
    def test_an_in_place_layer_is_refused(self, operand):
        shape = TensorShape(8, 8, 4)
        regions = {"input_region": "a", "input2_region": "b", operand: "out"}
        with pytest.raises(CompileError, match="also one of its input regions"):
            LayerConfig(
                layer_id=0, name="add", kind="add", in_shape=shape, out_shape=shape,
                in2_shape=shape, output_region="out", **regions,
            )
