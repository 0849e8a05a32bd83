"""Targeted tests for paths the main suites don't reach."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import TensorShape
from repro.obs import EventKind, ObsConfig
from repro.nn.stats import conv_layer_stats, is_depthwise, is_pointwise
from repro.zoo import build_mobilenet_v1


class TestNnStats:
    def test_stats_classify_mobilenet_layers(self):
        stats = conv_layer_stats(build_mobilenet_v1(TensorShape(64, 64, 3)))
        depthwise = [s for s in stats if is_depthwise(s)]
        pointwise = [s for s in stats if is_pointwise(s)]
        assert len(depthwise) == 13
        assert len(pointwise) == 13  # one 1x1 after every depthwise

    def test_stats_shapes_consistent(self):
        stats = conv_layer_stats(build_mobilenet_v1(TensorShape(64, 64, 3)))
        for row in stats:
            assert row.out_height <= row.in_height
            assert row.macs > 0

    def test_heaviest_layer_rejects_conv_free_graph(self):
        from repro.nn import GraphBuilder
        from repro.nn.stats import heaviest_layer

        builder = GraphBuilder("poolonly", input_shape=TensorShape(8, 8, 4))
        builder.pool("p", kernel=2, stride=2)
        with pytest.raises(ValueError):
            heaviest_layer(builder.build())


class TestVirLoadWPath:
    def test_iau_materializes_vir_load_w_on_resume(self, tiny_pair, example_config):
        """No compiler schedule emits VIR_LOAD_W, but the IAU must handle it
        (the ISA defines it for schedules that cache weights across blobs).
        Hand-build a program with a VIR_LOAD_W in its recovery pack."""
        from dataclasses import replace

        import numpy as np

        from repro.isa import Opcode, Program
        from repro.runtime import MultiTaskSystem
        from repro.verify.wcirl import straight_line_cycles

        low, high = tiny_pair
        base = low.programs["vi"].instructions
        # Find a post-SAVE recovery pack head and append a VIR_LOAD_W clone
        # of the nearest preceding LOAD_W.
        instructions = list(base)
        insert_at = None
        template = None
        for index, instruction in enumerate(instructions):
            if (
                instruction.opcode == Opcode.VIR_LOAD_D
                and instruction.is_switch_point
            ):
                for candidate in reversed(instructions[:index]):
                    if candidate.opcode == Opcode.LOAD_W:
                        template = candidate
                        break
                insert_at = index + 1
                break
        assert insert_at is not None and template is not None
        instructions.insert(
            insert_at, replace(template, opcode=Opcode.VIR_LOAD_W)
        )
        program = Program(name="with_vlw", instructions=tuple(instructions))

        system = MultiTaskSystem(example_config, obs=ObsConfig(events=True))
        system.add_task(1, low, vi_mode="vi")
        # Every job starts from base_program: swap in the hand-built stream.
        system.iau.context(1).base_program = program
        system.add_task(0, high, vi_mode="vi")
        # The high-priority request lands while the SAVE before the pack head
        # runs, so the low task is preempted there and resumes through the
        # VIR_LOAD_W.
        ends = np.cumsum(straight_line_cycles(program, example_config, low.layer_config))
        system.submit(1, 0)
        system.submit(0, int(ends[insert_at - 2]))
        system.run(max_steps=100_000)
        recovered = [
            event.data["opcode"]
            for event in system.bus.of_kind(EventKind.VI_EXPAND)
            if event.data["phase"] == "recovery"
        ]
        assert "VIR_LOAD_W" in recovered
        assert len(system.iau.context(1).completed) == 1
        assert len(system.iau.context(0).completed) == 1


class TestMulticoreEquivalenceProperty:
    @settings(max_examples=10, deadline=None)
    @given(request=st.integers(0, 40_000))
    def test_one_core_multicore_equals_single_system(self, tiny_pair, request):
        from repro.multicore import MultiCoreSystem
        from repro.runtime import MultiTaskSystem

        low, high = tiny_pair

        single = MultiTaskSystem(low.config)
        single.add_task(0, high)
        single.add_task(1, low)
        single.submit(1, 0)
        single.submit(0, request)
        single_total = single.run()

        multi = MultiCoreSystem(low.config, num_cores=1)
        multi.add_task(0, high, core=0)
        multi.add_task(1, low, core=0)
        multi.submit(1, 0)
        multi.submit(0, request)
        multi_total = multi.run()
        assert multi_total == single_total


class TestProgramEdgeCases:
    def test_without_virtual_on_original(self, tiny_cnn_compiled):
        original = tiny_cnn_compiled.programs["none"]
        assert original.without_virtual().instructions == original.instructions

    def test_all_virtual_rejected(self):
        from repro.errors import ProgramError
        from repro.isa import Instruction, Opcode, Program

        program = Program(
            name="ghost",
            instructions=(Instruction(opcode=Opcode.VIR_BARRIER),),
        )
        with pytest.raises(ProgramError):
            program.without_virtual()

    def test_first_event_of_task(self, tiny_pair):
        from repro.runtime import MultiTaskSystem

        low, high = tiny_pair
        system = MultiTaskSystem(low.config, obs=ObsConfig(events=True))
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(1, 0)
        system.submit(0, 5_000)
        system.run()
        retires = system.bus.of_kind(EventKind.INSTR_RETIRE)
        first_high = next(event for event in retires if event.task_id == 0)
        assert first_high.cycle >= 5_000
        assert not any(event.task_id == 3 for event in retires)

    def test_layer_spans_ordered(self, tiny_pair):
        from repro.runtime import MultiTaskSystem

        low, _ = tiny_pair
        system = MultiTaskSystem(low.config, obs=ObsConfig(events=True))
        system.add_task(1, low)
        system.submit(1, 0)
        system.run()
        first_start: dict[int, int] = {}
        for event in system.bus.of_kind(EventKind.INSTR_RETIRE):
            first_start.setdefault(event.layer_id, event.cycle)
        starts = [start for _, start in sorted(first_start.items())]
        assert starts == sorted(starts)
