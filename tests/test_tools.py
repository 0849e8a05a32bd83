"""Developer tools: disassembler and timeline."""

import subprocess
import sys


from repro.obs import Event, EventBus, EventKind, ObsConfig
from repro.runtime import MultiTaskSystem
from repro.tools import (
    disassemble,
    format_instruction,
    layer_summary,
    render_timeline,
    utilisation_report,
)


class TestDisassembler:
    def test_lists_every_instruction(self, tiny_cnn_compiled):
        text = disassemble(tiny_cnn_compiled.program)
        body_lines = [line for line in text.splitlines() if not line.startswith(";")]
        assert len(body_lines) == len(tiny_cnn_compiled.program)

    def test_limit(self, tiny_cnn_compiled):
        text = disassemble(tiny_cnn_compiled.program, limit=5)
        assert "truncated" in text

    def test_layer_filter(self, tiny_cnn_compiled):
        text = disassemble(tiny_cnn_compiled.program, layer_id=0)
        assert " L0 " in text
        assert " L1 " not in text

    def test_interrupt_points_annotated(self, tiny_cnn_compiled):
        text = disassemble(tiny_cnn_compiled.program)
        assert "interrupt point" in text

    def test_layer_summary_covers_all_layers(self, tiny_cnn_compiled):
        text = layer_summary(tiny_cnn_compiled.program)
        for layer in tiny_cnn_compiled.layer_configs:
            assert f"layer {layer.layer_id:4d}" in text

    def test_format_marks_virtual(self, tiny_cnn_compiled):
        virtual = next(i for i in tiny_cnn_compiled.program if i.is_virtual)
        assert format_instruction(0, virtual).split()[1] == "*"

    def test_cli_runs(self, tiny_cnn_compiled, tmp_path):
        path = tiny_cnn_compiled.program.dump(tmp_path / "instruction.bin")
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.disasm", str(path), "--limit", "10"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "LOAD_D" in result.stdout

    def test_cli_summary(self, tiny_cnn_compiled, tmp_path):
        path = tiny_cnn_compiled.program.dump(tmp_path / "instruction.bin")
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.disasm", str(path), "--summary"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "instruction mix" in result.stdout


class TestTimeline:
    def make_trace(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config, obs=ObsConfig(events=True))
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(1, 0)
        system.submit(0, 5000)
        system.run()
        return system.bus

    def test_renders_both_tasks(self, tiny_pair):
        timeline = render_timeline(self.make_trace(tiny_pair), width=80)
        assert "task 0 |" in timeline and "task 1 |" in timeline

    def test_preemption_visible(self, tiny_pair):
        """The pre-empted task shows a '.' stretch where the other ran."""
        timeline = render_timeline(self.make_trace(tiny_pair), width=120)
        task1_row = next(
            line for line in timeline.splitlines() if line.startswith("task 1")
        )
        assert "." in task1_row

    def test_empty_trace(self):
        assert render_timeline([]) == "(empty trace)"
        assert render_timeline(EventBus()) == "(empty trace)"

    def test_utilisation_report(self, tiny_pair):
        report = utilisation_report(self.make_trace(tiny_pair))
        assert "task 0" in report and "task 1" in report and "idle" in report

    def test_glyphs_reflect_opcodes(self):
        trace = [
            Event(EventKind.INSTR_RETIRE, cycle, task_id=0, duration=50, data={"opcode": name})
            for cycle, name in ((0, "LOAD_D"), (50, "CALC_F"), (100, "SAVE"))
        ]
        timeline = render_timeline(trace, width=30)
        row = timeline.splitlines()[0]
        assert "L" in row and "C" in row and "S" in row


class TestNetworkReport:
    def test_sections_present(self, tiny_cnn_compiled):
        from repro.tools import network_report

        text = network_report(tiny_cnn_compiled)
        assert "runtime:" in text
        assert "interrupt response latency" in text
        assert "roofline" in text
        assert "energy" in text

    def test_cli_runs(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.tools.report",
                "--model",
                "tiny_cnn",
                "--config",
                "example",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "fps" in result.stdout

    def test_cli_rejects_unknown_model(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.report", "--model", "alexnet"],
            capture_output=True,
            text=True,
        )
        assert result.returncode != 0


class TestDarknet:
    def test_conv_count(self):
        from repro.zoo import build_darknet19

        assert len(build_darknet19().conv_layers()) == 18

    def test_with_head(self):
        from repro.nn import TensorShape
        from repro.zoo import build_darknet19

        graph = build_darknet19(TensorShape(224, 224, 3), include_head=True, num_classes=10)
        assert graph.output_shape == TensorShape(1, 1, 10)

    def test_compiles_and_is_bit_exact(self, example_config):
        import numpy as np

        from repro.accel.reference import golden_output
        from repro.accel.runner import run_program
        from repro.compiler import compile_network
        from repro.nn import TensorShape
        from repro.zoo import build_darknet19
        from tests.conftest import random_input

        graph = build_darknet19(TensorShape(32, 32, 3))
        compiled = compile_network(graph, example_config, weights="random", seed=30)
        data = random_input(compiled, seed=31)
        expected = golden_output(compiled, data)
        run_program(compiled, "vi", functional=True, input_map=data)
        assert np.array_equal(compiled.get_output(), expected)
