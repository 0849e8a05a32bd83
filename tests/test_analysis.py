"""Analysis: latency profiles (cross-validated against full simulation),
table formatting, and the experiment drivers on small workloads."""

import numpy as np
import pytest

from repro.accel.runner import run_program
from repro.analysis import (
    experiment_backup_vs_conv,
    experiment_degradation,
    experiment_instruction_table,
    experiment_interrupt_positions,
    experiment_latency_ratio,
    experiment_network_sweep,
    experiment_resource_table,
    experiment_t1_distribution,
    experiment_worked_example,
    instruction_cycles,
    layer_latency_profiles,
    response_at,
    whole_program_profile,
)
from repro.interrupt import (
    CPU_LIKE,
    LAYER_BY_LAYER,
    VIRTUAL_INSTRUCTION,
    measure_interrupt,
    run_alone,
)
from repro.tables import format_table, format_us


class TestInstructionCycles:
    def test_sums_to_runner_total(self, tiny_cnn_compiled):
        durations = instruction_cycles(tiny_cnn_compiled, "vi")
        total = int(np.sum(durations))
        simulated = run_program(tiny_cnn_compiled, "vi", functional=False).total_cycles
        assert total == simulated

    def test_every_instruction_positive(self, tiny_cnn_compiled):
        durations = instruction_cycles(tiny_cnn_compiled, "none")
        assert (durations > 0).all()

    def test_virtual_cost_is_fetch(self, tiny_cnn_compiled):
        program = tiny_cnn_compiled.programs["vi"]
        durations = instruction_cycles(tiny_cnn_compiled, "vi")
        fetch = tiny_cnn_compiled.config.instruction_fetch_cycles
        for index, instruction in enumerate(program):
            if instruction.is_virtual:
                assert durations[index] == fetch


class TestProfileCrossValidation:
    """The analytic profile must predict what the full IAU simulation does."""

    @pytest.mark.parametrize("method", [VIRTUAL_INSTRUCTION, LAYER_BY_LAYER, CPU_LIKE])
    def test_predicted_response_matches_simulation(self, tiny_pair, method):
        low, high = tiny_pair
        low_alone = run_alone(low, method)
        for fraction in (0.15, 0.45, 0.8):
            request = int(low_alone * fraction)
            predicted = response_at(low, method, request)
            measured = measure_interrupt(
                low, high, method, request, low_alone_cycles=low_alone
            ).response_cycles
            # The simulation adds small arbitration slack (fetches at the
            # switch boundary); allow a tight absolute tolerance.
            assert measured == pytest.approx(predicted, abs=200), (
                f"{method.name} at {fraction}"
            )

    def test_whole_program_profile_orders_methods(self, tiny_cnn_compiled):
        vi = whole_program_profile(tiny_cnn_compiled, VIRTUAL_INSTRUCTION)
        layer = whole_program_profile(tiny_cnn_compiled, LAYER_BY_LAYER)
        assert vi.mean_cycles < layer.mean_cycles
        assert vi.worst_cycles < layer.worst_cycles

    def test_layer_profiles_cover_conv_layers(self, tiny_cnn_compiled):
        profiles = layer_latency_profiles(
            tiny_cnn_compiled, VIRTUAL_INSTRUCTION, kinds=("conv",)
        )
        conv_names = {
            cfg.name for cfg in tiny_cnn_compiled.layer_configs if cfg.kind == "conv"
        }
        assert {profile.label for profile in profiles} == conv_names

    def test_profile_unit_helpers(self, tiny_cnn_compiled):
        profile = whole_program_profile(tiny_cnn_compiled, VIRTUAL_INSTRUCTION)
        assert profile.mean_us(tiny_cnn_compiled) == pytest.approx(
            profile.mean_cycles / 300, rel=1e-9
        )


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_us_scales(self):
        assert format_us(300, 300e6) == "1.0 us"
        assert format_us(600_000, 300e6) == "2.00 ms"


class TestExperiments:
    def test_e1_structure(self, tiny_pair):
        low, high = tiny_pair
        result = experiment_interrupt_positions(low, high, num_positions=3)
        assert len(result.positions) == 3
        assert result.mean_response_us("virtual-instruction") < result.mean_response_us(
            "layer-by-layer"
        )
        assert "E1" in result.format()

    def test_e2_vi_beats_layer(self, tiny_cnn_compiled):
        result = experiment_network_sweep([tiny_cnn_compiled])
        vi = result.row("tiny_cnn", tiny_cnn_compiled.config.name, "virtual-instruction")
        layer = result.row("tiny_cnn", tiny_cnn_compiled.config.name, "layer-by-layer")
        assert vi.mean_layer_latency_us < layer.mean_layer_latency_us
        assert result.reduction_orders("tiny_cnn", tiny_cnn_compiled.config.name) > 0

    def test_e2_unknown_row(self, tiny_cnn_compiled):
        result = experiment_network_sweep([tiny_cnn_compiled])
        with pytest.raises(KeyError):
            result.row("ghost", "x", "virtual-instruction")

    def test_e3_table_lists_all_opcodes(self):
        text = experiment_instruction_table()
        for name in ("LOAD_W", "LOAD_D", "CALC_I", "CALC_F", "SAVE"):
            assert name in text

    def test_e4_matches_paper(self):
        result = experiment_worked_example()
        assert result.analytic_ratio == pytest.approx(0.0167, abs=0.0005)
        assert "1.7" in result.format()

    def test_e5_reduction_below_paper_envelope(self, tiny_cnn_compiled):
        layer_name = tiny_cnn_compiled.layer_configs[0].name
        result = experiment_t1_distribution(tiny_cnn_compiled, layer_name)
        assert result.reduction() < 1.0

    def test_e6_rows_and_shape(self):
        result = experiment_backup_vs_conv()
        assert len(result.rows) == 5
        # First layer (3 input channels) has the worst backup/conv ratio.
        ratios = [row.ratio for row in result.rows]
        assert ratios[0] == max(ratios)
        # Deep 3x3 layers amortise the backup to a few percent.
        assert ratios[3] < 0.15

    def test_e6_conv_times_match_paper(self):
        from repro.analysis.experiments import E6_PAPER_VALUES

        result = experiment_backup_vs_conv()
        for row, (_, paper_conv) in zip(result.rows, E6_PAPER_VALUES):
            assert row.conv_us == pytest.approx(paper_conv, rel=0.2)

    def test_e7_iau_is_tiny(self):
        result = experiment_resource_table()
        assert result.iau_fraction_of_accelerator() < 0.04
        assert "IAU" in result.format()

    def test_e8_degradation_small_even_on_tiny_nets(self, tiny_cnn_compiled):
        result = experiment_degradation([tiny_cnn_compiled])
        assert result.worst_degradation() < 5.0
        assert "degradation" in result.format()

    def test_e9_ratio_below_one(self, tiny_cnn_compiled):
        result = experiment_latency_ratio(tiny_cnn_compiled)
        assert result.ratio_percent < 100.0
        assert "E9" in result.format()
