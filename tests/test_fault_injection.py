"""Fault injection: corrupted inputs fail loudly, never silently.

A simulator that silently mis-executes a corrupted instruction stream is
worse than useless — every corruption below must surface as a typed
exception from the validating layer that should catch it.
"""

import random

import numpy as np
import pytest

from repro.accel.core import AcceleratorCore
from repro.compiler.compile import compile_network
from repro.container import HEADER
from repro.errors import (
    CampaignError,
    EccError,
    ExecutionError,
    FaultError,
    GraphError,
    IauError,
    IsaError,
    MemoryMapError,
    ProgramError,
    SchedulerError,
)
from repro.faults import DeadlineMissed, DegradationPolicy, FaultPlan, FaultSite
from repro.faults.campaign import RunOutcome, make_preemption_scenario, run_campaign
from repro.isa import Opcode, Program, validate_program
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.nn.prototxt import parse_prototxt
from repro.obs.config import ObsConfig
from repro.ros.executor import Executor
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem
from repro.zoo import build_tiny_cnn
from tests.conformance import NAMED, Cell, build, check


@pytest.fixture(scope="module")
def preemption_scenario():
    """The stock campaign workload (compiled once for this module)."""
    return make_preemption_scenario()


class TestCorruptedBinaries:
    def test_bitflip_in_opcode_caught(self, tiny_cnn_compiled):
        blob = bytearray(tiny_cnn_compiled.program.to_bytes())
        blob[HEADER.size] ^= 0xF0  # first instruction's opcode byte
        with pytest.raises((ProgramError, IsaError)):
            Program.from_bytes(bytes(blob))

    def test_truncated_stream_caught(self, tiny_cnn_compiled):
        blob = tiny_cnn_compiled.program.to_bytes()
        with pytest.raises(ProgramError):
            Program.from_bytes(blob[: len(blob) - INSTRUCTION_BYTES // 2])

    def test_swapped_instructions_caught_by_validator(self, tiny_cnn_compiled):
        """Swapping a CALC_F with its preceding LOAD breaks blob structure
        somewhere the validator checks."""
        instructions = list(tiny_cnn_compiled.programs["none"].instructions)
        calc_i_positions = [
            index for index, ins in enumerate(instructions) if ins.opcode == Opcode.CALC_I
        ]
        position = calc_i_positions[0]
        # Move the CALC_I after its CALC_F: the blob never opens correctly.
        block = instructions[position : position + 2]
        instructions[position : position + 2] = block[::-1]
        with pytest.raises(ProgramError):
            validate_program(Program(name="swapped", instructions=tuple(instructions)))

    def test_wrong_layer_order_caught(self, tiny_cnn_compiled):
        instructions = list(tiny_cnn_compiled.programs["none"].instructions)
        instructions.append(instructions[0])  # layer 0 after the last layer
        with pytest.raises(ProgramError):
            validate_program(Program(name="disordered", instructions=tuple(instructions)))


class TestRuntimeFaults:
    def test_unmapped_ddr_address_caught(self, tiny_conv_compiled):
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr
        )
        layer = tiny_conv_compiled.layer_configs[0]
        from repro.hw.ddr import Ddr

        empty = Ddr()
        rogue_core = AcceleratorCore(tiny_conv_compiled.config, empty)
        load = next(
            ins for ins in tiny_conv_compiled.programs["none"] if ins.opcode == Opcode.LOAD_D
        )
        with pytest.raises(MemoryMapError):
            rogue_core.execute(load, layer)

    def test_skipping_a_load_detected_at_calc(self, tiny_cnn_compiled):
        """Dropping a LOAD_D corrupts the blob's inputs — the coverage check
        refuses to compute on stale data."""
        program = tiny_cnn_compiled.programs["none"]
        core = AcceleratorCore(
            tiny_cnn_compiled.config, tiny_cnn_compiled.layout.ddr, obs=ObsConfig()
        )
        dropped_one = False
        with pytest.raises(ExecutionError):
            for instruction in program:
                if not dropped_one and instruction.opcode == Opcode.LOAD_D:
                    dropped_one = True
                    continue
                core.execute(
                    instruction, tiny_cnn_compiled.layer_config(instruction.layer_id)
                )

    def test_double_calc_f_detected_at_save(self, tiny_conv_compiled):
        """Replaying a CALC_F would double-fill the output section; the
        SAVE coverage check or the buffer bound trips."""
        program = tiny_conv_compiled.programs["none"]
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        with pytest.raises(ExecutionError):
            for instruction in program:
                core.execute(
                    instruction, tiny_conv_compiled.layer_config(instruction.layer_id)
                )
                if instruction.opcode == Opcode.CALC_F:
                    core.execute(
                        instruction, tiny_conv_compiled.layer_config(instruction.layer_id)
                    )

    def test_save_with_wrong_rows_detected(self, tiny_conv_compiled):
        program = tiny_conv_compiled.programs["none"]
        core = AcceleratorCore(
            tiny_conv_compiled.config, tiny_conv_compiled.layout.ddr, obs=ObsConfig()
        )
        from dataclasses import replace

        with pytest.raises(ExecutionError):
            for instruction in program:
                if instruction.opcode == Opcode.SAVE:
                    instruction = replace(instruction, row0=instruction.row0 + 1)
                core.execute(
                    instruction, tiny_conv_compiled.layer_config(instruction.layer_id)
                )


class TestIauFaults:
    def test_double_finish_rejected(self, tiny_pair):
        from repro.iau.context import TaskContext

        low, _ = tiny_pair
        context = TaskContext(task_id=0, compiled=low, program=low.program)
        with pytest.raises(IauError):
            context.finish_job(0)

    def test_begin_without_queue_rejected(self, tiny_pair):
        from repro.iau.context import TaskContext

        low, _ = tiny_pair
        context = TaskContext(task_id=0, compiled=low, program=low.program)
        with pytest.raises(IauError):
            context.begin_next_job()

    def test_runaway_guard(self, tiny_pair, example_config):
        """The run loop's step bound trips instead of hanging."""
        low, _ = tiny_pair
        system = MultiTaskSystem(example_config)
        system.add_task(0, low)
        system.submit(0)
        with pytest.raises(SchedulerError):
            system.run(max_steps=3, batched=False)


class TestQuantFaults:
    def test_non_contiguous_weight_shape_caught(self):
        from repro.quant import conv2d

        data = np.zeros((4, 4, 3), dtype=np.int8)
        with pytest.raises(Exception):
            conv2d(data, np.zeros((3, 3, 3), dtype=np.int8), None, (1, 1), (1, 1), 0, False)


class TestFuzzedBinaries:
    """Seeded byte-corruption fuzz: a mutated blob must never decode silently."""

    def test_roundtrip_is_bit_exact(self, tiny_cnn_compiled):
        blob = tiny_cnn_compiled.program.to_bytes()
        restored = Program.from_bytes(blob, name="roundtrip")
        assert restored.instructions == tiny_cnn_compiled.program.instructions

    def test_mutated_blobs_always_rejected(self, tiny_cnn_compiled):
        pristine = tiny_cnn_compiled.program.to_bytes()
        rng = random.Random(0xFAB)
        for _ in range(400):
            blob = bytearray(pristine)
            for _ in range(rng.randint(1, 4)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            if bytes(blob) == pristine:
                continue
            with pytest.raises((ProgramError, IsaError)):
                validate_program(Program.from_bytes(bytes(blob)))

    def test_random_garbage_rejected(self):
        rng = random.Random(7)
        for _ in range(200):
            blob = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 256)))
            with pytest.raises(ProgramError):
                Program.from_bytes(blob)


class TestFaultPlanDeterminism:
    def test_same_seed_same_fault_sequence(self):
        rates = {site: 0.5 for site in FaultSite}
        first = FaultPlan(seed=42, rates=rates)
        second = FaultPlan(seed=42, rates=rates)
        draws = [(site, index) for site in FaultSite for index in range(50)]
        assert [first.fires(site) for site, _ in draws] == [
            second.fires(site) for site, _ in draws
        ]

    def test_sites_use_independent_streams(self):
        """Extra draws at one site never perturb another site's stream."""
        rates = {FaultSite.DDR_BIT_FLIP: 0.5, FaultSite.ROS_DROP: 0.5}
        lone = FaultPlan(seed=9, rates=rates)
        expected = [lone.fires(FaultSite.ROS_DROP) for _ in range(64)]
        mixed = FaultPlan(seed=9, rates=rates)
        observed = []
        for _ in range(64):
            mixed.fires(FaultSite.DDR_BIT_FLIP)
            observed.append(mixed.fires(FaultSite.ROS_DROP))
        assert observed == expected

    def test_string_site_names_accepted(self):
        plan = FaultPlan(rates={"ddr.bit_flip": 1.0})
        assert plan.rate(FaultSite.DDR_BIT_FLIP) == 1.0

    def test_validation(self):
        with pytest.raises(FaultError):
            FaultPlan(rates={FaultSite.ROS_DROP: 1.5})
        with pytest.raises(FaultError):
            FaultPlan(rates={"not.a.site": 0.1})
        with pytest.raises(FaultError):
            FaultPlan(uncorrectable_share=2.0)
        with pytest.raises(FaultError):
            FaultPlan(overrun_cycles=0)
        with pytest.raises(FaultError):
            DegradationPolicy(max_pending=0)


def _single_task_run(compiled, plan, data):
    system = MultiTaskSystem(
        compiled.config, obs=ObsConfig(events=True, functional=True), faults=plan
    )
    system.add_task(0, compiled)
    compiled.set_input(data)
    system.submit(0, 0)
    cycles = system.run()
    return system, cycles


class TestDdrEcc:
    """SECDED model: correctable flips never change outputs; uncorrectable raise."""

    @staticmethod
    def _input(compiled, fill):
        shape = compiled.graph.input_shape
        return np.full(
            (shape.height, shape.width, shape.channels), fill, dtype=np.int8
        )

    def test_correctable_flips_do_not_change_outputs(self, example_config):
        # Function-local compile: injected faults must never touch the
        # session-scoped networks other tests share.
        compiled = compile_network(
            build_tiny_cnn(), example_config, weights="random", seed=11
        )
        data = self._input(compiled, 3)
        _, golden_cycles = _single_task_run(compiled, None, data)
        golden = compiled.get_output().copy()
        plan = FaultPlan(seed=1, rates={FaultSite.DDR_BIT_FLIP: 0.5})
        system, _ = _single_task_run(compiled, plan, data)
        assert plan.count(FaultSite.DDR_BIT_FLIP) > 0
        assert system.ddr.pending_flip_count == 0  # every flip scrubbed
        assert np.array_equal(compiled.get_output(), golden)
        assert "Faults:" in system.summary()

    def test_uncorrectable_flip_raises_typed_error(self, example_config):
        compiled = compile_network(
            build_tiny_cnn(), example_config, weights="random", seed=11
        )
        plan = FaultPlan(
            seed=1, rates={FaultSite.DDR_BIT_FLIP: 0.5}, uncorrectable_share=1.0
        )
        with pytest.raises(EccError):
            _single_task_run(compiled, plan, self._input(compiled, 3))

    def test_stalled_bursts_cost_cycles_not_correctness(self, example_config):
        compiled = compile_network(
            build_tiny_cnn(), example_config, weights="random", seed=13
        )
        data = self._input(compiled, -2)
        _, golden_cycles = _single_task_run(compiled, None, data)
        golden = compiled.get_output().copy()
        plan = FaultPlan(seed=2, rates={FaultSite.DDR_STALL: 0.5}, ddr_stall_cycles=300)
        _, cycles = _single_task_run(compiled, plan, data)
        assert plan.count(FaultSite.DDR_STALL) > 0
        assert cycles > golden_cycles
        assert np.array_equal(compiled.get_output(), golden)


class TestCheckpointRecovery:
    def test_corrupted_checkpoint_detected_and_rolled_back(self, preemption_scenario):
        golden = preemption_scenario(None)
        plan = FaultPlan(seed=5, rates={FaultSite.CHECKPOINT_CORRUPT: 1.0})
        result = preemption_scenario(plan)
        assert plan.count(FaultSite.CHECKPOINT_CORRUPT) >= 1
        kinds = [event.kind.value for event in result.events]
        assert "fault_detect" in kinds
        assert "fault_recover" in kinds
        rollbacks = [
            event
            for event in result.events
            if event.kind.value == "fault_recover"
            and event.data.get("action") == "rollback"
        ]
        assert rollbacks
        for name, expected in golden.outputs.items():
            assert np.array_equal(expected, result.outputs[name])
        # The recovery window (re-executed section) is visible in the clock.
        assert result.final_cycle > golden.final_cycle

    def test_fault_free_plan_is_cycle_exact(self, preemption_scenario):
        golden = preemption_scenario(None)
        zero_rate = preemption_scenario(FaultPlan(seed=0, rates={}))
        assert zero_rate.final_cycle == golden.final_cycle
        for name, expected in golden.outputs.items():
            assert np.array_equal(expected, zero_rate.outputs[name])


class TestWatchdog:
    def test_overrun_trips_deadline_watchdog(self, example_config):
        compiled = compile_network(
            build_tiny_cnn(), example_config, weights="random", seed=12
        )
        plan = FaultPlan(
            seed=3, rates={FaultSite.JOB_OVERRUN: 1.0}, overrun_cycles=50_000
        )
        system = MultiTaskSystem(
            example_config, obs=ObsConfig(events=True), faults=plan
        )
        system.add_task(0, compiled, deadline_cycles=10_000)
        system.submit(0, 0)
        system.run()
        job = system.job(0)
        assert isinstance(job.outcome, DeadlineMissed)
        assert job.outcome.overrun_cycles > 0
        kinds = [event.kind.value for event in system.bus.events]
        assert "deadline_miss" in kinds

    def test_met_deadline_leaves_outcome_clear(self, example_config):
        compiled = compile_network(
            build_tiny_cnn(), example_config, weights="random", seed=12
        )
        system = MultiTaskSystem(example_config, obs=ObsConfig(events=True))
        system.add_task(0, compiled, deadline_cycles=10_000_000)
        system.submit(0, 0)
        system.run()
        assert system.job(0).outcome is None


class TestDegradation:
    def test_overload_sheds_low_priority_requests(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(
            low.config,
            obs=ObsConfig(events=True),
            degradation=DegradationPolicy(max_pending=1),
        )
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(
            1, 0, policy=ArrivalPolicy.PERIODIC, period_cycles=100, count=8
        )
        system.run()
        assert system.shed[1] > 0
        assert system.shed[1] + len(system.jobs(1)) == 8
        assert system.shed[0] == 0  # priority 0 is never degraded
        actions = [
            event.data["action"]
            for event in system.bus.events
            if event.kind.value == "job_degraded"
        ]
        assert "shed" in actions

    def test_backlog_downtiers_low_priority_jobs(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(
            low.config,
            obs=ObsConfig(events=True),
            degradation=DegradationPolicy(max_pending=8, downtier_pending=2),
        )
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(
            1, 0, policy=ArrivalPolicy.PERIODIC, period_cycles=100, count=6
        )
        system.run()
        assert system.shed[1] == 0
        assert any(job.degraded for job in system.jobs(1))
        actions = [
            event.data["action"]
            for event in system.bus.events
            if event.kind.value == "job_degraded"
        ]
        assert "downtier" in actions


class TestRosFaults:
    def test_dropped_message_never_delivered(self):
        plan = FaultPlan(seed=0, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan)
        received = []
        executor.subscribe("scan", received.append)
        executor.schedule(0, lambda: executor.publish("scan", "m0"))
        executor.run()
        assert received == []
        assert plan.count(FaultSite.ROS_DROP) == 1

    def test_delayed_message_arrives_late(self):
        plan = FaultPlan(
            seed=0, rates={FaultSite.ROS_DELAY: 1.0}, ros_delay_cycles=500
        )
        executor = Executor(faults=plan)
        stamps = []
        executor.subscribe("scan", lambda message: stamps.append(executor.clock))
        executor.schedule(100, lambda: executor.publish("scan", "m0"))
        executor.run()
        assert stamps == [600]
        assert plan.count(FaultSite.ROS_DELAY) == 1


class TestCampaign:
    def test_small_campaign_has_zero_silent_corruption(self, preemption_scenario):
        from repro.obs.metrics import Metrics

        metrics = Metrics()
        report = run_campaign(
            preemption_scenario, runs=12, base_seed=100, metrics=metrics
        )
        assert report.num_runs == 12
        assert report.count(RunOutcome.SILENT_CORRUPTION) == 0
        assert report.total_injected > 0
        assert report.sites_covered()
        assert metrics.counter_total("campaign_runs") == 12
        assert "12 runs" in report.format()

    def test_campaign_rejects_zero_runs(self, preemption_scenario):
        with pytest.raises(CampaignError):
            run_campaign(preemption_scenario, runs=0)


class TestPrototxtRobustness:
    """Parser leak regressions: malformed text must raise GraphError, not
    a raw ValueError/IndexError."""

    def test_malformed_integer_is_typed(self):
        text = 'input: "data"\ninput_dim: 1\ninput_dim: banana\ninput_dim: 8\ninput_dim: 8\n'
        with pytest.raises(GraphError):
            parse_prototxt(text)

    def test_relu_without_bottom_is_typed(self):
        text = (
            'input: "data" input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8\n'
            'layer { name: "r" type: "ReLU" top: "r" }\n'
        )
        with pytest.raises(GraphError):
            parse_prototxt(text)

    def test_layer_without_bottom_is_typed(self):
        text = (
            'input: "data" input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8\n'
            'layer { name: "c" type: "Convolution" top: "c"\n'
            "  convolution_param { num_output: 4 kernel_size: 3 pad: 1 stride: 1 } }\n"
        )
        with pytest.raises(GraphError):
            parse_prototxt(text)


class TestCheckpointRetryAccounting:
    """The retry count is typed everywhere it surfaces: the bus event, the
    job record, and the terminal CheckpointError."""

    def test_retry_events_carry_attempt_and_budget(self, preemption_scenario):
        plan = FaultPlan(seed=5, rates={FaultSite.CHECKPOINT_CORRUPT: 1.0})
        result = preemption_scenario(plan)
        retries = [
            event
            for event in result.events
            if event.kind.value == "checkpoint_retry"
        ]
        assert retries, "a corrupted checkpoint must emit CHECKPOINT_RETRY"
        for event in retries:
            assert event.data["attempt"] >= 1
            assert event.data["budget"] == plan.max_checkpoint_retries
            assert "program_index" in event.data

    def test_job_record_keeps_the_retry_count(self, tiny_pair):
        cnn, residual = tiny_pair
        plan = FaultPlan(seed=5, rates={FaultSite.CHECKPOINT_CORRUPT: 1.0})
        system = MultiTaskSystem(
            cnn.config, obs=ObsConfig(events=True), faults=plan
        )
        system.add_task(0, cnn)
        system.add_task(1, residual)
        system.submit(1, 0)
        system.submit(0, 8_000)  # preempts at a VIR_SAVE -> corrupt -> retry
        system.run()
        retried = [
            event
            for event in system.bus.events
            if event.kind.value == "checkpoint_retry"
        ]
        assert retried
        max_attempt = max(event.data["attempt"] for event in retried)
        assert system.job(1).checkpoint_retries == max_attempt

    def test_checkpoint_error_reports_attempts(self):
        from repro.errors import CheckpointError

        error = CheckpointError("checkpoint died", attempts=3)
        assert error.attempts == 3
        assert CheckpointError("legacy call").attempts == 0


class TestSnapshotUnderFaults:
    """Serving-layer snapshots of a fully armed system (faults + QoS +
    obs) restore into a *fresh* system and finish equal to the stepped
    golden run (the snapshot conformance cells), and fit only an
    identically armed system."""

    def test_armed_restore_is_bit_exact(self):
        pickled, _disk = NAMED["snapshot"]
        check(pickled)

    def test_armed_restore_round_trips_through_disk(self):
        _pickled, disk = NAMED["snapshot"]
        check(disk)

    def test_restore_refuses_differently_armed_system(self, example_config, tiny_pair):
        armed = build(Cell("runtime", armed="all", seed=11, workload="snapshot")).systems[0]
        armed.run(until_cycle=10_000)
        state = armed.capture_state()

        low, high = tiny_pair
        disarmed = MultiTaskSystem(
            example_config, obs=ObsConfig(events=True, metrics=True)
        )
        disarmed.add_task(0, high)
        disarmed.add_task(1, low)
        with pytest.raises(SchedulerError, match="snapshot"):
            disarmed.restore_state(state)
