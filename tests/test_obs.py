"""Observability layer: event bus, ObsConfig, spans, metrics, exporters,
and the v2.0 removal surface (no deprecated booleans or submit wrappers)."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.accel.runner import run_program
from repro.errors import SchedulerError
from repro.multicore.system import MultiCoreSystem
from repro.obs import (
    CallbackSink,
    EventBus,
    EventKind,
    ListSink,
    NullSink,
    ObsConfig,
    job_spans,
    read_jsonl,
    ros_spans,
    summarize,
    write_jsonl,
)
from repro.ros.executor import Executor
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem
from repro.tools.chrome_trace import write_chrome_trace


# With tiny_pair, a request at this cycle lands on a VIR_LOAD switch point,
# so the pre-emption produces both a backup and a recovery expansion.
PREEMPT_AT = 12_000


def preempting_system(tiny_pair, **obs_kwargs) -> MultiTaskSystem:
    """Two-task run where task 0 pre-empts task 1 mid-inference."""
    low, high = tiny_pair
    system = MultiTaskSystem(low.config, obs=ObsConfig(**obs_kwargs))
    system.add_task(0, high)
    system.add_task(1, low)
    system.submit(1, at_cycle=0)
    system.submit(0, at_cycle=PREEMPT_AT)
    system.run()
    return system


class TestEventBus:
    def test_emit_stamps_at_bus_clock_by_default(self):
        bus = EventBus()
        bus.advance(40)
        event = bus.emit(EventKind.JOB_SUBMIT, task_id=1)
        assert event.cycle == 40

    def test_explicit_cycle_advances_the_clock(self):
        bus = EventBus()
        bus.emit(EventKind.INSTR_RETIRE, cycle=100, task_id=0)
        assert bus.cycle == 100

    def test_advance_never_moves_backwards(self):
        bus = EventBus()
        bus.advance(50)
        bus.advance(10)
        assert bus.cycle == 50

    def test_events_record_in_emission_order(self):
        bus = EventBus()
        for cycle in (5, 5, 9, 30):
            bus.emit(EventKind.DDR_BURST, cycle=cycle)
        assert [event.cycle for event in bus.events] == [5, 5, 9, 30]

    def test_record_false_keeps_no_history(self):
        bus = EventBus(record=False)
        bus.emit(EventKind.JOB_SUBMIT, task_id=0)
        assert len(bus) == 0

    def test_sinks_receive_every_event(self):
        sink = ListSink()
        seen = []
        bus = EventBus(sinks=(sink,))
        bus.attach(CallbackSink(seen.append))
        bus.emit(EventKind.JOB_SUBMIT, task_id=0)
        bus.emit(EventKind.JOB_COMPLETE, task_id=0)
        assert len(sink.events) == 2 and len(seen) == 2

    def test_detach_stops_delivery(self):
        sink = ListSink()
        bus = EventBus()
        bus.attach(sink)
        bus.emit(EventKind.JOB_SUBMIT)
        bus.detach(sink)
        bus.emit(EventKind.JOB_SUBMIT)
        assert len(sink.events) == 1

    def test_queries(self):
        bus = EventBus()
        bus.emit(EventKind.JOB_SUBMIT, task_id=0)
        bus.emit(EventKind.JOB_SUBMIT, task_id=1)
        bus.emit(EventKind.JOB_COMPLETE, task_id=1)
        assert len(bus.of_kind(EventKind.JOB_SUBMIT)) == 2
        assert len(bus.for_task(1)) == 2


class TestObsConfig:
    def test_disabled_by_default(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiTaskSystem(low.config)
        assert system.bus is None and system.metrics is None

    def test_obs_keyword_emits_no_warning(self, tiny_pair):
        low, _ = tiny_pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MultiTaskSystem(low.config, obs=ObsConfig(events=True))

    def test_functional_via_obsconfig(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiTaskSystem(low.config, obs=ObsConfig(functional=True))
        assert system.obs.functional is True
        assert system.bus is None

    def test_boolean_flags_removed_in_v2(self, tiny_pair):
        # The pre-2.0 functional=/trace= constructor booleans are gone, not
        # silently accepted.
        low, _ = tiny_pair
        with pytest.raises(TypeError):
            MultiTaskSystem(low.config, functional=True)
        with pytest.raises(TypeError):
            MultiTaskSystem(low.config, trace=True)
        with pytest.raises(TypeError):  # nor is there an ObsConfig flag for it
            ObsConfig(trace=True)
        with pytest.raises(TypeError):
            MultiCoreSystem(low.config, num_cores=1, functional=True)

    def test_core_obsconfig_controls_functional(self, tiny_pair):
        from repro.accel.core import AcceleratorCore

        low, _ = tiny_pair
        core = AcceleratorCore(low.config, low.layout.ddr, obs=ObsConfig())
        assert core.functional is False
        # A bare core keeps its historic functional default.
        bare = AcceleratorCore(low.config, low.layout.ddr)
        assert bare.functional is True

    def test_full_and_off(self):
        assert ObsConfig.full().enabled
        assert not ObsConfig.off().enabled
        assert ObsConfig(sinks=(NullSink(),)).enabled


class TestInstrumentedPreemption:
    @pytest.fixture(scope="class")
    def system(self, tiny_pair):
        return preempting_system(tiny_pair, events=True, metrics=True)

    def test_cycle_stamps_are_monotone(self, system):
        cycles = [event.cycle for event in system.bus.events]
        assert cycles == sorted(cycles)

    def test_preemption_and_vi_events_present(self, system):
        kinds = {event.kind for event in system.bus.events}
        assert EventKind.PREEMPT_BEGIN in kinds
        assert EventKind.PREEMPT_END in kinds
        assert EventKind.VI_EXPAND in kinds
        phases = {
            event.data["phase"] for event in system.bus.of_kind(EventKind.VI_EXPAND)
        }
        assert phases == {"backup", "recovery"}

    def test_job_lifecycle_events(self, system):
        for kind in (EventKind.JOB_SUBMIT, EventKind.JOB_START, EventKind.JOB_COMPLETE):
            assert len(system.bus.of_kind(kind)) == 2
        complete = system.bus.of_kind(EventKind.JOB_COMPLETE)
        for event, task in zip(sorted(complete, key=lambda e: e.task_id), (0, 1)):
            job = system.job(task)
            assert event.data["response_cycles"] == job.response_cycles
            assert event.data["turnaround_cycles"] == job.turnaround_cycles

    def test_ddr_bursts_recorded(self, system):
        bursts = system.bus.of_kind(EventKind.DDR_BURST)
        assert bursts and {event.data["direction"] for event in bursts} == {
            "load",
            "save",
        }

    def test_spans_nest_preemption_and_vi(self, system):
        spans = system.spans(1)
        assert len(spans) == 1
        job = spans[0]
        assert job.name == "task1/job0"
        assert job.find("layer"), "per-layer child spans expected"
        assert job.find("preemption"), "the pre-emption window should nest in the job"
        assert job.find("vi"), "VI backup/recovery children expected"
        preemption = job.find("preemption")[0]
        assert job.start_cycle <= preemption.start_cycle <= preemption.end_cycle
        assert "task1/job0" in job.format()

    def test_spans_match_job_records(self, system):
        span = system.spans(0)[0]
        job = system.job(0)
        assert span.end_cycle == job.complete_cycle

    def test_metrics_registry(self, system):
        metrics = system.metrics
        assert metrics.counter_total("jobs") == 2
        assert metrics.counter_total("preemptions") >= 1
        assert metrics.counter_total("instructions", task=1) > 0
        assert metrics.counter_total("vi_expansions") >= 2
        response = metrics.histogram("response_cycles", task=0)
        assert response.count == 1
        assert response.values[0] == system.job(0).response_cycles

    def test_chrome_trace_export(self, system, tmp_path):
        path = write_chrome_trace(
            system.bus, system.config.clock, tmp_path / "trace.json"
        )
        payload = json.loads(path.read_text())
        names = {entry["name"] for entry in payload["traceEvents"]}
        assert "preempt_begin" in names and "preempt_end" in names
        assert "vi_expand" in names
        assert any(entry["ph"] == "X" for entry in payload["traceEvents"])

    def test_jsonl_round_trip(self, system, tmp_path):
        path = write_jsonl(system.bus.events, tmp_path / "events.jsonl")
        rows = read_jsonl(path)
        assert len(rows) == len(system.bus)
        assert rows[0]["kind"] == system.bus.events[0].kind.value

    def test_summary_table(self, system):
        text = system.summary()
        assert "task" in text and "0" in text and "1" in text
        assert summarize(system.bus.events) == text

    def test_summary_of_a_system_says_how_dispatch_went(self, system):
        """``Iau.dispatch_counts`` never rides the bus: the line appears only
        when the source has an ``iau``, and accounts for every instruction."""
        counts = system.iau.dispatch_counts
        assert counts["batched"] > 0
        reasons = sum(
            count for key, count in counts.items()
            if not key.startswith("instr_") and key != "stalls_batched"
        )
        line = summarize(system).splitlines()[-1]
        assert line.startswith(
            f"Dispatch: {counts['instr_batched']} instr batched, "
            f"{counts['instr_stepped']} stepped; {reasons} run_batched call(s): "
        )
        assert f"batched {counts['batched']}" in line and "functional" not in line
        assert summarize(system).rsplit("\n", 1)[0] == system.summary()
        programs = sum(len(system.iau.context(task).program) for task in (0, 1))
        # Every instruction retired one way or the other; the VIR_LOAD the
        # pre-emption landed on is fetched twice (expanded, then replayed).
        assert counts["instr_batched"] + counts["instr_stepped"] == programs + 1

    def test_spans_require_events(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiTaskSystem(low.config)
        with pytest.raises(SchedulerError, match="no events recorded"):
            system.spans(0)
        with pytest.raises(SchedulerError, match="no events recorded"):
            system.summary()


class TestDisabledPathExactness:
    def test_null_sink_run_matches_uninstrumented_cycles(self, tiny_pair):
        low, high = tiny_pair

        def final_clock(**obs_kwargs) -> int:
            low_, high_ = tiny_pair
            if obs_kwargs:
                system = MultiTaskSystem(low_.config, obs=ObsConfig(**obs_kwargs))
            else:
                system = MultiTaskSystem(low_.config)
            system.add_task(0, high_)
            system.add_task(1, low_)
            system.submit(1, at_cycle=0)
            system.submit(0, at_cycle=PREEMPT_AT)
            return system.run()

        baseline = final_clock()
        assert final_clock(sinks=(NullSink(),)) == baseline
        assert final_clock(events=True, metrics=True) == baseline

    def test_runner_bus_does_not_change_cycles(self, tiny_cnn_compiled):
        baseline = run_program(tiny_cnn_compiled, "vi", functional=False)
        bus = EventBus()
        observed = run_program(tiny_cnn_compiled, "vi", functional=False, bus=bus)
        assert observed.total_cycles == baseline.total_cycles
        retires = bus.of_kind(EventKind.INSTR_RETIRE)
        assert len(retires) == observed.instructions
        assert bus.of_kind(EventKind.DDR_BURST)


class TestSubmitApi:
    def make_system(self, tiny_pair) -> MultiTaskSystem:
        low, _ = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, low)
        return system

    def test_now_if_free_accepts_then_rejects(self, tiny_pair):
        system = self.make_system(tiny_pair)
        assert system.submit(0, policy=ArrivalPolicy.NOW_IF_FREE) is True
        assert system.submit(0, policy=ArrivalPolicy.NOW_IF_FREE) is False
        system.run()
        assert len(system.jobs(0)) == 1

    def test_periodic_schedules_count_requests(self, tiny_pair):
        system = self.make_system(tiny_pair)
        system.submit(0, policy=ArrivalPolicy.PERIODIC, period_cycles=60_000, count=3)
        system.run()
        assert len(system.jobs(0)) == 3

    def test_periodic_requires_period_and_count(self, tiny_pair):
        system = self.make_system(tiny_pair)
        with pytest.raises(SchedulerError, match="PERIODIC"):
            system.submit(0, policy=ArrivalPolicy.PERIODIC)
        with pytest.raises(SchedulerError, match="positive"):
            system.submit(0, policy=ArrivalPolicy.PERIODIC, period_cycles=0, count=1)

    def test_at_rejects_periodic_arguments(self, tiny_pair):
        system = self.make_system(tiny_pair)
        with pytest.raises(SchedulerError, match="PERIODIC"):
            system.submit(0, period_cycles=100, count=2)

    def test_submit_wrappers_removed_in_v2(self, tiny_pair):
        system = self.make_system(tiny_pair)
        assert not hasattr(system, "submit_if_free")
        assert not hasattr(system, "submit_periodic")
        low, _ = tiny_pair
        multicore = MultiCoreSystem(low.config, num_cores=1)
        assert not hasattr(multicore, "submit_periodic")

    def test_multicore_periodic(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiCoreSystem(low.config, num_cores=1)
        system.add_task(0, low, core=0)
        system.submit(0, policy=ArrivalPolicy.PERIODIC, period_cycles=60_000, count=2)
        system.submit(0, 30_000, policy=ArrivalPolicy.PERIODIC, period_cycles=60_000, count=1)
        system.run()
        assert len(system.jobs(0)) == 3

    def test_multicore_now_if_free_parity(self, tiny_pair):
        # v2.0 parity: the multi-core dispatcher supports the same
        # NOW_IF_FREE discipline as the single-core system.
        low, _ = tiny_pair
        system = MultiCoreSystem(low.config, num_cores=1)
        system.add_task(0, low, core=0)
        assert system.submit(0, policy=ArrivalPolicy.NOW_IF_FREE) is True
        assert system.submit(0, policy=ArrivalPolicy.NOW_IF_FREE) is False
        system.run()
        assert len(system.jobs(0)) == 1
        # Drained again: the task is free once more.
        assert system.submit(0, policy=ArrivalPolicy.NOW_IF_FREE) is True


class TestRosEvents:
    def test_publish_and_deliveries_on_the_bus(self):
        bus = EventBus()
        executor = Executor(bus=bus)
        received = []
        executor.subscribe("scan", received.append)
        executor.subscribe("scan", received.append)
        executor.schedule(100, lambda: executor.publish("scan", {"n": 1}))
        executor.run()
        publishes = bus.of_kind(EventKind.ROS_PUBLISH)
        delivers = bus.of_kind(EventKind.ROS_DELIVER)
        assert len(publishes) == 1 and publishes[0].data["subscribers"] == 2
        assert len(delivers) == 2 and len(received) == 2
        assert publishes[0].cycle == 100
        spans = ros_spans(bus)
        assert len(spans) == 1 and len(spans[0].children) == 2

    def test_executor_adopts_system_bus(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiTaskSystem(low.config, obs=ObsConfig(events=True))
        executor = Executor(system)
        assert executor.bus is system.bus


class TestMulticoreObservability:
    def test_shared_bus_tags_core_scope(self, tiny_pair):
        low, high = tiny_pair
        system = MultiCoreSystem(
            low.config, num_cores=2, obs=ObsConfig(events=True)
        )
        system.add_task(0, high, core=0)
        system.add_task(1, low, core=1)
        system.submit(0, 0)
        system.submit(1, 0)
        system.run()
        scopes = {
            event.data.get("scope")
            for event in system.bus.of_kind(EventKind.INSTR_RETIRE)
        }
        assert scopes == {"core0", "core1"}
        assert "task" in system.summary()

    def test_multicore_functional_via_obsconfig(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiCoreSystem(low.config, num_cores=1, obs=ObsConfig(functional=True))
        assert system.obs.functional is True


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in (
            "EventBus",
            "Metrics",
            "ObsConfig",
            "summarize",
            "ArrivalPolicy",
            "FaultPlan",
            "FaultSite",
            "DegradationPolicy",
            "DeadlineMissed",
            "run_campaign",
            "FaultError",
            "CheckpointError",
            "EccError",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_job_spans_accepts_plain_event_lists(self, tiny_pair):
        system = preempting_system(tiny_pair, events=True)
        assert job_spans(list(system.bus.events)) == job_spans(system.bus)
