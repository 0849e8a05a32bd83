"""QoS layer: admission control, EDF tie-break, ROS backpressure, monitor.

Covers the four admission policies, slack-based admission against the static
cycle estimate, deadline-aware arbitration, the backpressured publish path
(bounded queues, reliable retries, acks), the online invariant monitor (one
test per check, raise and report modes), and the interplay between the PR 2
degradation policy and the arrival disciplines.
"""

from __future__ import annotations

import pytest

from repro import (
    AdmissionPolicy,
    ArrivalPolicy,
    BackpressureProfile,
    DegradationPolicy,
    InvariantMonitor,
    InvariantViolation,
    MultiTaskSystem,
    ObsConfig,
    QosConfig,
    QosError,
    QueuePolicy,
    scan_events,
)
from repro.errors import RosError, SchedulerError
from repro.faults.campaign import make_preemption_scenario, run_campaign
from repro.faults.plan import FaultPlan, FaultSite
from repro.obs.bus import EventBus
from repro.obs.events import Event, EventKind
from repro.qos.admission import estimate_job_cycles
from repro.ros import Executor


def make_system(config, pair, qos=None, **kwargs):
    low, high = pair
    system = MultiTaskSystem(
        config, iau_mode="virtual", obs=ObsConfig(events=True), qos=qos, **kwargs
    )
    system.add_task(0, high)
    system.add_task(1, low)
    return system


def deny_events(system, reason=None):
    events = system.bus.of_kind(EventKind.ADMISSION_DENY)
    if reason is None:
        return events
    return [e for e in events if e.data.get("reason") == reason]


# -- configuration validation ------------------------------------------------


class TestConfigValidation:
    def test_default_config_is_disarmed(self):
        assert not QosConfig().armed

    def test_armed_variants(self):
        assert QosConfig(edf_tiebreak=True).armed
        assert QosConfig(detect_inversion=True).armed
        assert QosConfig(slack_admission=True).armed
        assert QosConfig(
            admission=AdmissionPolicy.REJECT, queue_depth=1
        ).wants_admission

    def test_admission_requires_depth(self):
        with pytest.raises(QosError):
            QosConfig(admission=AdmissionPolicy.REJECT)

    def test_bad_depth(self):
        with pytest.raises(QosError):
            QosConfig(admission=AdmissionPolicy.REJECT, queue_depth=0)

    def test_bad_monitor_mode(self):
        with pytest.raises(QosError):
            QosConfig(monitor=True, monitor_mode="loud")

    def test_bad_profile(self):
        with pytest.raises(QosError):
            BackpressureProfile(depth=0)
        with pytest.raises(QosError):
            BackpressureProfile(max_retries=-1)
        with pytest.raises(QosError):
            BackpressureProfile(retry_base_cycles=0)

    def test_monitor_needs_bus(self, example_config):
        with pytest.raises(SchedulerError):
            MultiTaskSystem(example_config, qos=QosConfig(monitor=True))


# -- admission control -------------------------------------------------------


class TestAdmission:
    def test_estimate_matches_uninterrupted_run(self, example_config, tiny_conv_compiled):
        system = MultiTaskSystem(example_config, iau_mode="virtual")
        system.add_task(0, tiny_conv_compiled)
        system.submit(0, 0)
        actual = system.run()
        estimate = estimate_job_cycles(
            example_config, tiny_conv_compiled, tiny_conv_compiled.program_for("vi")
        )
        assert estimate == actual

    def test_reject_bounds_the_queue(self, example_config, tiny_pair):
        qos = QosConfig(admission=AdmissionPolicy.REJECT, queue_depth=2)
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(6):
            system.submit(1, 0)
        system.run()
        assert len(system.jobs(1)) == 2
        assert system.admission.denied[1] == 4
        assert all(o.reason == "queue_full" for o in system.admission.outcomes)
        assert len(deny_events(system, "queue_full")) == 4

    def test_shed_oldest_keeps_freshest(self, example_config, tiny_pair):
        qos = QosConfig(admission=AdmissionPolicy.SHED_OLDEST, queue_depth=2)
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(5):
            system.submit(1, 0)
        system.run()
        # Queue held 2 slots; the 3 oldest were shed as newer ones arrived.
        assert len(system.jobs(1)) == 2
        assert system.admission.denied[1] == 3
        assert all(o.reason == "shed_oldest" for o in system.admission.outcomes)

    def test_shed_newest_keeps_backlog(self, example_config, tiny_pair):
        qos = QosConfig(admission=AdmissionPolicy.SHED_NEWEST, queue_depth=2)
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(5):
            system.submit(1, 0)
        system.run()
        assert len(system.jobs(1)) == 2
        assert all(o.reason == "shed_newest" for o in system.admission.outcomes)

    def test_block_parks_then_admits_everything(self, example_config, tiny_pair):
        qos = QosConfig(admission=AdmissionPolicy.BLOCK, queue_depth=1)
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(4):
            system.submit(1, 0)
        system.run()
        # Every request eventually ran; the latency clock kept ticking from
        # the original arrival, so response times are strictly increasing.
        assert len(system.jobs(1)) == 4
        assert system.admission.parked_count(1) == 0
        responses = [job.response_cycles for job in system.jobs(1)]
        assert responses == sorted(responses)
        assert deny_events(system, "parked")

    def test_priority_zero_is_never_gated(self, example_config, tiny_pair):
        qos = QosConfig(admission=AdmissionPolicy.REJECT, queue_depth=1)
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(4):
            system.submit(0, 0)
        system.run()
        assert len(system.jobs(0)) == 4
        assert system.admission.denied.get(0) is None

    def test_slack_admission_denies_hopeless_requests(self, example_config, tiny_pair):
        low, _ = tiny_pair
        estimate = estimate_job_cycles(example_config, low, low.program_for("vi"))
        qos = QosConfig(slack_admission=True)
        system = MultiTaskSystem(
            example_config, iau_mode="virtual", obs=ObsConfig(events=True), qos=qos
        )
        # Deadline fits exactly one job; any backlog is already hopeless.
        system.add_task(1, low, deadline_cycles=estimate + 1_000)
        for _ in range(3):
            system.submit(1, 0)
        system.run()
        assert len(system.jobs(1)) == 1
        assert system.admission.denied[1] == 2
        outcomes = system.admission.outcomes
        assert all(o.reason == "no_slack" for o in outcomes)
        assert all(o.projected_overrun_cycles > 0 for o in outcomes)

    def test_slack_admission_ignores_tasks_without_deadline(
        self, example_config, tiny_pair
    ):
        qos = QosConfig(slack_admission=True)
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(3):
            system.submit(1, 0)
        system.run()
        assert len(system.jobs(1)) == 3


# -- deadline-aware arbitration ----------------------------------------------


class TestEdfTiebreak:
    def test_default_priority_is_slot_index(self, example_config, tiny_pair):
        system = make_system(example_config, tiny_pair)
        assert system.iau.context(0).priority == 0
        assert system.iau.context(1).priority == 1

    def test_equal_priority_orders_by_slot_without_edf(self, example_config, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(
            example_config, iau_mode="virtual", obs=ObsConfig(events=True)
        )
        system.add_task(1, low, priority=5, deadline_cycles=400_000)
        system.add_task(2, high, priority=5, deadline_cycles=20_000)
        system.submit(1, 0)
        system.submit(2, 0)
        system.run()
        assert system.job(1).start_cycle < system.job(2).start_cycle

    def test_edf_orders_equal_priorities_by_deadline(self, example_config, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(
            example_config,
            iau_mode="virtual",
            obs=ObsConfig(events=True),
            qos=QosConfig(edf_tiebreak=True),
        )
        system.add_task(1, low, priority=5, deadline_cycles=400_000)
        system.add_task(2, high, priority=5, deadline_cycles=20_000)
        system.submit(1, 0)
        system.submit(2, 0)
        system.run()
        # Slot 2's absolute deadline is earlier: it wins the tie.
        assert system.job(2).start_cycle < system.job(1).start_cycle
        assert not system.job(2).deadline_missed

    def test_an_edf_tie_falls_back_to_slot_order(self, example_config, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(
            example_config,
            iau_mode="virtual",
            obs=ObsConfig(events=True),
            qos=QosConfig(edf_tiebreak=True),
        )
        system.add_task(1, low, priority=5, deadline_cycles=400_000)
        system.add_task(2, high, priority=5, deadline_cycles=400_000)
        system.submit(1, 0)
        system.submit(2, 0)
        system.run()
        # Equal absolute deadlines: the lower slot wins, as without EDF.
        assert system.job(1).start_cycle < system.job(2).start_cycle

    def test_equal_priorities_never_preempt(self, example_config, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(
            example_config,
            iau_mode="virtual",
            obs=ObsConfig(events=True),
            qos=QosConfig(edf_tiebreak=True),
        )
        system.add_task(1, low, priority=5)
        system.add_task(2, high, priority=5, deadline_cycles=10_000)
        system.submit(1, 0)
        system.submit(2, 2_000)  # urgent, but a peer: must wait
        system.run()
        assert not system.bus.of_kind(EventKind.PREEMPT_BEGIN)

    def test_strict_priority_still_preempts_with_edf(self, example_config, tiny_pair):
        system = make_system(
            example_config, tiny_pair, qos=QosConfig(edf_tiebreak=True)
        )
        system.submit(1, 0)
        system.submit(0, 2_000)
        system.run()
        assert system.bus.of_kind(EventKind.PREEMPT_BEGIN)


class TestPriorityInversion:
    def test_inversion_detected_once_per_waiting_job(self, example_config, tiny_pair):
        low, high = tiny_pair
        qos = QosConfig(detect_inversion=True)
        system = MultiTaskSystem(
            example_config, iau_mode="virtual", obs=ObsConfig(events=True), qos=qos
        )
        system.add_task(0, high, deadline_cycles=100)
        system.add_task(1, low)
        system.submit(1, 0)
        system.submit(0, 2_000)  # slack is blown before the next switch point
        system.run()
        events = system.bus.of_kind(EventKind.PRIORITY_INVERSION)
        assert len(events) == 1
        assert system.iau.num_inversions == 1
        assert events[0].task_id == 0
        assert events[0].data["holder"] == 1
        assert events[0].data["slack_cycles"] < 0

    def test_no_inversion_with_comfortable_deadline(self, example_config, tiny_pair):
        low, high = tiny_pair
        qos = QosConfig(detect_inversion=True)
        system = MultiTaskSystem(
            example_config, iau_mode="virtual", obs=ObsConfig(events=True), qos=qos
        )
        system.add_task(0, high, deadline_cycles=5_000_000)
        system.add_task(1, low)
        system.submit(1, 0)
        system.submit(0, 2_000)
        system.run()
        assert not system.bus.of_kind(EventKind.PRIORITY_INVERSION)
        assert system.iau.num_inversions == 0


# -- invariant monitor -------------------------------------------------------


def _retire(cycle, task_id=0, duration=0):
    return Event(EventKind.INSTR_RETIRE, cycle=cycle, task_id=task_id, duration=duration)


class TestInvariantMonitor:
    def test_clock_regression_trips(self):
        violations = scan_events([_retire(100, duration=10), _retire(50, duration=10)])
        assert [v.check for v in violations] == ["cycle_monotonic"]

    def test_backdated_span_is_fine(self):
        events = [
            _retire(100),
            Event(EventKind.VI_EXPAND, cycle=90, task_id=0, duration=10),
        ]
        assert scan_events(events) == []

    def test_preempt_end_without_begin(self):
        events = [Event(EventKind.PREEMPT_END, cycle=5, task_id=1)]
        assert [v.check for v in scan_events(events)] == ["preempt_pairing"]

    def test_double_preempt_begin(self):
        events = [
            Event(EventKind.PREEMPT_BEGIN, cycle=5, task_id=1),
            Event(EventKind.PREEMPT_BEGIN, cycle=9, task_id=1),
        ]
        assert [v.check for v in scan_events(events)] == ["preempt_pairing"]

    def test_complete_while_preempted(self):
        events = [
            Event(EventKind.PREEMPT_BEGIN, cycle=5, task_id=1),
            Event(EventKind.JOB_COMPLETE, cycle=9, task_id=1),
        ]
        assert "preempt_pairing" in [v.check for v in scan_events(events)]

    def test_start_without_submit(self):
        events = [Event(EventKind.JOB_START, cycle=5, task_id=1)]
        assert [v.check for v in scan_events(events)] == ["queue_accounting"]

    def test_queue_bound_enforced(self):
        events = [
            Event(EventKind.JOB_SUBMIT, cycle=i, task_id=1) for i in range(3)
        ]
        violations = scan_events(events, queue_bounds={1: 2})
        assert [v.check for v in violations] == ["queue_bound"]

    def test_shed_deny_releases_a_slot(self):
        events = [
            Event(EventKind.JOB_SUBMIT, cycle=0, task_id=1),
            Event(EventKind.JOB_SUBMIT, cycle=1, task_id=1),
            Event(
                EventKind.ADMISSION_DENY, cycle=2, task_id=1,
                data={"reason": "shed_oldest"},
            ),
            Event(EventKind.JOB_SUBMIT, cycle=2, task_id=1),
        ]
        assert scan_events(events, queue_bounds={1: 2}) == []

    def test_ddr_ownership(self):
        events = [
            Event(EventKind.DDR_BURST, cycle=5, data={"region": "t0_out"}),
            _retire(10, task_id=1),
        ]
        violations = scan_events(events, region_owners={"t0_out": 0})
        assert [v.check for v in violations] == ["ddr_ownership"]
        # The owner itself touching the region is fine.
        events = [
            Event(EventKind.DDR_BURST, cycle=5, data={"region": "t0_out"}),
            _retire(10, task_id=0),
        ]
        assert scan_events(events, region_owners={"t0_out": 0}) == []

    def test_turnaround_arithmetic(self):
        events = [
            Event(
                EventKind.JOB_COMPLETE, cycle=60, task_id=0,
                data={"request_cycle": 0, "turnaround_cycles": 50},
            )
        ]
        assert [v.check for v in scan_events(events)] == ["deadline_bookkeeping"]

    def test_deadline_miss_that_did_not_overrun(self):
        events = [
            Event(
                EventKind.DEADLINE_MISS, cycle=50, task_id=0,
                data={"deadline_cycles": 100, "turnaround_cycles": 50},
            )
        ]
        assert [v.check for v in scan_events(events)] == ["deadline_bookkeeping"]

    def test_overrun_without_miss_event(self):
        events = [
            Event(
                EventKind.JOB_COMPLETE, cycle=150, task_id=0,
                data={"request_cycle": 0, "turnaround_cycles": 150},
            )
        ]
        violations = scan_events(events, deadlines={0: 100})
        assert [v.check for v in violations] == ["deadline_bookkeeping"]
        # With the DEADLINE_MISS reported, the same stream is clean.
        events = [
            Event(
                EventKind.DEADLINE_MISS, cycle=150, task_id=0,
                data={"deadline_cycles": 100, "turnaround_cycles": 150},
            ),
            *events,
        ]
        assert scan_events(events, deadlines={0: 100}) == []

    def test_raise_mode_raises_at_the_event(self):
        monitor = InvariantMonitor(mode="raise")
        monitor.handle(_retire(100, duration=10))
        with pytest.raises(InvariantViolation):
            monitor.handle(_retire(50, duration=10))

    def test_report_mode_mirrors_on_the_bus(self):
        bus = EventBus(record=True)
        monitor = bus.attach(InvariantMonitor(mode="report", bus=bus))
        bus.emit(EventKind.PREEMPT_END, cycle=5, task_id=0)
        assert not monitor.ok
        mirrored = bus.of_kind(EventKind.INVARIANT_VIOLATION)
        assert len(mirrored) == 1
        assert mirrored[0].data["check"] == "preempt_pairing"

    def test_scoped_events_are_skipped(self):
        events = [
            _retire(100),
            Event(EventKind.INSTR_RETIRE, cycle=10, task_id=0, data={"scope": "c1"}),
        ]
        assert scan_events(events) == []

    def test_live_preemptive_run_is_clean(self, example_config, tiny_pair):
        qos = QosConfig(
            admission=AdmissionPolicy.REJECT, queue_depth=3, monitor=True
        )
        system = make_system(example_config, tiny_pair, qos=qos)
        system.submit(1, 0)
        system.submit(0, 2_000)
        for _ in range(5):
            system.submit(1, 2_000)
        system.run()
        assert system.monitor.ok

    def test_live_block_policy_run_is_clean(self, example_config, tiny_pair):
        qos = QosConfig(
            admission=AdmissionPolicy.BLOCK, queue_depth=1, monitor=True
        )
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(4):
            system.submit(1, 0)
        system.submit(0, 2_000)
        system.run()
        assert system.monitor.ok
        assert len(system.jobs(1)) == 4


# -- ROS backpressure --------------------------------------------------------


class TestBackpressure:
    def test_unprofiled_topic_keeps_legacy_path(self):
        executor = Executor()
        got = []
        executor.subscribe("t", got.append)
        assert executor.publish("t", "m") is None
        assert got == ["m"]

    def test_profiled_publish_returns_delivery(self):
        executor = Executor()
        got = []
        executor.subscribe("t", got.append)
        executor.set_qos("t", BackpressureProfile(depth=2))
        delivery = executor.publish("t", "m")
        assert delivery.status == "delivered"
        assert delivery.attempts == 1
        assert delivery.delivered_cycle == 0
        assert got == ["m"]

    def test_overflow_drop_oldest(self):
        # Every transmission is lost, so pending retries pile up and the
        # bounded queue evicts the oldest.
        plan = FaultPlan(seed=1, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan, bus=EventBus(record=True))
        executor.set_qos(
            "t",
            BackpressureProfile(
                depth=2, policy=QueuePolicy.DROP_OLDEST, reliable=True,
                retry_base_cycles=1_000,
            ),
        )
        deliveries = [executor.publish("t", i) for i in range(4)]
        assert deliveries[0].status == "dropped"
        assert deliveries[1].status == "dropped"
        assert executor.topics.topic("t").dropped == 2
        drops = executor.bus.of_kind(EventKind.ROS_QUEUE_DROP)
        assert len(drops) == 2
        assert all(e.data["policy"] == "drop_oldest" for e in drops)

    def test_overflow_drop_newest(self):
        plan = FaultPlan(seed=1, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan, bus=EventBus(record=True))
        executor.set_qos(
            "t",
            BackpressureProfile(
                depth=2, policy=QueuePolicy.DROP_NEWEST, reliable=True,
                retry_base_cycles=1_000,
            ),
        )
        deliveries = [executor.publish("t", i) for i in range(4)]
        assert [d.status for d in deliveries[2:]] == ["dropped", "dropped"]
        assert deliveries[2].attempts == 0  # refused before any transmission
        drops = executor.bus.of_kind(EventKind.ROS_QUEUE_DROP)
        assert all(e.data["policy"] == "drop_newest" for e in drops)

    def test_reliable_retry_eventually_delivers(self):
        # Half the transmissions are lost; the reliable profile retries with
        # exponential backoff until each message lands or exhausts budget.
        plan = FaultPlan(seed=5, rates={FaultSite.ROS_DROP: 0.5})
        executor = Executor(faults=plan, bus=EventBus(record=True))
        got = []
        executor.subscribe("odom", got.append)
        executor.set_qos(
            "odom",
            BackpressureProfile(
                depth=16, reliable=True, retry_base_cycles=100, max_retries=8
            ),
        )
        deliveries = [executor.publish("odom", i) for i in range(12)]
        executor.run()
        assert all(d.done for d in deliveries)
        delivered = [d for d in deliveries if d.status == "delivered"]
        assert len(delivered) == len(got)
        assert any(d.attempts > 1 for d in delivered)  # at least one retried
        acks = executor.bus.of_kind(EventKind.ROS_ACK)
        assert len(acks) == len(delivered)
        assert executor.bus.of_kind(EventKind.ROS_RETRY)

    def test_retry_budget_exhaustion_fails_loudly(self):
        plan = FaultPlan(seed=2, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan, bus=EventBus(record=True))
        executor.set_qos(
            "t",
            BackpressureProfile(
                depth=4, reliable=True, retry_base_cycles=10, max_retries=2
            ),
        )
        delivery = executor.publish("t", "m")
        executor.run()
        assert delivery.status == "failed"
        assert delivery.attempts == 3  # 1 initial + 2 retries
        assert len(executor.bus.of_kind(EventKind.ROS_RETRY)) == 2

    def test_clearing_the_profile_keeps_a_pending_retry_on_its_budget(self):
        # A retry scheduled under a reliable profile outlives set_qos(name,
        # None): it retries and fails on the profile it was published under.
        plan = FaultPlan(seed=2, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan, bus=EventBus(record=True))
        profile = BackpressureProfile(
            depth=4, reliable=True, retry_base_cycles=10, max_retries=3
        )
        executor.set_qos("t", profile)
        delivery = executor.publish("t", "m")
        executor.run(until_cycle=50)
        assert delivery.status == "pending"
        executor.set_qos("t", None)
        executor.run()
        assert delivery.status == "failed"
        assert delivery.attempts == profile.max_retries + 1
        assert len(executor.bus.of_kind(EventKind.ROS_RETRY)) == profile.max_retries

    def test_retry_backoff_is_exponential(self):
        plan = FaultPlan(seed=2, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan, bus=EventBus(record=True))
        executor.set_qos(
            "t",
            BackpressureProfile(
                depth=4, reliable=True, retry_base_cycles=100, max_retries=3
            ),
        )
        executor.publish("t", "m")
        executor.run()
        backoffs = [
            e.data["backoff_cycles"]
            for e in executor.bus.of_kind(EventKind.ROS_RETRY)
        ]
        assert backoffs == [100, 200, 400]

    def test_retry_timeout_gives_up(self):
        plan = FaultPlan(seed=2, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan)
        executor.set_qos(
            "t",
            BackpressureProfile(
                depth=4, reliable=True, retry_base_cycles=1_000,
                max_retries=50, retry_timeout_cycles=2_500,
            ),
        )
        delivery = executor.publish("t", "m")
        executor.run()
        assert delivery.status == "failed"
        assert delivery.attempts < 51  # the timeout cut the budget short

    def test_unreliable_profile_drops_without_retry(self):
        plan = FaultPlan(seed=2, rates={FaultSite.ROS_DROP: 1.0})
        executor = Executor(faults=plan)
        executor.set_qos("t", BackpressureProfile(depth=4, reliable=False))
        delivery = executor.publish("t", "m")
        assert delivery.status == "dropped"
        assert delivery.attempts == 1


# -- executor satellite fixes ------------------------------------------------


class TestTimerOffsets:
    def test_timer_offset_is_relative_to_clock(self):
        executor = Executor()
        executor.run(until_cycle=100)  # advance an empty executor to 100
        fires = []
        executor.create_timer(10, lambda: fires.append(executor.clock), count=3)
        executor.run()
        assert fires == [100, 110, 120]

    def test_timer_offset_composes_with_clock(self):
        executor = Executor()
        executor.run(until_cycle=100)
        fires = []
        executor.create_timer(
            10, lambda: fires.append(executor.clock), count=2, offset=5
        )
        executor.run()
        assert fires == [105, 115]

    def test_timer_rejects_bad_period(self):
        with pytest.raises(RosError):
            Executor().create_timer(0, lambda: None, count=1)


class TestDelayedDelivery:
    def test_delay_is_measured_from_dispatch_cycle(self):
        plan = FaultPlan(seed=0, rates={FaultSite.ROS_DELAY: 1.0}, ros_delay_cycles=100)
        executor = Executor(faults=plan)
        got = []
        executor.subscribe("t", lambda message: got.append(executor.clock))

        def callback():
            executor.clock += 30  # the callback itself burns cycles
            executor.publish("t", "x")

        executor.schedule(50, callback)
        executor.run()
        # Delivered at dispatch(50) + delay(100), not at clock(80) + delay.
        assert got == [150]

    def test_delay_never_lands_in_the_past(self):
        plan = FaultPlan(seed=0, rates={FaultSite.ROS_DELAY: 1.0}, ros_delay_cycles=10)
        executor = Executor(faults=plan)
        got = []
        executor.subscribe("t", lambda message: got.append(executor.clock))

        def callback():
            executor.clock += 500  # clock overtakes dispatch + delay
            executor.publish("t", "x")

        executor.schedule(50, callback)
        executor.run()
        assert got == [550]  # clamped to now, not scheduled in the past


# -- degradation interplay (PR 2 coverage) ----------------------------------


class TestDegradationInterplay:
    def test_periodic_burst_shed_does_not_leak_pending(
        self, example_config, tiny_pair
    ):
        system = make_system(
            example_config, tiny_pair, degradation=DegradationPolicy(max_pending=2)
        )
        system.submit(
            1, 0, policy=ArrivalPolicy.PERIODIC, period_cycles=100, count=8
        )
        system.run()
        assert system.shed[1] > 0
        assert len(system.jobs(1)) + system.shed[1] == 8
        assert system._pending[1] == 0
        # The drained task accepts NOW_IF_FREE again (no leaked bookkeeping).
        assert system.submit(1, policy=ArrivalPolicy.NOW_IF_FREE) is True
        system.run()
        assert system._pending[1] == 0

    def test_now_if_free_refuses_while_request_pending(
        self, example_config, tiny_pair
    ):
        system = make_system(
            example_config, tiny_pair, degradation=DegradationPolicy(max_pending=1)
        )
        system.submit(1, 1_000)
        assert system.submit(1, policy=ArrivalPolicy.NOW_IF_FREE) is False
        system.run()
        assert system.submit(1, policy=ArrivalPolicy.NOW_IF_FREE) is True
        system.run()
        assert len(system.jobs(1)) == 2

    def test_shed_then_now_if_free_recovers(self, example_config, tiny_pair):
        system = make_system(
            example_config, tiny_pair, degradation=DegradationPolicy(max_pending=1)
        )
        system.submit(1, 0)
        system.submit(1, 0)  # delivered into a full backlog: shed
        system.run()
        assert system.shed[1] == 1
        assert system._pending[1] == 0
        assert system.submit(1, policy=ArrivalPolicy.NOW_IF_FREE) is True
        system.run()

    def test_downtier_and_shed_interplay(self, example_config, tiny_pair):
        policy = DegradationPolicy(max_pending=3, downtier_pending=2)
        system = make_system(example_config, tiny_pair, degradation=policy)
        system.submit(
            1, 0, policy=ArrivalPolicy.PERIODIC, period_cycles=100, count=10
        )
        system.run()
        jobs = system.jobs(1)
        assert system.shed[1] > 0
        assert any(job.degraded for job in jobs)
        assert len(jobs) + system.shed[1] == 10
        summary = system.summary()
        assert "degradation action" in summary

    def test_summary_shows_admission_counters(self, example_config, tiny_pair):
        qos = QosConfig(admission=AdmissionPolicy.REJECT, queue_depth=1)
        system = make_system(example_config, tiny_pair, qos=qos)
        for _ in range(4):
            system.submit(1, 0)
        system.run()
        assert "admission denial" in system.summary()

    def test_degradation_and_admission_compose(self, example_config, tiny_pair):
        # Degradation sheds at delivery; whatever survives still faces the
        # admission gate's bounded queue.
        qos = QosConfig(admission=AdmissionPolicy.REJECT, queue_depth=1)
        system = make_system(
            example_config, tiny_pair,
            qos=qos, degradation=DegradationPolicy(max_pending=4),
        )
        for _ in range(8):
            system.submit(1, 0)
        system.run()
        assert len(system.jobs(1)) < 8
        assert system.shed[1] + system.admission.denied.get(1, 0) > 0
        assert system._pending[1] == 0


# -- campaign integration ----------------------------------------------------


class TestCampaignInvariants:
    def test_campaign_scans_every_run(self, example_config, tiny_pair):
        scenario = make_preemption_scenario(tiny_pair)
        report = run_campaign(scenario, runs=3, base_seed=21)
        assert all(isinstance(r.invariant_violations, tuple) for r in report.runs)
        assert report.total_invariant_violations == 0
        assert "invariant violations: 0" in report.format()

    def test_campaign_can_skip_scanning(self, example_config, tiny_pair):
        scenario = make_preemption_scenario(tiny_pair)
        report = run_campaign(scenario, runs=1, base_seed=21, invariants=False)
        assert report.total_invariant_violations == 0


# -- disarmed QoS is free ----------------------------------------------------


class TestDisarmed:
    def test_disarmed_config_is_cycle_exact(self, example_config, tiny_pair):
        def run(qos):
            system = make_system(example_config, tiny_pair, qos=qos)
            system.submit(1, 0)
            system.submit(0, 2_000)
            system.submit(1, 5_000)
            final = system.run()
            return final, [
                (e.kind, e.cycle, e.task_id) for e in system.bus.events
            ]

        baseline = run(None)
        disarmed = run(QosConfig())
        assert disarmed == baseline
