"""ROS-like middleware: topics, executor co-simulation, nodes."""

import pytest

from repro.errors import RosError
from repro.ros import Executor, Node
from repro.ros.topic import TopicRegistry
from repro.runtime.system import MultiTaskSystem
from tests.conformance import Cell, build, observe, run_cell


class TestTopics:
    def test_subscribe_and_deliver(self):
        registry = TopicRegistry()
        received = []
        registry.topic("a").subscribe(received.append)
        registry.topic("a").deliver("hello")
        assert received == ["hello"]

    def test_history_recorded(self):
        registry = TopicRegistry()
        topic = registry.topic("a")
        topic.deliver(1)
        topic.deliver(2)
        assert topic.history == [1, 2]

    def test_multiple_subscribers(self):
        registry = TopicRegistry()
        a, b = [], []
        registry.topic("t").subscribe(a.append)
        registry.topic("t").subscribe(b.append)
        registry.topic("t").deliver("x")
        assert a == b == ["x"]

    def test_empty_name_rejected(self):
        with pytest.raises(RosError):
            TopicRegistry().topic("")

    def test_names_sorted(self):
        registry = TopicRegistry()
        registry.topic("b")
        registry.topic("a")
        assert registry.names() == ["a", "b"]


class TestExecutorEvents:
    def test_events_run_in_time_order(self):
        executor = Executor()
        order = []
        executor.schedule(200, lambda: order.append("late"))
        executor.schedule(100, lambda: order.append("early"))
        executor.run()
        assert order == ["early", "late"]

    def test_ties_run_in_schedule_order(self):
        executor = Executor()
        order = []
        executor.schedule(100, lambda: order.append(1))
        executor.schedule(100, lambda: order.append(2))
        executor.run()
        assert order == [1, 2]

    def test_clock_advances(self):
        executor = Executor()
        executor.schedule(500, lambda: None)
        executor.run()
        assert executor.clock == 500

    def test_past_scheduling_rejected(self):
        executor = Executor()
        executor.schedule(100, lambda: None)
        executor.run()
        with pytest.raises(RosError):
            executor.schedule(50, lambda: None)

    def test_timer_fires_count_times(self):
        executor = Executor()
        hits = []
        executor.create_timer(10, lambda: hits.append(executor.clock), count=5)
        executor.run()
        assert hits == [0, 10, 20, 30, 40]

    def test_timer_rejects_bad_period(self):
        with pytest.raises(RosError):
            Executor().create_timer(0, lambda: None, count=1)

    def test_callbacks_can_schedule_more(self):
        executor = Executor()
        order = []

        def first():
            order.append("first")
            executor.schedule_after(10, lambda: order.append("second"))

        executor.schedule(0, first)
        executor.run()
        assert order == ["first", "second"]
        assert executor.clock == 10

    def test_run_until_stops(self):
        executor = Executor()
        hits = []
        executor.create_timer(100, lambda: hits.append(1), count=10)
        executor.run(until_cycle=250)
        assert len(hits) == 3  # t = 0, 100, 200

    def test_publish_without_system(self):
        executor = Executor()
        received = []
        executor.subscribe("t", received.append)
        executor.publish("t", 42)
        assert received == [42]

    def test_submit_without_system_rejected(self):
        with pytest.raises(RosError):
            Executor().submit_job(0)


class TestExecutorWithAccelerator:
    def test_job_completion_callback(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high, vi_mode="vi")
        executor = Executor(system)
        done = []
        executor.schedule(0, lambda: executor.submit_job(0, done.append))
        executor.run()
        assert len(done) == 1
        assert done[0].complete_cycle > 0
        assert executor.clock >= done[0].complete_cycle

    def test_completion_handlers_fifo(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high, vi_mode="vi")
        executor = Executor(system)
        order = []
        executor.schedule(0, lambda: executor.submit_job(0, lambda j: order.append("a")))
        executor.schedule(0, lambda: executor.submit_job(0, lambda j: order.append("b")))
        executor.run()
        assert order == ["a", "b"]

    def test_priority_respected_through_executor(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high, vi_mode="vi")
        system.add_task(1, low, vi_mode="vi")
        executor = Executor(system)
        executor.schedule(0, lambda: executor.submit_job(1))
        executor.schedule(3_000, lambda: executor.submit_job(0))
        executor.run()
        assert system.job(0).complete_cycle < system.job(1).complete_cycle

    def test_request_backdated_to_event_time(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high, vi_mode="vi")
        system.add_task(1, low, vi_mode="vi")
        executor = Executor(system)
        executor.schedule(0, lambda: executor.submit_job(1))
        executor.schedule(5_000, lambda: executor.submit_job(0))
        executor.run()
        assert system.job(0).request_cycle == 5_000


class TestExecutorPausePoints:
    """``run(until_cycle=)`` is a pause, not a different run (that a chunked
    mission equals one run is the conformance matrix's pause-points
    workload)."""

    def test_pause_bounds_the_accelerator_with_no_event_left(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(1, low, vi_mode="vi")
        executor = Executor(system)
        executor.submit_job(1)  # no event scheduled: only the pause bounds it
        paused_at = executor.run(until_cycle=1_000)
        assert system.jobs(1) == []  # still in flight
        # At most the instruction that straddles the pause runs past it.
        assert 1_000 <= paused_at == system.iau.clock < 1_500
        assert executor.run() > paused_at and len(system.jobs(1)) == 1

    def test_pause_keeps_latent_ecc_flips(self):
        """Scrubbing at a pause would correct flips an uninterrupted run
        still carries (and report them at the wrong cycle)."""
        mission = Cell("ros", armed="faults", seed=5, workload="pause-points")
        whole = run_cell(mission).observed
        paused = build(mission)
        (pause, finish), ddr = paused.legs[0], paused.systems[0].ddr
        pending = []
        for cycle in range(2_000, 30_000, 2_000):
            pause(cycle)
            pending.append(ddr.pending_flip_count)
        assert max(pending) > 0  # some pause really had a flip to keep
        finish()
        assert ddr.pending_flip_count == 0  # drained: scrubbed
        assert observe(paused, False) == whole


class TestNode:
    def test_node_pub_sub(self):
        executor = Executor()
        node = Node("n", executor)
        received = []
        node.subscribe("t", received.append)
        node.publish("t", "msg")
        assert received == ["msg"]

    def test_seq_increments(self):
        node = Node("n", Executor())
        assert node.next_seq() == 1
        assert node.next_seq() == 2

    def test_empty_name_rejected(self):
        with pytest.raises(RosError):
            Node("", Executor())

    def test_now_tracks_executor(self):
        executor = Executor()
        node = Node("n", executor)
        times = []
        node.create_timer(50, lambda: times.append(node.now), count=2)
        executor.run()
        assert times == [0, 50]
