"""Crash recovery benchmark: kill -9 a worker, resume, match golden.

Three headline claims of the durable serving layer, each asserted (not just
reported):

* a worker killed with literal ``SIGKILL`` mid-replay is detected by the
  gateway, relaunched, and resumed from its last journaled snapshot — and
  the finished job's records and final cycle count are **bit-identical**
  to an uninterrupted golden replay (mean recovery latency lands in
  ``benchmarks/results/crash_recovery.txt``);
* snapshot/restore round-trips are bit-exact across the whole model zoo
  (functional outputs for the small nets, cycle/stat-exact for the big
  ones);
* a disarmed system driven through the serve machinery — chunked
  ``run(until_cycle=...)`` with a snapshot/restore into a *fresh* system
  at every boundary — stays cycle-exact and output-exact.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.farm import (
    NodeAssignment,
    ServiceSpec,
    SloClass,
    build_node_system,
    run_assignment,
)
from repro.hw.config import AcceleratorConfig
from repro.nn import TensorShape
from repro.obs.config import ObsConfig
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.serve import JobSpec, ServeGateway
from repro.serve.journal import RESUMED, WORKER_DEATH
from repro.tables import format_table
import repro.zoo as zoo

GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=400_000)
BEST = SloClass("best", rank=1, weight=1.0, deadline_cycles=4_000_000)

SERVICES = (
    ServiceSpec("detect", "tiny_cnn", GOLD),
    ServiceSpec("embed", "tiny_conv", BEST),
)

ASSIGNMENT = NodeAssignment(
    node=0,
    config=AcceleratorConfig.small(),
    services=SERVICES,
    dispatches=tuple((i, i % 2, i * 3_000) for i in range(10)),
)

KILL_TRIALS = 3


def record_tuples(records):
    return sorted(
        (r.job_id, r.service, r.dispatch_cycle, r.start_cycle, r.complete_cycle)
        for r in records
    )


@pytest.fixture(scope="module")
def golden_replay():
    system = build_node_system(ASSIGNMENT.config, ASSIGNMENT.services)
    records = run_assignment(ASSIGNMENT, system)
    return record_tuples(records), system.clock


def _wait_for_live_snapshot(gateway, job_id, timeout_s=120.0):
    """Block until the worker has journaled a snapshot and is still alive."""
    limit = time.monotonic() + timeout_s
    while time.monotonic() < limit:
        record = gateway.status(job_id)
        pid = gateway.worker_pid(job_id)
        if record.snapshot_cycle is not None and pid is not None:
            return pid, record.snapshot_cycle
        time.sleep(0.005)
    raise AssertionError("worker never produced a snapshot")


def test_sigkill_recovery_is_bit_exact(tmp_path, golden_replay):
    golden_records, golden_clock = golden_replay
    rows = []
    latencies = []
    for trial in range(KILL_TRIALS):
        with ServeGateway(
            tmp_path / f"trial{trial}", max_attempts=3, backoff_s=0.01
        ) as gateway:
            job_id = gateway.submit(
                JobSpec(assignment=ASSIGNMENT, snapshot_every_cycles=3_000)
            )
            pid, snapshot_cycle = _wait_for_live_snapshot(gateway, job_id)
            os.kill(pid, signal.SIGKILL)
            result = gateway.result(job_id, timeout=300)

            events = list(gateway.journal.events(job_id))
            deaths = [e for e in events if e.kind == WORKER_DEATH]
            resumes = [e for e in events if e.kind == RESUMED]
            assert deaths and resumes, "journal must show the death + resume"
            assert "SIGKILL" in deaths[0].detail["reason"] or "-9" in str(
                deaths[0].detail.get("exitcode")
            )
            recovery_s = resumes[0].at - deaths[0].at

        assert result.final_cycle == golden_clock
        assert record_tuples(result.records) == golden_records
        assert result.resumed_from_cycle > 0
        latencies.append(recovery_s)
        rows.append(
            [
                trial,
                snapshot_cycle,
                result.resumed_from_cycle,
                f"{1e3 * recovery_s:.1f}",
                result.final_cycle,
                "yes",
            ]
        )

    mean_ms = 1e3 * sum(latencies) / len(latencies)
    rows.append(["mean", "", "", f"{mean_ms:.1f}", "", ""])
    write_result(
        "crash_recovery",
        format_table(
            [
                "trial",
                "first snap cyc",
                "resumed from cyc",
                "recovery ms",
                "final cyc",
                "bit-identical",
            ],
            rows,
            title=(
                "kill -9 crash recovery — journal replay + snapshot resume "
                f"(golden clock {golden_clock})"
            ),
        ),
    )


ZOO_CASES = [
    # (model name, builder kwargs, functional)
    ("tiny_conv", {}, True),
    ("tiny_cnn", {}, True),
    ("tiny_residual", {}, True),
    ("medium_layer_net", {}, True),
    ("mobilenet_v1", {"input_shape": TensorShape(64, 64, 3)}, False),
    ("darknet19", {"input_shape": TensorShape(64, 64, 3)}, False),
    ("vgg16", {"input_shape": TensorShape(64, 64, 3)}, False),
    ("resnet101", {"input_shape": TensorShape(64, 64, 3)}, False),
    ("superpoint", {"input_shape": TensorShape(120, 160, 1)}, False),
    ("gem", {"input_shape": TensorShape(64, 64, 3)}, False),
]


@pytest.mark.parametrize(
    "model,kwargs,functional",
    ZOO_CASES,
    ids=[case[0] for case in ZOO_CASES],
)
def test_zoo_snapshot_round_trip_is_bit_exact(model, kwargs, functional):
    """Mid-run snapshot -> restore into a fresh system -> identical finish,
    for every model in the zoo."""
    config = AcceleratorConfig.big()
    builder = getattr(zoo, f"build_{model}")
    weights = "random" if functional else "zeros"

    def build():
        (network,) = compile_tasks(
            [builder(**kwargs)], config, weights=weights, seed=9
        )
        system = MultiTaskSystem(
            config, obs=ObsConfig(functional=functional)
        )
        system.add_task(0, network)
        if functional:
            shape = network.graph.input_shape
            rng = np.random.default_rng(17)
            network.set_input(
                rng.integers(
                    -8, 8, size=(shape.height, shape.width, shape.channels)
                ).astype(np.int8)
            )
        system.submit(0, 0)
        return system, network

    golden, golden_net = build()
    golden.run()
    golden_clock = golden.clock
    golden_output = golden_net.get_output().copy() if functional else None

    interrupted, _ = build()
    interrupted.run(until_cycle=max(1, golden_clock // 2))
    assert not interrupted.done
    blob = pickle.dumps(interrupted.capture_state())

    fresh, fresh_net = build()
    fresh.restore_state(pickle.loads(blob))
    assert fresh.clock == interrupted.clock
    fresh.run()

    assert fresh.clock == golden_clock
    assert fresh.core.stats == golden.core.stats
    if functional:
        assert np.array_equal(fresh_net.get_output(), golden_output)


def test_disarmed_chunked_run_stays_cycle_exact(tmp_path):
    """The serve machinery (chunked runs + disk snapshots at every chunk
    boundary, each restored into a brand-new system) must not perturb a
    disarmed simulation by a single cycle or bit."""
    from repro.serve import restore_system, snapshot_system

    config = AcceleratorConfig.small()

    def build():
        cnn, residual = compile_tasks(
            [zoo.build_tiny_cnn(), zoo.build_tiny_residual()],
            config,
            weights="random",
            seed=6,
        )
        system = MultiTaskSystem(config, obs=ObsConfig(functional=True, events=True))
        system.add_task(0, cnn)
        system.add_task(1, residual)
        rng = np.random.default_rng(23)
        for network in (cnn, residual):
            shape = network.graph.input_shape
            network.set_input(
                rng.integers(
                    -8, 8, size=(shape.height, shape.width, shape.channels)
                ).astype(np.int8)
            )
        for cycle in (0, 4_000, 9_000):
            system.submit(1, cycle)
        system.submit(0, 6_000)
        return system, (cnn, residual)

    golden, golden_nets = build()
    golden.run()

    system, _ = build()
    boundary = 0
    hops = 0
    while not system.done:
        system.run(until_cycle=system.clock + 2_500)
        if system.done:
            break
        path = tmp_path / f"hop{boundary}.snap"
        snapshot_system(system, path)
        hopped, nets = build()
        restore_system(hopped, path)
        system = hopped
        boundary += 1
        hops += 1
    assert hops >= 3, "the run must actually cross several snapshot hops"

    assert system.clock == golden.clock
    golden_events = [
        (e.kind.value, e.cycle, e.task_id) for e in golden.bus.events
    ]
    hopped_events = [
        (e.kind.value, e.cycle, e.task_id) for e in system.bus.events
    ]
    assert hopped_events == golden_events
    for slot, golden_net in enumerate(golden_nets):
        assert np.array_equal(
            nets[slot].get_output(), golden_net.get_output()
        )
