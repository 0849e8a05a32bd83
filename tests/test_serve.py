"""The durable serving gateway: journal, snapshots, crash recovery.

Every recovery claim is differential: a job that crashed (or whose gateway
rebooted) must finish with records bit-identical to an uninterrupted golden
replay of the same assignment.  Process-mode tests use the deterministic
``crash_after_snapshots`` hook — the worker dies via ``os._exit`` with no
cleanup, indistinguishable from ``kill -9`` from the gateway's side (the
literal-SIGKILL benchmark lives in ``benchmarks/test_crash_recovery.py``).
"""

from __future__ import annotations

import errno
import os
import pickle

import pytest

from repro.container import HEADER, frame
from repro.errors import ServeError, SnapshotError
from repro.farm import (
    ChaosAction,
    ChaosPlan,
    Farm,
    FcfsScheduler,
    NodeAssignment,
    ServiceSpec,
    SloClass,
    TenantSpec,
    TrafficSpec,
    build_node_system,
    generate_jobs,
    run_assignment,
)
from repro.hw.config import AcceleratorConfig
from repro.serve import (
    JobJournal,
    JobSpec,
    JobState,
    ServeGateway,
    read_snapshot,
    restore_system,
    snapshot_system,
    write_snapshot,
)
from repro.serve.snapshot import MAGIC, VERSION, probe_snapshot
from tests.test_container import MUTATIONS

GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=400_000)
BEST = SloClass("best", rank=1, weight=1.0, deadline_cycles=4_000_000)

SERVICES = (
    ServiceSpec("det", "tiny_cnn", GOLD),
    ServiceSpec("emb", "tiny_conv", BEST),
)


@pytest.fixture(scope="module")
def assignment() -> NodeAssignment:
    return NodeAssignment(
        node=0,
        config=AcceleratorConfig.small(),
        services=SERVICES,
        dispatches=tuple((i, i % 2, i * 3_000) for i in range(6)),
    )


@pytest.fixture(scope="module")
def golden(assignment):
    """Uninterrupted replay: (records by job_id, final clock)."""
    system = build_node_system(assignment.config, assignment.services)
    records = sorted(run_assignment(assignment, system), key=lambda r: r.job_id)
    return records, system.clock


def record_tuples(records):
    return [
        (r.job_id, r.service, r.dispatch_cycle, r.start_cycle, r.complete_cycle)
        for r in records
    ]


class TestSnapshotFormat:
    """Snapshot *policy*: every container refusal is a ``SnapshotError``
    (the mechanism itself is fuzzed in ``tests/test_container.py``)."""

    def refused(self, tmp_path, mutation: str, match: str):
        path = tmp_path / "a.snap"
        write_snapshot(path, {"x": list(range(100))})
        path.write_bytes(MUTATIONS[mutation][1](path.read_bytes()))
        for reader in (read_snapshot, probe_snapshot):
            with pytest.raises(SnapshotError, match=match):
                reader(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.snap"
        state = {"x": [1, 2, 3], "y": {"z": b"\x00\xff"}}
        info = write_snapshot(path, state, meta={"job_id": "j1", "cycle": 42})
        meta, loaded = read_snapshot(path)
        assert loaded == state
        assert meta == {"job_id": "j1", "cycle": 42}
        assert info.payload_bytes == path.stat().st_size - HEADER.size
        assert info == probe_snapshot(path)

    def test_probe_reads_meta_without_restoring(self, tmp_path):
        path = tmp_path / "a.snap"
        write_snapshot(path, {"big": 0}, meta={"cycle": 7})
        info = probe_snapshot(path)
        assert info.meta["cycle"] == 7
        assert info.version == VERSION == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot(tmp_path / "absent.snap")

    def test_bad_magic(self, tmp_path):
        self.refused(tmp_path, "magic", "bad magic")

    def test_truncated_header(self, tmp_path):
        self.refused(tmp_path, "short_header", "truncated")

    def test_truncated_payload(self, tmp_path):
        self.refused(tmp_path, "truncated", "truncated")

    def test_crc_catches_bit_rot(self, tmp_path):
        self.refused(tmp_path, "payload_bit", "CRC")

    def test_future_version_refused(self, tmp_path):
        self.refused(tmp_path, "future_version", "version 999")

    def test_past_version_and_flags_refused(self, tmp_path):
        self.refused(tmp_path, "past_version", "version 1")
        self.refused(tmp_path, "flags", "flags")
        self.refused(tmp_path, "trailing", "padded")

    def test_failed_write_is_a_snapshot_error(self, tmp_path, monkeypatch):
        path = tmp_path / "a.snap"
        write_snapshot(path, {"x": 1})

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        with pytest.raises(SnapshotError, match="cannot write"):
            write_snapshot(path, {"x": 2})
        monkeypatch.undo()
        assert read_snapshot(path)[1] == {"x": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["a.snap"]

    def test_unpicklable_state_refused(self, tmp_path):
        with pytest.raises(SnapshotError, match="not picklable"):
            write_snapshot(tmp_path / "a.snap", {"fn": lambda: None})

    def test_system_round_trip_is_bit_exact(self, tmp_path, assignment, golden):
        golden_records, golden_clock = golden
        path = tmp_path / "sys.snap"
        system = build_node_system(assignment.config, assignment.services)
        from repro.farm.node import collect_assignment, submit_assignment

        per_slot = submit_assignment(assignment, system)
        system.run(until_cycle=8_000)
        info = snapshot_system(system, path, meta={"job_id": "t"})
        assert info.meta["cycle"] == system.clock

        fresh = build_node_system(assignment.config, assignment.services)
        meta = restore_system(fresh, path)
        assert meta["job_id"] == "t"
        assert fresh.clock == system.clock
        fresh.run()
        records = sorted(
            collect_assignment(assignment, fresh, per_slot),
            key=lambda r: r.job_id,
        )
        assert record_tuples(records) == record_tuples(golden_records)
        assert fresh.clock == golden_clock

    def test_restore_refuses_structural_mismatch(self, tmp_path, assignment):
        path = tmp_path / "sys.snap"
        system = build_node_system(assignment.config, assignment.services)
        snapshot_system(system, path)
        other = build_node_system(assignment.config, assignment.services[:1])
        with pytest.raises(SnapshotError, match="snapshot"):
            restore_system(other, path)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda state: state["ddr"]["regions"].popitem(),  # MemoryMapError
            lambda state: state["iau"].pop("contexts[0]"),  # StateError (slot)
            lambda state: state["core"].pop("stats"),  # StateError (field)
            lambda state: state.pop("iau"),  # SchedulerError
        ],
        ids=["ddr-region", "iau-slot", "core-field", "system-part"],
    )
    def test_every_restore_refusal_is_a_snapshot_error(
        self, tmp_path, assignment, tamper
    ):
        """A CRC-clean file whose *state* does not fit must not leak the
        subsystem's own error type out of ``restore_system``."""
        system = build_node_system(assignment.config, assignment.services)
        state = system.capture_state()
        tamper(state)
        write_snapshot(tmp_path / "sys.snap", state)
        with pytest.raises(SnapshotError, match="does not fit"):
            restore_system(system, tmp_path / "sys.snap")


class TestJournal:
    def test_lifecycle_and_events(self, tmp_path):
        journal = JobJournal(tmp_path / "j.db")
        journal.submit("j1", {"payload": 1}, max_attempts=2, deadline_s=9.0)
        record = journal.get("j1")
        assert record.state is JobState.PENDING
        assert record.spec == {"payload": 1}
        assert record.max_attempts == 2
        assert record.deadline_s == 9.0

        assert journal.start_attempt("j1") == 1
        journal.record_snapshot("j1", "/tmp/x.snap", cycle=500)
        journal.complete("j1", {"answer": 42})

        record = journal.get("j1")
        assert record.state is JobState.COMPLETED
        assert record.result == {"answer": 42}
        assert record.snapshot_cycle == 500
        kinds = [event.kind for event in journal.events("j1")]
        assert kinds == ["submitted", "started", "snapshot", "completed"]

    def test_duplicate_submit_refused(self, tmp_path):
        journal = JobJournal(tmp_path / "j.db")
        journal.submit("j1", None)
        with pytest.raises(ServeError, match="already exists"):
            journal.submit("j1", None)

    def test_unknown_job_refused(self, tmp_path):
        journal = JobJournal(tmp_path / "j.db")
        with pytest.raises(ServeError, match="unknown job"):
            journal.get("nope")
        with pytest.raises(ServeError, match="unknown job"):
            journal.start_attempt("nope")

    def test_orphaned_lists_midflight_jobs(self, tmp_path):
        journal = JobJournal(tmp_path / "j.db")
        journal.submit("running", None)
        journal.start_attempt("running")
        journal.submit("pending", None)
        journal.submit("done", None)
        journal.start_attempt("done")
        journal.complete("done", None)
        assert {record.job_id for record in journal.orphaned()} == {
            "running",
            "pending",
        }

    def test_resumed_attempts_are_marked(self, tmp_path):
        journal = JobJournal(tmp_path / "j.db")
        journal.submit("j1", None)
        journal.start_attempt("j1")
        journal.record_snapshot("j1", "/tmp/x.snap", cycle=100)
        assert journal.start_attempt("j1", resumed=True) == 2
        kinds = [event.kind for event in journal.events("j1")]
        assert kinds == ["submitted", "started", "snapshot", "resumed"]


class TestInlineGateway:
    def test_inline_job_matches_golden(self, tmp_path, assignment, golden):
        golden_records, golden_clock = golden
        with ServeGateway(tmp_path / "gw", inline=True) as gateway:
            job_id = gateway.submit(
                JobSpec(assignment=assignment, snapshot_every_cycles=5_000)
            )
            result = gateway.result(job_id, timeout=5)
        assert result.final_cycle == golden_clock
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.snapshots_written > 0
        assert result.resumed_from_cycle == 0

    def test_inline_failure_retries_then_fails(self, tmp_path, assignment):
        bad = NodeAssignment(
            node=0,
            config=assignment.config,
            services=(ServiceSpec("bad", "no_such_model", GOLD),),
            dispatches=((0, 0, 0),),
        )
        with ServeGateway(tmp_path / "gw", inline=True) as gateway:
            job_id = gateway.submit(JobSpec(assignment=bad), max_attempts=2)
            record = gateway.status(job_id)
            assert record.state is JobState.FAILED
            assert record.attempts == 2
            assert "no_such_model" in record.error
            with pytest.raises(ServeError, match="failed"):
                gateway.result(job_id)
            kinds = [event.kind for event in gateway.journal.events(job_id)]
            assert kinds.count("retry") == 1
            assert kinds[-1] == "failed"

    def test_unknown_job_raises(self, tmp_path):
        with ServeGateway(tmp_path / "gw", inline=True) as gateway:
            with pytest.raises(ServeError, match="unknown job"):
                gateway.result("ghost")


class TestProcessGateway:
    def test_crashed_worker_resumes_bit_exact(self, tmp_path, assignment, golden):
        golden_records, golden_clock = golden
        with ServeGateway(
            tmp_path / "gw", max_attempts=3, backoff_s=0.01
        ) as gateway:
            job_id = gateway.submit(
                JobSpec(
                    assignment=assignment,
                    snapshot_every_cycles=4_000,
                    crash_after_snapshots=2,
                )
            )
            result = gateway.result(job_id, timeout=180)
            record = gateway.status(job_id)
            kinds = [event.kind for event in gateway.journal.events(job_id)]
        assert result.final_cycle == golden_clock
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.resumed_from_cycle > 0
        assert record.attempts == 2
        assert "worker_death" in kinds
        assert "retry" in kinds
        assert "resumed" in kinds

    def test_cancel_pending_job(self, tmp_path, assignment):
        with ServeGateway(
            tmp_path / "gw", workers=1, backoff_s=0.01
        ) as gateway:
            first = gateway.submit(
                JobSpec(assignment=assignment, snapshot_every_cycles=4_000)
            )
            second = gateway.submit(JobSpec(assignment=assignment))
            assert gateway.cancel(second) is True
            assert gateway.status(second).state is JobState.CANCELLED
            with pytest.raises(ServeError, match="cancelled"):
                gateway.result(second)
            # The first job is unaffected by the cancellation.
            gateway.result(first, timeout=180)

    def test_deadline_fails_running_job(self, tmp_path, assignment):
        with ServeGateway(tmp_path / "gw", backoff_s=0.01) as gateway:
            job_id = gateway.submit(
                JobSpec(assignment=assignment, snapshot_every_cycles=4_000),
                deadline_s=0.001,
            )
            with pytest.raises(ServeError, match="failed|deadline"):
                gateway.result(job_id, timeout=180)
            record = gateway.status(job_id)
        assert record.state is JobState.FAILED
        assert "deadline" in record.error

    def test_gateway_reboot_resumes_orphans(self, tmp_path, assignment, golden):
        """A journal left mid-flight (worker AND gateway both killed) is
        recovered by the next gateway: the RUNNING row is treated as a
        worker death and resumed from its last snapshot."""
        golden_records, golden_clock = golden
        root = tmp_path / "gw"
        snapshot_dir = root / "snapshots"
        snapshot_dir.mkdir(parents=True)
        spec = JobSpec(assignment=assignment, snapshot_every_cycles=4_000)

        # Forge the exact on-disk state a kill -9 of worker + gateway
        # leaves behind: a RUNNING journal row pointing at a mid-run
        # snapshot, with no process anywhere.
        from repro.farm.node import submit_assignment

        journal = JobJournal(root / "journal.db")
        journal.submit("orphan", spec, max_attempts=3)
        journal.start_attempt("orphan")
        system = build_node_system(assignment.config, assignment.services)
        submit_assignment(assignment, system)
        system.run(until_cycle=8_000)
        path = snapshot_dir / "orphan.snap"
        snapshot_system(system, path, meta={"job_id": "orphan"})
        journal.record_snapshot("orphan", str(path), system.clock)
        assert journal.get("orphan").state is JobState.RUNNING

        with ServeGateway(root, max_attempts=3, backoff_s=0.01) as rebooted:
            result = rebooted.result("orphan", timeout=180)
            kinds = [e.kind for e in rebooted.journal.events("orphan")]
        assert result.final_cycle == golden_clock
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.resumed_from_cycle == system.clock
        assert "worker_death" in kinds
        assert "resumed" in kinds


class TestFarmWorkerRetry:
    @pytest.fixture(scope="class")
    def farm_day(self):
        spec = TrafficSpec(
            tenants=(
                TenantSpec(0, service=0, mean_interarrival_cycles=60_000),
                TenantSpec(1, service=1, mean_interarrival_cycles=45_000),
            ),
            duration_cycles=400_000,
            seed=7,
        )
        farm = Farm(
            [AcceleratorConfig.small(), AcceleratorConfig.small()],
            SERVICES,
            FcfsScheduler(),
        )
        return farm, generate_jobs(spec)

    def test_crashed_worker_is_retried_once(
        self, farm_day, tmp_path, monkeypatch
    ):
        farm, jobs = farm_day
        baseline = farm.serve(jobs, max_workers=2)
        assert baseline.report.worker_retries == 0

        one_kill = ChaosPlan(actions=(ChaosAction("kill_worker", 0),))
        for name, value in one_kill.arm_worker_kills(tmp_path).items():
            monkeypatch.setenv(name, value)
        sentinel = tmp_path / "kill-node-0"
        assert sentinel.exists()
        crashed = farm.serve(jobs, max_workers=2)
        assert crashed.report.worker_retries >= 1
        assert crashed.outcomes == baseline.outcomes
        assert not sentinel.exists()
        assert "worker retries" in crashed.report.format()
        assert "worker retries" not in baseline.report.format()

    def test_serve_durable_matches_parallel_serve(self, farm_day, tmp_path):
        farm, jobs = farm_day
        baseline = farm.serve(jobs, max_workers=2)
        with ServeGateway(
            tmp_path / "gw", workers=2, backoff_s=0.01
        ) as gateway:
            durable = farm.serve_durable(
                jobs, gateway, snapshot_every_cycles=20_000
            )
        assert durable.outcomes == baseline.outcomes
        assert durable.report.worker_retries == 0
        assert durable.report.makespan_cycles == baseline.report.makespan_cycles


class TestCorruptSnapshotFallback:
    def test_poisoned_snapshot_falls_back_to_fresh_start(
        self, tmp_path, assignment, golden
    ):
        """A resume whose snapshot fails its CRC journals the corruption,
        discards the snapshot, and replays from scratch — same records."""
        from repro.farm import poison_snapshot_file
        from repro.farm.node import submit_assignment
        from repro.serve import execute_job

        golden_records, golden_clock = golden
        journal = JobJournal(tmp_path / "journal.db")
        spec = JobSpec(assignment=assignment, snapshot_every_cycles=4_000)
        journal.submit("j1", spec)
        journal.start_attempt("j1")
        # Simulate a first attempt that snapshotted mid-replay, then died.
        system = build_node_system(assignment.config, assignment.services)
        submit_assignment(assignment, system)
        system.run(until_cycle=8_000)
        snap = tmp_path / "j1.snap"
        snapshot_system(system, snap, meta={"job_id": "j1"})
        journal.record_snapshot("j1", str(snap), system.clock)

        poison_snapshot_file(snap, seed=3)
        with pytest.raises(SnapshotError):
            read_snapshot(snap)  # the poison helper defeats the CRC

        attempt = journal.start_attempt("j1", resumed=True)
        result = execute_job("j1", spec, journal, tmp_path, attempt=attempt)
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.final_cycle == golden_clock
        assert result.resumed_from_cycle == 0  # fresh start, not a resume
        kinds = [event.kind for event in journal.events("j1")]
        assert "snapshot_corrupt" in kinds
        assert "snapshot_discarded" in kinds

    @pytest.mark.parametrize("version", [1, VERSION])
    def test_old_layout_snapshot_falls_back_to_fresh_start(
        self, tmp_path, assignment, golden, version
    ):
        """Version skew is a typed refusal, not a worker crash: a CRC-clean
        v1 file (and a v2-stamped file carrying the v1 state layout, which
        only the restore itself can refuse) is journaled as corrupt and the
        job completes from cycle 0."""
        from repro.serve import execute_job

        golden_records, golden_clock = golden
        journal = JobJournal(tmp_path / "journal.db")
        spec = JobSpec(assignment=assignment, snapshot_every_cycles=4_000)
        journal.submit("j1", spec)
        journal.start_attempt("j1")
        v1_state = {
            "fingerprint": {},
            "ddr": {"cursor": 0, "regions": {}, "pending_flips": []},
            "requests": [],
            "sequence": 0,
        }
        snap = tmp_path / "j1.snap"
        payload = pickle.dumps({"meta": {"cycle": 8_000}, "state": v1_state})
        snap.write_bytes(frame(MAGIC, version, payload))
        journal.record_snapshot("j1", str(snap), 8_000)
        with pytest.raises(SnapshotError):
            restore_system(
                build_node_system(assignment.config, assignment.services), snap
            )

        attempt = journal.start_attempt("j1", resumed=True)
        result = execute_job("j1", spec, journal, tmp_path, attempt=attempt)
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.final_cycle == golden_clock
        assert result.resumed_from_cycle == 0
        kinds = [event.kind for event in journal.events("j1")]
        assert kinds.count("snapshot_corrupt") == 1

    def test_failed_checkpoint_write_does_not_kill_the_job(
        self, tmp_path, assignment, golden, monkeypatch
    ):
        """ENOSPC on one checkpoint: journaled, skipped, job bit-identical."""
        from repro.serve import execute_job

        golden_records, golden_clock = golden
        journal = JobJournal(tmp_path / "journal.db")
        spec = JobSpec(assignment=assignment, snapshot_every_cycles=4_000)
        journal.submit("j1", spec)
        attempt = journal.start_attempt("j1")
        real_fsync, calls = os.fsync, []

        def fsync_full_once(fd):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_full_once)
        result = execute_job("j1", spec, journal, tmp_path, attempt=attempt)
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.final_cycle == golden_clock
        assert len(calls) > 2 and result.snapshots_written == len(calls) - 1
        failed = [e for e in journal.events("j1") if e.kind == "snapshot_write_failed"]
        assert len(failed) == 1 and "No space left" in failed[0].detail["error"]
        # The surviving file is the last *successful* checkpoint, intact.
        assert probe_snapshot(tmp_path / "j1.snap").meta["job_id"] == "j1"
        assert [p.name for p in tmp_path.glob("*.tmp.*")] == []

    def test_clear_snapshot(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.db")
        journal.submit("j1", {"spec": 1})
        journal.record_snapshot("j1", "/tmp/x.snap", cycle=500)
        journal.clear_snapshot("j1")
        record = journal.get("j1")
        assert record.snapshot_path is None
        assert record.snapshot_cycle is None
        with pytest.raises(ServeError):
            journal.clear_snapshot("missing")


def test_header_layout_is_stable():
    """The on-disk header is part of the format contract."""
    assert HEADER.size == 24 and HEADER.format == ">8sHHIQ"
    assert MAGIC == b"INCASNAP"
