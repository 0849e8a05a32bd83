"""The durable serving gateway: journal, snapshots, crash recovery.

Every recovery claim is differential: a job that crashed (or whose gateway
rebooted) must finish with records bit-identical to an uninterrupted golden
replay of the same assignment.  Process-mode tests use the deterministic
``crash_after_snapshots`` hook — the worker dies via ``os._exit`` with no
cleanup, indistinguishable from ``kill -9`` from the gateway's side (the
literal-SIGKILL benchmark lives in ``benchmarks/test_crash_recovery.py``).
"""

from __future__ import annotations

import copyreg
import errno
import io
import json
import os
import pickle
import sqlite3
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro

from repro.container import HEADER, frame
from repro.errors import ServeError, SnapshotError
from repro.farm import (
    Farm,
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
from repro.farm.node import NodeJobResult
from repro.serve.snapshot import MAGIC, VERSION, probe_snapshot
from repro.serve.worker import JobResult, load_result
from tests.farm_days import HalfAtArrival, overlapping_nodes, simulated
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


@dataclass(frozen=True, order=True)
class _V2TimedRequest:
    """The request record a v2 snapshot pickled (re-homed to
    ``repro.runtime.system.TimedRequest`` in the pickle bytes)."""

    cycle: int
    sequence: int
    task_id: int


class _FieldByField(pickle.Pickler):
    """Pickles a ``JobResult`` the way a frozen dataclass pickles by
    default, the form journals held before its records had a codec:
    ``copyreg.__newobj__`` of the class, then its ``__dict__``."""

    def reducer_override(self, obj):
        if type(obj) is JobResult:
            return copyreg.__newobj__, (JobResult,), dict(vars(obj))
        return NotImplemented

    @classmethod
    def dumps(cls, obj) -> bytes:
        buffer = io.BytesIO()
        cls(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
        return buffer.getvalue()


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
        assert info.version == VERSION == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot(tmp_path / "absent.snap")

    def test_v2_snapshot_with_pending_requests_is_refused_by_version(
        self, tmp_path, assignment
    ):
        """A v2 file pickled its pending requests as frozen dataclasses,
        which do not unpickle into today's tuple ``TimedRequest``
        (``TypeError``).  The version check refuses the file before the
        unpickler runs: a typed past-version ``SnapshotError``."""
        system = build_node_system(assignment.config, assignment.services)
        for _job_id, service, cycle in assignment.dispatches:
            system.submit(service, cycle)
        state = dict(system.state_view())
        state["_requests"] = [_V2TimedRequest(*request) for request in system._requests]
        assert state["_requests"]
        payload = pickle.dumps({"meta": {"cycle": 0}, "state": state}, protocol=2)
        here = f"c{_V2TimedRequest.__module__}\n{_V2TimedRequest.__qualname__}\n"
        payload = payload.replace(here.encode(), b"crepro.runtime.system\nTimedRequest\n")
        with pytest.raises(TypeError):
            pickle.loads(payload)  # what an unchecked v2 read would hit
        path = tmp_path / "v2.snap"
        path.write_bytes(frame(MAGIC, 2, payload))
        for reader in (read_snapshot, probe_snapshot):
            with pytest.raises(SnapshotError, match="format version 2") as refused:
                reader(path)
            assert refused.value.__cause__.reason == "version"
        with pytest.raises(SnapshotError, match="format version 2"):
            restore_system(build_node_system(assignment.config, assignment.services), path)

    def test_v3_snapshot_with_object_lists_is_refused_by_version(
        self, tmp_path, assignment
    ):
        """A v3 file pickled the request heap and each slot's completed
        jobs as object lists, where v4 holds int columns.  The version
        check refuses the file before the unpickler runs: a typed
        past-version ``SnapshotError``, not an unpickling error."""
        from repro.farm.node import submit_assignment

        system = build_node_system(assignment.config, assignment.services)
        submit_assignment(assignment, system)
        system.submit(1, 200_000)
        system.run(until_cycle=50_000)
        state = dict(system.state_view())
        state["_requests"] = list(system._requests)
        state["iau"] = dict(state["iau"])
        completed = 0
        for slot, context in enumerate(system.iau.contexts):
            if context is not None:
                key = f"contexts[{slot}]"
                state["iau"][key] = {**state["iau"][key], "completed": context.completed}
                completed += len(context.completed)
        assert state["_requests"] and completed
        path = tmp_path / "v3.snap"
        payload = pickle.dumps({"meta": {"cycle": system.clock}, "state": state})
        path.write_bytes(frame(MAGIC, 3, payload))
        for reader in (read_snapshot, probe_snapshot):
            with pytest.raises(SnapshotError, match="format version 3") as refused:
                reader(path)
            assert refused.value.__cause__.reason == "version"
        with pytest.raises(SnapshotError, match="format version 3"):
            restore_system(build_node_system(assignment.config, assignment.services), path)

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
        self.refused(tmp_path, "past_version", f"version {VERSION - 1}")
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

    def test_a_result_journaled_before_the_records_codec_still_loads(
        self, tmp_path, golden
    ):
        """A ``JobResult`` pickles its records as one int64 block and loads
        them back as a tuple of ``NodeJobResult`` rows; one journaled field
        by field, as results were before that codec, loads the same."""
        records, clock = golden
        result = JobResult("j", 0, tuple(records), clock, resumed_from_cycle=7)
        assert pickle.loads(pickle.dumps(result)) == result
        journal = JobJournal(tmp_path / "j.db")
        for job_id in ("now", "before"):
            journal.submit(job_id, None)
            journal.start_attempt(job_id)
            journal.complete(job_id, result)
        with sqlite3.connect(tmp_path / "j.db") as conn:
            conn.execute(
                "UPDATE jobs SET result = ? WHERE job_id = 'before'",
                (_FieldByField.dumps(result),),
            )
        for job_id in ("now", "before"):
            loaded = load_result(journal, job_id)
            assert loaded == result
            assert type(loaded.records) is tuple
            assert all(type(row) is NodeJobResult for row in loaded.records)

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


#: A whole program on a process-mode gateway.  ``served``: one job, run to
#: completion inside ``with``.  ``abandoned``: a long job, and the program
#: exits while its worker runs and the gateway is still open.  Either way it
#: prints the job id and the gateway's launch contract as JSON.
GATEWAY_PROGRAM = """
import json, multiprocessing.forkserver, sys, time
from repro.farm import NodeAssignment, ServiceSpec, SloClass
from repro.hw.config import AcceleratorConfig
from repro.serve import JobSpec, JobState, ServeGateway

root, mode = sys.argv[1:]
jobs = 1 if mode == "served" else 200
slo = SloClass("gold", rank=0, weight=1.0, deadline_cycles=400_000)
assignment = NodeAssignment(
    node=0, config=AcceleratorConfig.small(),
    services=(ServiceSpec("det", "tiny_cnn", slo),),
    dispatches=tuple((i, 0, i * 3_000) for i in range(jobs)),
)
gateway = ServeGateway(root)
job_id = gateway.submit(JobSpec(assignment=assignment, snapshot_every_cycles=4_000))
if mode == "served":
    with gateway:
        gateway.result(job_id, timeout=120)
else:
    # A worker can be live before it journals its attempt: wait for both.
    while (
        gateway.status(job_id).state is not JobState.RUNNING
        or gateway.worker_pid(job_id) is None
    ):
        time.sleep(0.005)
print(json.dumps({
    "job_id": job_id,
    "start_method": gateway._mp.get_start_method(),
    "preload": multiprocessing.forkserver._forkserver._preload_modules,
}))
"""


#: A whole program that serves a day through ``Farm.serve(max_workers=2)``:
#: node 0 overlaps, so it is shipped to the farm's private gateway.  Prints
#: whether every job was served, whether the gateway was imported, and the
#: fork server's preload list as JSON.  Needs the repo root on the path.
FARM_PROGRAM = """
import json, multiprocessing.forkserver, sys
from repro.farm import Farm, ServiceSpec, SloClass, TenantSpec, TrafficSpec, generate_jobs
from repro.hw.config import AcceleratorConfig
from tests.farm_days import HalfAtArrival

slo = SloClass("gold", rank=0, weight=1.0, deadline_cycles=400_000)
services = (ServiceSpec("det", "tiny_cnn", slo),)
jobs = generate_jobs(TrafficSpec(
    tenants=(TenantSpec(0, service=0, mean_interarrival_cycles=30_000),),
    duration_cycles=300_000, seed=7,
))
farm = Farm([AcceleratorConfig.small()] * 2, services, HalfAtArrival())
result = farm.serve(jobs, max_workers=2)
print(json.dumps({
    "served": len(result.outcomes) == len(jobs),
    "gateway": "repro.serve.gateway" in sys.modules,
    "preload": multiprocessing.forkserver._forkserver._preload_modules,
}))
"""


#: A script *file* (``-c`` and ``-m`` callers carry no main path) whose
#: module body leaves one line in a marker file each time it runs.  Its
#: main block serves one job through a worker death and a resume, then
#: prints the outcome and the fork server's preload list as JSON.
LAUNCH_SCRIPT = """
import json, multiprocessing.forkserver, sys

root, marker = sys.argv[1:]
with open(marker, "a") as handle:
    handle.write("module body ran\\n")

if __name__ == "__main__":
    from repro.farm import NodeAssignment, ServiceSpec, SloClass
    from repro.hw.config import AcceleratorConfig
    from repro.serve import JobSpec, ServeGateway

    slo = SloClass("gold", rank=0, weight=1.0, deadline_cycles=400_000)
    assignment = NodeAssignment(
        node=0, config=AcceleratorConfig.small(),
        services=(ServiceSpec("det", "tiny_cnn", slo),),
        dispatches=tuple((i, 0, i * 3_000) for i in range(6)),
    )
    with ServeGateway(root, backoff_s=0.01) as gateway:
        job_id = gateway.submit(JobSpec(
            assignment=assignment, snapshot_every_cycles=4_000, crash_after_snapshots=2,
        ))
        result = gateway.result(job_id, timeout=120)
        attempts = gateway.status(job_id).attempts
    print(json.dumps({
        "resumed_from_cycle": result.resumed_from_cycle,
        "attempts": attempts,
        "preload": multiprocessing.forkserver._forkserver._preload_modules,
    }))
"""


#: A module on the fork server's PYTHONPATH, appended to the gateway's
#: preload list by :data:`PRELOAD_PROGRAM`, so the fork server imports it
#: right after that list: it notes then whether ``repro.serve.worker`` was
#: already imported, and which process imported the probe.  Its
#: ``probe_then_run`` is the stand-in worker entry point: it writes what
#: was noted, with its own pid, then runs the real worker.
PRELOAD_PROBE = """
import json, os, sys
from pathlib import Path

WORKER_PRELOADED = "repro.serve.worker" in sys.modules
IMPORTED_BY = os.getpid()

def probe_then_run(job_id, journal_path, snapshot_dir):
    from repro.serve import worker
    Path(snapshot_dir).parent.joinpath("probe.json").write_text(json.dumps({
        "worker_preloaded": WORKER_PRELOADED,
        "imported_by": IMPORTED_BY,
        "pid": os.getpid(),
    }))
    worker.worker_main(job_id, journal_path, snapshot_dir)
"""

#: One job on a process-mode gateway whose fork server also preloads the
#: probe and whose workers run it first; prints the fork server's pid as
#: JSON.
PRELOAD_PROGRAM = """
import json, multiprocessing.forkserver, sys
import preload_probe
import repro.serve.gateway as gateway_module
from repro.farm import NodeAssignment, ServiceSpec, SloClass
from repro.hw.config import AcceleratorConfig
from repro.serve import JobSpec, ServeGateway

slo = SloClass("gold", rank=0, weight=1.0, deadline_cycles=400_000)
assignment = NodeAssignment(
    node=0, config=AcceleratorConfig.small(),
    services=(ServiceSpec("det", "tiny_cnn", slo),),
    dispatches=((0, 0, 0),),
)
gateway_module.PRELOAD = [*gateway_module.PRELOAD, "preload_probe"]
gateway_module.worker_main = preload_probe.probe_then_run
with ServeGateway(sys.argv[1]) as gateway:
    gateway.result(gateway.submit(JobSpec(assignment=assignment)), timeout=120)
    print(json.dumps({"fork_server": multiprocessing.forkserver._forkserver._forkserver_pid}))
"""


def session_members(session: int) -> list[tuple[str, str]]:
    """``(pid, state)`` of every live process in ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == session:
                members.append((entry.name, fields[0]))
    return members


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    return env


class TestWorkerLaunch:
    @pytest.mark.parametrize(
        "mode, state",
        [("served", JobState.COMPLETED), ("abandoned", JobState.RUNNING), ("farm", None)],
    )
    def test_no_process_outlives_a_gateway_program(self, tmp_path, mode, state):
        """Workers fork from a fork server that preloads the worker module,
        and the gateway's exit hook stops that server: once a program that
        used a gateway exits, nothing it started is left running.  A worker
        still running at exit is stopped, not waited for (its job stays
        RUNNING, for the next gateway to resume).  ``farm`` is a program
        whose gateway is the private one of ``Farm.serve(max_workers=2)``."""
        root = tmp_path / "gw"
        program, env = GATEWAY_PROGRAM, src_env()
        if mode == "farm":
            program = FARM_PROGRAM
            env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", program, str(root), mode],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True, text=True,
        )
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        assert session_members(child.pid) == []
        launch = json.loads(out)
        assert "repro.serve.worker" in launch["preload"]
        if state is None:
            assert launch["served"] and launch["gateway"]
            return
        assert launch["start_method"] == "forkserver"
        assert JobJournal(root / "journal.db").get(launch["job_id"]).state is state

    def test_a_launch_does_not_rerun_the_callers_script(self, tmp_path):
        """A worker launch (the first attempt and the relaunch after its
        death) runs nothing of the calling script: its module body runs
        once, in the caller.  Each attempt also finds everything it imports
        preloaded in the fork server, ``numpy.random`` included."""
        script = tmp_path / "serve_one.py"
        script.write_text(LAUNCH_SCRIPT)
        marker = tmp_path / "marker.txt"
        out = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "gw"), str(marker)],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=300,
            check=True,
        ).stdout
        launch = json.loads(out)
        assert launch["attempts"] == 2 and launch["resumed_from_cycle"] > 0
        assert marker.read_text().splitlines() == ["module body ran"]
        assert "numpy.random" in launch["preload"]


    def test_a_worker_finds_the_worker_module_preloaded(self, tmp_path):
        """A process-mode gateway worker finds ``repro.serve.worker``
        imported by another process, the fork server it forked from: the
        gateway's preload took effect, and the launch imported nothing.

        The worker cannot tell on its own: unpickling its process object
        imports ``repro.serve.worker`` anyway.  So the probe is preloaded
        after the gateway's list and looks at the fork server's modules."""
        (tmp_path / "preload_probe.py").write_text(PRELOAD_PROBE)
        env = src_env()
        env["PYTHONPATH"] += os.pathsep + str(tmp_path)
        out = subprocess.run(
            [sys.executable, "-c", PRELOAD_PROGRAM, str(tmp_path / "gw")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
            check=True,
        ).stdout
        fork_server = json.loads(out)["fork_server"]
        probe = json.loads((tmp_path / "gw" / "probe.json").read_text())
        assert probe["worker_preloaded"]
        assert probe["imported_by"] == fork_server != probe["pid"]


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
            HalfAtArrival(),
        )
        return farm, generate_jobs(spec)

    def test_serve_durable_matches_parallel_serve(self, farm_day, tmp_path):
        """Node 0 overlaps and is shipped on both paths; node 1 is answered
        by its plan.  Both equal the day with every node simulated."""
        farm, jobs = farm_day
        assert overlapping_nodes(farm, farm.plan(jobs)) == [0]
        baseline = farm.serve(jobs, max_workers=2)
        assert baseline.outcomes == simulated(farm, jobs).outcomes
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
        result = execute_job(journal.get("j1"), journal, tmp_path, attempt=attempt)
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.final_cycle == golden_clock
        assert result.resumed_from_cycle == 0  # fresh start, not a resume
        kinds = [event.kind for event in journal.events("j1")]
        assert "snapshot_corrupt" in kinds
        assert "snapshot_discarded" in kinds

    def test_missing_snapshot_falls_back_to_fresh_start(
        self, tmp_path, assignment, golden, monkeypatch
    ):
        """A journaled snapshot whose file is gone by the next attempt is a
        ``snapshot_corrupt`` like any unreadable one: journaled, discarded,
        replayed from scratch — same records."""
        import repro.serve.worker as worker

        golden_records, golden_clock = golden
        real_snapshot, calls = worker.snapshot_system, []

        def lose_the_disk_on_the_third(system, path, **kwargs):
            calls.append(path)
            if len(calls) == 3:  # the first attempt dies with its file
                os.remove(path)
                raise RuntimeError("worker lost its disk")
            return real_snapshot(system, path, **kwargs)

        monkeypatch.setattr(worker, "snapshot_system", lose_the_disk_on_the_third)
        with ServeGateway(tmp_path / "gw", inline=True) as gateway:
            job_id = gateway.submit(
                JobSpec(assignment=assignment, snapshot_every_cycles=4_000)
            )
            result = gateway.result(job_id)
            record = gateway.status(job_id)
            kinds = [event.kind for event in gateway.journal.events(job_id)]
        assert record_tuples(result.records) == record_tuples(golden_records)
        assert result.final_cycle == golden_clock
        assert result.resumed_from_cycle == 0
        assert record.attempts == 2
        assert "resumed" in kinds
        assert "snapshot_corrupt" in kinds

    @pytest.mark.parametrize("version", [1, VERSION])
    def test_old_layout_snapshot_falls_back_to_fresh_start(
        self, tmp_path, assignment, golden, version
    ):
        """Version skew is a typed refusal, not a worker crash: a CRC-clean
        v1 file (and a current-version file carrying the v1 state layout,
        which only the restore itself can refuse) is journaled as corrupt
        and the job completes from cycle 0."""
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
        result = execute_job(journal.get("j1"), journal, tmp_path, attempt=attempt)
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
        result = execute_job(journal.get("j1"), journal, tmp_path, attempt=attempt)
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
