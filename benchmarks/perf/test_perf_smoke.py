"""Smoke test of the perf harness: the ``--quick`` tier, end to end.

Lives outside ``testpaths``, so tier-1 never collects it; run it with
``python -m pytest benchmarks/perf/test_perf_smoke.py``.  It checks that
the quick pass emits every declared metric name with its unit, that every
oracle passed, and that ``BENCHMARK.json`` is what ``spec`` says it is.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import spec

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--quick", "--out", str(out)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text())


def test_every_oracle_passed(quick_ledger):
    assert quick_ledger["correct"]
    assert set(quick_ledger["workloads"]) == set(spec.WORKLOADS)
    for name, entry in quick_ledger["workloads"].items():
        record = entry["traced"]
        assert record["correct"], (name, record["errors"])
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        assert record["end_to_end"]["failed_share"]["value"] == 0, name
        assert record["coverage"] >= 0.9, name


def test_every_declared_metric_is_emitted_with_its_unit(quick_ledger):
    records = [entry["traced"] for entry in quick_ledger["workloads"].values()]
    for metric in spec.END_TO_END:
        for record in records:
            emitted = record["end_to_end"].get(metric.name)
            if metric.applies_to(record["workload"]):
                assert emitted is not None, (record["workload"], metric.name)
                assert emitted["unit"] == metric.unit
            else:  # n/a cells are omitted, not zero
                assert emitted is None, (record["workload"], metric.name)
    for metric in spec.PER_LAYER:
        units = {
            record["per_layer"][metric.name]["unit"]
            for record in records
            if metric.name in record["per_layer"]
        }
        assert units == {metric.unit}, f"{metric.name} emitted by no workload"


def test_benchmark_json_is_the_manifest():
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.driver_manifest()
    # ISSUE 11's fifteen end-to-end metrics plus wall_norm_s.
    assert len(spec.WORKLOADS) == 8 and len(spec.END_TO_END) == 16
    names = [row["name"] for row in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert {metric.name for metric in spec.END_TO_END} <= set(names)


def test_driver_line_carries_exactly_the_declared_metrics():
    manifest = spec.driver_manifest()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable, str(PERF_DIR / "run.py"), "--quick",
                "--workload", "farm_day", "--seed", "5", "--trace", str(trace),
            ],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-4000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [row["name"] for row in manifest[group]]
        for row in manifest[group]:
            assert line["metrics"][row["name"]]["unit"] == row["unit"]


def test_no_process_outlives_a_run():
    """``gateway_recovery`` spawns workers, and with them the resource
    tracker of ``multiprocessing``; none may be alive once the run exits."""
    done = subprocess.Popen(
        [
            sys.executable, str(PERF_DIR / "run.py"), "--quick",
            "--workload", "gateway_recovery", "--seed", "5", "--trace", "0",
        ],
        cwd=REPO_ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert done.wait(timeout=300) == 0
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == done.pid:  # session id
                left.append((entry.name, fields[0]))
    assert not left, left
