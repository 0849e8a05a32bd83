"""Every tier-1 cell of the conformance matrix equals its stepped golden.

The cells, the goldens, the observable surface and the per-cell checks are
in ``tests/conformance.py``.  The pinned cells of the older differential
tests run under those tests' names (``conformance.NAMED``); this module runs
the rest.  Across their seeds, armed cells fire what they arm.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.obs.events import EventKind
from tests.conformance import (
    ARMED, AT_COMPLETION, COLUMN_CODEC, FUNCTIONAL, MATRIX, PINNED, TIER1, WORKLOADS, Cell,
    check, golden, golden_cell, pairs, seen, valid, valid_cells,
)


@pytest.mark.parametrize("cell", MATRIX, ids=str)
def test_cell_equals_its_stepped_golden(cell):
    check(cell)


def test_cells_engage_across_their_seeds():
    """Per workload: its batched cells retire most instructions in batches
    (its timing-only cells and, apart, its functional ones), its fault
    cells fire the sites they must, retire ``ddr.stall`` fires inside
    batches and end stretches at pending ECC flips (``stalls_batched`` and
    ``short_flip``), the crash workload crashes and
    backpressured ROS topics retry and acknowledge.  It runs
    last in the session (``conftest.py``), so every cell has run once."""
    retired: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
    bounds: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    sites: dict[str, set] = defaultdict(set)
    crashes: dict[str, int] = defaultdict(int)
    kinds: set = set()
    for cell in TIER1:
        name, run = golden_cell(cell).workload, seen(cell)
        if cell.advance == "one":
            retired[name, cell.core][0] += run["counts"]["instr_batched"]
            retired[name, cell.core][1] += run["counts"]["instr_stepped"]
        if "faults" in ARMED[cell.armed]:
            sites[name] |= run["sites"]
            crashes[name] += run["crashed"]
            bounds[name][0] += run["counts"]["short_flip"]
            bounds[name][1] += run["counts"]["stalls_batched"]
        if cell.driver == "ros" and cell.armed == "backpressure":
            kinds |= run["kinds"]
    for key, (batched, stepped) in retired.items():
        assert batched > stepped, key
    for name, fired in sites.items():
        assert WORKLOADS[name].fires <= fired, name
    for name, (flips, stalls) in bounds.items():
        # Armed stretches stop at pending flips and run through stalls.
        armed = bool(WORKLOADS[name].fires)
        assert (flips > 0, stalls > 0) == (armed, armed), name
    assert not sites["zero-rate"]
    assert crashes["crash"] > 0
    assert {"ros_retry", "ros_ack"} <= kinds


# -- the cover itself -------------------------------------------------------------


def test_tier1_holds_every_pinned_cell():
    joined = PINNED + FUNCTIONAL + AT_COMPLETION + COLUMN_CODEC
    assert set(joined) <= set(TIER1)
    assert all(valid(cell) for cell in joined)


@pytest.mark.parametrize("cell", AT_COMPLETION, ids=str)
def test_at_completion_cells_land_on_a_last_retire(cell):
    """Not vacuous: in each golden, jobs arrive on the cycle another job
    completes, and the stepped order delivers the arrival first."""
    events = [e for bus in golden(cell).observed["events"] for e in bus]
    kinds = (EventKind.JOB_SUBMIT, EventKind.JOB_COMPLETE)
    order = [(e.cycle, e.kind) for e in events if e.kind in kinds]
    landed = [
        cycle for index, (cycle, kind) in enumerate(order)
        if kind is EventKind.JOB_COMPLETE and (cycle, EventKind.JOB_SUBMIT) in order[:index]
    ]
    assert len(landed) >= 2


@pytest.mark.parametrize("cell", COLUMN_CODEC, ids=str)
def test_column_cells_snapshot_a_long_heap_and_every_extra(cell):
    """Not vacuous: at the cut of each golden, many requests are still in
    the heap and the completed jobs carry each extra the column codec keeps
    on its side list (degraded, a typed outcome, a checkpoint retry)."""
    cut = WORKLOADS[cell.workload].cut
    jobs = [job for system in golden(cell).observed["jobs"] for slot in system for job in slot]
    done = [job for job in jobs if job["complete_cycle"] < cut]
    assert any(job["degraded"] for job in done)
    assert any(job["outcome"] is not None for job in done)
    assert any(job["checkpoint_retries"] for job in done)
    # Completed jobs requested after the cut sat in the heap at the cut.
    assert sum(job["request_cycle"] > cut for job in jobs) >= 16


def test_every_valid_pair_occurs_in_a_tier1_cell():
    wanted = set().union(*map(pairs, valid_cells()))
    assert wanted <= set().union(*map(pairs, TIER1))


@pytest.mark.parametrize(
    "cell",
    [
        Cell("ros", advance="pickled"), Cell("dslam", advance="disk"),
        Cell("multicore-1", advance="pickled"), Cell("multicore-static", advance="chunked"),
        Cell("runtime", armed="backpressure"), Cell("multicore-least-loaded", armed="qos"),
        Cell("dslam", armed="all"), Cell("dslam", variant="layer"),
        Cell("dslam", core="functional"),
    ],
    ids=str,
)
def test_predicate_rejects_what_it_documents(cell):
    assert not valid(cell)
