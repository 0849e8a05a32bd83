"""Every tier-1 cell of the conformance matrix equals its stepped golden.

The cells, the goldens, the observable surface and the per-cell checks are
in ``tests/conformance.py``.  The pinned cells of the older differential
tests run under those tests' names (``conformance.NAMED``); this module runs
the rest.  Across their seeds, armed cells fire what they arm.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from tests.conformance import (
    ARMED, MATRIX, PINNED, TIER1, WORKLOADS, Cell, check, golden_cell, pairs, seen, valid,
    valid_cells,
)


@pytest.mark.parametrize("cell", MATRIX, ids=str)
def test_cell_equals_its_stepped_golden(cell):
    check(cell)


def test_cells_engage_across_their_seeds():
    """Per workload: its batched timing cells retire most instructions in
    batches, its fault cells fire the sites they must, the crash workload
    crashes and backpressured ROS topics retry and acknowledge.  It runs
    last in the session (``conftest.py``), so every cell has run once."""
    retired: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    sites: dict[str, set] = defaultdict(set)
    crashes: dict[str, int] = defaultdict(int)
    kinds: set = set()
    for cell in TIER1:
        name, run = golden_cell(cell).workload, seen(cell)
        if cell.advance == "one" and cell.core == "timing":
            retired[name][0] += run["counts"]["instr_batched"]
            retired[name][1] += run["counts"]["instr_stepped"]
        if "faults" in ARMED[cell.armed]:
            sites[name] |= run["sites"]
            crashes[name] += run["crashed"]
        if cell.driver == "ros" and cell.armed == "backpressure":
            kinds |= run["kinds"]
    for name, (batched, stepped) in retired.items():
        assert batched > stepped, name
    for name, fired in sites.items():
        assert WORKLOADS[name].fires <= fired, name
    assert not sites["zero-rate"]
    assert crashes["crash"] > 0
    assert {"ros_retry", "ros_ack"} <= kinds


# -- the cover itself -------------------------------------------------------------


def test_tier1_holds_every_pinned_cell():
    assert set(PINNED) <= set(TIER1)
    assert all(valid(cell) for cell in PINNED)


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
