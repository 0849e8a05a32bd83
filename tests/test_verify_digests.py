"""``verify_program`` says exactly what it said: the same diagnostics, in the
same order, with the same words, on a seeded corpus of broken programs.

``tests/data/verify_digests.json`` holds one sha256 per mutated program —
six mutation kinds x three small networks x ``big`` / ``small`` x the three
variants, each under a 1-cycle response budget so its WCL002 finding pins
the static WCIRL — generated on the commit named in the file by the
``verify`` pin of ``tests/pins.py``.  A verifier refactor is held to it
without regenerating; a deliberate change of a rule's findings says so and
runs ``PYTHONPATH=<reference checkout>/src python -m tests.pins regen verify``.
"""

from __future__ import annotations

import pytest

from tests.pins import PINS

PIN = PINS["verify"]
PINNED = PIN.load()["digests"]


def test_corpus_is_mostly_broken_programs():
    """A corpus of clean programs would pin nothing: most digests differ."""
    assert len(set(PINNED.values())) > len(PINNED) // 2


@pytest.mark.parametrize("case", PIN.cases(), ids="|".join)
def test_diagnostics_match_the_pinned_digests(case):
    for key, digest in PIN.digests(case).items():
        assert digest == PINNED[key], key
