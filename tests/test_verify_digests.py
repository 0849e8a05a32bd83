"""``verify_program`` says exactly what it said: the same diagnostics, in the
same order, with the same words, on a seeded corpus of broken programs.

``tests/data/verify_digests.json`` holds one sha256 per mutated program —
six mutation kinds x three small networks x ``big`` / ``small`` x the three
variants, each under a 1-cycle response budget so its WCL002 finding pins
the static WCIRL — generated on the commit named in the file by
``tests/regen_verify_digests.py``.  A verifier refactor is held to it without
regenerating; a deliberate change of a rule's findings regenerates it from a
*reference* checkout and says so.
"""

from __future__ import annotations

import json

import pytest

from tests.regen_verify_digests import DRAWS, FIXTURE, KINDS, cases, digests

PINNED = json.loads(FIXTURE.read_text())


def test_fixture_names_its_commit_and_covers_every_case():
    assert len(PINNED["commit"]) == 40
    assert len(PINNED["digests"]) == 3 * len(KINDS) * DRAWS * len(list(cases())) >= 1000


def test_corpus_is_mostly_broken_programs():
    """A corpus of clean programs would pin nothing: most digests differ."""
    assert len(set(PINNED["digests"].values())) > len(PINNED["digests"]) // 2


@pytest.mark.parametrize("case", list(cases()), ids="|".join)
def test_diagnostics_match_the_pinned_digests(case):
    for key, digest in digests(*case).items():
        assert digest == PINNED["digests"][key], key
