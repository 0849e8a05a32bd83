"""The pin registry, ``tests/pins.py``: every pinned file names the clean
commit that produced it and holds exactly its cases' keys, and ``check``,
``regen`` and ``stamp`` behave, shown on a fake pin (no compile, no simulator).
"""

from __future__ import annotations

import json
import subprocess

import pytest

from tests.pins import CLEAN_COMMIT, PINS, Pin, audit, check, one_key, regen, stamp, still

SHA, LATER = "0123456789abcdef" * 2 + "01234567", "89abcdef" * 5


@pytest.mark.parametrize("name", PINS)
def test_fixture_names_its_commit_and_covers_every_case(name):
    audit(PINS[name])


def fake_pin(tmp_path, pinned: dict[str, str], fresh: dict[str, str]) -> Pin:
    """A pin stamped ``SHA`` holding ``pinned``; each case is its own key,
    and its producer yields ``fresh[case]``."""
    pin = Pin("fake", tmp_path / "fake.json", lambda: list(fresh), lambda c: [fresh[c]], one_key)
    pin.file.write_text(json.dumps({"commit": SHA, "digests": pinned}, indent=1) + "\n")
    return pin


def test_check_names_the_keys_that_moved(tmp_path, capsys):
    moved = check(fake_pin(tmp_path, {"x": "1", "y": "2"}, {"x": "1", "y": "3"}))
    out = capsys.readouterr().out
    assert moved["moved"] == ["y"] and moved["unchanged"] == ["x"]
    assert "fake: 1 moved, 1 unchanged, 0 added, 0 removed: FAILED" in out
    assert "  moved: y" in out and "moved: x" not in out


def test_regen_counts_every_kind_of_move_and_restamps(tmp_path, capsys):
    fresh = {"x": "1", "y": "3", "w": "4"}
    pin = fake_pin(tmp_path, {"x": "1", "y": "2", "z": "9"}, fresh)
    moved = regen(pin, LATER)
    assert moved == {"moved": ["y"], "unchanged": ["x"], "added": ["w"], "removed": ["z"]}
    out = capsys.readouterr().out
    assert out == f"fake: 1 moved, 1 unchanged, 1 added, 1 removed: fake.json stamped {LATER}\n"
    assert pin.load() == {"commit": LATER, "digests": fresh}
    assert still(check(pin))


def test_regen_with_nothing_moved_leaves_the_file_as_it_was(tmp_path, capsys):
    pin = fake_pin(tmp_path, {"x": "1", "y": "2"}, {"y": "2", "x": "1"})
    before = pin.file.read_bytes()
    assert still(regen(pin, LATER))
    assert pin.file.read_bytes() == before and pin.load()["commit"] == SHA
    out = capsys.readouterr().out
    assert out == "fake: 0 moved, 2 unchanged, 0 added, 0 removed: fake.json untouched\n"


def test_a_dirty_src_is_stamped_dirty_and_fails_the_audit(tmp_path):
    def git(*args: str) -> str:
        identity = ["-c", "user.name=pins", "-c", "user.email=pins@example.org"]
        command = ["git", "-C", str(tmp_path), *identity, *args]
        return subprocess.run(command, check=True, capture_output=True, text=True).stdout.strip()

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "model.py").write_text("CYCLES = 4\n")
    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "reference")
    commit = git("rev-parse", "HEAD")
    (tmp_path / "notes.txt").write_text("outside src/\n")
    assert stamp(tmp_path) == commit and CLEAN_COMMIT.fullmatch(commit)

    (tmp_path / "src" / "model.py").write_text("CYCLES = 5\n")
    assert stamp(tmp_path) == f"{commit}+dirty"
    pin = fake_pin(tmp_path, {}, {"x": "1"})
    regen(pin, stamp(tmp_path))
    with pytest.raises(AssertionError, match=r"stamped '[0-9a-f]{40}\+dirty', not a clean commit"):
        audit(pin)
