"""Declared state: capture and restore derived from one field list.

INCA's Vir_SAVE / Vir_LOAD is *exact state transfer* — back up precisely
the live state at an interrupt point, restore precisely that.  System
snapshots do the same one level up, so each subsystem says once *what* its
mutable state is and :class:`Stateful` derives how it is copied, checked
and restored: a field added to ``STATE`` cannot fall out of snapshots, and
a cache dropped in ``_reset_derived`` cannot survive a restore.
"""

from __future__ import annotations

import copy
from typing import Any, ClassVar, Mapping

from repro.errors import StateError


class Shared:
    """Marker for immutable records (events, timed requests, fault-log
    entries): a capture shares them instead of copying them."""

    def __deepcopy__(self, memo: dict[int, Any]) -> "Shared":
        return self


class Stateful:
    """Mixin deriving ``capture_state`` / ``restore_state`` from declarations.

    A subclass that adds keys of its own (``EXTRA``) overrides the pair,
    calls ``super()`` for the declared rest and handles only those keys.
    """

    #: Mutable attributes, captured in ONE ``deepcopy`` so identity links
    #: between them (queue <-> current_job <-> completed) survive.
    STATE: ClassVar[tuple[str, ...]] = ()
    #: Attributes holding a nested :class:`Stateful`, ``None`` when that
    #: subsystem is not armed, or a slot table (list) of either.  Unarmed
    #: parts and empty slots have no key in the capture.
    PARTS: ClassVar[tuple[str, ...]] = ()
    #: Keys the subclass's own ``capture_state`` override adds.
    EXTRA: ClassVar[tuple[str, ...]] = ()

    def _reset_derived(self) -> None:
        """Drop every cache computed from state (runs after each restore)."""

    def _live_parts(self) -> dict[str, "Stateful"]:
        parts: dict[str, Stateful | None] = {}
        for name in self.PARTS:
            part = getattr(self, name)
            if isinstance(part, list):
                parts.update({f"{name}[{slot}]": item for slot, item in enumerate(part)})
            else:
                parts[name] = part
        return {key: part for key, part in parts.items() if part is not None}

    def capture_state(self) -> dict[str, Any]:
        """Picklable copy of the declared state; stays valid while the
        object keeps running."""
        state = copy.deepcopy({name: getattr(self, name) for name in self.STATE})
        for key, part in self._live_parts().items():
            state[key] = part.capture_state()
        return state

    def _check_state(self, state: Mapping[str, Any]) -> None:
        """Refuse ``state`` before anything is touched.  The key set must be
        exactly what this object would capture — which is also the "same
        subsystems armed, same slots attached" check.  Overrides add their
        own refusals."""
        expected = {*self.STATE, *self._live_parts(), *self.EXTRA}
        if set(state) != expected:
            raise StateError(
                f"{type(self).__name__} state has keys {sorted(state)}, "
                f"this object captures {sorted(expected)}"
            )

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a captured state (copied: one capture seeds many restores)."""
        self._check_state(state)
        fields = copy.deepcopy({name: state[name] for name in self.STATE})
        for name, value in fields.items():
            setattr(self, name, value)
        for key, part in self._live_parts().items():
            part.restore_state(state[key])
        self._reset_derived()
