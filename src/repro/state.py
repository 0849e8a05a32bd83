"""Declared state: capture and restore derived from one field list.

INCA's Vir_SAVE / Vir_LOAD is *exact state transfer* — back up precisely
the live state at an interrupt point, restore precisely that.  System
snapshots do the same one level up, so each subsystem says once *what* its
mutable state is and :class:`Stateful` derives how it is copied, checked
and restored: a field added to ``STATE`` cannot fall out of snapshots, and
a cache dropped in ``_reset_derived`` cannot survive a restore.  A field
that grows with the run (a job history, a request heap) declares a column
codec in ``COLUMNS``: its capture is a few flat int arrays, pickled in one
pass, and a restore decodes fresh objects from them.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, ClassVar, Mapping

from repro.errors import StateError


class Shared:
    """Marker for immutable records (events, fault-log entries): a capture
    shares them instead of copying them."""

    def __deepcopy__(self, memo: dict[int, Any]) -> "Shared":
        return self


class Stateful:
    """Mixin deriving ``capture_state`` / ``restore_state`` from declarations.

    A subclass that adds keys of its own (``EXTRA``) overrides
    ``state_view`` / ``restore_state``, calls ``super()`` for the declared
    rest and handles only those keys.
    """

    #: Mutable attributes, captured in ONE ``deepcopy`` (or one pickle) so
    #: identity links between them (queue <-> current_job <-> completed)
    #: survive.
    STATE: ClassVar[tuple[str, ...]] = ()
    #: Attributes holding a nested :class:`Stateful`, ``None`` when that
    #: subsystem is not armed, or a slot table (list) of either.  Unarmed
    #: parts and empty slots have no key in the capture.
    PARTS: ClassVar[tuple[str, ...]] = ()
    #: Keys the subclass's own ``state_view`` override adds.
    EXTRA: ClassVar[tuple[str, ...]] = ()
    #: ``STATE`` fields captured as columns: name -> ``(encode, decode)``.
    #: ``encode`` flattens the live value into int columns; ``decode``
    #: builds fresh objects from them.  A column field shares no object
    #: with the other fields (the one-copy identity rule skips it).
    COLUMNS: ClassVar[Mapping[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]]] = {}

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

    def state_view(self) -> dict[str, Any]:
        """The declared state and every live part's view, *by reference*.

        Valid only until this object runs again: pickling it at once is a
        snapshot in one serialisation pass; :meth:`capture_state` is the
        detached copy."""
        state = {name: getattr(self, name) for name in self.STATE}
        for name, (encode, _decode) in self.COLUMNS.items():
            state[name] = encode(state[name])
        for key, part in self._live_parts().items():
            state[key] = part.state_view()
        return state

    def capture_state(self) -> dict[str, Any]:
        """Picklable copy of :meth:`state_view`; stays valid while the
        object keeps running."""
        return copy.deepcopy(self.state_view())

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
        fields = copy.deepcopy(
            {name: state[name] for name in self.STATE if name not in self.COLUMNS}
        )
        for name, (_encode, decode) in self.COLUMNS.items():
            fields[name] = decode(state[name])
        for name, value in fields.items():
            setattr(self, name, value)
        for key, part in self._live_parts().items():
            part.restore_state(state[key])
        self._reset_derived()
