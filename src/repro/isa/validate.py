"""Static validation of instruction programs (compatibility wrapper).

Historically this module implemented the structural checks itself and raised
on the first violation.  They now live in the :mod:`repro.verify` engine as
rules (``PRG001``-``PRG004``, ``VI001``-``VI003``) that report *every*
violation; this wrapper keeps the raising contract for callers that just
want a pass/fail gate — the raised :class:`~repro.errors.ProgramError`
carries the full report on its ``report`` attribute.
"""

from __future__ import annotations

from repro.isa.program import Program


def validate_program(program: Program) -> None:
    """Raise :class:`~repro.errors.ProgramError` if ``program`` violates any
    structural invariant; the exception's ``report`` lists all findings."""
    # An upward call: repro.verify sits above repro.isa (docs/architecture.md, "Layers").
    from repro.verify.engine import verify_program

    verify_program(program).raise_if_errors()
