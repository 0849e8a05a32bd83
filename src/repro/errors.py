"""Exception hierarchy for the INCA reproduction.

Every error raised by this package derives from :class:`IncaError` so that
callers can catch the whole family with a single ``except`` clause while the
sub-classes keep failure modes distinguishable in tests and logs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (verify imports errors)
    from repro.verify.diagnostics import Report


class IncaError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(IncaError):
    """A network graph is malformed (bad wiring, shape mismatch, cycles)."""


class QuantizationError(IncaError):
    """A tensor cannot be represented in the requested fixed-point format."""


class IsaError(IncaError):
    """An instruction is malformed or cannot be encoded/decoded."""


class ProgramError(IncaError):
    """An instruction *sequence* violates a program-level invariant.

    When raised by the static verifier, the full
    :class:`~repro.verify.diagnostics.Report` rides along on :attr:`report`
    (the message pretty-prints only the top findings).
    """

    def __init__(self, message: str, *, report: "Report | None" = None) -> None:
        super().__init__(message)
        self.report = report


class CompileError(IncaError):
    """The compiler cannot lower a network onto the configured hardware."""


class HardwareError(IncaError):
    """A hardware configuration is invalid (e.g. buffer too small to tile)."""


class MemoryMapError(IncaError):
    """A DDR allocation failed or an access fell outside its region."""


class ExecutionError(IncaError):
    """The accelerator simulator hit an illegal state at runtime."""


class IauError(IncaError):
    """The instruction arrangement unit was driven illegally."""


class SchedulerError(IncaError):
    """The multi-task runtime was misused (bad priority, double submit...)."""


class RosError(IncaError):
    """The ROS-like middleware was misused (unknown topic, bad node...)."""


class FaultError(IncaError):
    """Base class for failures surfaced by the fault-tolerance machinery."""


class CheckpointError(FaultError):
    """A Vir_SAVE checkpoint failed CRC verification beyond the retry budget.

    :attr:`attempts` carries how many verifications were tried before giving
    up (the budget plus the final failing one).
    """

    def __init__(self, message: str, *, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class EccError(FaultError):
    """DDR corruption the modelled ECC can detect but not correct."""


class CampaignError(FaultError):
    """A fault-injection campaign was misconfigured or misused."""


class QosError(IncaError):
    """A QoS policy object was misconfigured (bad depth, bad profile...)."""


class InvariantViolation(IncaError):
    """The online invariant monitor caught the runtime lying to itself.

    Raised immediately in ``mode="raise"``; in ``mode="report"`` violations
    are collected on the monitor instead (see
    :class:`~repro.qos.monitor.InvariantMonitor`).
    """


class StateError(IncaError):
    """A captured state does not fit the object asked to restore it."""


class ContainerError(IncaError):
    """A framed blob failed validation; :attr:`reason` names the check
    (see :func:`repro.container.unframe`)."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class DslamError(IncaError):
    """A DSLAM component failed (no landmarks in view, bad trajectory...)."""


class ServeError(IncaError):
    """The durable serving gateway was misused or a job failed terminally."""


class SnapshotError(ServeError):
    """A system snapshot could not be written, read, or restored."""
