"""Static VI-ISA verifier.

An abstract-interpretation diagnostics engine over compiled programs: typed
:class:`Diagnostic` findings with stable rule IDs, one replay of each
program through the core's buffer machine (buffer-state dataflow and the
checkpoint-coverage proofs of the Vir_SAVE/Vir_LOAD expansion read it),
DDR aliasing proofs, and a static worst-case interrupt response latency
(WCIRL).

``python -m repro.verify`` runs the engine over the model zoo; the rule
catalog is documented in ``docs/static-analysis.md``.
"""

from repro.verify.bufferflow import BufferSim
from repro.verify.ddr import cross_task_aliasing, ddr_pass
from repro.verify.diagnostics import Diagnostic, Report, Severity
from repro.verify.engine import (
    layer_table,
    verify_network,
    verify_program,
    verify_task_set,
)
from repro.verify.interference import (
    StretchCoverage,
    interference_pass,
    stretch_coverage,
)
from repro.verify.rules import RULES, RuleInfo, rule_info
from repro.verify.structural import structural_pass
from repro.verify.wcirl import StaticWcirl, wcirl_bound, wcirl_pass

__all__ = [
    "BufferSim",
    "Diagnostic",
    "Report",
    "RuleInfo",
    "RULES",
    "Severity",
    "StaticWcirl",
    "StretchCoverage",
    "cross_task_aliasing",
    "ddr_pass",
    "interference_pass",
    "layer_table",
    "rule_info",
    "stretch_coverage",
    "structural_pass",
    "verify_network",
    "verify_program",
    "verify_task_set",
    "wcirl_bound",
    "wcirl_pass",
]
