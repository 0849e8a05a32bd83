"""Rule catalog of the static VI-ISA verifier.

Every diagnostic the engine can emit is declared here with the invariant it
protects and the paper mechanism that depends on it, so
``docs/static-analysis.md`` and the CLI can present the catalog without
duplicating prose.  Rule IDs are grouped by pass:

* ``PRG``/``VI`` — structural program shape (the historic ``validate_program``
  checks, now engine rules);
* ``BUF`` — abstract buffer-state dataflow over the on-chip buffers;
* ``DDR`` — DDR region addressing and cross-task aliasing;
* ``CHK`` — checkpoint coverage of the Vir_SAVE/Vir_LOAD expansion;
* ``WCL`` — static worst-case interrupt response latency (WCIRL);
* ``INT`` — static interference analysis of the armed-safe stretches the
  batched fast path retires under faults/QoS.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuleInfo:
    """Documentation row for one verifier rule."""

    rule: str
    title: str
    invariant: str
    paper: str


_RULES: tuple[RuleInfo, ...] = (
    # -- structural ---------------------------------------------------------
    RuleInfo(
        "PRG001",
        "layer ordering",
        "layer_id is non-decreasing along the program (the schedule is layer-ordered).",
        "§IV-A instruction-driven execution model",
    ),
    RuleInfo(
        "PRG002",
        "transfer length",
        "every LOAD/SAVE (real or virtual) declares a positive byte length.",
        "Table 1 LOAD/SAVE semantics",
    ),
    RuleInfo(
        "PRG003",
        "CalcBlob pairing",
        "every CALC_I run is closed by a CALC_F over the same output-channel "
        "window before any SAVE, and no blob is left open at program end.",
        "§IV-C CalcBlob (interrupt only between blobs)",
    ),
    RuleInfo(
        "PRG004",
        "known layer",
        "every instruction's layer_id resolves in the compiled layer-config table.",
        "§IV-A per-layer configuration words",
    ),
    RuleInfo(
        "VI001",
        "virtual position",
        "virtual instructions sit only at legal interrupt points: immediately "
        "after a CALC_F, a SAVE, another virtual instruction, or a layer boundary.",
        "§IV-C interrupt positions (after SAVE or CALC_F)",
    ),
    RuleInfo(
        "VI002",
        "VIR_SAVE identity",
        "every VIR_SAVE carries a save_id (SAVE rewriting needs the pairing).",
        "§IV-C SAVE rewriting",
    ),
    RuleInfo(
        "VI003",
        "save_id pairing",
        "every VIR_SAVE's save_id is carried by a later real SAVE; otherwise "
        "the backup could never be credited and data would be saved twice or lost.",
        "§IV-C SAVE rewriting",
    ),
    # -- buffer-state dataflow ---------------------------------------------
    RuleInfo(
        "BUF001",
        "use before load",
        "every CALC finds its input tile(s) resident — covering rows and "
        "channels — and continues the in-flight accumulator chain.",
        "Table 1 CALC recovery set (weight / input data)",
    ),
    RuleInfo(
        "BUF002",
        "weights resident",
        "every weighted CALC finds a weight chunk resident matching its "
        "output-channel group and input-channel window.",
        "Table 1 CALC recovery set (weight / input data)",
    ),
    RuleInfo(
        "BUF003",
        "data buffer capacity",
        "a LOAD_D never overflows the data buffer given the tiles already resident.",
        "§IV-A on-chip data buffer",
    ),
    RuleInfo(
        "BUF004",
        "weight buffer capacity",
        "a LOAD_W never exceeds the weight buffer.",
        "§IV-A on-chip weight buffer",
    ),
    RuleInfo(
        "BUF005",
        "output buffer capacity",
        "finalized CalcBlob results never overflow the output buffer before "
        "their SAVE drains them.",
        "§IV-A on-chip output buffer",
    ),
    RuleInfo(
        "BUF006",
        "SAVE coverage",
        "a SAVE's channel range is fully covered by contiguous finalized "
        "groups of the resident output section.",
        "Table 1 SAVE semantics",
    ),
    RuleInfo(
        "BUF007",
        "unsaved output overwritten",
        "no finalized-but-unsaved output section is replaced by a new section "
        "or left resident at program end.",
        "§IV-C Vir_SAVE exists precisely to protect this data",
    ),
    # -- DDR regions --------------------------------------------------------
    RuleInfo(
        "DDR001",
        "region addressing",
        "every transfer's ddr_addr is the base of the region the layer "
        "config declares for that operand (input/input2/weights/output).",
        "§IV-A DDR-resident feature maps and parameters",
    ),
    RuleInfo(
        "DDR002",
        "cross-task aliasing",
        "DDR regions of different tasks never overlap — a preempting task "
        "cannot corrupt the preempted task's tensors (the static proof of "
        "what InvariantMonitor checks dynamically).",
        "§IV multi-task isolation",
    ),
    RuleInfo(
        "DDR003",
        "transfer bounds",
        "no transfer moves more bytes than its target region holds.",
        "§IV-A DMA descriptors",
    ),
    # -- checkpoint coverage -----------------------------------------------
    RuleInfo(
        "CHK001",
        "backup covers live output",
        "at an interrupt point, the VIR_SAVE window equals the finalized-but-"
        "unsaved groups resident there (a free barrier point must have none).",
        "§IV-C backup of finalized results",
    ),
    RuleInfo(
        "CHK002",
        "recovery restores live state",
        "the recovery loads at an interrupt point restore exactly the resident "
        "tiles (and weights) that later instructions still consume.",
        "§IV-C recovery loads (t_cost = t4)",
    ),
    RuleInfo(
        "CHK003",
        "no live accumulator",
        "no switch point exposes an in-flight CalcBlob accumulator — partial "
        "sums cannot be backed up.",
        "§IV-C interrupt only between CalcBlobs",
    ),
    RuleInfo(
        "CHK004",
        "expansion arithmetic",
        "each VIR_SAVE is a prefix of its paired SAVE (same section, same "
        "ch0, chs and bytes-per-channel divisible) so the IAU's expansion and "
        "SAVE rewriting are exact.",
        "§IV-C SAVE rewriting arithmetic",
    ),
    # -- WCIRL --------------------------------------------------------------
    RuleInfo(
        "WCL001",
        "interruptible program has switch points",
        "a program meant to be interruptible exposes at least one switch "
        "point, otherwise a pending request waits for the whole inference.",
        "§IV-B response latency comparison",
    ),
    RuleInfo(
        "WCL002",
        "WCIRL within budget",
        "the static worst-case interrupt response latency stays within the "
        "caller-supplied cycle budget.",
        "§V response-latency evaluation",
    ),
    # -- interference analysis (armed-safe stretches) ------------------------
    RuleInfo(
        "INT001",
        "fault-opportunity accounting",
        "the per-site fault-opportunity prefix sums account for exactly the "
        "Bernoulli draws the armed step path performs per instruction, so a "
        "batch never sails past a fire and never desynchronizes an RNG stream.",
        "§IV-C deterministic replay of the interrupt machinery",
    ),
    RuleInfo(
        "INT002",
        "monitor-visible stream monotonic",
        "within every stretch the replayed DDR_BURST/INSTR_RETIRE templates "
        "are cycle-monotonic and every burst carries its region, so the "
        "invariant monitor checks a replayed stretch as it checks a stepped one.",
        "§IV multi-task isolation (runtime monitor)",
    ),
    RuleInfo(
        "INT003",
        "stretches end at clean boundaries",
        "every stretch boundary is a point the core's buffer machine calls "
        "clean (no in-flight accumulator or unsaved output section) and "
        "records the tiles resident there, so a later step() resumes on exactly "
        "the state it expects (missing clean indices only cost coverage, a warning).",
        "§IV-C interrupt only between CalcBlobs",
    ),
    RuleInfo(
        "INT004",
        "fault-site eligibility",
        "checkpoint corruption only at a switch-point VIR_SAVE, preemption "
        "glitches only at switch points, DDR faults only on real transfers, "
        "and every armed-path draw stays inside the declared fault surface.",
        "§IV-C interrupt positions / Table 1 transfer semantics",
    ),
    RuleInfo(
        "INT005",
        "armed-stretch coverage",
        "enough of the program sits in batchable stretches for the armed fast "
        "path to pay off (a coverage warning, never an error).",
        "§V speedup evaluation",
    ),
)

RULES: dict[str, RuleInfo] = {info.rule: info for info in _RULES}


def rule_info(rule: str) -> RuleInfo:
    """Catalog entry for ``rule``; raises ``KeyError`` on unknown IDs."""
    return RULES[rule]
