"""Virtual-instruction insertion (the paper's compilation contribution).

Given the original LOAD/CALC/SAVE sequence, this pass:

1. assigns a ``save_id`` to every SAVE,
2. inserts an interrupt point **after every CALC_F** that is not immediately
   drained by its SAVE — a ``VIR_SAVE`` (backup of finalized-but-unsaved
   results, credited against the upcoming SAVE via its ``save_id``) followed
   by ``VIR_LOAD_D`` clones of the live input-tile loads (recovery),
3. inserts an interrupt point **after every SAVE** — ``VIR_LOAD_D`` recovery
   clones when the tile continues, or a free ``VIR_BARRIER`` when the next
   real instruction reloads anyway (next tile / next layer / end of program),

exactly the "interruptible after SAVE or CALC_F" policy of paper §IV-C, which
makes the extra interrupt cost *recovery-only* (t_cost = t4).

A second entry point builds the **layer-by-layer baseline**: interrupt points
only at layer boundaries (``VIR_BARRIER`` after each layer's last SAVE).

Both passes are array operations on the lowered word array
(:data:`~repro.isa.encoding.WORD_DTYPE`): every decision above is a mask
over its columns, and the output is one ``np.insert`` of the virtual rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompileError
from repro.isa.encoding import column_rows, pack_words
from repro.isa.instructions import FLAG_LAST_SAVE_OF_LAYER, FLAG_SWITCH_POINT, NO_SAVE_ID
from repro.isa.opcodes import Opcode

#: save_id values wrap below NO_SAVE_ID; pairing is always adjacent (a
#: VIR_SAVE is consumed by the very next SAVE) so reuse after wrap is safe.
_SAVE_ID_LIMIT = NO_SAVE_ID - 1


@dataclass(frozen=True)
class ViPolicy:
    """Interrupt-position selection (the paper's "selects the optimized
    interrupt positions in the original instruction sequence").

    The reference policy (the defaults) inserts a point after *every* CALC_F
    and SAVE.  ``calc_f_stride`` keeps only every k-th CALC_F point per layer
    — fewer points mean fewer virtual-instruction fetches (lower
    no-interrupt degradation) at the price of longer worst-case response.
    The post-SAVE and layer-boundary points are structural (their recovery
    information cannot be reconstructed later) and are always kept.
    """

    calc_f_stride: int = 1

    def __post_init__(self) -> None:
        if self.calc_f_stride < 1:
            raise CompileError(
                f"calc_f_stride must be >= 1, got {self.calc_f_stride}"
            )


#: Insert an interrupt point at every legal position (the paper's method).
DEFAULT_VI_POLICY = ViPolicy()


def insert_virtual_instructions(
    words: np.ndarray,
    policy: ViPolicy = DEFAULT_VI_POLICY,
) -> np.ndarray:
    """Produce the VI-ISA word array from the original ISA (paper's VI method)."""
    count = len(words)
    index = np.arange(count)
    opcode, layer, flags = words["opcode"], words["layer_id"], words["flags"]
    next_opcode = np.append(opcode[1:], 0)  # 0 is no opcode: the end of the program
    # First index of the run of equal ``layer_id`` each instruction is in.
    layer_start = np.maximum.accumulate(
        np.where(np.append(True, layer[1:] != layer[:-1]), index, 0)
    )

    is_save = opcode == Opcode.SAVE
    annotated = words.copy()
    annotated["save_id"][is_save] = np.arange(is_save.sum()) % _SAVE_ID_LIMIT

    # After a CALC_F that its SAVE does not drain at once (the SAVE right
    # after is itself an interrupt point), thinned by the selection policy.
    is_calc_f = opcode == Opcode.CALC_F
    seen = np.cumsum(is_calc_f)
    calc_f_count = seen - (seen - is_calc_f)[layer_start]
    backup = (
        is_calc_f
        & (next_opcode != Opcode.SAVE)
        & (calc_f_count % policy.calc_f_stride == 0)
    )
    # After a SAVE nothing needs backup: recovery loads when the tile
    # continues, a free barrier when the next instruction reloads its own
    # state, nothing at the end of the program.
    continues = np.append(layer[1:] == layer[:-1], False) & (next_opcode != Opcode.LOAD_D)
    recover = is_save & continues
    barrier = is_save & ~continues & (index < count - 1)

    at = np.flatnonzero(backup)
    positions, rows = [at], [_vir_saves(annotated, at)]
    # VIR_LOAD_D clones of the live tile loads, one operand slot at a time
    # in ``flags`` order.  Behind a VIR_SAVE they are NOT switch points (the
    # VIR_SAVE is the entry and owns the backup); after a SAVE the first one
    # is (the pack must be entered from its head so every operand reloads).
    is_load_d = opcode == Opcode.LOAD_D
    head = recover.copy()
    # (bincount, not a bare np.unique: that one imports numpy.ma, ~1 MiB.)
    for slot in np.flatnonzero(np.bincount(flags[is_load_d])):
        # The slot's latest LOAD_D; one from before this layer is dead.
        live = np.maximum.accumulate(np.where(is_load_d & (flags == slot), index, -1))
        at = np.flatnonzero((backup | recover) & (live >= layer_start))
        clones = words[live[at]]
        clones["opcode"] = Opcode.VIR_LOAD_D
        clones["flags"][head[at]] |= FLAG_SWITCH_POINT
        head[at] = False
        positions.append(at)
        rows.append(clones)
    at = np.flatnonzero(barrier)
    positions.append(at)
    rows.append(_barriers(layer[at]))
    # Equal positions keep their order here: VIR_SAVE, then the clones.
    return np.insert(annotated, np.concatenate(positions) + 1, np.concatenate(rows))


def insert_layer_barriers(words: np.ndarray) -> np.ndarray:
    """The layer-by-layer baseline: interrupt points only between layers."""
    last_save = (words["flags"] & FLAG_LAST_SAVE_OF_LAYER) != 0
    at = np.flatnonzero((words["opcode"] == Opcode.SAVE) & last_save)
    return np.insert(words, at + 1, _barriers(words["layer_id"][at]))


def _barriers(layer_ids: np.ndarray) -> np.ndarray:
    """One switch-point ``VIR_BARRIER`` word per entry of ``layer_ids``."""
    return pack_words(
        column_rows(
            len(layer_ids), Opcode.VIR_BARRIER, layer_id=layer_ids, flags=FLAG_SWITCH_POINT
        )
    )


def _vir_saves(annotated: np.ndarray, at: np.ndarray) -> np.ndarray:
    """For each CALC_F index in ``at``, the VIR_SAVE backing up all finalized
    groups of its covering SAVE's section so far."""
    count = len(annotated)
    # The next SAVE at or after each index; ``count`` when there is none.
    save_index = np.where(annotated["opcode"] == Opcode.SAVE, np.arange(count), count)
    next_save = np.minimum.accumulate(save_index[::-1])[::-1]
    covered = at[next_save[at] < count]
    calc_f, save = annotated[covered], annotated[next_save[covered]]
    calc_f_end = calc_f["ch0"].astype(np.int64) + calc_f["chs"]
    save_chs = save["chs"].astype(np.int64)
    finalized_chs = calc_f_end - save["ch0"]
    outside = (finalized_chs <= 0) | (save_chs <= 0)
    if outside.any():
        bad = int(outside.argmax())
        raise CompileError(
            f"CALC_F channels [{calc_f['ch0'][bad]}, {calc_f_end[bad]}) fall outside "
            f"covering SAVE section [{save['ch0'][bad]}, {save['ch0'][bad] + save_chs[bad]})"
        )
    if len(covered) < len(at):  # only ever the tail: past the last SAVE
        raise CompileError(
            f"CALC_F at {at[len(covered)]} has no covering SAVE — malformed lowering"
        )
    copied = {
        name: save[name] for name in ("layer_id", "save_id", "ddr_addr", "row0", "rows", "ch0")
    }
    return pack_words(
        column_rows(
            len(covered),
            Opcode.VIR_SAVE,
            flags=FLAG_SWITCH_POINT,
            chs=finalized_chs,
            length=save["length"] // save_chs * finalized_chs,
            **copied,
        )
    )
