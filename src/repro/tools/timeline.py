"""ASCII timeline (Gantt) rendering of an execution's event stream.

Turns the ``INSTR_RETIRE`` events of an :class:`~repro.obs.bus.EventBus` (or
a plain event list) into a per-task timeline showing who held the
accelerator when — the quickest way to *see* a pre-emption:

    task 0 |                    HHHH                |
    task 1 | LLLLLLLLLLLLLLLLLLL....LLLLLLLLLLLLLLL |

Each column is one time bucket; a letter means the task executed during that
bucket ('L'oad, 'C'alc, 'S'ave by dominant opcode), '.' means it was
pre-empted while another task ran.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.bus import EventBus
from repro.obs.events import Event, EventKind

#: Glyph per retired opcode (``INSTR_RETIRE`` carries the opcode's name).
_OPCODE_GLYPHS = {"LOAD_D": "L", "LOAD_W": "l", "CALC_I": "c", "CALC_F": "C", "SAVE": "S"}


def _retires(source: EventBus | Iterable[Event]) -> list[Event]:
    """The executed instructions in ``source``, in emission order."""
    events = source.events if isinstance(source, EventBus) else source
    return [event for event in events if event.kind is EventKind.INSTR_RETIRE]


def render_timeline(source: EventBus | Iterable[Event], width: int = 100) -> str:
    """Render one row per task over ``width`` time buckets."""
    retires = _retires(source)
    if not retires:
        return "(empty trace)"
    total = max(event.end_cycle for event in retires)
    start = min(event.cycle for event in retires)
    span = max(total - start, 1)
    bucket = span / width

    task_ids = sorted({event.task_id or 0 for event in retires})
    rows = {task_id: [" "] * width for task_id in task_ids}
    busy = [False] * width

    for event in retires:
        glyph = _OPCODE_GLYPHS.get(event.data["opcode"], "?")
        first = int((event.cycle - start) / bucket)
        last = int((event.end_cycle - 1 - start) / bucket)
        for column in range(max(first, 0), min(last, width - 1) + 1):
            rows[event.task_id or 0][column] = glyph
            busy[column] = True

    # Mark pre-empted stretches: a task that ran both before and after a
    # stretch where another task held the core.
    for task_id in task_ids:
        row = rows[task_id]
        filled = [i for i, ch in enumerate(row) if ch != " "]
        if not filled:
            continue
        for column in range(filled[0], filled[-1] + 1):
            if row[column] == " " and busy[column]:
                row[column] = "."

    lines = [
        f"task {task_id} |{''.join(rows[task_id])}|" for task_id in task_ids
    ]
    clock_note = f"{span} cycles in {width} buckets (~{bucket:.0f} cycles each)"
    legend = "L/l load data/weights, c/C calc partial/final, S save, . pre-empted"
    return "\n".join(lines + [clock_note, legend])


def utilisation_report(source: EventBus | Iterable[Event]) -> str:
    """Per-task busy share of the traced span."""
    retires = _retires(source)
    total = max([event.end_cycle for event in retires] + [1])
    busy_by_task: dict[int, int] = {}
    for event in retires:
        task_id = event.task_id or 0
        busy_by_task[task_id] = busy_by_task.get(task_id, 0) + event.duration
    lines = ["utilisation:"]
    for task_id, busy in sorted(busy_by_task.items()):
        lines.append(f"  task {task_id}: {busy} cycles ({100.0 * busy / total:.1f}%)")
    idle = total - sum(busy_by_task.values())
    lines.append(f"  idle/arbitration: {idle} cycles ({100.0 * idle / total:.1f}%)")
    return "\n".join(lines)
