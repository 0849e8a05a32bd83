"""Exporters: Chrome trace, JSON lines, plain-text summary.

All three consume the same bus event stream (`EventBus` or a plain event
list), so any instrumented run — single task, preemptive multi-task, a
farm node, full DSLAM — exports the same way.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable

from repro.obs.bus import EventBus
from repro.obs.events import Event, EventKind
from repro.obs.spans import job_spans
from repro.tables import format_table
from repro.units import Frequency

#: Events rendered as Chrome duration ('X') rows when they span time.
_DURATION_KINDS = frozenset({EventKind.INSTR_RETIRE, EventKind.DDR_BURST, EventKind.VI_EXPAND})


def _as_events(events: Iterable[Event] | EventBus) -> list[Event]:
    if isinstance(events, EventBus):
        return events.events
    return list(events)


# -- Chrome trace ----------------------------------------------------------


def events_to_chrome(events: Iterable[Event] | EventBus, clock: Frequency) -> list[dict]:
    """Convert bus events to Chrome trace events (one row per task).

    Instructions, DDR bursts and VI expansions become complete ('X') events;
    everything else (job lifecycle, preemption begin/end, ROS messages)
    becomes thread-scoped instants ('i') so the schedule, its interrupt
    points and the middleware traffic line up on one zoomable timeline.
    """
    rows: list[dict] = []
    for event in _as_events(events):
        tid = event.task_id if event.task_id is not None else 99
        args: dict[str, object] = {"cycle": event.cycle, **event.data}
        if event.layer_id is not None:
            args["layer_id"] = event.layer_id
        if event.kind in _DURATION_KINDS and event.duration > 0:
            name = str(event.data.get("opcode", event.kind.value))
            rows.append(
                {
                    "name": name,
                    "cat": event.kind.value,
                    "ph": "X",
                    "ts": clock.cycles_to_us(event.cycle),
                    "dur": clock.cycles_to_us(event.duration),
                    "pid": 0,
                    "tid": tid,
                    "args": {**args, "cycles": event.duration},
                }
            )
        else:
            rows.append(
                {
                    "name": event.kind.value,
                    "cat": event.kind.value,
                    "ph": "i",
                    "s": "t",
                    "ts": clock.cycles_to_us(event.cycle),
                    "pid": 0,
                    "tid": tid,
                    "args": args,
                }
            )
    return rows


def write_chrome_trace_events(
    events: Iterable[Event] | EventBus, clock: Frequency, path: str | Path
) -> Path:
    """Write a chrome://tracing / Perfetto JSON file from bus events."""
    path = Path(path)
    payload = {
        "traceEvents": events_to_chrome(events, clock),
        "displayTimeUnit": "ns",
        "metadata": {"tool": "repro (INCA reproduction)", "clock_hz": clock.hz},
    }
    path.write_text(json.dumps(payload))
    return path


# -- JSON lines ------------------------------------------------------------


def events_to_jsonl(events: Iterable[Event] | EventBus) -> str:
    """One JSON object per line, in emission order."""
    return "\n".join(json.dumps(event.to_dict()) for event in _as_events(events))


def write_jsonl(events: Iterable[Event] | EventBus, path: str | Path) -> Path:
    path = Path(path)
    text = events_to_jsonl(events)
    path.write_text(text + "\n" if text else "")
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL export back into dicts (the round-trip helper)."""
    return [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


# -- plain-text summary ----------------------------------------------------


def summarize(source) -> str:
    """Render a per-task summary table from any instrumented source.

    ``source`` may be an :class:`EventBus`, a plain event list, or any
    object exposing a ``bus`` attribute (e.g. a ``MultiTaskSystem``).  A
    source that also has an ``iau`` gets a "Dispatch" line: how its
    ``run_batched`` calls ended and how many stall fires they retired
    (``Iau.dispatch_counts``, host-side counters that never ride the bus).
    """
    bus = getattr(source, "bus", None)
    events = _as_events(bus if isinstance(bus, EventBus) else source)
    if not events:
        return "(no events recorded)"

    task_ids = sorted({e.task_id for e in events if e.task_id is not None})
    spans = {task: job_spans(events, task) for task in task_ids}
    header = ["task", "jobs", "instrs", "busy cyc", "preempts", "vi exp",
              "mean resp", "max resp"]
    table: list[list[str]] = []
    for task in task_ids:
        per_task = [e for e in events if e.task_id == task]
        instrs = sum(1 for e in per_task if e.kind is EventKind.INSTR_RETIRE)
        busy = sum(e.duration for e in per_task if e.kind is EventKind.INSTR_RETIRE)
        preempts = sum(1 for e in per_task if e.kind is EventKind.PREEMPT_BEGIN)
        expansions = sum(1 for e in per_task if e.kind is EventKind.VI_EXPAND)
        responses = [
            e.data["response_cycles"]
            for e in per_task
            if e.kind is EventKind.JOB_COMPLETE and "response_cycles" in e.data
        ]
        table.append(
            [
                str(task),
                str(len(spans[task])),
                str(instrs),
                str(busy),
                str(preempts),
                str(expansions),
                f"{sum(responses) / len(responses):.0f}" if responses else "-",
                str(max(responses)) if responses else "-",
            ]
        )

    lines = format_table(header, table, title="Observability summary (cycles)", align="right")
    loads = sum(
        int(e.data.get("bytes", 0))
        for e in events
        if e.kind is EventKind.DDR_BURST and e.data.get("direction") == "load"
    )
    saves = sum(
        int(e.data.get("bytes", 0))
        for e in events
        if e.kind is EventKind.DDR_BURST and e.data.get("direction") == "save"
    )
    published = sum(1 for e in events if e.kind is EventKind.ROS_PUBLISH)
    lines += f"\nDDR traffic: {loads} bytes loaded, {saves} bytes saved"
    if published:
        delivered = sum(1 for e in events if e.kind is EventKind.ROS_DELIVER)
        lines += f"\nROS: {published} messages published, {delivered} deliveries"
        queue_drops = sum(1 for e in events if e.kind is EventKind.ROS_QUEUE_DROP)
        retries = sum(1 for e in events if e.kind is EventKind.ROS_RETRY)
        acks = sum(1 for e in events if e.kind is EventKind.ROS_ACK)
        if queue_drops or retries or acks:
            lines += (
                f"; {queue_drops} queue drop(s), {retries} retry(ies), "
                f"{acks} ack(s)"
            )
    denied = sum(1 for e in events if e.kind is EventKind.ADMISSION_DENY)
    inversions = sum(1 for e in events if e.kind is EventKind.PRIORITY_INVERSION)
    violations = sum(1 for e in events if e.kind is EventKind.INVARIANT_VIOLATION)
    if denied or inversions or violations:
        lines += (
            f"\nQoS: {denied} admission denial(s), "
            f"{inversions} priority inversion(s), "
            f"{violations} invariant violation(s)"
        )
    injected = sum(1 for e in events if e.kind is EventKind.FAULT_INJECT)
    misses = sum(1 for e in events if e.kind is EventKind.DEADLINE_MISS)
    degraded = sum(1 for e in events if e.kind is EventKind.JOB_DEGRADED)
    if injected:
        detected = sum(1 for e in events if e.kind is EventKind.FAULT_DETECT)
        recovered = sum(1 for e in events if e.kind is EventKind.FAULT_RECOVER)
        lines += (
            f"\nFaults: {injected} injected, {detected} detected, "
            f"{recovered} recovered"
        )
        if misses or degraded:
            lines += f"; {misses} deadline miss(es), {degraded} degradation action(s)"
    elif misses or degraded:
        # Degradation acts without a fault plan too (pure overload shedding).
        lines += (
            f"\nDegradation: {misses} deadline miss(es), "
            f"{degraded} degradation action(s)"
        )
    down = sum(1 for e in events if e.kind is EventKind.NODE_DOWN)
    suspect = sum(1 for e in events if e.kind is EventKind.NODE_SUSPECT)
    migrated = sum(1 for e in events if e.kind is EventKind.JOB_MIGRATED)
    hedges = sum(1 for e in events if e.kind is EventKind.HEDGE_DISPATCH)
    switches = sum(1 for e in events if e.kind is EventKind.MODE_SWITCH)
    if down or suspect or migrated or hedges or switches:
        won = sum(1 for e in events if e.kind is EventKind.HEDGE_WIN)
        wasted = sum(1 for e in events if e.kind is EventKind.HEDGE_WASTED)
        lines += (
            f"\nFarm resilience: {down} node(s) down, {suspect} suspect "
            f"transition(s), {migrated} job(s) migrated, {hedges} hedge(s) "
            f"({won} won, {wasted} wasted), {switches} mode switch(es)"
        )
    # Unary plus drops the reasons that never happened.
    counts = +Counter(getattr(getattr(source, "iau", None), "dispatch_counts", ()))
    if counts:
        batched = counts.pop("instr_batched", 0)
        stepped = counts.pop("instr_stepped", 0)
        stalls = counts.pop("stalls_batched", 0)
        calls = ", ".join(f"{reason} {count}" for reason, count in counts.most_common())
        lines += (
            f"\nDispatch: {batched} instr batched, {stepped} stepped; "
            f"{sum(counts.values())} run_batched call(s): {calls}"
        )
        if stalls:
            lines += f"; {stalls} ddr.stall fire(s) retired in batches"
    return lines

