"""``python -m benchmarks.perf render [LEDGER.json]``

Renders a ledger JSON as the human table beside it (``BENCH_11.json`` ->
``BENCH_11.txt``).  The JSON is the source; the table is never edited.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from benchmarks.perf import harness, spec

DEFAULT_LEDGER = harness.PERF_DIR / "ledger" / "BENCH_11.json"


def format_number(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def _value(entry: dict[str, Any]) -> str:
    samples = entry.get("samples")
    return f"{format_number(entry['value'])} {entry['unit']}" + (
        f"  (median of {len(samples)})" if samples else ""
    )


def render(ledger: dict[str, Any]) -> str:
    lines = []
    fingerprint = ledger.get("fingerprint", {})
    lines.append(
        f"INCA perf ledger — tier {ledger['tier']}, seed {ledger['seed']}, "
        f"{ledger['seconds']:g} s per run, git {fingerprint.get('git_sha', '?')[:12]}"
    )
    lines.append(
        f"{fingerprint.get('cpu', '?')} x{fingerprint.get('nproc', '?')}, "
        f"python {fingerprint.get('python', '?')}, numpy {fingerprint.get('numpy', '?')}, "
        f"BLAS/OMP threads {fingerprint.get('threads', {}).get('OMP_NUM_THREADS', '?')}"
    )
    for name in spec.WORKLOADS:
        entry = ledger["workloads"].get(name)
        if not entry:
            continue
        untraced = entry.get("untraced") or entry["traced"]
        traced = entry.get("traced")
        lines.append("")
        lines.append(f"{name} — {spec.WORKLOADS[name]}")
        lines.append(f"  sizes: {json.dumps(untraced['sizes'])}")
        lines.append(
            f"  reference: {untraced['reference']}; operations attempted "
            f"{untraced['attempted']}, failed {untraced['failed']}"
        )
        for note in untraced["notes"]:
            lines.append(f"  note: {note}")
        lines.append("  end to end (untraced)")
        for metric, value in untraced["end_to_end"].items():
            lines.append(f"    {metric:<36} {_value(value)}")
        if traced:
            lines.append(
                f"  per layer (traced; span self times cover "
                f"{100 * traced.get('coverage', 0):.1f}% of traced wall_s, recording "
                f"them cost {traced.get('span_cost_pct', 0):.3f}%)"
            )
            for metric, value in traced["per_layer"].items():
                lines.append(f"    {metric:<36} {_value(value)}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    source = Path(argv[0]) if argv else DEFAULT_LEDGER
    target = source.with_suffix(".txt")
    target.write_text(render(json.loads(source.read_text())))
    print(f"rendered {source} -> {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
