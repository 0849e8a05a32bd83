"""``python -m benchmarks.perf compare A.json B.json``

Applies the per-metric bounds row by row — one row per workload and
end-to-end metric — to two ledgers, A the baseline and B the candidate.

* A simulated-domain metric (``exact``) must be identical; any change is
  reported as ``changed`` and fails the comparison, because a change meant
  only to speed the simulator up must leave it alone and a change to the
  model must say so.
* A host-time metric regresses when B's median is worse than A's by more
  than its bound.  Where the run-to-run spread of either side is wider
  than the bound the row is ``unresolved`` — not "unchanged" — unless every
  sample of B reads better than every sample of A.

Exits non-zero on a regression, a changed exact metric or a higher
``failed_share``.  Bounds come from ``BENCHMARK.json`` where it declares
one and from ``spec.END_TO_END`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from benchmarks.perf import harness, spec


def bounds() -> dict[str, float]:
    table = {metric.name: metric.bound for metric in spec.END_TO_END}
    manifest = harness.REPO_ROOT / "BENCHMARK.json"
    if manifest.is_file():
        for row in json.loads(manifest.read_text())["end_to_end"]:
            table[row["name"]] = row["bound"]
    return table


def spread(samples: list[float] | None) -> float | None:
    """Quartile distance over the median; range over the median when
    there are too few samples for quartiles; None for a single reading."""
    if not samples or len(samples) < 2:
        return None
    middle = statistics.median(samples)
    if not middle:
        return None
    if len(samples) >= 4:
        low, _, high = statistics.quantiles(samples, n=4)
    else:
        low, high = min(samples), max(samples)
    return (high - low) / abs(middle)


def end_to_end(ledger: dict[str, Any], workload: str) -> dict[str, Any]:
    entry = ledger["workloads"].get(workload, {})
    record = entry.get("untraced") or entry.get("traced") or {}
    return record.get("end_to_end", {})


def compare_row(metric: spec.Metric, bound: float, a: dict, b: dict) -> tuple[str, float, float | None]:
    """``(status, worsening share, widest spread)`` of one row."""
    before, after = a["value"], b["value"]
    if metric.exact:
        if before == after:
            return "same", 0.0, None
        if metric.name == "failed_share" and after < before:
            return "improved", 0.0, None
        return "changed", 0.0, None
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (after - before) / before if before else 0.0
    spreads = [s for s in (spread(a.get("samples")), spread(b.get("samples"))) if s]
    widest = max(spreads, default=None)
    if widest is not None and widest > bound:
        a_samples, b_samples = a["samples"], b["samples"]
        if metric.better == "lower":
            clear = max(b_samples) < min(a_samples)
        else:
            clear = min(b_samples) > max(a_samples)
        return ("improved" if clear else "unresolved"), worsening, widest
    if worsening > bound:
        return "REGRESSION", worsening, widest
    return ("improved" if worsening < -bound else "ok"), worsening, widest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    ledger_a, ledger_b = (json.loads(Path(path).read_text()) for path in argv)
    table = bounds()
    rows = []
    failed = False
    for workload in spec.WORKLOADS:
        a_metrics, b_metrics = end_to_end(ledger_a, workload), end_to_end(ledger_b, workload)
        for metric in spec.END_TO_END:
            if not metric.applies_to(workload):
                continue
            if metric.name not in a_metrics or metric.name not in b_metrics:
                rows.append((workload, metric.name, "-", "-", "", "", "", "MISSING"))
                failed = True
                continue
            a, b = a_metrics[metric.name], b_metrics[metric.name]
            bound = table[metric.name]
            status, worsening, widest = compare_row(metric, bound, a, b)
            failed = failed or status in ("REGRESSION", "changed")
            rows.append(
                (
                    workload,
                    metric.name,
                    f"{a['value']:.6g}",
                    f"{b['value']:.6g}",
                    "" if metric.exact else f"{100 * worsening:+.1f}%",
                    "exact" if metric.exact else f"{100 * bound:.0f}%",
                    "" if widest is None else f"{100 * widest:.1f}%",
                    status,
                )
            )
    header = ("workload", "metric", "A", "B", "worse by", "bound", "spread", "status")
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("\n" + ", ".join(f"{count} {status}" for status, count in sorted(counts.items())))
    print("FAIL: B is worse than A beyond a bound" if failed else "PASS: B agrees with A within the bounds")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
