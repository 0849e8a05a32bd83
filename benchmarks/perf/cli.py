"""Command line of the harness.

``python -m benchmarks.perf``
    every workload untraced, then traced; prints every metric by name with
    its unit and writes the ledger JSON (``--out``).
``python -m benchmarks.perf --workload W --seed N --seconds S --trace 0|1``
    one workload in this process; the last line of standard output is the
    JSON object ``BENCHMARK.json``'s driver reads.
``python -m benchmarks.perf --quick``
    every workload at about a tenth of the size, one repetition, traced.
``python -m benchmarks.perf --regen-expected``
    re-derive the pinned digests of ``expected.json`` from the stepped path.
``python -m benchmarks.perf compare A.json B.json`` / ``render [LEDGER]``
    see ``compare.py`` and ``render.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.perf import harness, spec
from benchmarks.perf.render import format_number

RUN_SCRIPT = harness.PERF_DIR / "run.py"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--result-file", type=Path, help="also write the full record here")
    parser.add_argument("--out", type=Path, default=harness.OUT_DIR / "bench.json",
                        help="ledger JSON of a full pass")
    parser.add_argument("--regen-expected", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from benchmarks.perf.compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "render":
        from benchmarks.perf.render import main as render_main

        return render_main(argv[1:])
    args = _parser().parse_args(argv)
    if args.regen_expected:
        return regen_expected()
    if args.workload:
        return run_one(args)
    return run_all(args)


# -- one workload, in this process ------------------------------------------


def _load_workloads() -> tuple[dict | None, float]:
    """Import numpy, repro and the workloads; returns them and the seconds
    it took (the import share of ``setup_s``)."""
    start = time.perf_counter()
    if not harness.bootstrap():
        print(
            f"benchmarks.perf: no program to measure under {harness.REPO_ROOT / 'src'}",
            file=sys.stderr,
        )
        return None, 0.0
    from benchmarks.perf.workloads import REGISTRY

    return REGISTRY, time.perf_counter() - start


def run_one(args: argparse.Namespace) -> int:
    registry, import_s = _load_workloads()
    if registry is None:
        return 2
    tier = "quick" if args.quick else "full"
    record = harness.measure(
        registry[args.workload],
        seed=args.seed,
        seconds=0.0 if args.quick else args.seconds,
        trace=bool(args.trace),
        tier=tier,
        import_s=import_s,
        setup_repeats=1 if args.quick else spec.SETUP_REPEATS,
        # A traced run splits its time between traced and untraced
        # repetitions; quick runs one of each.
        min_reps=1 if args.quick else (2 if args.trace else 3),
    )
    record["fingerprint"] = harness.fingerprint()
    if args.result_file:
        args.result_file.parent.mkdir(parents=True, exist_ok=True)
        args.result_file.write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    if not record["end_to_end"]:
        print("benchmarks.perf: no repetition completed", file=sys.stderr)
        return 1
    print(harness.driver_line(record))
    return 0


def print_record(record: dict[str, Any]) -> None:
    """Every metric by name with its unit, and the operation counts."""
    print(
        f"== {record['workload']}  seed={record['seed']} tier={record['tier']} "
        f"trace={record['trace']}  reference={record['reference']}  "
        f"reps={record['reps']}+{record['traced_reps']} traced"
    )
    print(f"   sizes: {json.dumps(record['sizes'])}")
    for note in record["notes"] + record["errors"]:
        print(f"   note: {note}")
    for group in ("end_to_end", "per_layer"):
        for name, entry in record[group].items():
            samples = entry.get("samples")
            tail = f"   (median of {len(samples)})" if samples else ""
            print(f"   {name:<38} {format_number(entry['value']):>16} {entry['unit']}{tail}")
    if "coverage" in record:
        print(
            f"   span self times cover {100 * record['coverage']:.1f}% of traced "
            f"wall_s; recording the spans cost {record['span_cost_pct']:.3f}% of it"
        )
    if record["end_to_end"]:
        attempted, failed = record["attempted"], record["failed"]
        print(
            f"   operations: attempted {attempted}, succeeded {attempted - failed}, "
            f"failed {failed}  ->  {'PASS' if record['correct'] else 'FAIL'}"
        )


# -- every workload, one subprocess each ------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Untraced then traced run of each workload, each in its own process
    (so ``peak_rss_mb`` is the workload's own), one after another."""
    tier = "quick" if args.quick else "full"
    scratch = harness.OUT_DIR / "records"
    scratch.mkdir(parents=True, exist_ok=True)
    ledger: dict[str, Any] = {
        "schema": 1,
        "tier": tier,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for name in spec.WORKLOADS:
        entry: dict[str, Any] = {}
        # The quick tier runs traced only: one run yields both metric sets.
        for trace in ((1,) if args.quick else (0, 1)):
            result_file = scratch / f"{name}-trace{trace}.json"
            result_file.unlink(missing_ok=True)
            command = [
                sys.executable, str(RUN_SCRIPT),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--result-file", str(result_file),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            # Everything but the driver's JSON line is for people.
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            sys.stdout.flush()
            if done.returncode != 0 or not result_file.is_file():
                sys.stdout.write(done.stdout[-2000:] + done.stderr[-4000:])
                ok = False
                continue
            record = json.loads(result_file.read_text())
            ledger.setdefault("fingerprint", record.pop("fingerprint"))
            ok = ok and record["correct"]
            entry["traced" if trace else "untraced"] = record
        ledger["workloads"][name] = entry
    ledger["correct"] = ok
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nledger written to {args.out}")
    print("all oracles passed" if ok else "FAILED: at least one workload is incorrect")
    return 0 if ok else 1


# -- pinned references --------------------------------------------------------


def regen_expected() -> int:
    """Re-derive ``expected.json`` from the stepped reference paths."""
    registry, _ = _load_workloads()
    if registry is None:
        return 2
    from benchmarks.perf.trace import Tracer

    def stepped(name: str, tier: str, seed: int) -> str:
        ctx = harness.Context(name, seed, tier, Tracer(), harness.OUT_DIR)
        workload = registry[name](ctx)
        workload.setup()
        found = workload.reference_digest()
        print(f"{name} {tier} seed {seed}: {found}", flush=True)
        return found

    expected: dict[str, Any] = {"dslam_ros": {}, "pair_armed": {}}
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for tier, sizes in spec.SIZES.items():
        # dslam_ros: the seed never reaches the accelerator; two seeds prove it.
        first, second = (stepped("dslam_ros", tier, seed) for seed in (0, 1))
        if first != second:
            raise SystemExit("dslam_ros digest depends on the seed; pin it per seed")
        key = harness.sizes_key(tier, sizes["dslam_ros"])
        expected["dslam_ros"][key] = {"any": first}
        key = harness.sizes_key(tier, sizes["pair_armed"])
        expected["pair_armed"][key] = {
            str(seed): stepped("pair_armed", tier, seed) for seed in spec.PINNED_SEEDS
        }
    harness.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.EXPECTED_PATH}")
    return 0
