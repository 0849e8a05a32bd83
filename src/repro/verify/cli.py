"""Static-verifier command line.

Run the full diagnostics engine over compiled networks from the model zoo::

    python -m repro.verify --model resnet18            # one network
    python -m repro.verify --all                       # the whole zoo (CI gate)
    python -m repro.verify --all --format json         # machine-readable
    python -m repro.verify --model vgg16 --max-response-us 200

Exit status is 0 when every verified artefact is clean and 1 when any
ERROR-severity finding was recorded, so the command doubles as the CI
``verify-zoo`` gate.  Both formats include the per-variant static WCIRL
bounds and the armed-stretch coverage (what fraction of each program the
batched fast path can retire with faults/QoS armed) alongside the
diagnostics.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from repro.compiler.compile import compile_network
from repro.hw.config import CONFIGS
from repro.verify.diagnostics import Report
from repro.verify.engine import layer_table, verify_network
from repro.verify.interference import StretchCoverage, stretch_coverage
from repro.verify.wcirl import wcirl_bound
from repro.zoo import MODELS


def _verify_one(
    model: str, config_name: str, max_response_cycles: int | None
) -> tuple[Report, dict[str, Any], dict[str, StretchCoverage]]:
    graph = MODELS[model]()
    config = CONFIGS[config_name]()
    compiled = compile_network(graph, config, weights="zeros", verify="off")
    report = verify_network(compiled, max_response_cycles=max_response_cycles)
    layers = layer_table(compiled)
    bounds: dict[str, Any] = {}
    coverage: dict[str, StretchCoverage] = {}
    for vi_mode, program in compiled.programs.items():
        bound = wcirl_bound(program, config, layers)
        bounds[vi_mode] = {
            "total_cycles": bound.total_cycles,
            "switch_points": bound.switch_points,
            "worst_gap_cycles": bound.worst_gap_cycles,
            "worst_response_cycles": bound.worst_response_cycles,
            "worst_response_us": bound.worst_us(config),
        }
        coverage[vi_mode] = stretch_coverage(compiled, vi_mode)
    return report, bounds, coverage


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify", description=__doc__
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--model", choices=sorted(MODELS), default="tiny_cnn")
    group.add_argument(
        "--all", action="store_true", help="verify every model in the zoo"
    )
    parser.add_argument("--config", choices=sorted(CONFIGS), default="big")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-response-us",
        type=float,
        default=None,
        help="fail (WCL002) if any interruptible variant's static WCIRL "
        "exceeds this budget",
    )
    args = parser.parse_args(argv)

    config = CONFIGS[args.config]()
    max_response_cycles = None
    if args.max_response_us is not None:
        max_response_cycles = int(config.clock.us_to_cycles(args.max_response_us))

    models = sorted(MODELS) if args.all else [args.model]
    payload: list[dict[str, Any]] = []
    any_errors = False
    for model in models:
        report, bounds, coverage = _verify_one(model, args.config, max_response_cycles)
        any_errors = any_errors or not report.ok
        if args.format == "json":
            payload.append(
                {
                    "model": model,
                    "config": args.config,
                    "wcirl": bounds,
                    "stretch_coverage": {
                        vi_mode: cov.to_json() for vi_mode, cov in coverage.items()
                    },
                    **report.to_json(),
                }
            )
        else:
            verdict = "ok" if report.ok else "FAILED"
            wcirl_us = bounds["vi"]["worst_response_us"]
            print(
                f"{model}/{args.config}: {verdict} "
                f"({len(report.errors)} error(s), {len(report.warnings)} "
                f"warning(s), static WCIRL {wcirl_us:.1f} us)"
            )
            stretches = ", ".join(
                f"{vi_mode} {cov.coverage:.0%} "
                f"({cov.covered_instructions}/{cov.instructions} instr, "
                f"{cov.batchable_stretches} stretches)"
                for vi_mode, cov in coverage.items()
            )
            print(f"  armed stretches: {stretches}")
            if report.diagnostics:
                for line in report.format().splitlines():
                    print(f"  {line}")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    return 1 if any_errors else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
