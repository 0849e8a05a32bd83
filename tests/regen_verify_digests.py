"""Regenerate ``tests/data/verify_digests.json``: the sha256 of
``[d.to_json() for d in verify_program(...).diagnostics]`` for a seeded
corpus of mutated programs — six mutation kinds x three small networks x
``big`` / ``small`` x the three program variants.

Run it on the commit whose diagnostics are the reference — *before* a change
to the verifier, not after — from the repository root::

    PYTHONPATH=src python tests/regen_verify_digests.py

``tests/test_verify_digests.py`` recomputes the same cases and compares, so
a verifier refactor that moves, rewords, reorders, drops or adds a finding
on any of them is caught as a named case.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # ``tests`` as a package, wherever ``repro`` comes from

import repro  # noqa: E402
from repro.compiler import VI_MODES, compile_network  # noqa: E402
from repro.hw.config import AcceleratorConfig  # noqa: E402
from repro.isa.program import Program  # noqa: E402
from repro.verify.engine import layer_table, verify_program  # noqa: E402
from repro.zoo import (  # noqa: E402
    build_medium_layer_net,
    build_tiny_cnn,
    build_tiny_residual,
)

FIXTURE = ROOT / "tests" / "data" / "verify_digests.json"
NETWORKS = {
    "tiny_cnn": build_tiny_cnn,
    "tiny_residual": build_tiny_residual,
    "medium_layer_net": build_medium_layer_net,
}
CONFIGS = {"big": AcceleratorConfig.big, "small": AcceleratorConfig.small}
KINDS = ("delete", "shift_row0", "halve_chs", "swap", "bump_in_ch0", "shrink_buffer")
BUFFERS = ("data_buffer_bytes", "weight_buffer_bytes", "output_buffer_bytes")
#: Mutations drawn per (network, config, variant, kind).
DRAWS = 10
SEED = 23


def cases() -> Iterator[tuple[str, str]]:
    """``(network, config)`` of every pinned compile."""
    for name in NETWORKS:
        for config in CONFIGS:
            yield name, config


def mutate(
    rng: random.Random, program: Program, config: AcceleratorConfig, kind: str
) -> tuple[Program, AcceleratorConfig]:
    """One drawn mutation of ``kind``: the program or the buffers it runs in."""
    if kind == "shrink_buffer":
        field = rng.choice(BUFFERS)
        return program, replace(config, **{field: rng.randrange(1, getattr(config, field))})
    instructions = list(program.instructions)
    index = rng.randrange(len(instructions) - 1)
    here = instructions[index]
    if kind == "delete":
        del instructions[index]
    elif kind == "swap":
        instructions[index : index + 2] = instructions[index + 1], here
    elif kind == "shift_row0":
        instructions[index] = replace(here, row0=here.row0 + 1)
    elif kind == "halve_chs":
        instructions[index] = replace(here, chs=here.chs // 2)
    else:
        instructions[index] = replace(here, in_ch0=here.in_ch0 + 1)
    return Program(name=program.name, instructions=tuple(instructions)), config


def digests(name: str, config: str) -> dict[str, str]:
    """Digest per mutated program of one compile, keyed as the fixture keys them."""
    compiled = compile_network(
        NETWORKS[name](), CONFIGS[config](), weights="zeros", verify="off", cache=False
    )
    layers = layer_table(compiled)
    pinned: dict[str, str] = {}
    for mode in VI_MODES:
        for kind in KINDS:
            # One stream per key prefix, so a case never depends on its neighbours.
            rng = random.Random(f"{SEED}|{name}|{config}|{mode}|{kind}")
            for draw in range(DRAWS):
                program, buffers = mutate(rng, compiled.program_for(mode), compiled.config, kind)
                report = verify_program(
                    program,
                    config=buffers,
                    layers=layers,
                    layout=compiled.layout,
                    expect_interruptible=mode != "none",
                )
                listing = json.dumps([d.to_json() for d in report.diagnostics], sort_keys=True)
                pinned[f"{name}|{config}|{mode}|{kind}|{draw}"] = hashlib.sha256(
                    listing.encode()
                ).hexdigest()
    return pinned


def main() -> None:
    checkout = Path(repro.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    pinned: dict[str, str] = {}
    for case in cases():
        pinned.update(digests(*case))
    FIXTURE.write_text(json.dumps({"commit": commit, "digests": pinned}, indent=1) + "\n")
    print(f"{len(pinned)} digests of {checkout} @ {commit[:12]} -> {FIXTURE}")


if __name__ == "__main__":
    main()
