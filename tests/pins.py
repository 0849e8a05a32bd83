"""Every pinned digest set of the exactness contract, and one command to
check or regenerate them.  A :class:`Pin` is a ``tests/data`` JSON file,
``{"commit": <the commit that produced it>, "digests": {key: sha256}}``,
with its cases and the producer that recomputes one case.  From the
repository root::

    PYTHONPATH=src python -m tests.pins check [name ...]
    PYTHONPATH=<reference checkout>/src python -m tests.pins regen [name ...]

``check`` names the keys that moved.  ``regen`` rewrites only a file whose
digests moved, were added or were removed, stamped with the commit
``repro`` was imported from (``<sha>+dirty`` if that checkout's ``src/``
has uncommitted edits, which ``tests/test_pins.py`` refuses), and prints
one summary line per pin.  A change that must move nothing regenerates
from the reference commit before it; a change meant to move behaviour,
from itself once committed, quoting the summary in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Any, Callable, Sequence

import pytest

import repro
from repro.analysis.design_space import default_design_grid
from repro.compiler import VI_MODES, ViPolicy, compile_network
from repro.dslam import DslamScenario, VisualOdometry, run_dslam
from repro.farm import (
    ChaosAction, ChaosPlan, Farm, FcfsScheduler, FeedbackScheduler, PredictiveScheduler,
    ResilienceConfig, ServiceSpec, SloClass, StaticPartitionScheduler, TenantSpec, TrafficSpec,
    generate_jobs,
)
from repro.hw.config import AcceleratorConfig
from repro.isa.program import Program
from repro.qos import ModeSwitchPolicy
from repro.runtime.system import compile_tasks
from repro.verify.engine import layer_table, verify_program
from repro.zoo import build_medium_layer_net, build_tiny_cnn, build_tiny_conv, build_tiny_residual
from tests import conformance
from tests.test_program_words import ZOO

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = {"big": AcceleratorConfig.big, "small": AcceleratorConfig.small}


# -- golden: the stepped run of every tier-1 conformance cell -----------------------


def golden_cases() -> list[conformance.Cell]:
    return list(dict.fromkeys(conformance.golden_cell(cell) for cell in conformance.TIER1))


def golden_digests(cell: conformance.Cell) -> list[str]:
    return [conformance.digest(conformance.stepped_run(cell).observed)]


# -- program: the compiler's bytes -----------------------------------------------------

STRIDES = (1, 2, 3)
#: One case away from address 0, so ``ddr_addr`` columns carry an offset.
BASE_ADDR_CASE = ("tiny_residual@example", "small", 2, 0x0100_0000)


def program_cases() -> list[tuple[str, str, int, int]]:
    """``(network, config, calc_f_stride, base_addr)`` of every pinned compile."""
    return [(*case, 0) for case in product(sorted(ZOO), CONFIGS, STRIDES)] + [BASE_ADDR_CASE]


def program_keys(case: tuple[str, str, int, int]) -> list[str]:
    name, config, stride, base_addr = case
    return [f"{name}|{config}|stride={stride}|base={base_addr:#x}|{mode}" for mode in VI_MODES]


def program_digests(case: tuple[str, str, int, int]) -> list[str]:
    name, config, stride, base_addr = case
    compiled = compile_network(
        ZOO[name][0](), CONFIGS[config](), base_addr=base_addr, weights="zeros",
        vi_policy=ViPolicy(calc_f_stride=stride), cache=False,
    )
    return [hashlib.sha256(compiled.program_for(mode).to_bytes()).hexdigest() for mode in VI_MODES]


# -- verify: diagnostics of mutated programs ---------------------------------------------

VERIFY_NETWORKS = {
    "tiny_cnn": build_tiny_cnn, "tiny_residual": build_tiny_residual,
    "medium_layer_net": build_medium_layer_net,
}
KINDS = ("delete", "shift_row0", "halve_chs", "swap", "bump_in_ch0", "shrink_buffer")
BUFFERS = ("data_buffer_bytes", "weight_buffer_bytes", "output_buffer_bytes")
#: Mutations drawn per (network, config, variant, kind).
DRAWS = 10
SEED = 23


def verify_cases() -> list[tuple[str, str]]:
    """``(network, config)`` of every pinned compile."""
    return [(name, config) for name in VERIFY_NETWORKS for config in CONFIGS]


def verify_keys(case: tuple[str, str]) -> list[str]:
    name, config = case
    return [f"{name}|{config}|{m}|{k}|{d}" for m, k, d in product(VI_MODES, KINDS, range(DRAWS))]


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


def verify_digests(case: tuple[str, str]) -> list[str]:
    name, config = case
    compiled = compile_network(
        VERIFY_NETWORKS[name](), CONFIGS[config](), weights="zeros", verify="off", cache=False
    )
    layers = layer_table(compiled)
    digests = []
    for mode in VI_MODES:
        for kind in KINDS:
            # One stream per key prefix, so a case never depends on its neighbours.
            rng = random.Random(f"{SEED}|{name}|{config}|{mode}|{kind}")
            for _ in range(DRAWS):
                program, buffers = mutate(rng, compiled.program_for(mode), compiled.config, kind)
                report = verify_program(
                    program, config=buffers, layers=layers, layout=compiled.layout,
                    expect_interruptible=mode != "none", max_response_cycles=1,
                )
                listing = json.dumps([d.to_json() for d in report.diagnostics], sort_keys=True)
                digests.append(hashlib.sha256(listing.encode()).hexdigest())
    return digests


# -- farm: what each serving path returns ------------------------------------------------

SERVICES = (
    ServiceSpec("detect", "tiny_conv", SloClass("gold", 0, 8.0, 400_000)),
    ServiceSpec("track", "tiny_residual", SloClass("silver", 1, 3.0, 1_200_000)),
    ServiceSpec("embed", "tiny_cnn", SloClass("bronze", 2, 1.0, 4_000_000)),
)
SCHEDULERS: dict[str, Callable[[], Any]] = {
    "fcfs": FcfsScheduler, "static-partition": StaticPartitionScheduler,
    "predictive": PredictiveScheduler, "feedback+predictive": FeedbackScheduler,
}
SEEDS = (0, 1, 2)
PATTERNS = ("poisson", "bursty", "diurnal")


def day(seed: int, duration_cycles: int, *tenants: TenantSpec) -> list:
    return generate_jobs(TrafficSpec(tenants=tenants, duration_cycles=duration_cycles, seed=seed))


def static_day(seed: int) -> list:
    """Six tenants over three services on the four-node grid, ~200 jobs."""
    return day(seed, 1_000_000, *(
        TenantSpec(i, service=i % 3, mean_interarrival_cycles=30_000, pattern=PATTERNS[i % 3])
        for i in range(6)
    ))


def static_farm(scheduler: str) -> Farm:
    return Farm(default_design_grid(), SERVICES, SCHEDULERS[scheduler]())


def resilient_day() -> list:
    """Three tenants, one per class, on three nodes."""
    return day(
        11, 2_000_000,
        TenantSpec(0, service=0, mean_interarrival_cycles=60_000),
        TenantSpec(1, service=1, mean_interarrival_cycles=90_000),
        TenantSpec(2, service=2, mean_interarrival_cycles=120_000, pattern="bursty"),
    )


def bronze_tail_day() -> list:
    """Gold plus a long tail of bronze, so a mode switch has work to shed."""
    return day(
        3, 3_000_000,
        TenantSpec(0, service=0, mean_interarrival_cycles=80_000),
        TenantSpec(1, service=2, mean_interarrival_cycles=50_000),
    )


def overloaded_day() -> list:
    """Enough backlog that a dead node strands more than two epochs of
    hedges can cover: the rest must migrate."""
    return day(5, 1_500_000, *(
        TenantSpec(i, service=i, mean_interarrival_cycles=16_000, pattern=PATTERNS[i])
        for i in range(3)
    ))


def feedback_farm() -> Farm:
    return Farm(default_design_grid()[:3], SERVICES, FeedbackScheduler())


def kills(*at: tuple[int, int]) -> ChaosPlan:
    return ChaosPlan(tuple(ChaosAction("kill_node", node, at_cycle=cycle) for node, cycle in at))


def resilient_scenarios() -> dict[str, tuple]:
    """name -> (farm factory, jobs, config, chaos) of every pinned
    ``serve_resilient`` day; each runs on a fresh farm."""
    resilient, epoch = resilient_day(), ResilienceConfig(epoch_cycles=200_000)
    hang = ChaosPlan((ChaosAction("kill_node", 2, at_cycle=600_000, heal_cycle=1_000_000),))
    shed = ModeSwitchPolicy(capacity_threshold=0.75, shed_min_rank=2)
    return {
        "no-chaos": (feedback_farm, resilient, epoch, None),
        "two-kills": (feedback_farm, resilient, epoch, kills((1, 500_000), (2, 900_000))),
        "transient-hang": (
            feedback_farm, resilient, replace(epoch, dead_after_cycles=1_200_000), hang,
        ),
        "shed-bronze": (
            feedback_farm,
            bronze_tail_day(),
            replace(epoch, mode_switch=shed),
            kills((1, 300_000), (2, 400_000)),
        ),
        "no-hedge": (feedback_farm, resilient, replace(epoch, hedge=False), kills((2, 600_000))),
        "hedge-then-migrate": (
            lambda: static_farm("predictive"),
            overloaded_day(),
            ResilienceConfig(epoch_cycles=100_000, dead_after_cycles=250_000),
            kills((1, 700_000), (3, 1_000_000)),
        ),
    }


def sha(*parts: Any) -> str:
    """One digest over the ``repr`` of every part (dataclass reprs are
    field-complete and carry no addresses)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def static_digest(result: Any) -> str:
    dispatches = sorted(result.dispatches, key=lambda d: d.job.job_id)
    return sha(result.outcomes, dispatches, result.report)


def resilient_digest(farm: Farm, result: Any) -> str:
    events = [json.dumps(event.to_dict(), sort_keys=True) for event in farm.bus.events]
    return sha(
        result.outcomes, tuple(result.shed), tuple(result.dispatches),
        result.report, result.resilience, events,
    )


def farm_cases() -> list[tuple]:
    """``("serve", scheduler, seed)`` per static day, ``("serve_resilient",
    name)`` per resilient scenario."""
    static = [("serve", scheduler, seed) for seed in SEEDS for scheduler in SCHEDULERS]
    return static + [("serve_resilient", name) for name in resilient_scenarios()]


def farm_keys(case: tuple) -> list[str]:
    return [f"serve|{case[1]}|seed={case[2]}" if case[0] == "serve" else "|".join(case)]


def farm_digests(case: tuple) -> list[str]:
    if case[0] == "serve":
        return [static_digest(static_farm(case[1]).serve(static_day(case[2])))]
    make_farm, jobs, config, chaos = resilient_scenarios()[case[1]]
    farm = make_farm()
    return [resilient_digest(farm, farm.serve_resilient(jobs, resilience=config, chaos=chaos))]


# -- host: the DSLAM results the accelerator digest does not see ------------------------


def host_outputs(seed: int) -> object:
    """Every host-computed E10 output of ``DslamScenario`` ``seed`` on the
    tiny networks: VO, loop closure, place matching, map merge."""
    inliers: dict[int, list[int]] = {}
    update = VisualOdometry.update

    def recording(vo, features):
        pose, count = update(vo, features)
        inliers.setdefault(id(vo), []).append(count)
        return pose, count

    config = AcceleratorConfig.worked_example()
    fe, pr = compile_tasks([build_tiny_conv(), build_tiny_cnn()], config, weights="zeros")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VisualOdometry, "update", recording)
        result = run_dslam(fe, pr, DslamScenario(num_frames=60, fps=2000.0, speed=150.0, seed=seed))
    merge = result.merge
    return {
        "trajectories": [agent.estimated_trajectory for agent in result.agents],
        "inliers": list(inliers.values()),
        "ate": [agent.ate_meters for agent in result.agents],
        "ate_optimized": [agent.ate_optimized_meters for agent in result.agents],
        "loop_closures": [agent.loop_closures for agent in result.agents],
        "merged_ate": result.merged_ate_meters,
        "merge": merge and [merge.transform, merge.shared_landmarks, merge.residual_rms],
        "matches": [
            (m.query.agent, m.query.header.seq, m.candidate.agent, m.candidate.header.seq,
             m.similarity) for m in result.matches
        ],
        "map": [result.merged_map_landmarks, result.merged_map_rmse_meters],
    }


def host_digests(seed: int) -> list[str]:
    return [conformance.digest(host_outputs(seed))]


# -- the registry -------------------------------------------------------------------------


@dataclass(frozen=True)
class Pin:
    """A pinned digest file: ``cases()`` lists what to recompute,
    ``keys(case)`` names a case's digests and ``producer(case)`` computes
    them, in that order."""

    name: str
    file: Path
    cases: Callable[[], Sequence[Any]]
    producer: Callable[[Any], list[str]]
    keys: Callable[[Any], list[str]]

    def load(self) -> dict:
        return json.loads(self.file.read_text())

    def digests(self, case: Any) -> dict[str, str]:
        return dict(zip(self.keys(case), self.producer(case), strict=True))

    def produce(self) -> dict[str, str]:
        return {key: value for case in self.cases() for key, value in self.digests(case).items()}


def one_key(case: Any) -> list[str]:
    return [str(case)]


PINS = {pin.name: pin for pin in (
    Pin("golden", DATA / "golden_digests.json", golden_cases, golden_digests, one_key),
    Pin("program", DATA / "program_digests.json", program_cases, program_digests, program_keys),
    Pin("verify", DATA / "verify_digests.json", verify_cases, verify_digests, verify_keys),
    Pin("farm", DATA / "farm_serve_digests.json", farm_cases, farm_digests, farm_keys),
    Pin("host", DATA / "host_digests.json", lambda: (0, 1, 2), host_digests, one_key),
)}

CLEAN_COMMIT = re.compile("[0-9a-f]{40}")


def audit(pin: Pin) -> None:
    """Assert ``pin``'s file names the clean commit that produced it and
    holds exactly its cases' keys (no producer runs)."""
    pinned = pin.load()
    assert CLEAN_COMMIT.fullmatch(pinned["commit"]), (
        f"{pin.file.name} is stamped {pinned['commit']!r}, not a clean commit"
    )
    keys = [key for case in pin.cases() for key in pin.keys(case)]
    assert sorted(keys) == sorted(pinned["digests"])


def stamp(checkout: Path | None = None) -> str:
    """The commit at ``checkout`` (default: where ``repro`` was imported
    from), with ``+dirty`` when its ``src/`` has uncommitted edits."""
    checkout = checkout or Path(repro.__file__).resolve().parents[2]

    def git(*args: str) -> str:
        command = ["git", "-C", str(checkout), *args]
        return subprocess.run(command, check=True, capture_output=True, text=True).stdout.strip()

    commit = git("rev-parse", "HEAD")
    return f"{commit}+dirty" if git("status", "--porcelain", "--", "src") else commit


def moves(pinned: dict[str, str], fresh: dict[str, str]) -> dict[str, list[str]]:
    """The keys of ``fresh`` that moved or not, were added, and the keys of
    ``pinned`` it removed."""
    return {
        "moved": [key for key in fresh if key in pinned and fresh[key] != pinned[key]],
        "unchanged": [key for key in fresh if pinned.get(key) == fresh[key]],
        "added": [key for key in fresh if key not in pinned],
        "removed": [key for key in pinned if key not in fresh],
    }


def summary(pin: Pin, moved: dict[str, list[str]]) -> str:
    return f"{pin.name}: " + ", ".join(f"{len(keys)} {label}" for label, keys in moved.items())


def still(moved: dict[str, list[str]]) -> bool:
    return not (moved["moved"] or moved["added"] or moved["removed"])


def check(pin: Pin) -> dict[str, list[str]]:
    """Recompute ``pin`` and print its summary, naming (up to 20 of) each
    kind of key that moved."""
    moved = moves(pin.load()["digests"], pin.produce())
    print(f"{summary(pin, moved)}: {'ok' if still(moved) else 'FAILED'}")
    for label in ("moved", "added", "removed"):
        for key in moved[label][:20]:
            print(f"  {label}: {key}")
        if len(moved[label]) > 20:
            print(f"  ... {len(moved[label]) - 20} more {label}")
    return moved


def regen(pin: Pin, commit: str) -> dict[str, list[str]]:
    """Recompute ``pin``; rewrite its file, stamped ``commit``, only if a
    digest moved, was added or was removed."""
    fresh = pin.produce()
    moved = moves(pin.load()["digests"] if pin.file.exists() else {}, fresh)
    if still(moved):
        print(f"{summary(pin, moved)}: {pin.file.name} untouched")
    else:
        pin.file.write_text(json.dumps({"commit": commit, "digests": fresh}, indent=1) + "\n")
        print(f"{summary(pin, moved)}: {pin.file.name} stamped {commit}")
    return moved


def main(argv: list[str]) -> int:
    command, *names = argv or [""]
    if command not in ("check", "regen") or not set(names) <= set(PINS):
        print(f"usage: python -m tests.pins check|regen [{'|'.join(PINS)} ...]", file=sys.stderr)
        return 2
    pins = [PINS[name] for name in names or PINS]
    if command == "check":
        return int(not all([still(check(pin)) for pin in pins]))
    commit = stamp()
    for pin in pins:
        regen(pin, commit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
