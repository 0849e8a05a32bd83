"""The layer map: ``src/repro`` imports down the tiers of the "Layers" table
in ``docs/architecture.md``.

The table is read from the doc, so the order is stated once.  The package
graph of module-level imports (``TYPE_CHECKING`` blocks excluded) must be
acyclic, and every edge must point to a lower tier.  A ``repro`` import
inside a function is allowed only where :data:`ALLOWED` lists it, with its
kind, its reason and the test that guards that reason.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Kept inside the function so that importing the module stays cheap.
IMPORT_COST = "import cost"
#: The call goes up the map (or, within one package, to the module that
#: imports this one at module level).
UPWARD = "upward call"


@dataclass(frozen=True)
class Lazy:
    """One function-level ``repro`` import kept on purpose."""

    #: The functions that import it, by dotted name within the module.
    sites: tuple[str, ...]
    kind: str
    reason: str
    #: ``path::name[::name]`` of the test that fails if the reason stops holding.
    guard: str


#: Every function-level ``repro`` import, by (importing module, imported module).
ALLOWED = {
    ("repro.compiler.cache", "repro"): Lazy(
        ("compiler_fingerprint",),
        UPWARD,
        "the fingerprint reads repro.__version__, set by the package __init__",
        "tests/test_compile_cache.py::TestCacheKey::test_sensitive_to_compiler_version",
    ),
    ("repro.compiler.cache", "repro.compiler.compile"): Lazy(
        ("_cmd_warm",),
        UPWARD,
        "the CLI's warm command compiles; compile imports the cache at module top",
        "tests/test_compile_cache.py::TestMaintenance::test_cli_warm_config",
    ),
    ("repro.compiler.compile", "repro.iau.fastpath"): Lazy(
        ("CompiledNetwork.meta", "CompiledNetwork.execution_meta"),
        UPWARD,
        "a network's fast-path meta is built by the IAU, which runs compiled networks",
        "tests/test_compile_cache.py::TestRoundTrip::test_meta_is_warm_from_load",
    ),
    ("repro.compiler.compile", "repro.verify.engine"): Lazy(
        ("compile_network",),
        UPWARD,
        "verify='full' runs the verifier, which reads compiled networks",
        "tests/test_verify.py::TestCompileWiring::test_compile_full_verify_clean",
    ),
    ("repro.farm.farm", "repro.serve.gateway"): Lazy(
        ("Farm.serve.measure",),
        IMPORT_COST,
        "a day the plan answers ships no node, so it never loads the gateway",
        "tests/test_layers.py::test_a_plan_answered_serve_loads_no_gateway",
    ),
    ("repro.farm.farm", "repro.serve.worker"): Lazy(
        ("_on_gateway",),
        IMPORT_COST,
        "only a shipped node needs the worker's job type",
        "tests/test_layers.py::test_a_plan_answered_serve_loads_no_gateway",
    ),
    ("repro.faults", "repro.faults.campaign"): Lazy(
        ("__getattr__",),
        UPWARD,
        "campaigns run the runtime stack, and every import of repro.faults.plan "
        "from hw, iau or runtime runs this __init__ first",
        "tests/test_obs.py::TestPackageSurface::test_top_level_exports",
    ),
    ("repro.faults.campaign", "repro.runtime.system"): Lazy(
        ("make_preemption_scenario",),
        UPWARD,
        "the stock campaign scenario runs a multi-task system",
        "tests/test_fault_injection.py::TestCampaign",
    ),
    ("repro.hw.ddr", "repro.faults.plan"): Lazy(
        ("Ddr.burst_faults", "Ddr.stall_fired", "Ddr.read_disturb", "Ddr._inject_flip",
         "Ddr._ecc_check"),
        UPWARD,
        "the DDR model's fault hooks draw from the fault plan, and repro.faults "
        "sits above repro.hw",
        "tests/test_fault_injection.py::TestDdrEcc",
    ),
    ("repro.isa.validate", "repro.verify.engine"): Lazy(
        ("validate_program",),
        UPWARD,
        "the raising wrapper over the verifier's structural rules",
        "tests/test_vi_pass.py::TestViInsertion::test_validator_accepts_result",
    ),
}


# -- the source, parsed ------------------------------------------------------


def _modules() -> dict[str, Path]:
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        found[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return found


MODULES = _modules()


@dataclass(frozen=True)
class Import:
    module: str
    target: str
    line: int
    #: The enclosing function's dotted name; ``None`` at module level.
    function: str | None

    @property
    def where(self) -> str:
        return f"{MODULES[self.module].relative_to(REPO)}:{self.line}"


def package(module: str) -> str:
    """The map's name for ``module``'s package (``repro`` for the root)."""
    return module.split(".")[1] if "." in module else module


def _targets(node: ast.Import | ast.ImportFrom, module: str) -> list[str]:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            parts = module.split(".")
            if MODULES[module].name != "__init__.py":
                parts.pop()
            base = ".".join(parts[: len(parts) - node.level + 1] + [base] * bool(base))
        # ``from package import submodule`` imports the submodule.
        names = [
            f"{base}.{alias.name}" if f"{base}.{alias.name}" in MODULES else base
            for alias in node.names
        ]
    return [name for name in dict.fromkeys(names) if name.split(".")[0] == "repro"]


def _imports(body: list[ast.stmt], module: str, scope: str, in_function: bool):
    for node in body:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _imports(node.orelse, module, scope, in_function)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in _targets(node, module):
                yield Import(module, target, node.lineno, scope if in_function else None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
            nested = in_function or not isinstance(node, ast.ClassDef)
            yield from _imports(node.body, module, inner, nested)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    yield from _imports([child], module, scope, in_function)
                elif isinstance(child, (ast.excepthandler, ast.match_case)):
                    yield from _imports(child.body, module, scope, in_function)


IMPORTS = [
    found
    for module, path in MODULES.items()
    for found in _imports(ast.parse(path.read_text()).body, module, "", False)
]
TOP = [found for found in IMPORTS if found.function is None]
LAZY = [found for found in IMPORTS if found.function is not None]


def layer_map() -> dict[str, int]:
    """Package -> tier, read from the "Layers" table of the architecture doc."""
    text = (REPO / "docs" / "architecture.md").read_text()
    section = text.split("\n## Layers\n", 1)[1].split("\n## ", 1)[0]
    tiers: dict[str, int] = {}
    for tier, names in re.findall(r"^\| (\d+) \| ([^|]+) \|", section, re.M):
        for name in re.findall(r"`([\w.]+)`", names):
            assert name not in tiers, f"{name} is listed twice in the layer map"
            tiers[name] = int(tier)
    return tiers


def cycles(edges: Mapping[str, Iterable[str]]) -> list[list[str]]:
    """The strongly connected components of more than one package (Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    found: list[list[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        for other in sorted(edges.get(node, ())):
            if other not in index:
                visit(other)
                low[node] = min(low[node], low[other])
            elif other in stack:
                low[node] = min(low[node], index[other])
        if low[node] == index[node]:
            component = []
            while not component or component[-1] != node:
                component.append(stack.pop())
            if len(component) > 1:
                found.append(sorted(component))

    for node in sorted(edges):
        if node not in index:
            visit(node)
    return found


# -- the map -----------------------------------------------------------------


def test_the_map_places_every_package():
    packages, tiers = {package(module) for module in MODULES}, layer_map()
    assert sorted(packages - tiers.keys()) == [], "packages missing from the map"
    assert sorted(tiers.keys() - packages) == [], "the map names no such package"


def test_the_package_graph_is_acyclic():
    edges: dict[str, dict[str, Import]] = defaultdict(dict)  # the first import per edge
    for found in TOP:
        if package(found.module) != package(found.target):
            edges[package(found.module)].setdefault(package(found.target), found)
    loops = cycles(edges)
    inside = [
        f"{source} -> {target} ({found.where})"
        for loop in loops
        for source in loop
        for target, found in edges[source].items()
        if target in loop
    ]
    assert loops == [], "package import cycle(s): " + "; ".join(map(", ".join, loops)) + (
        "\n" + "\n".join(inside)
    )


def test_every_module_level_import_points_down_the_map():
    tiers = layer_map()
    upward = [
        f"{found.where} {package(found.module)} (tier {tiers[package(found.module)]}) "
        f"imports {found.target} (tier {tiers[package(found.target)]})"
        for found in TOP
        if package(found.module) != package(found.target)
        and tiers[package(found.module)] <= tiers[package(found.target)]
    ]
    assert not upward, "\n".join(upward)


def test_every_function_level_import_is_allowed():
    sites: dict[tuple[str, str], set[str]] = defaultdict(set)
    unlisted = []
    for found in LAZY:
        key = (found.module, found.target)
        sites[key].add(found.function)
        if key not in ALLOWED or found.function not in ALLOWED[key].sites:
            unlisted.append(
                f"{found.where} {found.function} imports {found.target}: hoist it, "
                f"or list it in ALLOWED with its reason and guard"
            )
    assert not unlisted, "\n".join(unlisted)
    stale = {key: lazy.sites for key, lazy in ALLOWED.items() if set(lazy.sites) != sites[key]}
    assert stale == {}, "ALLOWED lists sites that no longer import"


def test_each_allowed_import_has_a_reason_and_a_guard():
    tiers = layer_map()
    for (module, target), lazy in ALLOWED.items():
        assert lazy.kind in (IMPORT_COST, UPWARD) and lazy.reason
        if lazy.kind == UPWARD:
            assert tiers[package(module)] <= tiers[package(target)], (
                f"{module} -> {target} points down the map: hoist it"
            )
        path, *names = lazy.guard.split("::")
        tree = ast.parse((REPO / path).read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert set(names) <= defined, f"{lazy.guard} does not exist"


# -- the import-cost guards ---------------------------------------------------


def _fresh(program: str) -> str:
    """``program``'s output in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", program],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout


@pytest.mark.parametrize(
    "module, absent",
    [
        ("repro.verify.cli", {"farm", "dslam", "analysis", "tools"}),
        ("repro.farm", {"analysis", "serve", "tools"}),
    ],
)
def test_a_fresh_import_loads_no_higher_layer(module, absent):
    loaded = _fresh(f"import sys, {module}\nprint(*sys.modules)").split()
    higher = [name for name in loaded if name.startswith("repro.") and package(name) in absent]
    assert sorted(higher) == []


FARM_DAY = """
import sys
from repro.farm import (
    Farm, PredictiveScheduler, ServiceSpec, SloClass, TenantSpec, TrafficSpec, generate_jobs,
)
from repro.hw.config import AcceleratorConfig

slo = SloClass("gold", rank=0, weight=1.0, deadline_cycles=400_000)
jobs = generate_jobs(TrafficSpec(
    tenants=(TenantSpec(0, service=0, mean_interarrival_cycles=30_000),),
    duration_cycles=300_000, seed=7,
))
farm = Farm([AcceleratorConfig.small()] * 2, (ServiceSpec("det", "tiny_cnn", slo),),
            PredictiveScheduler())
result = farm.serve(jobs, max_workers=2)
assert len(result.outcomes) == len(jobs) > 0
print(*sorted(name for name in sys.modules if name.startswith("repro.serve")))
"""


def test_a_plan_answered_serve_loads_no_gateway():
    """``Farm.serve(jobs, max_workers=2)`` on a day the plan answers (no node
    simulated) never imports :mod:`repro.serve`."""
    assert _fresh(FARM_DAY).split() == []
