"""Measurement core: set-up, timed repetitions, oracle, record assembly.

One process measures one workload.  The order is fixed:

1. **set-up**, repeated ``setup_repeats`` times and reported as a median,
   plus the one-off costs that precede the first timed repetition (imports,
   deriving an unpinned reference, the discarded warm-up) — ``setup_s``;
2. **repetitions** of the timed region until ``seconds`` have passed
   (at least ``min_reps``), each checked by the workload's oracle;
3. in a traced run, traced and untraced repetitions alternate so the
   tracing overhead is a ratio of like with like, and the workload's
   **probes** (reference paths, in-process decompositions) run once after.

Host-time metrics are medians over repetitions with the samples kept;
simulated-domain metrics must repeat exactly or the run is incorrect.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.perf import spec
from benchmarks.perf.trace import Tracer

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"
EXPECTED_PATH = PERF_DIR / "expected.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> bool:
    """Pin BLAS/OMP threads and put ``src/`` on the path, before numpy or
    repro are imported.  False when there is no program to measure."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    # The compile cache is on only where a workload owns a temp directory.
    os.environ.pop("REPRO_COMPILE_CACHE", None)
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # Spawned gateway workers import repro from a fresh interpreter.
    parts = [str(src)] + [
        part for part in os.environ.get("PYTHONPATH", "").split(os.pathsep) if part
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return True


def fingerprint() -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def stop_children(grace_s: float = 10.0) -> None:
    """Leave no process behind: on return every child has ended and is reaped.

    Gateway and pool workers have exited by now unless a repetition raised.
    The one that always remains is ``multiprocessing``'s resource tracker,
    which the spawn context of ``ServeGateway`` starts: it lives until the
    last write end of its pipe closes, that is until *after* this process
    has exited, unless it is stopped here.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    # Closes the pipe and waits for the tracker; a no-op if none was started.
    resource_tracker._resource_tracker._stop()


def digest(document: Any) -> str:
    """Stable short hash of a JSON-able document (the pinned oracles)."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


#: The calibration kernel: a fixed pure-Python loop, and the seconds it
#: takes on the box the ledger was measured on in that box's fast regime.
SPIN_ITERATIONS = 200_000
SPIN_REFERENCE_S = 0.0050


def host_slowdown() -> float:
    """How much slower than the reference this host runs *right now*.

    The median of five runs of the calibration kernel over its reference
    time.  Shared hosts change speed by a quarter from one second to the
    next (a neighbour on the sibling hardware thread); sampled around each
    repetition, this factor takes most of that out of ``wall_norm_s``.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(SPIN_ITERATIONS):
            total += value
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / SPIN_REFERENCE_S


def steal_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this guest so far."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def sizes_key(tier: str, sizes: dict) -> str:
    """Names a tier *and* its sizes, so a resized workload never matches a
    digest pinned for the old size."""
    return f"{tier}-{digest(sizes)[:8]}"


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except (OSError, ValueError):
        return {}


@dataclass
class Context:
    """What a workload is handed: its seed, sizes, tracer and scratch."""

    workload: str
    seed: int
    tier: str
    tracer: Tracer
    scratch: Path
    sizes: dict = field(init=False)

    def __post_init__(self) -> None:
        self.sizes = spec.SIZES[self.tier][self.workload]

    def span(self, name: str):
        return self.tracer.span(name)

    def patched(self, targets):
        return self.tracer.patched(targets)

    def fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.scratch))

    def pinned(self) -> str | None:
        """The pinned reference digest for this workload, size and seed
        (``"any"`` pins a digest that does not depend on the seed)."""
        table = load_expected().get(self.workload, {})
        pins = table.get(sizes_key(self.tier, self.sizes), {})
        return pins.get(str(self.seed), pins.get("any"))


class Workload:
    """One named workload.  Subclasses fill in the five hooks below.

    ``setup`` builds everything the timed region needs and stores it on
    ``self``; it runs several times, so it must start from nothing each
    time.  ``prepare`` runs once after the last set-up: derive a reference
    that is not pinned, run the discarded warm-up.  ``rep`` is the timed
    region and returns whatever ``check`` and ``observe`` need.
    """

    name = ""
    #: The span every traced repetition is wrapped in (the entry layer).
    root_span = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes = ctx.sizes
        #: "pinned", "derived" or "oracle" — where the reference came from.
        self.reference = "oracle"
        self.notes: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Once, after set-up and before the first timed repetition."""

    def rep(self) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> tuple[int, int]:
        """``(attempted, failed)`` operations of one repetition."""
        raise NotImplementedError

    def observe(self, out: Any) -> dict[str, float]:
        """Simulated-domain metrics and work counts of one repetition.

        Keys are end-to-end metric names, plus ``work`` (the numerator of
        this workload's throughput metric) and any per-layer counts.
        """
        raise NotImplementedError

    def layers(self, durations: dict[str, float], out: Any) -> dict[str, float]:
        """Per-layer metrics of one traced repetition, from its span
        durations and its output."""
        return {}

    def probes(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers that need a run of their own (traced runs)."""
        return {}

    def setup_layers(self, durations: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics of the traced set-up."""
        return {}


#: The throughput metric of each workload (``work`` of a repetition ÷ wall).
THROUGHPUT = {
    workload: name
    for name in ("sim_instr_per_s", "compile_instr_per_s", "jobs_per_s")
    for workload in spec.E2E_BY_NAME[name].workloads
}


def measure(
    workload_cls: type[Workload],
    *,
    seed: int,
    seconds: float,
    trace: bool,
    tier: str,
    import_s: float,
    setup_repeats: int,
    min_reps: int,
) -> dict[str, Any]:
    """Run one workload and return its full record (see module docstring)."""
    name = workload_cls.name
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT_DIR))
    tracer = Tracer()
    ctx = Context(name, seed, tier, tracer, scratch)
    workload = workload_cls(ctx)
    try:
        setup_samples, once_s = _set_up(workload, tracer, trace, setup_repeats)
        stolen, began = steal_seconds(), time.perf_counter()
        reps = _repeat(workload, tracer, trace, seconds, min_reps)
        stolen = (steal_seconds() - stolen) / (time.perf_counter() - began)
        if stolen > 0.05:
            workload.notes.append(
                f"the hypervisor withheld {100 * stolen:.0f}% of a CPU during the "
                "repetitions (steal): host-time numbers of this run are inflated"
            )
        record: dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "tier": tier,
            "trace": int(trace),
            "sizes": ctx.sizes,
            "reference": workload.reference,
            "reps": len(reps.walls),
            "traced_reps": len(reps.traced_walls),
            "steal_share": stolen,
            "errors": reps.errors,
            "notes": workload.notes,
            "end_to_end": {},
            "per_layer": {},
        }
        if reps.walls:
            setup = [import_s + sample + once_s for sample in setup_samples]
            record["end_to_end"] = _end_to_end(name, reps, setup)
            if trace:
                record["per_layer"] = _per_layer(workload, tracer, reps)
                record["coverage"] = min(reps.coverage)
                record["span_cost_pct"] = 100.0 * max(reps.span_cost)
        record["attempted"] = max(reps.attempted, 1)
        record["failed"] = reps.failed
        record["correct"] = bool(reps.walls) and reps.failed == 0 and not reps.errors
        return record
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
        if trace:
            tracer.write(
                OUT_DIR / f"trace-{name}-seed{seed}-{tier}.json",
                {"workload": name, "seed": seed, "tier": tier},
            )


def _set_up(
    workload: Workload, tracer: Tracer, trace: bool, repeats: int
) -> tuple[list[float], float]:
    """Seconds of each set-up, and of the once-only ``prepare`` after."""
    samples = []
    tracer.rep = "setup"
    for index in range(repeats):
        # Spans only on the last set-up, the one whose state is used.
        tracer.enabled = trace and index == repeats - 1
        start = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.prepare()
    once_s = time.perf_counter() - start
    tracer.enabled = False
    return samples, once_s


@dataclass
class _Reps:
    """What the timed repetitions of one run produced."""

    walls: list[float] = field(default_factory=list)  # untraced
    traced_walls: list[float] = field(default_factory=list)
    #: Each traced wall over the untraced one just before it.
    pair_ratios: list[float] = field(default_factory=list)
    facts: list[dict[str, float]] = field(default_factory=list)  # every rep
    untraced_facts: list[dict[str, float]] = field(default_factory=list)
    layer_samples: list[dict[str, float]] = field(default_factory=list)
    coverage: list[float] = field(default_factory=list)
    span_cost: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _repeat(
    workload: Workload, tracer: Tracer, trace: bool, seconds: float, min_reps: int
) -> _Reps:
    """Timed repetitions until ``seconds`` have passed.

    A traced run traces repetitions 1, 2, 5, 6, ... — untraced/traced pairs
    in alternating order — because consecutive repetitions of some
    workloads alternate fast and slow (collector and allocator state), and
    a fixed order would read that as tracing overhead.
    """
    reps = _Reps()
    began = time.perf_counter()
    index = 0
    slowdown = host_slowdown()
    while True:
        enough = len(reps.walls) >= min_reps and (
            not trace or (len(reps.traced_walls) >= min_reps and index % 2 == 0)
        )
        if enough and time.perf_counter() - began >= seconds:
            return reps
        traced = trace and index % 4 in (1, 2)
        tracer.enabled = traced
        tracer.rep = index
        start = time.perf_counter()
        try:
            with tracer.span(workload.root_span):
                out = workload.rep()
        except Exception as exc:  # a raised run is a failed operation
            reps.errors.append(f"repetition {index}: {exc!r}")
            reps.attempted += 1
            reps.failed += 1
            if len(reps.errors) >= 3:
                return reps
            continue
        finally:
            wall = time.perf_counter() - start
            tracer.enabled = False
            index += 1
        before, slowdown = slowdown, host_slowdown()
        attempted, failed = workload.check(out)
        reps.attempted += attempted
        reps.failed += failed
        facts = workload.observe(out)
        facts["wall_s"] = wall
        facts["wall_norm_s"] = wall / (0.5 * (before + slowdown))
        reps.facts.append(facts)
        if traced:
            reps.traced_walls.append(wall)
            reps.layer_samples.append(workload.layers(tracer.durations(index - 1), out))
            reps.coverage.append(sum(tracer.self_times(index - 1).values()) / wall)
            reps.span_cost.append(tracer.cost_share(index - 1))
        else:
            reps.walls.append(wall)
            reps.untraced_facts.append(facts)
        if trace and index % 2 == 0 and len(reps.facts) >= 2:
            first, second = reps.facts[-2]["wall_s"], reps.facts[-1]["wall_s"]
            reps.pair_ratios.append(second / first if traced else first / second)
        # Let go of the output before the next repetition: a large live
        # result makes every collection during that repetition dearer.
        out = None


def _end_to_end(name: str, reps: _Reps, setup: list[float]) -> dict[str, dict[str, Any]]:
    """Medians of the untraced repetitions, samples kept; simulated-domain
    metrics must be the same in every repetition."""
    metrics: dict[str, dict[str, Any]] = {}

    def put(metric: str, value: float, samples: list[float] | None = None) -> None:
        metrics[metric] = {"value": value, "unit": spec.E2E_BY_NAME[metric].unit}
        if samples is not None:
            metrics[metric]["samples"] = samples

    put("setup_s", statistics.median(setup), setup)
    put("wall_s", statistics.median(reps.walls), reps.walls)
    normalised = [facts["wall_norm_s"] for facts in reps.untraced_facts]
    put("wall_norm_s", statistics.median(normalised), normalised)
    rates = [facts["work"] / facts["wall_s"] for facts in reps.untraced_facts]
    put(THROUGHPUT[name], statistics.median(rates), rates)
    put("peak_rss_mb", peak_rss_mb())
    for metric in spec.END_TO_END:
        if not metric.exact or metric.name == "failed_share":
            continue
        if not metric.applies_to(name):
            continue
        values = {facts[metric.name] for facts in reps.facts}
        if len(values) != 1:
            reps.errors.append(
                f"{metric.name} differs between repetitions: {sorted(values)}"
            )
            reps.failed += 1
        put(metric.name, reps.facts[0][metric.name])
    put("failed_share", reps.failed / max(reps.attempted, 1))
    return metrics


def _per_layer(workload: Workload, tracer: Tracer, reps: _Reps) -> dict[str, dict[str, Any]]:
    """Set-up spans, medians over the traced repetitions, then probes."""
    layers = workload.setup_layers(tracer.durations("setup"))
    for key in sorted({key for sample in reps.layer_samples for key in sample}):
        layers[key] = statistics.median(
            [sample[key] for sample in reps.layer_samples if key in sample]
        )
    layers.update(workload.probes(statistics.median(reps.walls)))
    # Pairing each traced repetition with its neighbour cancels the slow
    # drift of host speed that a ratio of two medians would keep.
    layers["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(reps.pair_ratios) - 1.0
    )
    unknown = set(layers) - set(spec.LAYER_BY_NAME)
    if unknown:
        raise KeyError(
            f"{workload.name} emitted undeclared per-layer metrics: {sorted(unknown)}"
        )
    return {
        key: {"value": value, "unit": spec.LAYER_BY_NAME[key].unit}
        for key, value in layers.items()
    }


def driver_line(record: dict[str, Any]) -> str:
    """The last line of standard output, as the driver contract words it.

    ``--trace 0`` carries the bounded end-to-end metrics; ``--trace 1``
    carries every unbounded one, with 0 for a metric whose layer is not on
    this workload's measured path.
    """
    manifest = spec.driver_manifest()
    if record["trace"]:
        measured = {**record["end_to_end"], **record["per_layer"]}
        metrics = {
            row["name"]: {
                "value": measured.get(row["name"], {}).get("value", 0),
                "unit": row["unit"],
            }
            for row in manifest["per_layer"]
        }
    else:
        metrics = {
            row["name"]: {
                "value": record["end_to_end"][row["name"]]["value"],
                "unit": row["unit"],
            }
            for row in manifest["end_to_end"]
        }
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics,
        }
    )
