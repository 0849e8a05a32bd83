"""Simulator workloads: ``dslam_ros``, ``pair_armed``, ``functional_preempt``.

All three retire instructions on one or two ``MultiTaskSystem``\\ s; they
differ in which dispatch path does it.  ``dslam_ros`` goes through the ROS
executor, which calls ``iau.step()`` per instruction.  ``pair_armed`` is
``run(batched=True)`` under a live ``FaultPlan``.  ``functional_preempt``
does real int8 arithmetic, which forces every batch back to ``step()``.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

import repro.dslam.system as dslam_system
from benchmarks.perf.harness import Workload, digest
from benchmarks.perf.workloads.common import (
    COMPILE_SPAN,
    COMPILE_TARGETS,
    build_graph,
    compile_layers,
    job_records,
)
from repro.accel.reference import golden_output
from repro.dslam.agent import DslamAgent
from repro.estimate import estimate_service_cycles
from repro.faults.plan import FaultPlan, FaultSite
from repro.hw.config import AcceleratorConfig
from repro.obs.config import ObsConfig
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem, compile_tasks

#: The survivable long-run rates of ``benchmarks/test_fastpath_speedup.py``.
ARMED_RATES = {
    FaultSite.DDR_BIT_FLIP: 0.0002,
    FaultSite.DDR_STALL: 0.01,
    FaultSite.IAU_DROP_PREEMPT: 0.05,
    FaultSite.IAU_SPURIOUS_PREEMPT: 0.005,
    FaultSite.CHECKPOINT_CORRUPT: 0.02,
}


def _iau_layers(systems: list[MultiTaskSystem], seconds: float, key: str) -> dict[str, float]:
    """Counters every simulator workload reads off its finished systems."""
    retired = sum(system.core.stats.instructions for system in systems)
    jobs = sum(len(system.jobs(task)) for system in systems for task in (0, 1))
    return {
        "accel.instructions_retired": retired,
        "accel.busy_cycles": sum(system.core.stats.cycles for system in systems),
        "iau.jobs_completed": jobs,
        # Every job needs one switch-in to start; the rest are resumes.
        "iau.preemptions": sum(system.iau.num_switches for system in systems) - jobs,
        key: retired / seconds,
    }


class _CompiledPair(Workload):
    """Set-up shared by the three: build two graphs, compile them."""

    weights = "zeros"

    def graphs(self) -> list[Any]:
        """Low-priority ResNet-18 and high-priority SuperPoint."""
        return [
            build_graph("resnet", "resnet18", self.sizes["low_hw"]),
            build_graph("superpoint", "", self.sizes["high_hw"]),
        ]

    def compile_pair(self, seed: int = 0) -> list[Any]:
        with self.ctx.span("compiler.graph_build_s"):
            graphs = self.graphs()
        with self.ctx.patched(COMPILE_TARGETS), self.ctx.span(COMPILE_SPAN):
            return compile_tasks(
                graphs, AcceleratorConfig.big(), weights=self.weights, seed=seed
            )

    def setup_layers(self, durations: dict[str, float]) -> dict[str, float]:
        instructions = sum(len(net.program) for net in self.compiled)
        return compile_layers(durations, instructions)

    def reference_digest(self) -> str:
        """Digest of the stepped reference path (what expected.json pins)."""
        raise NotImplementedError

    def resolve_reference(self) -> None:
        """Pick the digest every repetition must reproduce.

        The stepped path runs in every set-up, so set-up costs the same for
        every seed.  Where ``expected.json`` pins this seed the pin is the
        reference (and a stepped run that no longer matches it is called
        out); an unknown seed is checked against the stepped run alone.
        """
        stepped = self.reference_digest()
        pinned = self.ctx.pinned()
        if pinned is None:
            self.reference, self.expected = "derived", stepped
            self.notes.append(
                f"seed {self.ctx.seed} is not pinned in expected.json: checked "
                "against the stepped path of this commit only"
            )
            return
        self.reference, self.expected = "pinned", pinned
        if stepped != pinned:
            self.notes.append(
                f"the stepped path now gives {stepped}, not the pinned "
                f"{pinned}: the simulated behaviour changed"
            )


class DslamRos(_CompiledPair):
    name = "dslam_ros"
    root_span = "dslam.run_dslam"

    def graphs(self) -> list[Any]:
        sizes = self.sizes
        return [
            build_graph("superpoint", "", sizes["fe_hw"]),
            build_graph("gem", sizes["pr_backbone"], sizes["pr_hw"]),
        ]

    def setup(self) -> None:
        self.compiled = self.compile_pair()
        self.scenario = dslam_system.DslamScenario(
            num_frames=self.sizes["frames"], fps=self.sizes["fps"], seed=self.ctx.seed
        )

    def reference_digest(self) -> str:
        # The stock executor is the stepped path; there is no other yet.
        return self.digest(self.rep())

    def prepare(self) -> None:
        self.resolve_reference()

    def rep(self) -> tuple[Any, list[DslamAgent]]:
        # run_dslam returns outcomes, not the agents that hold the job
        # records: catch them as they are built.
        agents: list[DslamAgent] = []
        build = dslam_system.build_agent

        def capturing(*args: Any, **kwargs: Any) -> DslamAgent:
            with self.ctx.span("dslam.build_agent_s"):
                agent = build(*args, **kwargs)
            agents.append(agent)
            return agent

        dslam_system.build_agent = capturing
        try:
            with self.ctx.patched([(DslamAgent, "run", "ros.spin_s")]):
                fe, pr = self.compiled
                result = dslam_system.run_dslam(fe, pr, self.scenario)
        finally:
            dslam_system.build_agent = build
        if self.ctx.tracer.enabled:
            self.last = (result, agents)  # the probes replay these arrivals
        return result, agents

    @staticmethod
    def digest(out: tuple[Any, list[DslamAgent]]) -> str:
        """Accelerator-side behaviour only.  The seed feeds camera noise,
        which the timing-only accelerator never sees, so one digest holds
        for every seed (``expected.json`` pins it under ``"any"``)."""
        _, agents = out
        return digest(
            [
                {
                    "final": agent.executor.clock,
                    "fe": job_records(agent.fe_node.jobs),
                    "pr": job_records(agent.pr_node.jobs),
                    "pr_seqs": agent.pr_node.processed_seqs,
                }
                for agent in agents
            ]
        )

    def check(self, out: Any) -> tuple[int, int]:
        _, agents = out
        jobs = sum(len(a.fe_node.jobs) + len(a.pr_node.jobs) for a in agents)
        return jobs, 0 if self.digest(out) == self.expected else jobs

    def observe(self, out: Any) -> dict[str, float]:
        result, agents = out
        return {
            "work": sum(a.executor.system.core.stats.instructions for a in agents),
            "sim_final_cycles": max(o.final_cycle for o in result.agents),
            "fe_deadline_misses": result.total_deadline_misses(),
            "pr_frame_gap_mean": result.mean_pr_gap(),
            "fe_response_worst_cycles": max(
                job.response_cycles for a in agents for job in a.fe_node.jobs
            ),
        }

    def layers(self, durations: dict[str, float], out: Any) -> dict[str, float]:
        _, agents = out
        spin = durations["ros.spin_s"]
        build = durations["dslam.build_agent_s"]
        layers = _iau_layers(
            [a.executor.system for a in agents], spin, "iau.step_instr_per_s"
        )
        layers.update(
            {
                "ros.spin_s": spin,
                "dslam.build_agent_s": build,
                "dslam.backend_s": durations[self.root_span] - spin - build,
            }
        )
        self.traced_spin_s = spin
        return layers

    def probes(self, wall_s: float) -> dict[str, float]:
        """Replay each agent's FE/PR arrivals straight on a
        ``MultiTaskSystem``: what the same simulated work costs without the
        executor, stepped and batched."""
        _, agents = self.last
        fe, pr = self.compiled
        seconds = {}
        for batched in (False, True):
            total = 0.0
            for agent in agents:
                system = MultiTaskSystem(fe.config)
                system.add_task(0, fe)
                system.add_task(1, pr)
                for task, node in ((0, agent.fe_node), (1, agent.pr_node)):
                    for job in node.jobs:
                        system.submit(task, job.request_cycle)
                start = time.perf_counter()
                system.run(batched=batched)
                total += time.perf_counter() - start
                same = job_records(system.jobs(0)) == job_records(
                    agent.fe_node.jobs
                ) and job_records(system.jobs(1)) == job_records(agent.pr_node.jobs)
                if not same:
                    self.notes.append(
                        f"arrival replay (batched={batched}) does not reproduce "
                        f"{agent.name}'s job records"
                    )
            seconds[batched] = total
        return {
            "runtime.equiv_step_s": seconds[False],
            "runtime.equiv_batched_s": seconds[True],
            "ros.executor_overhead_s": self.traced_spin_s - seconds[False],
        }


class PairArmed(_CompiledPair):
    name = "pair_armed"
    root_span = "runtime.pair"

    def setup(self) -> None:
        self.compiled = self.compile_pair()

    def reference_digest(self) -> str:
        return self.digest(self.run(batched=False))

    def prepare(self) -> None:
        self.resolve_reference()
        # Discarded warm-up: builds both programs' ProgramMeta, a one-time
        # per-program cost that belongs to set-up, not to a repetition.
        with self.ctx.patched(COMPILE_TARGETS):
            self.run(batched=True)

    def run(self, *, batched: bool, scale: int | None = None) -> tuple[Any, FaultPlan]:
        low, high = self.compiled
        scale = self.sizes["scale"] if scale is None else scale
        with self.ctx.span("faults.plan_build_s"):
            plan = FaultPlan(seed=self.ctx.seed, rates=ARMED_RATES)
        with self.ctx.span("runtime.submit_s"):
            system = MultiTaskSystem(low.config, faults=plan)
            system.add_task(0, high)
            system.add_task(1, low)
            # The test_fastpath_speedup schedule, ``scale`` times as long.
            system.submit(
                1, at_cycle=0, policy=ArrivalPolicy.PERIODIC,
                period_cycles=600_000, count=6 * scale,
            )
            system.submit(
                0, at_cycle=150_000, policy=ArrivalPolicy.PERIODIC,
                period_cycles=450_000, count=8 * scale,
            )
        with self.ctx.span("runtime.run_s"):
            system.run(batched=batched)
        return system, plan

    def rep(self) -> tuple[Any, FaultPlan]:
        return self.run(batched=True)

    @staticmethod
    def digest(out: tuple[Any, FaultPlan]) -> str:
        system, plan = out
        return digest(
            {
                "final": system.clock,
                "jobs": [job_records(system.jobs(task)) for task in (0, 1)],
                "faults": [[fault.site.value, fault.cycle] for fault in plan.injected],
            }
        )

    def check(self, out: Any) -> tuple[int, int]:
        system, _ = out
        jobs = len(system.jobs(0)) + len(system.jobs(1))
        return jobs, 0 if self.digest(out) == self.expected else jobs

    def observe(self, out: Any) -> dict[str, float]:
        system, plan = out
        return {
            "work": system.core.stats.instructions,
            "sim_final_cycles": system.clock,
            "fe_response_worst_cycles": max(
                job.response_cycles for job in system.jobs(0)
            ),
            "faults_injected": plan.count(),
        }

    def layers(self, durations: dict[str, float], out: Any) -> dict[str, float]:
        system, plan = out
        run_s = durations["runtime.run_s"]
        layers = _iau_layers([system], run_s, "iau.batched_instr_per_s")
        layers.update(
            {
                "faults.plan_build_s": durations["faults.plan_build_s"],
                "runtime.submit_s": durations["runtime.submit_s"],
                "runtime.run_s": run_s,
                "faults.injected": plan.count(),
                "faults.checkpoint_retries": sum(
                    job.checkpoint_retries
                    for task in (0, 1)
                    for job in system.jobs(task)
                ),
            }
        )
        return layers

    def probes(self, wall_s: float) -> dict[str, float]:
        """Stepped over batched on the first tenth of the schedule."""
        tenth = max(1, self.sizes["scale"] // 10)
        seconds = {}
        for batched in (False, True):
            start = time.perf_counter()
            self.run(batched=batched, scale=tenth)
            seconds[batched] = time.perf_counter() - start
        return {"iau.batch_speedup_armed": seconds[False] / seconds[True]}


class FunctionalPreempt(_CompiledPair):
    name = "functional_preempt"
    root_span = "runtime.pair"
    weights = "random"

    def setup(self) -> None:
        self.compiled = self.compile_pair(seed=self.ctx.seed)
        rng = np.random.default_rng(self.ctx.seed)
        self.inputs = []
        for net in self.compiled:
            shape = net.graph.input_shape
            data = rng.integers(
                -8, 8, size=(shape.height, shape.width, shape.channels)
            ).astype(np.int8)
            net.set_input(data)
            self.inputs.append(data)
        with self.ctx.span("accel.reference_golden_s"):
            self.golden = [
                golden_output(net, data)
                for net, data in zip(self.compiled, self.inputs)
            ]
        low, high = self.compiled
        # The high-priority job is 1.7x shorter than its period and lands
        # mid-way through the low-priority one, so every one preempts it.
        self.high_cycles = estimate_service_cycles(high.config, high)
        self.low_cycles = estimate_service_cycles(low.config, low)

    def run(self, *, functional: bool) -> Any:
        low, high = self.compiled
        with self.ctx.span("runtime.submit_s"):
            for net in self.compiled:
                # A repetition that computed nothing must not pass on the
                # previous repetition's output.
                net.layout.ddr.region(net.output_region).array[...] = 0
            system = MultiTaskSystem(low.config, obs=ObsConfig(functional=functional))
            system.add_task(0, high)
            system.add_task(1, low)
            system.submit(
                1, at_cycle=0, policy=ArrivalPolicy.PERIODIC,
                period_cycles=self.low_cycles + 3 * self.high_cycles,
                count=self.sizes["low_jobs"],
            )
            system.submit(
                0, at_cycle=self.high_cycles // 2, policy=ArrivalPolicy.PERIODIC,
                period_cycles=int(1.7 * self.high_cycles),
                count=self.sizes["high_jobs"],
            )
        with self.ctx.span("runtime.run_s"):
            system.run()
        return system

    def rep(self) -> Any:
        return self.run(functional=True)

    def check(self, out: Any) -> tuple[int, int]:
        attempted = failed = 0
        for net, golden, task in zip(self.compiled, self.golden, (1, 0)):
            jobs = len(out.jobs(task))
            attempted += jobs
            if not np.array_equal(net.get_output(), golden):
                failed += jobs
        return attempted, failed

    def observe(self, out: Any) -> dict[str, float]:
        return {
            "work": out.core.stats.instructions,
            "sim_final_cycles": out.clock,
            "fe_response_worst_cycles": max(
                job.response_cycles for job in out.jobs(0)
            ),
        }

    def layers(self, durations: dict[str, float], out: Any) -> dict[str, float]:
        run_s = durations["runtime.run_s"]
        layers = _iau_layers([out], run_s, "iau.step_instr_per_s")
        layers.update(
            {"runtime.submit_s": durations["runtime.submit_s"], "runtime.run_s": run_s}
        )
        return layers

    def setup_layers(self, durations: dict[str, float]) -> dict[str, float]:
        layers = super().setup_layers(durations)
        layers["accel.reference_golden_s"] = durations["accel.reference_golden_s"]
        return layers

    def probes(self, wall_s: float) -> dict[str, float]:
        """Functional minus timing-only run of the same programs."""
        start = time.perf_counter()
        system = self.run(functional=False)
        timing_only = time.perf_counter() - start
        functional_s = wall_s - timing_only
        low, high = self.compiled
        # Computed, not measured: MACs of each graph (repro.nn) per job.
        macs = low.graph.total_macs() * len(system.jobs(1)) + (
            high.graph.total_macs() * len(system.jobs(0))
        )
        return {
            "accel.functional_s": functional_s,
            "accel.functional_macs_per_s": macs / functional_s,
        }
