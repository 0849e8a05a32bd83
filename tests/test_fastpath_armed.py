"""Armed fast path: batched dispatch is bit-exact under faults + QoS.

The static interference analysis (``repro.verify.interference``, the INT
rule family) proves per-program where the batched fast path may engage
with a :class:`~repro.faults.plan.FaultPlan` and the runtime
:class:`~repro.qos.monitor.InvariantMonitor` armed.  This suite pins the
runtime half of that contract:

* the fire oracle (``FaultPlan.safe_draws``/``burn``) peeks without
  perturbing any RNG stream and vouches only for draws that provably miss
  — checked against a cache-free model of the stream — and ``burn``
  refuses to go past what was vouched;
* a stretch too short to batch is stepped through its bounding instruction
  in one call, and pausing at any cycle inside that span changes nothing;
* the work an armed batched run does is bounded in counts (RNG draws,
  oracle consults), with no wall clock;
* armed batched runs are bit-identical to armed ``step()`` runs — final
  clock, job records, injected faults, event streams, monitor state, and
  even the position of detected-fatal crashes;
* ``ProgramMeta`` horizon/boundary/fault-stop arithmetic handles its edge
  cases (horizon exactly on a boundary, horizon before the current
  instruction, a tail stretch shorter than ``MIN_BATCH``).
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest

from repro.accel.core import AcceleratorCore
from repro.errors import CheckpointError, EccError, FaultError
from repro.faults.campaign import default_rates, make_preemption_scenario
from repro.faults.plan import FaultPlan, FaultSite
from repro.iau.fastpath import BATCH_FAULT_SITES, MIN_BATCH
from repro.iau.unit import Iau
from repro.obs.config import ObsConfig
from repro.obs.events import EventKind
from repro.qos.config import QosConfig
from repro.runtime.system import MultiTaskSystem


# -- the fire oracle ----------------------------------------------------------


class CountingRandom(random.Random):
    """A site stream that counts its Bernoulli draws (peeked or consumed)."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class StreamModel:
    """One site's stream with no cache at all: a ``Random`` seeded the way
    :class:`FaultPlan` seeds the site, sitting at the logical position, and a
    throw-away clone of it for every look ahead."""

    def __init__(self, seed, site, rate, share=0.0):
        self.rng = random.Random(f"{seed}:{site.value}")
        self.rate = rate
        self.share = share
        self.consumed = 0  # Bernoulli draws taken so far
        self.fired_last = False

    def safe(self, limit):
        clone = random.Random()
        clone.setstate(self.rng.getstate())
        safe = 0
        while safe < limit and clone.random() >= self.rate:
            safe += 1
        return safe

    def fires(self):
        self.consumed += 1
        self.fired_last = self.rng.random() < self.rate
        return self.fired_last

    def skip(self, count):
        for _ in range(count):
            assert not self.fires()

    def uncorrectable(self):
        return self.rng.random() < self.share


class TestFireOracle:
    def test_peek_does_not_perturb_the_stream(self):
        site = FaultSite.DDR_STALL
        peeked = FaultPlan(seed=5, rates={site: 0.3})
        control = FaultPlan(seed=5, rates={site: 0.3})
        peeked.safe_draws(site, 50)
        assert [peeked.fires(site) for _ in range(100)] == [
            control.fires(site) for _ in range(100)
        ]

    def test_safe_draws_is_a_guaranteed_prefix(self):
        site = FaultSite.DDR_BIT_FLIP
        plan = FaultPlan(seed=1, rates={site: 0.2})
        for _ in range(20):
            safe = plan.safe_draws(site, 30)
            assert 0 <= safe <= 30
            for _ in range(safe):
                assert not plan.fires(site)
            if safe < 30:
                # The draw right after the vouched prefix is the fire.
                assert plan.fires(site)

    def test_rate_zero_site_never_draws(self):
        site = FaultSite.IAU_SPURIOUS_PREEMPT
        plan = FaultPlan(seed=2, rates={})
        state = plan._rngs[site].getstate()
        assert plan.safe_draws(site, 1000) == 1000
        plan.burn(site, 1000)
        assert plan._rngs[site].getstate() == state

    def test_burn_equals_nonfiring_fires(self):
        site = FaultSite.DDR_STALL
        burned = FaultPlan(seed=9, rates={site: 0.25})
        stepped = FaultPlan(seed=9, rates={site: 0.25})
        safe = burned.safe_draws(site, 40)
        assert safe > 0  # at 0.25 over 40 draws a zero prefix is a red flag
        burned.burn(site, safe)
        for _ in range(safe):
            assert not stepped.fires(site)
        assert [burned.fires(site) for _ in range(64)] == [
            stepped.fires(site) for _ in range(64)
        ]

    def test_oracle_cache_survives_interleaved_queries(self):
        """Seeded interleavings of every call that moves or peeks a stream,
        against :class:`StreamModel` — the same stream with no cache."""
        site = FaultSite.DDR_BIT_FLIP  # the one site draw_uncorrectable moves
        for seed in range(24):
            ops = random.Random(seed)
            rate = ops.choice((0.02, 0.1, 0.4))
            plan = FaultPlan(seed=seed, rates={site: rate}, uncorrectable_share=0.3)
            model = StreamModel(seed, site, rate, share=0.3)
            fired: list[int] = []
            saved = None
            for _ in range(300):
                op = ops.choice(
                    ("peek", "peek", "peek_burn", "fires", "fires", "index",
                     "uncorrectable", "capture", "restore")
                )
                if op in ("peek", "peek_burn"):
                    # Growing and shrinking limits, straddling the next fire.
                    limit = ops.choice((1, 2, 5, 17, 60, 400))
                    safe = plan.safe_draws(site, limit)
                    assert safe == model.safe(limit)
                    if op == "peek_burn":
                        take = ops.randint(0, safe)
                        plan.burn(site, take)
                        model.skip(take)
                elif op == "fires":
                    for _ in range(ops.choice((1, 1, 3, 25))):
                        assert plan.fires(site) == model.fires()
                        if model.fired_last:
                            fired.append(model.consumed)
                elif op == "index":
                    bound = ops.choice((2, 7, 1 << 20))
                    assert plan.draw_index(site, bound) == model.rng.randrange(bound)
                elif op == "uncorrectable":
                    assert plan.draw_uncorrectable() == model.uncorrectable()
                elif op == "capture":
                    saved = (plan.capture_state(), model.rng.getstate(), model.consumed)
                elif saved is not None:
                    plan.restore_state(saved[0])
                    model.rng.setstate(saved[1])
                    model.consumed = saved[2]
                    del fired[bisect_right(fired, model.consumed):]
            assert plan._rngs[site].getstate() == model.rng.getstate()
            assert fired  # every interleaving crosses fires

    def test_exact_answer_is_not_recomputed(self):
        """A peek that found the fire serves every later limit from the
        cache; a peek cut by its limit serves only limits it covers."""
        site = FaultSite.DDR_STALL
        plan = FaultPlan(seed=11, rates={site: 0.05})
        rng = plan._rngs[site] = CountingRandom(f"11:{site.value}")
        distance = plan.safe_draws(site, 10_000)
        assert distance < 10_000 and rng.draws == distance + 1
        for limit in (1, distance, distance + 1, 10_000, 50_000):
            assert plan.safe_draws(site, limit) == min(distance, limit)
        plan.burn(site, distance // 2)
        assert plan.safe_draws(site, 10_000) == distance - distance // 2
        for _ in range(distance - distance // 2):
            assert not plan.fires(site)
        assert plan.safe_draws(site, 10_000) == 0
        assert rng.draws == 2 * distance + 1  # one peek, then only consumption
        assert plan.fires(site)  # the fire drops the answer ...
        capped = plan.safe_draws(site, 3)  # ... and the next peek is cut at 3
        assert capped == 3 and rng.draws == 2 * distance + 2 + 3
        assert plan.safe_draws(site, 2) == 2 and rng.draws == 2 * distance + 2 + 3
        plan.safe_draws(site, 4)  # a lower bound of 3 cannot answer for 4
        assert rng.draws > 2 * distance + 2 + 3

    def test_burn_past_the_vouched_prefix_is_refused(self):
        site = FaultSite.DDR_STALL
        plan = FaultPlan(seed=9, rates={site: 0.25})
        with pytest.raises(FaultError, match="vouched"):
            plan.burn(site, 1)  # nothing vouched yet
        safe = plan.safe_draws(site, 40)
        assert 0 < safe < 40
        state = plan._rngs[site].getstate()
        with pytest.raises(FaultError, match="vouched"):
            plan.burn(site, safe + 1)  # would swallow the firing draw
        assert plan._rngs[site].getstate() == state  # refused before drawing
        plan.burn(site, safe)
        assert plan.fires(site)
        with pytest.raises(FaultError, match="vouched"):
            plan.burn(site, 1)  # the fire dropped the answer

    def test_restore_state_clears_the_oracle_cache(self):
        site = FaultSite.DDR_STALL
        plan = FaultPlan(seed=4, rates={site: 0.5})
        snapshot = plan.capture_state()
        first = plan.safe_draws(site, 16)
        for _ in range(5):
            plan.fires(site)
        plan.restore_state(snapshot)
        assert plan.safe_draws(site, 16) == first
        sequence = [plan.fires(site) for _ in range(16)]
        plan.restore_state(snapshot)
        assert [plan.fires(site) for _ in range(16)] == sequence


# -- armed differential: fault campaign ---------------------------------------


@pytest.fixture(scope="module")
def timing_scenarios():
    """Stepped and batched timing-only variants of the stock preemption
    scenario, sharing one compile (and hence one ProgramMeta cache)."""
    from repro.hw.config import AcceleratorConfig
    from repro.runtime.system import compile_tasks
    from repro.zoo import build_tiny_cnn, build_tiny_residual

    config = AcceleratorConfig.worked_example()
    pair = compile_tasks(
        [build_tiny_cnn(), build_tiny_residual()], config, weights="random", seed=4
    )
    stepped = make_preemption_scenario(pair, functional=False, batched=False)
    batched = make_preemption_scenario(pair, functional=False, batched=True)
    return stepped, batched


def run_one(scenario, seed, rates, **plan_kwargs):
    plan = FaultPlan(seed=seed, rates=rates, **plan_kwargs)
    try:
        result = scenario(plan)
        crash = None
    except (EccError, CheckpointError) as exc:
        result = None
        crash = f"{type(exc).__name__}: {exc}"
    return result, crash, plan


def assert_bit_identical(stepped_run, batched_run):
    result_s, crash_s, plan_s = stepped_run
    result_b, crash_b, plan_b = batched_run
    assert crash_b == crash_s
    assert plan_b.injected == plan_s.injected
    if result_s is None:
        assert result_b is None
        return
    assert result_b.final_cycle == result_s.final_cycle
    assert result_b.jobs == result_s.jobs
    assert result_b.events == result_s.events
    assert result_b.shed == result_s.shed


def test_armed_campaign_rates_bit_identical(timing_scenarios):
    """Campaign-rate fault plans: every observable byte matches stepping."""
    stepped, batched = timing_scenarios
    rates = default_rates()
    fired_total = 0
    for seed in range(12):
        runs = (
            run_one(stepped, seed, rates),
            run_one(batched, seed, rates),
        )
        assert_bit_identical(*runs)
        fired_total += runs[0][2].count()
    assert fired_total > 0  # the suite must actually inject faults


def test_armed_crash_parity_with_uncorrectable_flips(timing_scenarios):
    """Detected-fatal runs (EccError / CheckpointError) crash at the same
    place with the same message on both dispatch paths."""
    stepped, batched = timing_scenarios
    rates = {
        FaultSite.DDR_BIT_FLIP: 0.05,
        FaultSite.DDR_STALL: 0.02,
        FaultSite.CHECKPOINT_CORRUPT: 0.6,
        FaultSite.IAU_DROP_PREEMPT: 0.3,
        FaultSite.IAU_SPURIOUS_PREEMPT: 0.01,
    }
    crashes = 0
    for seed in range(10):
        runs = (
            run_one(stepped, seed, rates, uncorrectable_share=0.5),
            run_one(batched, seed, rates, uncorrectable_share=0.5),
        )
        assert_bit_identical(*runs)
        crashes += runs[0][1] is not None
    assert crashes > 0  # the crash path must actually be exercised


def test_armed_zero_rate_plan_still_batches(timing_scenarios):
    """A plan with every rate at 0 must not constrain the batch (the
    oracle answers without peeking) and must match stepping exactly."""
    stepped, batched = timing_scenarios
    runs = (run_one(stepped, 0, {}), run_one(batched, 0, {}))
    assert_bit_identical(*runs)
    assert runs[1][2].count() == 0


def test_armed_batched_actually_batches(timing_scenarios):
    """The armed fast path must engage, not silently fall back to step()."""
    _, batched = timing_scenarios
    steps = 0
    original = Iau.step

    def counting_step(self):
        nonlocal steps
        steps += 1
        return original(self)

    Iau.step = counting_step
    try:
        result, crash, _plan = run_one(batched, 0, default_rates())
    finally:
        Iau.step = original
    assert crash is None
    retired = sum(
        1 for event in result.events if event.kind is EventKind.INSTR_RETIRE
    )
    assert steps < retired / 2  # most instructions retired in batches


# -- armed differential: QoS overload with the invariant monitor --------------


def qos_system(pair, config, batched):
    low, high = pair
    qos = QosConfig(monitor=True, monitor_mode="report", edf_tiebreak=True)
    system = MultiTaskSystem(
        config, iau_mode="virtual", obs=ObsConfig(events=True), qos=qos
    )
    system.add_task(0, high)
    system.add_task(1, low)
    for index in range(8):
        system.submit(0, 1_000 + index * 9_000)
    for index in range(10):
        system.submit(1, index * 7_000)
    system.run(batched=batched)
    return system


def test_armed_monitor_bit_identical(tiny_pair, example_config):
    """With the invariant monitor riding the bus, batched and stepped runs
    agree on events, violations, and the monitor's high-water mark."""
    stepped = qos_system(tiny_pair, example_config, batched=False)
    batched = qos_system(tiny_pair, example_config, batched=True)
    assert batched.iau.clock == stepped.iau.clock
    assert batched.bus.events == stepped.bus.events
    assert batched.monitor is not None and stepped.monitor is not None
    assert [str(v) for v in batched.monitor.violations] == [
        str(v) for v in stepped.monitor.violations
    ]
    assert batched.monitor._floor == stepped.monitor._floor
    for task_id in (0, 1):
        assert [
            (job.request_cycle, job.start_cycle, job.complete_cycle)
            for job in batched.jobs(task_id)
        ] == [
            (job.request_cycle, job.start_cycle, job.complete_cycle)
            for job in stepped.jobs(task_id)
        ]


# -- ProgramMeta edge cases ---------------------------------------------------


@pytest.fixture(scope="module")
def meta_and_program(tiny_cnn_compiled):
    program = tiny_cnn_compiled.program_for("vi")
    return tiny_cnn_compiled.execution_meta(program), program


class TestProgramMetaEdges:
    def test_horizon_exactly_on_a_boundary(self, meta_and_program):
        meta, _program = meta_and_program
        boundary = meta.boundaries[len(meta.boundaries) // 2]
        # With base 0 the loop-top clock at `boundary` is cum[boundary]; a
        # horizon exactly there excludes the instruction that starts at it.
        stop = meta.stop_for_horizon(0, 0, meta.cum[boundary])
        assert stop == boundary
        assert meta.boundary_at_or_before(stop) == boundary

    def test_horizon_before_current_instruction(self, meta_and_program):
        meta, program = meta_and_program
        start = meta.boundaries[1]
        assert meta.stop_for_horizon(start, 0, meta.cum[start]) == start
        assert meta.stop_for_horizon(start, 0, 0) == start

    def test_boundary_before_first_index_is_minus_one(self, meta_and_program):
        meta, _program = meta_and_program
        assert meta.boundary_at_or_before(-1) == -1
        assert meta.boundary_at_or_before(0) == 0

    def test_zero_rate_plan_never_constrains(self, meta_and_program):
        meta, program = meta_and_program
        plan = FaultPlan(seed=0, rates={})
        assert meta.stop_for_faults(0, plan) == len(program)

    def test_certain_fire_stops_before_first_opportunity(self, meta_and_program):
        meta, program = meta_and_program
        plan = FaultPlan(seed=0, rates={FaultSite.DDR_STALL: 1.0})
        stop = meta.stop_for_faults(0, plan)
        opp = meta.opportunities[FaultSite.DDR_STALL.value]
        # The batch stops strictly before the instruction hosting the first
        # (certain) draw at the site; every other site stays unconstrained.
        assert opp[stop] == opp[0]
        assert stop < len(program) and opp[stop + 1] > opp[0]

    def test_opportunity_counts_cover_whole_program(self, meta_and_program):
        meta, program = meta_and_program
        counts = meta.opportunity_counts(0, len(program))
        assert set(counts) == set(BATCH_FAULT_SITES)
        real_transfers = sum(
            1
            for instruction in program
            if not instruction.is_virtual and instruction.opcode.name in (
                "LOAD_D", "LOAD_W",
            )
        )
        assert counts[FaultSite.DDR_STALL] >= real_transfers
        assert counts[FaultSite.DDR_STALL] == counts[FaultSite.DDR_BIT_FLIP]

    def test_tail_stretch_below_min_batch_falls_back(self, tiny_cnn_compiled):
        """Entering the fast path within MIN_BATCH of program end must fall
        back to step() and still finish at the exact stepped clock."""
        program = tiny_cnn_compiled.program_for("vi")

        def drain(batched, tail):
            core = AcceleratorCore(
                tiny_cnn_compiled.config, tiny_cnn_compiled.layout.ddr, obs=ObsConfig()
            )
            iau = Iau(core)
            iau.attach_task(0, tiny_cnn_compiled, vi_mode="vi")
            iau.request(0, at_cycle=0)
            # Step to within `tail` instructions of the end, then hand over.
            while iau.step():
                context = iau.context(0)
                if iau.current == 0 and context.instr_index >= len(program) - tail:
                    break
            advance = iau.run_batched if batched else iau.step
            while advance():
                pass
            return iau.clock

        for tail in range(1, MIN_BATCH + 1):
            assert drain(True, tail) == drain(False, tail)


# -- the step-out: a short stretch is bounded once ------------------------------


def compile_tiny_pair():
    """A private compile (injected flips write the DDR arrays a compiled
    network shares with its system) and its pristine region contents."""
    from repro.hw.config import AcceleratorConfig
    from repro.runtime.system import compile_tasks
    from repro.zoo import build_tiny_cnn, build_tiny_residual

    pair = compile_tasks(
        [build_tiny_cnn(), build_tiny_residual()],
        AcceleratorConfig.worked_example(),
        weights="random",
        seed=4,
    )
    pristine = [
        {region.name: region.array.copy() for region in compiled.layout.ddr.regions()}
        for compiled in pair
    ]
    return pair, pristine


def armed_tiny_system(pair, pristine, seed=0):
    """Overlapping periodic jobs on the tiny pair under campaign rates."""
    for compiled, regions in zip(pair, pristine):
        for region in compiled.layout.ddr.regions():
            region.array[...] = regions[region.name]
    system = MultiTaskSystem(
        pair[0].config,
        obs=ObsConfig(events=True),
        faults=FaultPlan(seed=seed, rates=default_rates()),
    )
    system.add_task(0, pair[0])
    system.add_task(1, pair[1])
    for index in range(4):
        system.submit(1, index * 30_000)
        system.submit(0, 8_000 + index * 25_000)
    return system


def observable(system):
    return (
        system.clock,
        list(system.bus.events),
        list(system.faults.injected),
        [list(system.jobs(task_id)) for task_id in (0, 1)],
        system.core.stats,
        system.ddr.pending_flip_count,
    )


def test_step_out_chunked_at_every_cycle_equals_one_run(monkeypatch):
    """Pause at *every* cycle inside one step-out span — before, between
    and after each of its steps.  Each pause lands where the stepped run
    pauses, in the same state, and resuming equals one uninterrupted run:
    every point the loop runs through is one where returning to the caller
    changes nothing."""
    pair, pristine = compile_tiny_pair()
    spans: list[tuple[int, int, int]] = []
    original = Iau._step_out

    def recording(self, context, stop, horizon):
        entry, first = self.clock, context.instr_index
        original(self, context, stop, horizon)
        spans.append((entry, self.clock, context.instr_index - first))

    with monkeypatch.context() as patch:
        patch.setattr(Iau, "_step_out", recording)
        whole = armed_tiny_system(pair, pristine)
        whole.run()
    expected = observable(whole)

    # The shortest span that still covers several steps keeps this quick.
    entry, exit_, steps = min(
        (span for span in spans if span[2] >= 5), key=lambda span: span[1] - span[0]
    )
    assert exit_ - entry < 2_000
    # The stepped reference walks the span once, pausing at every cycle.
    stepped = armed_tiny_system(*compile_tiny_pair())
    pauses = set()
    for cycle in range(entry, exit_ + 2):
        stepped.run(batched=False, until_cycle=cycle)
        pauses.add(stepped.clock)
        chunked = armed_tiny_system(pair, pristine)
        chunked.run(until_cycle=cycle)
        assert not chunked.done
        assert observable(chunked) == observable(stepped), cycle
        chunked.run()
        assert observable(chunked) == expected, cycle
    assert len(pauses) >= steps  # the pauses really fell between the steps
    stepped.run(batched=False)
    assert observable(stepped) == expected


# -- deterministic work guard (no wall clock) -----------------------------------

#: ``benchmarks/test_fastpath_speedup.py``'s armed schedule.
GUARD_RATES = {
    FaultSite.DDR_BIT_FLIP: 0.0002,
    FaultSite.DDR_STALL: 0.01,
    FaultSite.IAU_DROP_PREEMPT: 0.05,
    FaultSite.IAU_SPURIOUS_PREEMPT: 0.005,
    FaultSite.CHECKPOINT_CORRUPT: 0.02,
}


def test_armed_batched_run_bounds_each_fire_interval_once(big_config, monkeypatch):
    """The performance gate of the armed fast path, in counts: on the
    14-job ResNet-18 + SuperPoint schedule (seed 0) a batched run may peek,
    but draws at most 3x what the stepped run consumes (5.6x before the
    oracle kept exact answers) and consults the oracle at most 520 times
    (1,542 when every step after a short stretch asked again)."""
    from repro.iau.fastpath import ProgramMeta
    from repro.nn import TensorShape
    from repro.runtime.system import ArrivalPolicy, compile_tasks
    from repro.zoo import build_resnet, build_superpoint

    low, high = compile_tasks(
        [
            build_resnet("resnet18", TensorShape(240, 320, 3)),
            build_superpoint(TensorShape(120, 160, 1), head="detector"),
        ],
        big_config,
        weights="zeros",
    )
    consults = 0
    original = ProgramMeta.stop_for_faults

    def counting(self, start, plan):
        nonlocal consults
        consults += 1
        return original(self, start, plan)

    monkeypatch.setattr(ProgramMeta, "stop_for_faults", counting)

    def run(batched):
        plan = FaultPlan(seed=0, rates=GUARD_RATES)
        plan._rngs = {site: CountingRandom(f"0:{site.value}") for site in FaultSite}
        system = MultiTaskSystem(low.config, faults=plan)
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(
            1, at_cycle=0, policy=ArrivalPolicy.PERIODIC, period_cycles=600_000, count=6
        )
        system.submit(
            0, at_cycle=150_000, policy=ArrivalPolicy.PERIODIC,
            period_cycles=450_000, count=8,
        )
        clock = system.run(batched=batched)
        draws = sum(rng.draws for rng in plan._rngs.values())
        return clock, plan.count(), draws, system.iau.dispatch_counts

    clock, faults, stepped_draws, _ = run(batched=False)
    assert (clock, faults) == (53_659_940, 174) and consults == 0
    clock, faults, batched_draws, counts = run(batched=True)
    assert (clock, faults) == (53_659_940, 174)
    assert batched_draws <= 3 * stepped_draws
    assert consults <= 520
    # Why the stretches ended: about one short stretch per injected fault,
    # and nearly every instruction retired by a batch.
    assert counts["short_fault"] + counts["short_horizon"] <= 2 * faults
    assert counts["instr_batched"] > 20 * counts["instr_stepped"]
