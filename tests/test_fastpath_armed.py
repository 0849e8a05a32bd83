"""Armed fast path: the fire oracle, the step-out and the count gate.

The static interference analysis (``repro.verify.interference``, the INT
rule family) proves per-program where the batched fast path may engage
with a :class:`~repro.faults.plan.FaultPlan` and the runtime
:class:`~repro.qos.monitor.InvariantMonitor` armed.  This suite pins the
runtime half of that contract:

* armed batched runs equal armed ``step()`` runs — clock, job records,
  injected faults, event streams, monitor state, even where a
  detected-fatal run crashes — on the campaign, crash and zero-rate
  conformance cells (``tests/conformance.py``);
* the fire oracle (``FaultPlan.safe_draws``/``burn``) peeks without
  perturbing any RNG stream and vouches only for draws that provably miss
  — checked against a cache-free model of the stream — and ``burn``
  refuses to go past what was vouched;
* a stretch too short to batch is stepped through its bounding instruction
  in one call, and pausing at any cycle inside that span changes nothing;
* the work an armed batched run does is bounded in counts (RNG draws,
  oracle consults), with no wall clock;
* ``ProgramMeta`` horizon/boundary/fault-stop arithmetic handles its edge
  cases (horizon exactly on a boundary, horizon before the current
  instruction, a tail stretch shorter than ``MIN_BATCH``).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import replace

import pytest

from repro.accel.core import AcceleratorCore
from repro.errors import FaultError
from repro.faults.plan import FaultPlan, FaultSite
from repro.iau.fastpath import BATCH_FAULT_SITES, MIN_BATCH
from repro.iau.unit import Iau
from repro.obs.config import ObsConfig
from repro.runtime.system import MultiTaskSystem
from tests.conformance import NAMED, Cell, build, check, observe, run_cell, seen


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


def test_armed_campaign_rates_bit_identical():
    """Campaign-rate fault plans: every observable byte matches stepping."""
    for cell in NAMED["campaign"]:
        check(cell)
    assert any(seen(cell)["sites"] for cell in NAMED["campaign"])  # faults really fire


def test_armed_crash_parity_with_uncorrectable_flips():
    """Detected-fatal runs (EccError / CheckpointError) crash at the same
    place with the same message on both dispatch paths."""
    for cell in NAMED["crash"]:
        check(cell)
    assert any(seen(cell)["crashed"] for cell in NAMED["crash"])  # the crash path runs


def test_armed_zero_rate_plan_still_batches():
    """A plan with every rate at 0 must not constrain the batch (the
    oracle answers without peeking) and must match stepping exactly."""
    (cell,) = NAMED["zero-rate"]
    check(cell)
    run = seen(cell)
    assert not run["sites"]
    assert run["counts"]["instr_batched"] > run["counts"]["instr_stepped"]


def test_armed_batched_actually_batches():
    """The armed fast path must engage, not silently fall back to step()."""
    run = seen(NAMED["campaign"][0])
    assert not run["crashed"]
    # Most instructions retired in batches.
    assert run["counts"]["instr_stepped"] < run["counts"]["instr_batched"]


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


STEP_OUT = Cell("runtime", armed="faults", workload="step-out")


def test_step_out_chunked_at_every_cycle_equals_one_run(monkeypatch):
    """Pause at *every* cycle inside one step-out span — before, between
    and after each of its steps.  Each pause lands where the stepped run
    pauses, in the same state, and resuming equals one uninterrupted run:
    every point the loop runs through is one where returning to the caller
    changes nothing."""
    spans: list[tuple[int, int, int]] = []
    original = Iau._step_out

    def recording(self, context, stop, horizon):
        entry, first = self.clock, context.instr_index
        original(self, context, stop, horizon)
        spans.append((entry, self.clock, context.instr_index - first))

    with monkeypatch.context() as patch:
        patch.setattr(Iau, "_step_out", recording)
        expected = run_cell(STEP_OUT).observed

    # The shortest span that still covers several steps keeps this quick.
    entry, exit_, steps = min(
        (span for span in spans if span[2] >= 5), key=lambda span: span[1] - span[0]
    )
    assert exit_ - entry < 2_000
    # The stepped reference walks the span once, pausing at every cycle, on
    # the cache-hit artefact: injected flips never reach the chunked runs'.
    stepped = build(replace(STEP_OUT, artefact="cached"))
    pauses = set()
    for cycle in range(entry, exit_ + 2):
        stepped.systems[0].run(batched=False, until_cycle=cycle)
        pauses.add(stepped.systems[0].clock)
        chunked = build(STEP_OUT)
        chunked.systems[0].run(until_cycle=cycle)
        assert not chunked.systems[0].done
        assert observe(chunked, False) == observe(stepped, False), cycle
        chunked.systems[0].run()
        assert observe(chunked, False) == expected, cycle
    assert len(pauses) >= steps  # the pauses really fell between the steps
    stepped.systems[0].run(batched=False)
    assert observe(stepped, False) == expected


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
