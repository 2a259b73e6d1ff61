"""Symbolic cache-conflict analyzer: plans, verification, prediction.

Three layers of evidence that the static analyzer tells the truth:

* plan derivation is *exact* — the derived page->color function matches
  the colors an actual run realizes, page for page, for every policy;
* the verifier is *sound* — seeded conflict plans are never declared
  conflict-free, and every witness replays into real conflict misses on
  the cycle-accurate memory system;
* the predictor is *bounded* — simulated runs land inside the predicted
  intervals, and the ``static_check`` engine gate enforces exactly that.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.checker.staticmiss import (
    ConflictWitness,
    MissEstimate,
    Progression,
    StaticCheckError,
    StaticMissProfile,
    StaticPlan,
    conflict_summary,
    derive_static_plan,
    estimate_keys,
    instruction_pages,
    predict_workload,
    program_image,
    replay_witness,
    verify_plan,
)
from repro.machine.config import CacheConfig, MachineConfig, sgi_base
from repro.sim.engine import EngineOptions, _Simulation, run_benchmark
from repro.sim.tracegen import SimProfile
from repro.workloads.specfp import get_workload

CONFIG = sgi_base(4).scaled(16)
FAST = SimProfile.fast()


# ---------------------------------------------------------------------------
# Progressions


class TestProgression:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Progression(0, 0, 4)
        with pytest.raises(ValueError):
            Progression(0, 8, -1)

    def test_count_below_matches_enumeration(self):
        prog = Progression(start=100, step=24, count=7)
        addrs = [100 + 24 * k for k in range(7)]
        for limit in range(0, 400, 7):
            assert prog.count_below(limit) == sum(a < limit for a in addrs)

    def test_count_in_matches_enumeration(self):
        prog = Progression(start=64, step=40, count=9)
        addrs = [64 + 40 * k for k in range(9)]
        for lo in range(0, 512, 31):
            for span in (0, 13, 40, 127):
                expected = sum(lo <= a < lo + span for a in addrs)
                assert prog.count_in(lo, lo + span) == expected

    def test_empty_progression(self):
        prog = Progression(start=0, step=8, count=0)
        assert prog.count_below(1000) == 0
        assert prog.count_in(0, 1000) == 0


# ---------------------------------------------------------------------------
# Plan derivation: derived colors must equal realized colors


def realized_colors(name: str, config: MachineConfig, options: EngineOptions):
    """Run engine setup + initialization, read back page->color mappings."""
    workload = get_workload(name, scale=config.scale_factor)
    sim = _Simulation(workload.program, config, options)
    if options.cdpc:
        sim.deliver_cdpc()
    sim.run_init()
    realized = {
        vpage: sim.vm.physmem.color_of(frame)
        for vpage, frame in sim.vm.page_table.mappings()
    }
    return workload.program, sim, realized


class TestPlanDerivation:
    def test_page_coloring_is_closed_form(self, scaled_sgi):
        workload = get_workload("swim", scale=scaled_sgi.scale_factor)
        sim = _Simulation(
            workload.program, scaled_sgi, EngineOptions(profile=FAST)
        )
        plan = derive_static_plan(workload.program, sim.layout, scaled_sgi)
        assert plan.policy == "page_coloring"
        assert not plan.colors  # pure vpage % C, nothing explicit
        for vpage in (0, 1, 255, 256, 1 << 30):
            assert plan.color_of(vpage) == vpage % scaled_sgi.num_colors

    def test_unknown_policy_rejected(self, scaled_sgi):
        workload = get_workload("swim", scale=scaled_sgi.scale_factor)
        sim = _Simulation(
            workload.program, scaled_sgi, EngineOptions(profile=FAST)
        )
        with pytest.raises(ValueError, match="unknown mapping policy"):
            derive_static_plan(
                workload.program, sim.layout, scaled_sgi, policy="fifo"
            )
        with pytest.raises(ValueError, match="ColoringResult"):
            derive_static_plan(
                workload.program, sim.layout, scaled_sgi, cdpc=True
            )

    @pytest.mark.parametrize("cdpc", [False, True])
    def test_bin_hopping_plan_matches_engine(self, cdpc):
        """Replay of the fault-order counter is exact, page for page.

        Covers both plain bin hopping and CDPC touch delivery (the
        STANDARD_POLICIES "cdpc" cell): the runtime pre-touches the hint
        order through the same cycling counter.
        """
        config = sgi_base(2).scaled(16)
        options = EngineOptions(
            policy="bin_hopping", cdpc=cdpc, fast_path=True, profile=FAST
        )
        program, sim, realized = realized_colors("swim", config, options)
        plan = derive_static_plan(
            program,
            sim.layout,
            config,
            policy="bin_hopping",
            cdpc=cdpc,
            coloring=sim.runtime.coloring if sim.runtime else None,
            seed=options.seed,
            init_jitter=options.init_jitter,
        )
        assert plan.policy == ("cdpc" if cdpc else "bin_hopping")
        overflow = set(plan.overflow_pages)
        mismatches = [
            vpage
            for vpage, color in realized.items()
            if vpage not in overflow and plan.color_of(vpage) != color
        ]
        assert realized, "initialization mapped no pages"
        assert mismatches == []

    def test_madvise_plan_matches_engine(self):
        """CDPC over page_coloring uses the hint table + modulo fallback."""
        config = sgi_base(2).scaled(16)
        options = EngineOptions(
            policy="page_coloring", cdpc=True, fast_path=True, profile=FAST
        )
        program, sim, realized = realized_colors("tomcatv", config, options)
        plan = derive_static_plan(
            program,
            sim.layout,
            config,
            policy="page_coloring",
            cdpc=True,
            coloring=sim.runtime.coloring,
        )
        overflow = set(plan.overflow_pages)
        mismatches = [
            vpage
            for vpage, color in realized.items()
            if vpage not in overflow and plan.color_of(vpage) != color
        ]
        assert mismatches == []

    def test_jitter_changes_plan_but_seed_reproduces_it(self):
        config = sgi_base(2).scaled(16)
        workload = get_workload("swim", scale=config.scale_factor)
        sim = _Simulation(workload.program, config, EngineOptions(profile=FAST))
        kwargs = dict(policy="bin_hopping", init_jitter=4)
        plan_a = derive_static_plan(
            workload.program, sim.layout, config, seed=1, **kwargs
        )
        plan_b = derive_static_plan(
            workload.program, sim.layout, config, seed=1, **kwargs
        )
        plan_c = derive_static_plan(
            workload.program, sim.layout, config, seed=2, **kwargs
        )
        assert plan_a.colors == plan_b.colors
        assert plan_a.colors != plan_c.colors

    def test_instruction_pages_ascend_above_data(self, scaled_sgi):
        workload = get_workload("fpppp", scale=scaled_sgi.scale_factor)
        pages = instruction_pages(workload.program, scaled_sgi)
        assert pages == sorted(pages)
        assert pages, "fpppp has an instruction footprint"
        from repro.sim.tracegen import INSTRUCTION_BASE

        assert pages[0] * scaled_sgi.page_size >= INSTRUCTION_BASE


# ---------------------------------------------------------------------------
# Verifier soundness


def seeded_conflict_plan(program, layout, config) -> StaticPlan:
    """The adversarial plan: every data page forced onto one color."""
    pages = set()
    for name in layout.bases:
        pages.update(layout.pages(name, config.page_size))
    return StaticPlan(
        policy="adversarial",
        num_colors=config.num_colors,
        colors={vpage: 3 for vpage in pages},
    )


class TestVerifierSoundness:
    @pytest.mark.parametrize("name", ["tomcatv", "swim", "su2cor", "applu"])
    def test_seeded_conflicts_never_proven_free(self, name, scaled_sgi):
        """Zero false 'conflict-free' verdicts on plans built to conflict."""
        workload = get_workload(name, scale=scaled_sgi.scale_factor)
        sim = _Simulation(
            workload.program, scaled_sgi, EngineOptions(profile=FAST)
        )
        image = program_image(
            workload.program, sim.layout, scaled_sgi, scaled_sgi.num_cpus, FAST
        )
        plan = seeded_conflict_plan(workload.program, sim.layout, scaled_sgi)
        verification = verify_plan(image, plan)
        assert not verification.conflict_free
        assert verification.witnesses
        worst = verification.witnesses[0]
        assert worst.excess >= 1
        assert len(worst.pages) > scaled_sgi.l2.associativity
        # Every witness page really maps to the witness color.
        for witness in verification.witnesses:
            for vpage in witness.pages:
                assert plan.color_of(vpage) == witness.color

    def test_fpppp_cdpc_plan_proven_conflict_free(self):
        """fpppp's footprint fits: the verifier must PROVE it, not hedge."""
        prediction = predict_workload(
            "fpppp", CONFIG, policy="bin_hopping", cdpc=True, profile=FAST
        )
        assert prediction.verification.conflict_free
        assert prediction.verification.witnesses == []
        assert prediction.verification.sets_checked > 0
        assert (
            prediction.verification.max_occupancy <= CONFIG.l2.associativity
        )

    def test_witness_replay_reproduces_conflicts(self):
        """A constructed witness is not rhetorical: replaying its pages
        through the real memory system produces CONFLICT-classified misses.
        """
        prediction = predict_workload(
            "tomcatv", CONFIG, policy="bin_hopping", cdpc=True, profile=FAST
        )
        assert not prediction.verification.conflict_free
        witness = prediction.verification.witnesses[0]
        counts = replay_witness(witness, CONFIG)
        assert counts["conflict"] > 0

    def test_witness_replay_on_two_way_cache(self):
        config = replace(
            CONFIG, l2=CacheConfig(CONFIG.l2.size, CONFIG.l2.line_size, 2)
        )
        prediction = predict_workload(
            "tomcatv", config, policy="page_coloring", profile=FAST
        )
        assert prediction.verification.witnesses
        counts = replay_witness(prediction.verification.witnesses[0], config)
        assert counts["conflict"] > 0

    def test_replay_rejects_non_overflowing_witness(self):
        witness = ConflictWitness(
            cpu=0, color=0, line_index=0, pages=(1,), arrays=("a",), excess=0
        )
        with pytest.raises(ValueError):
            replay_witness(witness, CONFIG)


# ---------------------------------------------------------------------------
# Conflict summary (the S-rule backend)


class TestConflictSummary:
    def test_summary_reports_balanced_and_skew(self, scaled_sgi):
        workload = get_workload("su2cor", scale=scaled_sgi.scale_factor)
        sim = _Simulation(
            workload.program, scaled_sgi, EngineOptions(profile=FAST)
        )
        image = program_image(
            workload.program, sim.layout, scaled_sgi, scaled_sgi.num_cpus, FAST
        )
        summary = conflict_summary(image)
        assert summary.plan.policy == "page_coloring"
        assert summary.max_occupancy >= 1
        for hotspot in summary.hotspots:
            assert hotspot.occupancy > hotspot.balanced
            assert hotspot.skew > 1.0
            payload = hotspot.to_dict()
            assert payload["pages"] == list(hotspot.pages)


# ---------------------------------------------------------------------------
# Prediction and the static_check gate


class TestPrediction:
    @pytest.fixture(scope="class")
    def prediction(self):
        return predict_workload(
            "hydro2d", CONFIG, policy="page_coloring", profile=FAST
        )

    def test_estimates_cover_all_kinds(self, prediction):
        assert set(prediction.estimates) == set(estimate_keys())
        total = prediction.estimate("total")
        assert total.lo <= total.predicted <= total.hi
        assert prediction.predicted_total() == total.predicted

    def test_components_do_not_exceed_total_ceiling(self, prediction):
        total = prediction.estimate("total")
        for kind in ("cold", "conflict", "capacity"):
            assert prediction.estimate(kind).predicted <= total.hi

    def test_to_dict_is_json_clean(self, prediction):
        import json

        payload = prediction.to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["workload"] == "hydro2d"
        assert set(payload["estimates"]) == set(estimate_keys())
        assert payload["analyze_ns"] > 0

    def test_simulation_lands_inside_bounds(self, prediction):
        result = run_benchmark(
            "hydro2d", CONFIG, EngineOptions(profile=FAST)
        )
        assert prediction.check(result) == []
        measured = StaticMissProfile.measured_from(result)
        assert measured["total"] == float(result.stats.total_l2_misses())

    def test_tampered_bound_is_violated(self, prediction):
        result = run_benchmark(
            "hydro2d", CONFIG, EngineOptions(profile=FAST)
        )
        tampered = replace(
            prediction,
            estimates={
                **prediction.estimates,
                "total": MissEstimate(predicted=0.0, lo=0.0, hi=0.0),
            },
        )
        violations = tampered.check(result)
        assert violations and "total" in violations[0]


class TestMissEstimate:
    def test_contains_and_bound(self):
        estimate = MissEstimate(predicted=100.0, lo=50.0, hi=150.0)
        assert estimate.contains(50.0)
        assert estimate.contains(150.0)
        assert not estimate.contains(150.1)
        assert estimate.bound == 50.0


class TestStaticCheckGate:
    def test_gate_attaches_profile_and_passes(self):
        config = sgi_base(2).scaled(16)
        result = run_benchmark(
            "hydro2d",
            config,
            EngineOptions(static_check=True, profile=FAST),
        )
        profile = result.static_check
        assert isinstance(profile, StaticMissProfile)
        assert profile.check(result) == []
        assert profile.analyze_ns > 0
        # The gate must not leak into the bit-identity contract.
        assert "static_check" not in result.to_dict()

    def test_gate_checks_cdpc_over_bin_hopping(self):
        config = sgi_base(2).scaled(16)
        result = run_benchmark(
            "swim",
            config,
            EngineOptions(
                policy="bin_hopping", cdpc=True, static_check=True, profile=FAST
            ),
        )
        assert result.static_check.policy == "cdpc"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"prefetch": True},
            {"dynamic_recolor": True},
            {"memory_pressure": 0.5},
            {"hint_watchdog": 0.5},
            {"race_seed": 7},
        ],
    )
    def test_unsupported_combinations_rejected(self, overrides):
        config = sgi_base(2).scaled(16)
        with pytest.raises(ValueError, match="static_check"):
            run_benchmark(
                "hydro2d",
                config,
                EngineOptions(static_check=True, profile=FAST, **overrides),
            )

    def test_cdpc_requires_native_delivery(self):
        config = sgi_base(2).scaled(16)
        with pytest.raises(ValueError, match="delivery"):
            run_benchmark(
                "swim",
                config,
                EngineOptions(
                    policy="bin_hopping",
                    cdpc=True,
                    cdpc_delivery="madvise",
                    static_check=True,
                    profile=FAST,
                ),
            )

    def test_violated_bound_raises_static_check_error(self, monkeypatch):
        """If the simulator escapes the interval the run must fail loudly."""
        import repro.checker.staticmiss as staticmiss

        real = staticmiss.predict_program

        def sabotaged(*args, **kwargs):
            profile = real(*args, **kwargs)
            return replace(
                profile,
                estimates={
                    key: MissEstimate(predicted=0.0, lo=0.0, hi=0.0)
                    for key in profile.estimates
                },
            )

        monkeypatch.setattr(staticmiss, "predict_program", sabotaged)
        config = sgi_base(2).scaled(16)
        with pytest.raises(StaticCheckError) as excinfo:
            run_benchmark(
                "hydro2d",
                config,
                EngineOptions(static_check=True, profile=FAST),
            )
        assert excinfo.value.violations
        assert isinstance(excinfo.value.profile, StaticMissProfile)
