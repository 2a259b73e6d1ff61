"""Tests for representative windows and result aggregation."""

import pytest

from repro.compiler.ir import ArrayDecl, Loop, LoopKind, PartitionedAccess, Phase, Program
from repro.machine.config import sgi_base
from repro.machine.stats import CpuStats, MachineStats, MissKind
from repro.sim.results import RunResult, add_scaled_cpu_stats, add_scaled_stats
from repro.sim.windows import occurrence_variation, representative_window


def program_with_phases(occurrences=(3, 7)):
    arrays = (ArrayDecl("a", 4096),)
    loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=16),))
    phases = tuple(
        Phase(f"ph{i}", (loop,), occurrences=occ) for i, occ in enumerate(occurrences)
    )
    return Program("p", arrays, phases)


class TestWindows:
    def test_window_contains_each_phase_once(self):
        program = program_with_phases((3, 7))
        window = representative_window(program)
        assert [p.name for p in window.measured] == ["ph0", "ph1"]
        assert window.weights == (3, 7)
        assert window.total_occurrences == 10

    def test_warmup_mirrors_measured(self):
        window = representative_window(program_with_phases((5,)))
        assert window.warmup == window.measured

    def test_weight_of(self):
        program = program_with_phases((3, 7))
        window = representative_window(program)
        assert window.weight_of(program.phases[1]) == 7
        with pytest.raises(KeyError):
            window.weight_of(Phase("other", program.phases[0].loops))

    def test_occurrence_variation(self):
        mean, std, cv = occurrence_variation([10.0, 10.0, 10.0])
        assert (mean, std, cv) == (10.0, 0.0, 0.0)
        mean, std, cv = occurrence_variation([9.0, 11.0])
        assert mean == 10.0
        assert std == pytest.approx(1.4142, rel=1e-3)
        assert cv == pytest.approx(0.1414, rel=1e-3)

    def test_occurrence_variation_single_sample(self):
        assert occurrence_variation([5.0]) == (5.0, 0.0, 0.0)

    def test_occurrence_variation_empty_rejected(self):
        with pytest.raises(ValueError):
            occurrence_variation([])


class TestStatsAggregation:
    def filled_stats(self) -> CpuStats:
        stats = CpuStats()
        stats.instructions = 100
        stats.busy_ns = 250.0
        stats.l2_misses[MissKind.CONFLICT] = 10
        stats.l2_stall_ns[MissKind.CONFLICT] = 5000.0
        stats.overhead_ns["kernel"] = 42.0
        return stats

    def test_add_scaled_cpu_stats(self):
        dst = CpuStats()
        add_scaled_cpu_stats(dst, self.filled_stats(), 3)
        assert dst.instructions == 300
        assert dst.busy_ns == 750.0
        assert dst.l2_misses[MissKind.CONFLICT] == 30
        assert dst.l2_stall_ns[MissKind.CONFLICT] == 15000.0
        assert dst.overhead_ns["kernel"] == 126.0

    def test_add_scaled_stats_accumulates(self):
        dst = MachineStats.for_cpus(2)
        src = MachineStats(cpus=[self.filled_stats(), self.filled_stats()])
        add_scaled_stats(dst, src, 2)
        add_scaled_stats(dst, src, 1)
        assert dst.cpus[1].instructions == 300


class TestRunResult:
    def make_result(self, wall=1000.0) -> RunResult:
        stats = MachineStats.for_cpus(2)
        for cpu in stats.cpus:
            cpu.instructions = 1000
            cpu.busy_ns = 2500.0
            cpu.l2_stall_ns[MissKind.CONFLICT] = 2500.0
            cpu.l2_misses[MissKind.CONFLICT] = 5
            cpu.l2_misses[MissKind.TRUE_SHARING] = 2
        return RunResult(
            workload="w",
            policy="page_coloring",
            num_cpus=2,
            config=sgi_base(2),
            stats=stats,
            wall_ns=wall,
            bus_busy_ns={"data": 250.0, "writeback": 250.0},
        )

    def test_mcpi(self):
        result = self.make_result()
        # stall 2500ns over 1000 instr at 2.5ns/cycle -> MCPI 1.0.
        assert result.mcpi() == pytest.approx(1.0)

    def test_mcpi_breakdown_sums_to_mcpi(self):
        result = self.make_result()
        assert sum(result.mcpi_breakdown().values()) == pytest.approx(result.mcpi())

    def test_miss_accounting(self):
        result = self.make_result()
        assert result.replacement_misses() == 10
        assert result.communication_misses() == 4
        assert result.miss_breakdown()["conflict"] == 10

    def test_bus_utilization(self):
        result = self.make_result(wall=1000.0)
        assert result.bus_utilization() == pytest.approx(0.5)
        assert result.bus_utilization_breakdown()["data"] == pytest.approx(0.25)

    def test_speedup_over(self):
        fast = self.make_result(wall=500.0)
        slow = self.make_result(wall=1000.0)
        assert fast.speedup_over(slow) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            RunResult("w", "p", 1, sgi_base(1)).speedup_over(slow)

    def test_measured_time_projects_scale(self):
        result = self.make_result(wall=1e6)  # 1 ms
        config16 = sgi_base(2).scaled(16)
        result.config = config16
        assert result.measured_time_s(steady_state_repeats=100.0) == pytest.approx(
            1e6 * 100 * 16 / 1e9
        )

    def test_label(self):
        result = self.make_result()
        assert result.label() == "w@2cpu[page_coloring]"
        result.cdpc = True
        result.prefetch = True
        result.aligned = False
        assert result.label() == "w@2cpu[page_coloring+cdpc+pf+unaligned]"

    def test_combined_execution_includes_overheads(self):
        result = self.make_result()
        result.stats.cpus[0].overhead_ns["sequential"] = 1000.0
        combined = result.combined_execution_ns
        # busy + stall per cpu = 5000; plus 1000 overhead on cpu0.
        assert combined == pytest.approx(11000.0)
        assert result.overhead_breakdown_ns()["sequential"] == 1000.0

    def test_exact_runs_report_no_sampling(self):
        # Every run is exact, but the serialized form keeps its "sampling"
        # key (always null) so result digests stay byte-identical.
        from repro.sim.engine import EngineOptions, run_benchmark
        from repro.sim.tracegen import SimProfile

        result = run_benchmark(
            "fpppp", sgi_base(2).scaled(16),
            EngineOptions(profile=SimProfile.fast()),
        )
        serialized = result.to_dict()
        assert "sampling" in serialized
        assert serialized["sampling"] is None


class TestArrayMissAttribution:
    def test_attribution_labels_arrays_and_instructions(self):
        from repro.machine.config import sgi_base
        from repro.sim.engine import EngineOptions, run_benchmark
        from repro.sim.tracegen import SimProfile

        config = sgi_base(4).scaled(16)
        result = run_benchmark(
            "fpppp", config, EngineOptions(profile=SimProfile.fast())
        )
        assert "instructions" in result.array_misses
        assert set(result.array_misses) <= {"integrals", "density",
                                            "instructions", "other"}

    def test_strided_array_dominates_su2cor(self):
        from repro.machine.config import sgi_base
        from repro.sim.engine import EngineOptions, run_benchmark
        from repro.sim.tracegen import SimProfile

        config = sgi_base(8).scaled(16)
        result = run_benchmark(
            "su2cor", config, EngineOptions(profile=SimProfile.fast())
        )
        top = max(result.array_misses, key=result.array_misses.get)
        assert top in ("u1", "u2")  # the unsummarizable gauge arrays

    def test_attribution_in_to_dict(self):
        from repro.machine.config import sgi_base
        from repro.sim.engine import EngineOptions, run_benchmark
        from repro.sim.tracegen import SimProfile

        config = sgi_base(2).scaled(16)
        result = run_benchmark(
            "fpppp", config, EngineOptions(profile=SimProfile.fast())
        )
        assert result.to_dict()["array_misses"] == result.array_misses
