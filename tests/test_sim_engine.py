"""Integration tests for the execution engine."""

import pytest

from repro.compiler.ir import (
    ArrayDecl,
    Loop,
    LoopKind,
    PartitionedAccess,
    Phase,
    Program,
)
from repro.machine.config import CacheConfig, MachineConfig
from repro.machine.stats import MissKind
from repro.sim.engine import EngineOptions, run_benchmark, run_program
from repro.sim.tracegen import SimProfile

from tests.conftest import make_stencil_program


def tiny_machine(num_cpus=2) -> MachineConfig:
    return MachineConfig(
        num_cpus=num_cpus,
        page_size=256,
        l1d=CacheConfig(1024, 64, 2),
        l1i=CacheConfig(1024, 64, 2),
        l2=CacheConfig(8192, 64, 1),  # 32 colors
    )


def aligned_conflict_program(config, num_arrays=4):
    """Arrays sized exactly one color cycle: the tomcatv pathology.

    Initialization is sequential (array by array), so bin hopping's
    fault-order coloring reproduces the virtual-address alignment too.
    """
    from repro.compiler.ir import InitOrder

    pages = config.num_colors
    size = pages * config.page_size
    names = tuple(f"a{i}" for i in range(num_arrays))
    arrays = tuple(ArrayDecl(n, size) for n in names)
    loop = Loop(
        "sweep",
        LoopKind.PARALLEL,
        tuple(
            PartitionedAccess(n, units=pages, is_write=(i == 0))
            for i, n in enumerate(names)
        ),
    )
    return Program("aligned", arrays, (Phase("steady", (loop,), occurrences=2),),
                   init_order=InitOrder.SEQUENTIAL)


class TestBasicExecution:
    def test_run_produces_time_and_stats(self):
        config = tiny_machine(2)
        program = make_stencil_program(config.page_size)
        result = run_program(program, config)
        assert result.wall_ns > 0
        assert result.stats.total_instructions() > 0
        assert result.num_cpus == 2
        assert result.init_ns > 0

    def test_parallel_loop_uses_all_cpus(self):
        config = tiny_machine(4)
        program = make_stencil_program(config.page_size)
        result = run_program(program, config)
        for cpu in result.stats.cpus:
            assert cpu.instructions > 0

    def test_more_cpus_run_faster(self):
        program1 = make_stencil_program(256, num_arrays=4, pages=32)
        r1 = run_program(program1, tiny_machine(1))
        r4 = run_program(program1, tiny_machine(4))
        assert r4.wall_ns < r1.wall_ns

    def test_phase_weighting(self):
        config = tiny_machine(2)
        program = make_stencil_program(config.page_size)  # occurrences=2
        result = run_program(program, config)
        assert len(result.phases) == 1
        phase = result.phases[0]
        assert result.wall_ns == pytest.approx(phase.wall_ns * 2)

    def test_page_faults_only_during_init(self):
        config = tiny_machine(2)
        program = make_stencil_program(config.page_size)
        options = EngineOptions()
        from repro.sim.engine import _Simulation

        sim = _Simulation(program, config, options)
        sim.run_init()
        faults_after_init = sim.vm.faults
        sim.run_phase(program.phases[0], record=False)
        assert sim.vm.faults == faults_after_init


class TestOverheadAccounting:
    def test_sequential_loop_charges_slaves(self):
        config = tiny_machine(4)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("seq", LoopKind.SEQUENTIAL, (PartitionedAccess("a", units=16),))
        program = Program("p", arrays, (Phase("ph", (loop,)),))
        result = run_program(program, config)
        for cpu in range(1, 4):
            assert result.stats.cpus[cpu].overhead_ns["sequential"] > 0
        assert result.stats.cpus[0].overhead_ns["sequential"] == 0

    def test_suppressed_loop_charges_suppressed_category(self):
        config = tiny_machine(4)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("sup", LoopKind.SUPPRESSED, (PartitionedAccess("a", units=16),))
        program = Program("p", arrays, (Phase("ph", (loop,)),))
        result = run_program(program, config)
        assert result.stats.cpus[1].overhead_ns["suppressed"] > 0

    def test_load_imbalance_from_blocked_schedule(self):
        from repro.common import Partitioning

        config = tiny_machine(4)
        arrays = (ArrayDecl("a", 3 * 4096),)
        loop = Loop(
            "imb",
            LoopKind.PARALLEL,
            (PartitionedAccess("a", units=3, partitioning=Partitioning.BLOCKED),),
        )
        program = Program("p", arrays, (Phase("ph", (loop,)),))
        result = run_program(program, config)
        # CPU 3 executes nothing and waits at the barrier.
        assert result.stats.cpus[3].overhead_ns["load_imbalance"] > 0

    def test_synchronization_cost_per_parallel_loop(self):
        config = tiny_machine(2)
        program = make_stencil_program(config.page_size)
        result = run_program(program, config)
        assert result.stats.cpus[0].overhead_ns["synchronization"] > 0

    def test_sequential_fraction_adds_master_time(self):
        config = tiny_machine(2)
        base_program = make_stencil_program(config.page_size)
        import dataclasses

        with_seq = dataclasses.replace(base_program, sequential_fraction=0.5)
        base = run_program(base_program, config)
        seq = run_program(with_seq, config)
        assert seq.stats.cpus[1].overhead_ns["sequential"] > 0
        assert seq.wall_ns > base.wall_ns

    def test_kernel_overhead_from_tlb_misses(self):
        config = tiny_machine(2)
        # 160 pages far exceed the 64-entry TLB, so the measured phase
        # keeps missing even after the warmup pass.
        program = make_stencil_program(config.page_size, num_arrays=4, pages=40)
        result = run_program(program, config)
        assert result.stats.cpus[0].tlb_misses > 0
        assert result.stats.cpus[0].overhead_ns["kernel"] > 0


class TestPolicyEffects:
    def test_cdpc_eliminates_aligned_conflicts(self):
        config = tiny_machine(4)
        program = aligned_conflict_program(config)
        base = run_program(program, config, EngineOptions(policy="page_coloring"))
        cdpc = run_program(
            program, config, EngineOptions(policy="page_coloring", cdpc=True)
        )
        assert base.misses(MissKind.CONFLICT) > 0
        assert cdpc.misses(MissKind.CONFLICT) < base.misses(MissKind.CONFLICT) / 4
        assert cdpc.wall_ns < base.wall_ns

    def test_cdpc_touch_delivery_on_bin_hopping(self):
        config = tiny_machine(4)
        program = aligned_conflict_program(config)
        base = run_program(program, config, EngineOptions(policy="bin_hopping"))
        cdpc = run_program(
            program, config, EngineOptions(policy="bin_hopping", cdpc=True)
        )
        assert cdpc.misses(MissKind.CONFLICT) <= base.misses(MissKind.CONFLICT)

    def test_policies_produce_different_mappings(self):
        config = tiny_machine(2)
        program = make_stencil_program(config.page_size)
        pc = run_program(program, config, EngineOptions(policy="page_coloring"))
        bh = run_program(program, config, EngineOptions(policy="bin_hopping"))
        assert pc.policy == "page_coloring"
        assert bh.policy == "bin_hopping"

    def test_memory_pressure_lowers_hint_honor_rate(self):
        config = tiny_machine(4)
        program = aligned_conflict_program(config)
        relaxed = run_program(
            program, config, EngineOptions(policy="page_coloring", cdpc=True)
        )
        pressured = run_program(
            program,
            config,
            EngineOptions(policy="page_coloring", cdpc=True, memory_pressure=0.5),
        )
        assert relaxed.hint_honor_rate == pytest.approx(1.0)
        assert pressured.hint_honor_rate < 1.0

    def test_unknown_policy_rejected(self):
        config = tiny_machine(2)
        program = make_stencil_program(config.page_size)
        with pytest.raises(ValueError):
            run_program(program, config, EngineOptions(policy="fifo"))

    def test_unknown_delivery_rejected(self):
        config = tiny_machine(2)
        program = make_stencil_program(config.page_size)
        with pytest.raises(ValueError):
            run_program(
                program,
                config,
                EngineOptions(cdpc=True, cdpc_delivery="carrier_pigeon"),
            )


class TestRunBenchmark:
    def test_runs_scaled_workload(self):
        from repro.machine.config import sgi_base

        config = sgi_base(2).scaled(16)
        result = run_benchmark(
            "fpppp", config, profile=SimProfile.fast()
        )
        assert result.workload == "fpppp"
        assert result.wall_ns > 0

    def test_option_overrides_merge(self):
        from repro.machine.config import sgi_base

        config = sgi_base(2).scaled(16)
        options = EngineOptions(profile=SimProfile.fast())
        result = run_benchmark("fpppp", config, options, policy="bin_hopping")
        assert result.policy == "bin_hopping"

    def test_fpppp_instruction_bound(self):
        # Figure 2: fpppp is limited by instruction misses that hit in the
        # external cache and puts (almost) no load on the shared bus.
        from repro.machine.config import sgi_base

        config = sgi_base(2).scaled(16)
        result = run_benchmark("fpppp", config, profile=SimProfile.fast())
        stats = result.stats.cpus[0]
        assert stats.l1i_misses > 0
        assert result.bus_utilization() < 0.2

    def test_finished_run_leaves_no_cyclic_garbage(self):
        # A run is freed by reference counting alone: nothing it builds
        # (reclaim hooks and the adaptive-CDPC fault watchdog included)
        # may wait for the cycle collector.
        import gc

        from repro.machine.config import sgi_base

        config = sgi_base(2).scaled(16)
        fast = SimProfile.fast()
        cases = [
            ("tomcatv", EngineOptions(profile=fast)),
            (
                "fpppp",
                EngineOptions(
                    profile=fast, cdpc=True, adaptive_cdpc=True, hint_watchdog=0.5
                ),
            ),
        ]
        for name, options in cases:
            run_benchmark(name, config, options)  # warm lazy imports
            gc.collect()
            gc.disable()
            try:
                run_benchmark(name, config, options)
                assert gc.collect() == 0, name
            finally:
                gc.enable()
