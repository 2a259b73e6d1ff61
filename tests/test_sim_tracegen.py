"""Tests for trace generation."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.compiler.ir import (
    ArrayDecl,
    BoundaryAccess,
    Communication,
    InstructionStream,
    Loop,
    LoopKind,
    PartitionedAccess,
    Phase,
    Program,
    StridedAccess,
)
from repro.compiler.padding import layout_arrays
from repro.compiler.parallelize import schedule_loop
from repro.compiler.prefetch_pass import insert_prefetches
from repro.machine.config import CacheConfig, MachineConfig
from repro.sim.tracegen import (
    FLAG_INSTR,
    FLAG_WRITE,
    INSTRUCTION_BASE,
    Progression,
    SimProfile,
    StreamImage,
    _enumerate,
    loop_traces,
)


def machine(num_cpus=2) -> MachineConfig:
    return MachineConfig(
        num_cpus=num_cpus,
        page_size=256,
        l1d=CacheConfig(512, 64, 2),
        l1i=CacheConfig(512, 64, 2),
        l2=CacheConfig(4096, 64, 1),
    )


def traces_for(loop, arrays, config, profile=None, plan=None):
    program = Program("p", arrays, (Phase("ph", (loop,)),))
    layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
    schedule = schedule_loop(loop, config.num_cpus)
    return layout, loop_traces(
        loop, schedule, layout, config, profile or SimProfile(), plan
    )


class TestPartitionedTraces:
    def test_each_cpu_stays_in_its_partition(self):
        config = machine(2)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=16),))
        layout, traces = traces_for(loop, arrays, config)
        base = layout.base_of("a")
        assert traces[0].addrs.min() >= base
        assert traces[0].addrs.max() < base + 2048
        assert traces[1].addrs.min() >= base + 2048
        assert traces[1].addrs.max() < base + 4096

    def test_stride_is_half_line(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=16),))
        _, traces = traces_for(loop, arrays, config)
        diffs = np.diff(traces[0].addrs)
        assert set(diffs.tolist()) == {32}

    def test_write_flags(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 1024), ArrayDecl("b", 1024))
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (
                PartitionedAccess("a", units=4),
                PartitionedAccess("b", units=4, is_write=True),
            ),
        )
        layout, traces = traces_for(loop, arrays, config)
        flags = traces[0].flags
        addrs = traces[0].addrs
        in_b = (addrs >= layout.base_of("b")) & (addrs < layout.end_of("b"))
        assert np.all((flags[in_b] & FLAG_WRITE) != 0)
        assert np.all((flags[~in_b] & FLAG_WRITE) == 0)

    def test_equal_length_streams_alternate(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 1024), ArrayDecl("b", 1024))
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (PartitionedAccess("a", units=4), PartitionedAccess("b", units=4)),
        )
        layout, traces = traces_for(loop, arrays, config)
        addrs = traces[0].addrs
        is_a = addrs < layout.base_of("b")
        # Strict alternation: a, b, a, b, ...
        assert np.all(is_a[::2]) and not np.any(is_a[1::2])

    def test_fraction_limits_touched_bytes(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop(
            "l", LoopKind.PARALLEL,
            (PartitionedAccess("a", units=16, fraction=0.5),),
        )
        _, traces = traces_for(loop, arrays, config)
        assert len(traces[0]) == 4096 // 2 // 32

    def test_sweeps_repeat_addresses(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 1024),)
        loop = Loop(
            "l", LoopKind.PARALLEL,
            (PartitionedAccess("a", units=4, sweeps=2.0),),
        )
        _, traces = traces_for(loop, arrays, config)
        assert len(traces[0]) == 2 * (1024 // 32)

    def test_sweep_limit_caps(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 1024),)
        loop = Loop(
            "l", LoopKind.PARALLEL,
            (PartitionedAccess("a", units=4, sweeps=8.0),),
        )
        _, traces = traces_for(loop, arrays, config, profile=SimProfile.fast())
        assert len(traces[0]) == 1024 // 32


class TestOtherAccessKinds:
    def test_strided_interleaves_blocks_across_cpus(self):
        config = machine(2)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL, (StridedAccess("a", block_bytes=256),))
        layout, traces = traces_for(loop, arrays, config)
        base = layout.base_of("a")
        blocks0 = set(((traces[0].addrs - base) // 256).tolist())
        blocks1 = set(((traces[1].addrs - base) // 256).tolist())
        assert blocks0 == {0, 2, 4, 6, 8, 10, 12, 14}
        assert blocks1 == {1, 3, 5, 7, 9, 11, 13, 15}

    def test_boundary_reads_neighbour_strip_at_word_granularity(self):
        config = machine(2)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (
                PartitionedAccess("a", units=16),
                BoundaryAccess("a", units=16, comm=Communication.SHIFT,
                               boundary_fraction=1.0),
            ),
        )
        layout, traces = traces_for(loop, arrays, config)
        base = layout.base_of("a")
        # CPU 0's boundary refs lie in CPU 1's first unit (bytes 2048-2303).
        boundary = traces[0].addrs[traces[0].addrs >= base + 2048]
        assert len(boundary) == 256 // 8
        assert boundary.max() < base + 2048 + 256

    def test_rotate_boundary_wraps_to_first_partition(self):
        config = machine(2)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (BoundaryAccess("a", units=16, comm=Communication.ROTATE,
                            boundary_fraction=1.0),),
        )
        layout, traces = traces_for(loop, arrays, config)
        base = layout.base_of("a")
        # With 2 CPUs and rotate, CPU 1 reads both edges of CPU 0's range.
        assert (traces[1].addrs < base + 2048).all()

    def test_instruction_stream_flags_and_base(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 1024),)
        loop = Loop(
            "l",
            LoopKind.SEQUENTIAL,
            (
                InstructionStream(footprint_bytes=1024),
                PartitionedAccess("a", units=4),
            ),
        )
        _, traces = traces_for(loop, arrays, config)
        flags = traces[0].flags
        addrs = traces[0].addrs
        instr = (flags & FLAG_INSTR) != 0
        assert instr.any()
        assert (addrs[instr] >= INSTRUCTION_BASE).all()
        assert (addrs[~instr] < INSTRUCTION_BASE).all()

    def test_sequential_loop_only_master_trace(self):
        config = machine(4)
        arrays = (ArrayDecl("a", 1024),)
        loop = Loop("l", LoopKind.SEQUENTIAL, (PartitionedAccess("a", units=4),))
        _, traces = traces_for(loop, arrays, config)
        assert len(traces[0]) > 0
        assert all(len(traces[cpu]) == 0 for cpu in range(1, 4))

    def test_blocked_idle_cpu_has_empty_trace(self):
        from repro.common import Partitioning

        config = machine(4)
        arrays = (ArrayDecl("a", 3 * 1024),)
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (PartitionedAccess("a", units=3, partitioning=Partitioning.BLOCKED),),
        )
        _, traces = traces_for(loop, arrays, config)
        # ceil(3/4) = 1 unit per CPU; CPU 3 gets nothing.
        assert len(traces[3]) == 0
        assert len(traces[0]) > 0


class TestPrefetchTargets:
    def test_targets_emitted_once_per_line(self):
        config = machine(1)
        arrays = (ArrayDecl("big", 64 * 1024), ArrayDecl("small", 1024))
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (
                PartitionedAccess("big", units=16, is_write=True),
                PartitionedAccess("small", units=16),
            ),
        )
        program = Program("p", arrays, (Phase("ph", (loop,)),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        plan = insert_prefetches(program, layout, config, 1)
        schedule = schedule_loop(loop, 1)
        traces = loop_traces(loop, schedule, layout, config, SimProfile(), plan)
        pf = traces[0].prefetch
        assert pf is not None
        issued = pf[pf != 0]
        # One prefetch per 64B line of each prefetched array (2 refs/line),
        # minus the pipeline tail (the last `distance` lines of each stream
        # have no in-stream target); both arrays stream past the cache.
        distance = plan.decisions[0].distance_lines
        expected_lines = (64 * 1024 + 1024) // 64 - 2 * distance
        assert len(issued) == expected_lines

    def test_pipelined_targets_point_ahead(self):
        config = machine(1)
        arrays = (ArrayDecl("big", 64 * 1024),)
        loop = Loop(
            "l", LoopKind.PARALLEL, (PartitionedAccess("big", units=16),),
        )
        program = Program("p", arrays, (Phase("ph", (loop,)),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        plan = insert_prefetches(program, layout, config, 1)
        schedule = schedule_loop(loop, 1)
        traces = loop_traces(loop, schedule, layout, config, SimProfile(), plan)
        mask = traces[0].prefetch != 0
        gaps = traces[0].prefetch[mask] - traces[0].addrs[mask]
        distance = plan.decisions[0].distance_lines * 64
        # Contiguous stream: in-stream lookahead equals address lookahead.
        assert set(gaps.tolist()) == {distance}

    def test_no_plan_no_prefetch_array(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 1024),)
        loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=4),))
        _, traces = traces_for(loop, arrays, config)
        assert traces[0].prefetch is None


class TestOccurrenceVariation:
    def test_scale_is_deterministic_and_bounded(self):
        from repro.sim.tracegen import occurrence_scale

        values = [occurrence_scale(0.3, k, "phase") for k in range(20)]
        assert values == [occurrence_scale(0.3, k, "phase") for k in range(20)]
        assert all(0.7 <= v <= 1.3 for v in values)
        assert len(set(values)) > 10  # actually varies across occurrences

    def test_zero_variation_is_identity(self):
        from repro.sim.tracegen import occurrence_scale

        assert occurrence_scale(0.0, 5, "x") == 1.0

    def test_fraction_scale_changes_partitioned_trace_length(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=16),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        schedule = schedule_loop(loop, 1)
        full = loop_traces(loop, schedule, layout, config, SimProfile())
        half = loop_traces(loop, schedule, layout, config, SimProfile(),
                           fraction_scale=0.5)
        assert len(half[0]) == len(full[0]) // 2

    def test_fraction_scale_clamped_at_one(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=16),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        schedule = schedule_loop(loop, 1)
        full = loop_traces(loop, schedule, layout, config, SimProfile())
        over = loop_traces(loop, schedule, layout, config, SimProfile(),
                           fraction_scale=1.5)
        assert len(over[0]) == len(full[0])

    def test_strided_sweeps_scale(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL,
                    (StridedAccess("a", block_bytes=256),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        schedule = schedule_loop(loop, 1)
        full = loop_traces(loop, schedule, layout, config, SimProfile())
        reduced = loop_traces(loop, schedule, layout, config, SimProfile(),
                              fraction_scale=0.5)
        assert len(reduced[0]) == len(full[0]) // 2


class TestStreamRelativeLookahead:
    def test_strided_prefetch_stays_in_own_blocks(self):
        """Software pipelining prefetches d iterations ahead in the stream:
        a strided stream's targets must fall in this processor's blocks,
        never in a neighbour's interleaved block."""
        from repro.compiler.ir import Program, Phase
        from repro.compiler.prefetch_pass import insert_prefetches

        config = machine(2)
        arrays = (ArrayDecl("big", 64 * 1024),)
        loop = Loop("l", LoopKind.PARALLEL,
                    (StridedAccess("big", block_bytes=256),))
        program = Program("p", arrays, (Phase("ph", (loop,)),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        plan = insert_prefetches(program, layout, config, 2)
        schedule = schedule_loop(loop, 2)
        traces = loop_traces(loop, schedule, layout, config, SimProfile(), plan)
        base = layout.base_of("big")
        for cpu in (0, 1):
            pf = traces[cpu].prefetch
            assert pf is not None
            targets = pf[pf != 0] & ~1  # strip the TLB-strict marker bit
            blocks = ((targets - base) // 256) % 2
            assert set(blocks.tolist()) == {cpu}


class TestSimProfileKnobs:
    def test_custom_ref_stride(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=16),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        schedule = schedule_loop(loop, 1)
        fine = loop_traces(loop, schedule, layout, config,
                           SimProfile(ref_stride=8))
        coarse = loop_traces(loop, schedule, layout, config,
                             SimProfile(ref_stride=64))
        assert len(fine[0]) == 8 * len(coarse[0])

    def test_words_per_ref_tracks_stride(self):
        config = machine(1)
        arrays = (ArrayDecl("a", 4096),)
        loop = Loop("l", LoopKind.PARALLEL, (PartitionedAccess("a", units=16),))
        layout = layout_arrays(arrays, config.l2.line_size, config.l1d.size)
        schedule = schedule_loop(loop, 1)
        traces = loop_traces(loop, schedule, layout, config,
                             SimProfile(ref_stride=64))
        assert traces[0].words_per_ref == 8.0

    def test_default_stride_is_half_line(self):
        config = machine(1)
        assert SimProfile().stride_for(config) == config.l2.line_size // 2

    def test_instruction_base_not_color_aligned(self):
        """The text segment must not share page colors with page-aligned
        data arrays under a page-coloring policy (fpppp's Table 2 row)."""
        config = machine(1)
        arrays = (ArrayDecl("a", 1024),)
        loop = Loop(
            "l", LoopKind.SEQUENTIAL,
            (InstructionStream(footprint_bytes=512),
             PartitionedAccess("a", units=4)),
        )
        _, traces = traces_for(loop, arrays, config)
        instr_addrs = traces[0].addrs[(traces[0].flags & FLAG_INSTR) != 0]
        first_page = int(instr_addrs.min()) // config.page_size
        assert first_page % 16 != 0  # 16 colors on the tiny machine


@st.composite
def stream_images(draw):
    """0-40 progressions, sharing step and count or not, tiled 0-3 times
    plus a prefix of up to one pass."""
    starts = draw(st.lists(st.integers(0, 1 << 20), max_size=40))
    if draw(st.booleans()):
        step, count = draw(st.integers(1, 64)), draw(st.integers(0, 12))
        progs = [Progression(start, step, count) for start in starts]
    else:
        progs = [
            Progression(start, draw(st.integers(1, 64)), draw(st.integers(0, 12)))
            for start in starts
        ]
    prefix = draw(st.integers(0, sum(p.count for p in progs)))
    whole = draw(st.integers(0, 3))
    return StreamImage("a", False, False, tuple(progs), whole, prefix)


class TestEnumerate:
    @given(stream_images())
    def test_enumeration_is_the_plain_list(self, image):
        one = [p.start + k * p.step for p in image.progs for k in range(p.count)]
        expected = one * image.whole + one[: image.prefix_elems]
        addrs = _enumerate(image)
        assert addrs.dtype == np.int64
        assert addrs.tolist() == expected
        assert len(addrs) == image.total_refs
