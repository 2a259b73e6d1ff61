"""Tests for the loop-nest IR and its validation."""

import pytest

from repro.compiler.ir import (
    ArrayDecl,
    BoundaryAccess,
    Communication,
    InitOrder,
    InstructionStream,
    Loop,
    LoopKind,
    PartitionedAccess,
    Phase,
    Program,
    StridedAccess,
    WholeArrayAccess,
)


def simple_loop(array="a", units=8, **kwargs):
    return Loop("l", LoopKind.PARALLEL, (PartitionedAccess(array, units=units),), **kwargs)


class TestArrayDecl:
    def test_scaled_divides_size(self):
        decl = ArrayDecl("a", 1024)
        assert decl.scaled(4).size_bytes == 256

    def test_scaled_floors_to_element(self):
        decl = ArrayDecl("a", 64, element_size=8)
        assert decl.scaled(100).size_bytes == 8

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ArrayDecl("a", 0)
        with pytest.raises(ValueError):
            ArrayDecl("a", 10, element_size=8)


class TestAccessValidation:
    def test_partitioned_rejects_zero_units(self):
        with pytest.raises(ValueError):
            PartitionedAccess("a", units=0)

    def test_partitioned_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            PartitionedAccess("a", units=4, fraction=0.0)
        with pytest.raises(ValueError):
            PartitionedAccess("a", units=4, fraction=1.5)

    def test_boundary_requires_communication(self):
        with pytest.raises(ValueError):
            BoundaryAccess("a", units=4, comm=Communication.NONE)

    def test_strided_rejects_subword_block(self):
        with pytest.raises(ValueError):
            StridedAccess("a", block_bytes=4)


class TestLoop:
    def test_effective_iterations_defaults_to_units(self):
        assert simple_loop(units=33).effective_iterations == 33

    def test_explicit_iterations_win(self):
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (PartitionedAccess("a", units=8),),
            iterations=50,
        )
        assert loop.effective_iterations == 50

    def test_array_names_deduplicated_in_order(self):
        loop = Loop(
            "l",
            LoopKind.PARALLEL,
            (
                PartitionedAccess("b", units=4),
                PartitionedAccess("a", units=4),
                WholeArrayAccess("b"),
                InstructionStream(footprint_bytes=1024),
            ),
        )
        assert loop.array_names() == ["b", "a"]

    def test_rejects_empty_accesses(self):
        with pytest.raises(ValueError):
            Loop("l", LoopKind.PARALLEL, ())


class TestProgram:
    def arrays(self):
        return (ArrayDecl("a", 1024), ArrayDecl("b", 1024))

    def test_rejects_duplicate_arrays(self):
        with pytest.raises(ValueError):
            Program(
                "p",
                (ArrayDecl("a", 64), ArrayDecl("a", 64)),
                (Phase("ph", (simple_loop(),)),),
            )

    def test_rejects_unknown_array_reference(self):
        with pytest.raises(ValueError):
            Program("p", self.arrays(), (Phase("ph", (simple_loop("zzz"),)),))

    def test_data_set_bytes(self):
        program = Program("p", self.arrays(), (Phase("ph", (simple_loop(),)),))
        assert program.data_set_bytes == 2048

    def test_array_lookup(self):
        program = Program("p", self.arrays(), (Phase("ph", (simple_loop(),)),))
        assert program.array("b").size_bytes == 1024
        with pytest.raises(KeyError):
            program.array("zzz")

    def test_scaled_shrinks_arrays_only(self):
        program = Program("p", self.arrays(), (Phase("ph", (simple_loop(),)),))
        scaled = program.scaled(4)
        assert scaled.array("a").size_bytes == 256
        assert scaled.phases == program.phases
        assert program.scaled(1) is program

    def test_scaled_shrinks_blocks_and_instruction_footprints(self):
        loop = Loop(
            "l",
            LoopKind.SEQUENTIAL,
            (
                StridedAccess("a", block_bytes=2048, sweeps=2.0),
                StridedAccess("b", block_bytes=512, is_write=True),
                InstructionStream(footprint_bytes=98304, sweeps=4.0),
            ),
        )
        program = Program("p", self.arrays(), (Phase("ph", (loop,)),))
        assert program.scaled(16).phases[0].loops[0].accesses == (
            StridedAccess("a", block_bytes=128, sweeps=2.0),
            # 512 // 16 = 32 bytes: cyclic blocks never shrink below 64.
            StridedAccess("b", block_bytes=64, is_write=True),
            InstructionStream(footprint_bytes=6144, sweeps=4.0),
        )

    def test_init_groups_default_one_group(self):
        program = Program("p", self.arrays(), (Phase("ph", (simple_loop(),)),))
        assert program.effective_init_groups() == (("a", "b"),)

    def test_init_groups_sequential(self):
        program = Program(
            "p",
            self.arrays(),
            (Phase("ph", (simple_loop(),)),),
            init_order=InitOrder.SEQUENTIAL,
        )
        assert program.effective_init_groups() == (("a",), ("b",))

    def test_explicit_init_groups_win(self):
        program = Program(
            "p",
            self.arrays(),
            (Phase("ph", (simple_loop(),)),),
            init_groups=(("b",), ("a",)),
        )
        assert program.effective_init_groups() == (("b",), ("a",))

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase("ph", ())
        with pytest.raises(ValueError):
            Phase("ph", (simple_loop(),), occurrences=0)
