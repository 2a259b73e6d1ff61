"""Tests for the text frontend (parse + round-trip)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Communication, Direction, Partitioning
from repro.compiler.frontend import FrontendError, format_program, parse_program
from repro.compiler.ir import (
    BoundaryAccess,
    InitOrder,
    InstructionStream,
    LoopKind,
    PartitionedAccess,
    StridedAccess,
    WholeArrayAccess,
)

EXAMPLE = """
# A red/black solver.
program redblack
sequential_fraction 0.02
init_groups (red black) (coeff)

array red 4194304
array black 4194304
array coeff 262144 element 4

phase sweep occurrences 10
  parallel loop relax ipw 5.0
    write red partitioned units 256
    read black partitioned units 256 blocked reverse fraction 0.5 sweeps 2.0
    read black boundary units 256 shift 1.0
    read coeff whole fraction 0.25
  suppressed loop tail ipw 3.0 tiled iterations 33
    read coeff strided block 2048 sweeps 2.0
    instr 98304 sweeps 2.0
"""


class TestParse:
    def test_program_header(self):
        program = parse_program(EXAMPLE)
        assert program.name == "redblack"
        assert program.sequential_fraction == 0.02
        assert program.init_groups == (("red", "black"), ("coeff",))

    def test_arrays(self):
        program = parse_program(EXAMPLE)
        assert [a.name for a in program.arrays] == ["red", "black", "coeff"]
        assert program.array("coeff").element_size == 4

    def test_phase_and_loops(self):
        program = parse_program(EXAMPLE)
        phase = program.phases[0]
        assert phase.occurrences == 10
        relax, tail = phase.loops
        assert relax.kind is LoopKind.PARALLEL
        assert relax.instructions_per_word == 5.0
        assert tail.kind is LoopKind.SUPPRESSED
        assert tail.tiled
        assert tail.iterations == 33

    def test_access_shapes(self):
        program = parse_program(EXAMPLE)
        relax = program.phases[0].loops[0]
        write_red, read_black, boundary, whole = relax.accesses
        assert isinstance(write_red, PartitionedAccess) and write_red.is_write
        assert read_black.partitioning is Partitioning.BLOCKED
        assert read_black.direction is Direction.REVERSE
        assert read_black.fraction == 0.5 and read_black.sweeps == 2.0
        assert isinstance(boundary, BoundaryAccess)
        assert boundary.comm is Communication.SHIFT
        assert isinstance(whole, WholeArrayAccess) and whole.fraction == 0.25
        tail = program.phases[0].loops[1]
        strided, instr = tail.accesses
        assert isinstance(strided, StridedAccess) and strided.block_bytes == 2048
        assert isinstance(instr, InstructionStream)
        assert instr.footprint_bytes == 98304

    def test_init_order_directive(self):
        program = parse_program(
            "program p\ninit_order sequential\narray a 4096\n"
            "phase q\n  parallel loop l\n    read a partitioned units 4\n"
        )
        assert program.init_order is InitOrder.SEQUENTIAL

    def test_comments_and_blank_lines_ignored(self):
        program = parse_program(
            "# header\nprogram p\n\narray a 4096  # bytes\n"
            "phase q occurrences 2\n  parallel loop l\n"
            "    read a partitioned units 4\n"
        )
        assert program.phases[0].occurrences == 2


class TestErrors:
    def error(self, text):
        with pytest.raises(FrontendError) as excinfo:
            parse_program(text)
        return str(excinfo.value)

    def test_missing_program_name(self):
        msg = self.error("array a 4096\nphase q\n  parallel loop l\n"
                         "    read a partitioned units 4\n")
        assert "program NAME" in msg

    def test_loop_outside_phase(self):
        msg = self.error("program p\narray a 4096\n  parallel loop l\n")
        assert "outside of a phase" in msg

    def test_access_outside_loop(self):
        msg = self.error("program p\narray a 4096\nphase q\n"
                         "    read a partitioned units 4\n")
        assert "outside of a loop" in msg

    def test_empty_loop(self):
        msg = self.error("program p\narray a 4096\nphase q\n"
                         "  parallel loop l\n  parallel loop m\n"
                         "    read a partitioned units 4\n")
        assert "no accesses" in msg

    def test_unknown_directive_reports_line(self):
        msg = self.error("program p\nfrobnicate 3\n")
        assert "line 2" in msg

    def test_unknown_access_shape(self):
        msg = self.error("program p\narray a 4096\nphase q\n"
                         "  parallel loop l\n    read a diagonal units 4\n")
        assert "unknown access shape" in msg

    def test_unclosed_group(self):
        msg = self.error("program p\ninit_groups (a b\narray a 4096\n"
                         "phase q\n  parallel loop l\n"
                         "    read a partitioned units 4\n")
        assert "unclosed" in msg

    def test_unknown_array_in_access_rejected_by_ir(self):
        msg = self.error("program p\narray a 4096\nphase q\n"
                         "  parallel loop l\n    read zzz partitioned units 4\n")
        assert "unknown array" in msg


class TestRoundTrip:
    def test_example_round_trips(self):
        program = parse_program(EXAMPLE)
        assert parse_program(format_program(program)) == program

    @pytest.mark.parametrize(
        "name",
        ["tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d",
         "apsi", "fpppp", "wave5"],
    )
    def test_every_workload_round_trips(self, name):
        from repro.workloads import get_workload

        program = get_workload(name).program
        assert parse_program(format_program(program)) == program


class TestWorkloadFiles:
    """``runfile`` on a packaged model file loads the registry's program."""

    @pytest.mark.parametrize(
        "name",
        ["tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d",
         "apsi", "fpppp", "wave5"],
    )
    def test_workload_file_matches_registry(self, name):
        import argparse
        import pathlib

        import repro.workloads
        from repro.__main__ import _file_program
        from repro.workloads import get_workload

        path = pathlib.Path(repro.workloads.__file__).with_name(f"{name}.workload")
        # What `runfile PATH --scale 16` simulates.
        program = _file_program(argparse.Namespace(file=str(path), scale=16))
        assert program == get_workload(name, 16).program

    def test_redblack_file_parses(self):
        import pathlib

        path = (pathlib.Path(__file__).parent.parent / "examples" /
                "workloads" / "redblack.workload")
        program = parse_program(path.read_text())
        assert program.name == "redblack"


# ----------------------------------------------------------------------
# Property-based round-trip over randomly generated programs


_names = st.sampled_from(["alpha", "beta", "gamma", "delta", "eps"])


@st.composite
def _accesses(draw, arrays):
    array = draw(st.sampled_from(arrays))
    kind = draw(st.integers(0, 4))
    write = draw(st.booleans())
    if kind == 0:
        return PartitionedAccess(
            array,
            units=draw(st.integers(1, 64)),
            is_write=write,
            partitioning=draw(st.sampled_from(list(Partitioning))),
            direction=draw(st.sampled_from(list(Direction))),
            fraction=draw(st.sampled_from([0.25, 0.5, 1.0])),
            sweeps=draw(st.sampled_from([1.0, 2.0, 3.5])),
        )
    if kind == 1:
        return BoundaryAccess(
            array,
            units=draw(st.integers(1, 64)),
            comm=draw(st.sampled_from(
                [Communication.SHIFT, Communication.ROTATE])),
            boundary_fraction=draw(st.sampled_from([0.125, 0.5, 1.0])),
            is_write=write,
        )
    if kind == 2:
        return StridedAccess(
            array,
            block_bytes=draw(st.sampled_from([64, 256, 2048])),
            is_write=write,
            sweeps=draw(st.sampled_from([1.0, 2.0])),
        )
    if kind == 3:
        return WholeArrayAccess(
            array,
            is_write=write,
            fraction=draw(st.sampled_from([0.5, 1.0])),
            sweeps=draw(st.sampled_from([1.0, 1.5])),
        )
    return InstructionStream(
        footprint_bytes=draw(st.sampled_from([1024, 65536])),
        sweeps=draw(st.sampled_from([1.0, 4.0])),
    )


@st.composite
def _programs(draw):
    from repro.compiler.ir import (
        ArrayDecl, InitOrder, Loop, LoopKind, Phase, Program,
    )

    names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    arrays = tuple(
        ArrayDecl(n, draw(st.sampled_from([4096, 65536, 1048576])))
        for n in names
    )
    phases = []
    for p in range(draw(st.integers(1, 3))):
        loops = []
        for l in range(draw(st.integers(1, 2))):
            accesses = tuple(
                draw(_accesses(list(names)))
                for _ in range(draw(st.integers(1, 3)))
            )
            loops.append(
                Loop(
                    f"loop{p}_{l}",
                    draw(st.sampled_from(list(LoopKind))),
                    accesses,
                    iterations=draw(st.one_of(st.none(), st.integers(1, 100))),
                    instructions_per_word=draw(st.sampled_from([2.0, 5.5])),
                    tiled=draw(st.booleans()),
                )
            )
        phases.append(
            Phase(f"phase{p}", tuple(loops),
                  occurrences=draw(st.integers(1, 20)),
                  miss_variation=draw(st.sampled_from([0.0, 0.25])))
        )
    return Program(
        name="generated",
        arrays=arrays,
        phases=tuple(phases),
        init_order=draw(st.sampled_from(list(InitOrder))),
        sequential_fraction=draw(st.sampled_from([0.0, 0.1])),
    )


class TestRoundTripProperty:
    @given(_programs())
    @settings(max_examples=60, deadline=None)
    def test_random_programs_round_trip(self, program):
        assert parse_program(format_program(program)) == program
