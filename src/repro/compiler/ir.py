"""Loop-nest intermediate representation.

A :class:`Program` is a set of :class:`ArrayDecl` plus a list of
:class:`Phase` objects; each phase repeats a list of :class:`Loop` objects
(the paper's phases, Section 3.2 — e.g. turb3d has four phases occurring
11, 66, 100 and 120 times in the steady state).  Each loop declares its
parallelism kind and how it touches each array.

Access declarations carry precisely the facts SUIF's analyses establish:

* :class:`PartitionedAccess` — the loop iterates over ``units`` chunks of
  the array, statically distributed across processors with an even or
  blocked partitioning, forward or reverse (Section 5.1 "Array
  Partitioning").  Each processor's chunk is contiguous in virtual memory
  (SUIF's data transformations make this so when possible).
* :class:`BoundaryAccess` — shift/rotate nearest-neighbour communication:
  each processor also reads a boundary strip of its neighbour's partition
  (Section 5.1 "Communication Patterns").
* :class:`StridedAccess` — the processor's elements are interleaved at a
  stride, i.e. *not* contiguous per processor.  The compiler cannot
  summarize these (this is the su2cor case), so CDPC skips them.
* :class:`WholeArrayAccess` — every participating processor reads the
  whole array (broadcast-style shared data).
* :class:`InstructionStream` — an instruction-fetch working set, used to
  model fpppp's instruction-cache-bound behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.common import Communication, Direction, Partitioning

__all__ = [
    "Access",
    "ArrayDecl",
    "BoundaryAccess",
    "Communication",
    "Direction",
    "InitOrder",
    "InstructionStream",
    "Loop",
    "LoopKind",
    "PartitionedAccess",
    "Partitioning",
    "Phase",
    "Program",
    "StridedAccess",
    "WholeArrayAccess",
]


class LoopKind(enum.Enum):
    """Execution mode, matching Figure 2's overhead taxonomy."""

    PARALLEL = "parallel"
    SEQUENTIAL = "sequential"  # not parallelizable; master runs, slaves idle
    SUPPRESSED = "suppressed"  # parallelizable but too fine-grained; master runs


@dataclass(frozen=True)
class ArrayDecl:
    """A statically-sized array in the shared address space."""

    name: str
    size_bytes: int
    element_size: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"array {self.name} must have positive size")
        if self.size_bytes % self.element_size:
            raise ValueError(f"array {self.name} size not a multiple of elements")

    def scaled(self, factor: int) -> "ArrayDecl":
        """Shrink by ``factor``, keeping at least one element."""
        size = max(self.element_size, (self.size_bytes // factor) // self.element_size * self.element_size)
        return ArrayDecl(self.name, size, self.element_size)


@dataclass(frozen=True)
class PartitionedAccess:
    """Contiguous per-processor access to ``units`` chunks of an array."""

    array: str
    units: int
    is_write: bool = False
    partitioning: Partitioning = Partitioning.EVEN
    direction: Direction = Direction.FORWARD
    sweeps: float = 1.0  # how many times the chunk is traversed per loop
    fraction: float = 1.0  # fraction of each chunk touched (tiling/working set)

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ValueError("units must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")


@dataclass(frozen=True)
class BoundaryAccess:
    """Nearest-neighbour communication on partition boundaries."""

    array: str
    units: int
    comm: Communication = Communication.SHIFT
    boundary_fraction: float = 0.05  # of the chunk size, read from neighbour
    is_write: bool = False
    partitioning: Partitioning = Partitioning.EVEN
    direction: Direction = Direction.FORWARD

    def __post_init__(self) -> None:
        if self.comm is Communication.NONE:
            raise ValueError("boundary access requires a communication kind")
        if not 0.0 < self.boundary_fraction <= 1.0:
            raise ValueError("boundary_fraction must be in (0, 1]")


@dataclass(frozen=True)
class StridedAccess:
    """Cyclic/interleaved access: processor p touches every p-th block.

    The per-processor footprint is spread across the whole array, which is
    what defeats CDPC's contiguity objective for su2cor.
    """

    array: str
    block_bytes: int
    is_write: bool = False
    sweeps: float = 1.0

    def __post_init__(self) -> None:
        if self.block_bytes < 8:
            raise ValueError("block_bytes must be at least one word")


@dataclass(frozen=True)
class WholeArrayAccess:
    """Every participating processor reads the entire array."""

    array: str
    is_write: bool = False
    sweeps: float = 1.0
    fraction: float = 1.0


@dataclass(frozen=True)
class InstructionStream:
    """An instruction-fetch footprint cycled once per loop execution."""

    footprint_bytes: int
    sweeps: float = 1.0


Access = Union[
    PartitionedAccess, BoundaryAccess, StridedAccess, WholeArrayAccess, InstructionStream
]


@dataclass(frozen=True)
class Loop:
    """One (possibly parallel) loop nest."""

    name: str
    kind: LoopKind
    accesses: tuple[Access, ...]
    iterations: Optional[int] = None  # for load-imbalance math; defaults below
    instructions_per_word: float = 2.0  # compute density per data word touched
    tiled: bool = False  # tiling inhibits prefetch software pipelining (applu)

    def __post_init__(self) -> None:
        if not self.accesses:
            raise ValueError(f"loop {self.name} has no accesses")

    @property
    def effective_iterations(self) -> int:
        """Iteration count used for scheduling and load-imbalance."""
        if self.iterations is not None:
            return self.iterations
        for access in self.accesses:
            if isinstance(access, (PartitionedAccess, BoundaryAccess)):
                return access.units
        return 1

    def array_names(self) -> list[str]:
        names = []
        for access in self.accesses:
            array = getattr(access, "array", None)
            if array is not None and array not in names:
                names.append(array)
        return names


@dataclass(frozen=True)
class Phase:
    """A steady-state phase: a loop sequence with an occurrence count.

    ``miss_variation`` models data-dependent behaviour that differs
    between occurrences of the same phase (the paper found one wave5
    phase whose miss rate varies by 30% across occurrences, Section 3.2):
    each occurrence perturbs the phase's working-set fractions by up to
    this relative amount, deterministically per occurrence index.
    """

    name: str
    loops: tuple[Loop, ...]
    occurrences: int = 1
    miss_variation: float = 0.0

    def __post_init__(self) -> None:
        if self.occurrences < 1:
            raise ValueError("occurrences must be >= 1")
        if not self.loops:
            raise ValueError(f"phase {self.name} has no loops")
        if not 0.0 <= self.miss_variation < 1.0:
            raise ValueError("miss_variation must be in [0, 1)")


class InitOrder(enum.Enum):
    """Order in which pages first fault during initialization.

    Determines what bin hopping's fault-order coloring produces: a
    sequential init gives VA-order colors (like page coloring), while
    interleaving the init across arrays decorrelates array bases in the
    cache — which is why neither static policy dominates (Section 7).
    """

    SEQUENTIAL = "sequential"
    INTERLEAVED = "interleaved"
    GROUPED = "grouped"  # interleaved within init groups, groups sequential


@dataclass(frozen=True)
class Program:
    """A whole application: arrays, steady-state phases, and structure facts."""

    name: str
    arrays: tuple[ArrayDecl, ...]
    phases: tuple[Phase, ...]
    init_order: InitOrder = InitOrder.GROUPED
    #: Arrays initialized together (same init loop); defaults to one group of all.
    init_groups: tuple[tuple[str, ...], ...] = ()
    #: Fraction of steady-state time in unparallelizable code (Figure 2).
    sequential_fraction: float = 0.0

    def __post_init__(self) -> None:
        names = [a.name for a in self.arrays]
        if len(set(names)) != len(names):
            raise ValueError("duplicate array names")
        known = set(names)
        for phase in self.phases:
            for loop in phase.loops:
                for array in loop.array_names():
                    if array not in known:
                        raise ValueError(
                            f"loop {loop.name} references unknown array {array}"
                        )

    @property
    def data_set_bytes(self) -> int:
        return sum(a.size_bytes for a in self.arrays)

    def array(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(name)

    def group_pairs(self) -> list[tuple[str, str]]:
        """Array pairs accessed in a common loop, for the layout pass.

        First-seen order, one entry per unordered pair: the padding pass
        offsets each pair's bases so they do not collide in the L1.
        """
        pairs: list[tuple[str, str]] = []
        seen: set[frozenset[str]] = set()
        for phase in self.phases:
            for loop in phase.loops:
                names = loop.array_names()
                for i, a in enumerate(names):
                    for b in names[i + 1 :]:
                        key = frozenset((a, b))
                        if key not in seen:
                            seen.add(key)
                            pairs.append((a, b))
        return pairs

    def effective_init_groups(self) -> tuple[tuple[str, ...], ...]:
        if self.init_groups:
            return self.init_groups
        if self.init_order is InitOrder.SEQUENTIAL:
            return tuple((a.name,) for a in self.arrays)
        return (tuple(a.name for a in self.arrays),)

    def scaled(self, factor: int) -> "Program":
        """Shrink every array by ``factor`` (phases unchanged)."""
        if factor == 1:
            return self
        return Program(
            name=self.name,
            arrays=tuple(a.scaled(factor) for a in self.arrays),
            phases=self.phases,
            init_order=self.init_order,
            init_groups=self.init_groups,
            sequential_fraction=self.sequential_fraction,
        )
