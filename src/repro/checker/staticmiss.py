"""Symbolic cache-conflict analysis: static miss prediction and plan proof.

The paper's premise is that the compiler knows the per-processor footprint
of every parallel loop precisely enough to *direct* page coloring.  This
module closes the evaluation loop: instead of simulating a color plan to
score it, it computes the plan's cache behaviour symbolically from the
same declarative access summaries the simulator's trace generator
consumes.

Three layers, bottom to top:

1. **Footprint engine** — :func:`program_image` mirrors
   :mod:`repro.sim.tracegen` exactly (same stride, tiling, scheduling and
   boundary-strip arithmetic) but produces arithmetic *progressions*
   instead of materialized address arrays, then reduces them to exact
   per-line reference/visit counts per (CPU, loop).  The hypothesis suite
   in ``tests/test_staticmiss_properties.py`` cross-checks this against
   brute-force enumeration of the real trace generator.
2. **Plan verifier** — :func:`derive_static_plan` reproduces each mapping
   policy's page->color function without running the OS model (including
   bin hopping's jittered fault-order counter), and :func:`verify_plan`
   computes per-(CPU, color, line) page-bin occupancy.  Occupancy within
   the cache's associativity *proves* the plan conflict-free for the
   summarized accesses; any overflow yields a :class:`ConflictWitness`
   that :func:`replay_witness` reproduces on the real
   :class:`~repro.machine.memory_system.MemorySystem`.
3. **Miss predictor** — :func:`predict_program` runs a per-set symbolic
   cache simulation over line *visits* (reference runs, the unit that
   reaches the external cache through the on-chip filter) and emits a
   :class:`StaticMissProfile`: cold / conflict / capacity / sharing
   estimates with explicit ``[lo, hi]`` intervals whose half-width is the
   self-reported error bound checked by ``EngineOptions.static_check``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.compiler.ir import (
    BoundaryAccess,
    InstructionStream,
    Loop,
    LoopKind,
    PartitionedAccess,
    Phase,
    Program,
    StridedAccess,
    WholeArrayAccess,
)
from repro.compiler.padding import Layout
from repro.compiler.parallelize import LoopSchedule, schedule_loop
from repro.core.coloring import ColoringResult
from repro.machine.config import MachineConfig
from repro.machine.stats import MissKind
from repro.sim.tracegen import INSTRUCTION_BASE, SimProfile, occurrence_scale

__all__ = [
    "ConflictHotspot",
    "ConflictWitness",
    "LineTouch",
    "LoopImage",
    "MissEstimate",
    "PlanVerification",
    "Progression",
    "ProgramImage",
    "StaticCheckError",
    "StaticConflictSummary",
    "StaticMissProfile",
    "StaticPlan",
    "conflict_summary",
    "derive_frame_budget",
    "derive_static_plan",
    "instruction_pages",
    "loop_line_touches",
    "predict_program",
    "predict_workload",
    "program_image",
    "replay_witness",
    "verify_plan",
]


# ---------------------------------------------------------------------------
# Footprint engine


@dataclass(frozen=True)
class Progression:
    """Addresses ``start + k*step`` for ``0 <= k < count`` (bytes)."""

    start: int
    step: int
    count: int

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.count < 0:
            raise ValueError("count must be non-negative")

    @property
    def last(self) -> int:
        return self.start + (self.count - 1) * self.step

    def count_below(self, limit: int) -> int:
        """Number of elements with address < ``limit``."""
        if self.count == 0 or limit <= self.start:
            return 0
        return min(self.count, (limit - 1 - self.start) // self.step + 1)

    def count_in(self, lo: int, hi: int) -> int:
        """Number of elements with ``lo <= address < hi``."""
        if self.count == 0 or hi <= lo:
            return 0
        if lo <= self.start:
            kmin = 0
        else:
            kmin = -(-(lo - self.start) // self.step)
        kmax = min(self.count - 1, (hi - 1 - self.start) // self.step)
        return max(0, kmax - kmin + 1)


def _bulk_progression(start: int, nbytes: int, stride: int) -> list[Progression]:
    """Mirror of ``tracegen._bulk_addresses`` in progression form."""
    if nbytes <= 0:
        return []
    count = -(-nbytes // stride)
    return [Progression(start, stride, count)]


def _unit_range(
    schedule: LoopSchedule, units: int, cpu: int
) -> tuple[int, int]:
    """Mirror of ``tracegen._unit_range``."""
    lo, hi = schedule.ranges[cpu]
    total = max(1, schedule.loop.effective_iterations)
    if units == total:
        return lo, hi
    scale = units / total
    return int(lo * scale), int(hi * scale)


def _boundary_progressions(
    access: BoundaryAccess,
    layout: Layout,
    schedule: LoopSchedule,
    cpu: int,
    config: MachineConfig,
) -> list[Progression]:
    """Mirror of the BoundaryAccess branch of ``tracegen._access_stream``."""
    from repro.sim.tracegen import _is_upper, _neighbour_list

    base = layout.base_of(access.array)
    size = layout.sizes[access.array]
    num_cpus = schedule.num_cpus
    unit = max(1, size // access.units)
    boundary = max(config.word_size, int(unit * access.boundary_fraction))
    ranges: list[tuple[int, int]] = []
    for other in range(num_cpus):
        lo_u, hi_u = _unit_range(schedule, access.units, other)
        lo = base + lo_u * unit
        hi = min(base + hi_u * unit, base + size)
        ranges.append((lo, max(lo, hi)))
    progs: list[Progression] = []
    for nb in _neighbour_list(access.comm, cpu, num_cpus):
        n_lo, n_hi = ranges[nb]
        if n_hi <= n_lo:
            continue
        if _is_upper(cpu, nb, num_cpus, access.comm):
            strip = (n_lo, min(n_lo + boundary, n_hi))
        else:
            strip = (max(n_hi - boundary, n_lo), n_hi)
        progs.extend(
            _bulk_progression(strip[0], strip[1] - strip[0], config.word_size)
        )
    return progs


@dataclass(frozen=True)
class StreamImage:
    """One access's reference stream on one processor, in symbolic form.

    ``progs`` is one untiled pass; tiling repeats it ``whole`` times plus
    a prefix of ``prefix_elems`` elements, exactly like ``tracegen._tile``.
    """

    array: Optional[str]  # None for instruction streams
    is_write: bool
    is_instr: bool
    progs: tuple[Progression, ...]
    whole: int
    prefix_elems: int

    @property
    def pass_elems(self) -> int:
        return sum(p.count for p in self.progs)

    @property
    def total_refs(self) -> int:
        return self.pass_elems * self.whole + self.prefix_elems


def _tile_counts(pass_elems: int, sweeps: float) -> tuple[int, int]:
    """Mirror of ``tracegen._tile``: (whole copies, fractional prefix)."""
    if sweeps <= 0 or pass_elems == 0:
        return 0, 0
    whole = int(sweeps)
    frac = sweeps - whole
    prefix = int(pass_elems * frac) if frac > 0 else 0
    return whole, prefix


def access_stream_image(
    access: object,
    layout: Layout,
    schedule: LoopSchedule,
    cpu: int,
    config: MachineConfig,
    profile: SimProfile,
    fraction_scale: float = 1.0,
) -> StreamImage:
    """Symbolic mirror of ``tracegen._access_stream`` for one access."""
    stride = profile.stride_for(config)

    if isinstance(access, InstructionStream):
        sweeps = min(access.sweeps, profile.sweep_limit)
        fetch_stride = max(4, config.l1i.line_size // 2)
        base = INSTRUCTION_BASE + 173 * config.page_size
        progs = _bulk_progression(base, access.footprint_bytes, fetch_stride)
        whole, prefix = _tile_counts(sum(p.count for p in progs), sweeps)
        return StreamImage(None, False, True, tuple(progs), whole, prefix)

    if isinstance(access, PartitionedAccess):
        base = layout.base_of(access.array)
        size = layout.sizes[access.array]
        unit = max(1, size // access.units)
        lo_u, hi_u = _unit_range(schedule, access.units, cpu)
        chunk = min((hi_u - lo_u) * unit, size - lo_u * unit)
        fraction = min(1.0, max(1e-6, access.fraction * fraction_scale))
        touched = int(chunk * fraction)
        sweeps = min(access.sweeps, profile.sweep_limit)
        progs = _bulk_progression(base + lo_u * unit, touched, stride)
        whole, prefix = _tile_counts(sum(p.count for p in progs), sweeps)
        return StreamImage(
            access.array, access.is_write, False, tuple(progs), whole, prefix
        )

    if isinstance(access, BoundaryAccess):
        progs = _boundary_progressions(access, layout, schedule, cpu, config)
        # Boundary strips are generated untiled (one pass, no sweeps).
        return StreamImage(
            access.array,
            access.is_write,
            False,
            tuple(progs),
            1,
            0,
        )

    if isinstance(access, StridedAccess):
        base = layout.base_of(access.array)
        size = layout.sizes[access.array]
        block = access.block_bytes
        nblocks = size // block
        inner_count = -(-block // stride) if block > 0 else 0
        progs = [
            Progression(base + m * block, stride, inner_count)
            for m in range(cpu, nblocks, schedule.num_cpus)
        ]
        sweeps = min(access.sweeps, profile.sweep_limit) * fraction_scale
        whole, prefix = _tile_counts(sum(p.count for p in progs), sweeps)
        return StreamImage(
            access.array, access.is_write, False, tuple(progs), whole, prefix
        )

    if isinstance(access, WholeArrayAccess):
        base = layout.base_of(access.array)
        size = layout.sizes[access.array]
        fraction = min(1.0, max(1e-6, access.fraction * fraction_scale))
        touched = int(size * fraction)
        sweeps = min(access.sweeps, profile.sweep_limit)
        progs = _bulk_progression(base, touched, stride)
        whole, prefix = _tile_counts(sum(p.count for p in progs), sweeps)
        return StreamImage(
            access.array, access.is_write, False, tuple(progs), whole, prefix
        )

    raise TypeError(f"unknown access type: {type(access)!r}")


class LineTouch:
    """Per-(CPU, loop) accounting for one external-cache line.

    ``refs`` counts individual references; ``visits`` counts contiguous
    runs through the line (one per stream pass), which is the number of
    times the line can reach the external cache through the on-chip
    filter per loop execution.
    """

    __slots__ = ("refs", "visits", "streams", "written", "instr")

    def __init__(self) -> None:
        self.refs = 0
        self.visits = 0
        self.streams = 0
        self.written = False
        self.instr = False


def _accumulate_stream_lines(
    stream: StreamImage, line_size: int, lines: dict[int, LineTouch]
) -> None:
    """Fold one stream's exact per-line reference/visit counts into ``lines``.

    Each pass walks every progression in order; the fractional prefix
    pass stops after the stream's first ``prefix_elems`` elements.  A
    line holding elements ``[k, end)`` of a progression gets
    ``(end - k) * whole`` references from the whole passes, one visit per
    whole pass, and one more visit (with its prefix elements) when the
    prefix pass reaches it.
    """
    whole = stream.whole
    prefix_elems = stream.prefix_elems
    if whole == 0 and prefix_elems == 0:
        return
    is_write = stream.is_write
    is_instr = stream.is_instr
    # A progression's lines are distinct, so only a stream of several
    # progressions can reach one line twice and count it as one stream.
    touched: Optional[set[int]] = set() if len(stream.progs) > 1 else None
    offset = 0  # stream-wide index of the progression's first element
    for prog in stream.progs:
        count = prog.count
        start = prog.start
        step = prog.step
        in_prefix = max(0, min(count, prefix_elems - offset))
        offset += count
        # Without whole passes, lines past the prefix are never touched.
        limit = count if whole else in_prefix
        k = 0
        while k < limit:
            addr = start + k * step
            laddr = addr - addr % line_size
            end = (laddr + line_size - 1 - start) // step + 1
            if end > count:
                end = count
            refs = (end - k) * whole
            visits = whole
            if k < in_prefix:
                refs += (end if end < in_prefix else in_prefix) - k
                visits += 1
            k = end
            info = lines.get(laddr)
            if info is None:
                info = lines[laddr] = LineTouch()
            info.refs += refs
            info.visits += visits
            if touched is None:
                info.streams += 1
            elif laddr not in touched:
                touched.add(laddr)
                info.streams += 1
            if is_write:
                info.written = True
            if is_instr:
                info.instr = True


@dataclass
class LoopImage:
    """All processors' symbolic footprints for one loop execution."""

    phase: str
    loop: str
    weight: int
    streams: list[list[StreamImage]]  # [cpu][stream]
    lines: list[dict[int, LineTouch]]  # [cpu] -> line addr -> touch counts

    def total_refs(self, cpu: int) -> int:
        return sum(s.total_refs for s in self.streams[cpu])


def loop_line_touches(
    loop: Loop,
    schedule: LoopSchedule,
    layout: Layout,
    config: MachineConfig,
    profile: SimProfile,
    fraction_scale: float = 1.0,
) -> list[dict[int, LineTouch]]:
    """Exact per-line reference/visit counts per CPU for one loop.

    Mirrors :func:`repro.sim.tracegen.loop_traces`: non-PARALLEL loops run
    on processor 0 only; stream merging changes reference order but not
    footprints, so it is not modeled here.
    """
    num_cpus = schedule.num_cpus
    active = range(num_cpus) if loop.kind is LoopKind.PARALLEL else [0]
    line = config.l2.line_size
    result: list[dict[int, LineTouch]] = []
    for cpu in range(num_cpus):
        lines: dict[int, LineTouch] = {}
        if cpu in active:
            for access in loop.accesses:
                stream = access_stream_image(
                    access, layout, schedule, cpu, config, profile, fraction_scale
                )
                _accumulate_stream_lines(stream, line, lines)
        result.append(lines)
    return result


@dataclass
class ProgramImage:
    """Symbolic footprints of a whole program's steady-state cycle.

    ``loops`` is the flattened (phase, loop) sequence of the representative
    execution window, each with exact per-CPU line-touch maps at the given
    occurrence index.
    """

    program: Program
    layout: Layout
    config: MachineConfig
    num_cpus: int
    profile: SimProfile
    occurrence: int
    loops: list[LoopImage]

    def cycle_lines(self, cpu: int) -> dict[int, LineTouch]:
        """Cycle-wide merged line touches for one processor."""
        merged: dict[int, LineTouch] = {}
        for image in self.loops:
            for laddr, touch in image.lines[cpu].items():
                info = merged.get(laddr)
                if info is None:
                    info = LineTouch()
                    merged[laddr] = info
                info.refs += touch.refs
                info.visits += touch.visits
                info.streams += touch.streams
                info.written = info.written or touch.written
                info.instr = info.instr or touch.instr
        return merged


def program_image(
    program: Program,
    layout: Layout,
    config: MachineConfig,
    num_cpus: int,
    profile: Optional[SimProfile] = None,
    occurrence: int = 1,
) -> ProgramImage:
    """Build the symbolic footprint of every loop in the steady-state cycle."""
    prof = profile if profile is not None else SimProfile()
    loops: list[LoopImage] = []
    for phase in program.phases:
        scale = occurrence_scale(phase.miss_variation, occurrence, phase.name)
        for loop in phase.loops:
            schedule = schedule_loop(loop, num_cpus)
            active = (
                range(num_cpus) if loop.kind is LoopKind.PARALLEL else [0]
            )
            streams: list[list[StreamImage]] = []
            lines: list[dict[int, LineTouch]] = []
            for cpu in range(num_cpus):
                cpu_streams: list[StreamImage] = []
                cpu_lines: dict[int, LineTouch] = {}
                if cpu in active:
                    for access in loop.accesses:
                        stream = access_stream_image(
                            access, layout, schedule, cpu, config, prof, scale
                        )
                        cpu_streams.append(stream)
                        _accumulate_stream_lines(
                            stream, config.l2.line_size, cpu_lines
                        )
                streams.append(cpu_streams)
                lines.append(cpu_lines)
            loops.append(
                LoopImage(
                    phase=phase.name,
                    loop=loop.name,
                    weight=phase.occurrences,
                    streams=streams,
                    lines=lines,
                )
            )
    return ProgramImage(
        program=program,
        layout=layout,
        config=config,
        num_cpus=num_cpus,
        profile=prof,
        occurrence=occurrence,
        loops=loops,
    )


# ---------------------------------------------------------------------------
# Static color plans


def instruction_pages(program: Program, config: MachineConfig) -> list[int]:
    """Virtual pages of the instruction footprint, in fault (ascending) order."""
    footprint = 0
    for phase in program.phases:
        for loop in phase.loops:
            for access in loop.accesses:
                if isinstance(access, InstructionStream):
                    footprint = max(footprint, access.footprint_bytes)
    if footprint == 0:
        return []
    psz = config.page_size
    base = INSTRUCTION_BASE + 173 * psz
    first = base // psz
    last = (base + footprint - 1) // psz
    return list(range(first, last + 1))


def derive_frame_budget(
    program: Program, layout: Layout, config: MachineConfig
) -> int:
    """Mirror of the engine's ``_frame_budget`` (3x footprint, color cycles)."""
    psz = config.page_size
    data_pages = -(-layout.total_bytes // psz)
    instr_bytes = 0
    for phase in program.phases:
        for loop in phase.loops:
            for access in loop.accesses:
                if isinstance(access, InstructionStream):
                    instr_bytes = max(instr_bytes, access.footprint_bytes)
    pages = data_pages + -(-instr_bytes // psz)
    colors = config.num_colors
    return max(colors * 4, -(-pages * 3 // colors) * colors)


@dataclass(frozen=True)
class StaticPlan:
    """A page->color function derived without running the OS model."""

    policy: str
    num_colors: int
    #: Explicit page colors; pages absent here fall back to ``vpage % C``
    #: (the page-coloring / CDPC-fallback rule).
    colors: dict[int, int] = field(default_factory=dict)
    #: Pages whose preferred color's frame pool is overcommitted under the
    #: engine's 3x frame budget; their realized color may spiral to a
    #: neighbour, so predictions widen their bounds.
    overflow_pages: tuple[int, ...] = ()

    def color_of(self, vpage: int) -> int:
        color = self.colors.get(vpage)
        if color is not None:
            return color
        return vpage % self.num_colors

    def to_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "num_colors": self.num_colors,
            "explicit_pages": len(self.colors),
            "overflow_pages": list(self.overflow_pages),
        }


def _init_pages_order(program: Program, layout: Layout, psz: int) -> list[int]:
    """Mirror of the engine's ``init_pages_order`` (without jitter)."""
    order: list[int] = []
    for group in program.effective_init_groups():
        page_lists = [list(layout.pages(name, psz)) for name in group]
        longest = max(len(pages) for pages in page_lists) if page_lists else 0
        for index in range(longest):
            for pages in page_lists:
                if index < len(pages):
                    order.append(pages[index])
    return order


def _jitter_order(order: list[int], window: int, seed: int) -> list[int]:
    """Mirror of the engine's ``_jitter``: windowed shuffles of the order.

    The engine seeds ``random.Random(options.seed)`` at construction and
    consumes it first (and only) here, so the same seed reproduces the
    same jittered fault order.
    """
    rng = random.Random(seed)
    result = list(order)
    for start in range(0, len(result), window):
        chunk = result[start : start + window]
        rng.shuffle(chunk)
        result[start : start + window] = chunk
    return result


def derive_static_plan(
    program: Program,
    layout: Layout,
    config: MachineConfig,
    *,
    policy: str = "page_coloring",
    cdpc: bool = False,
    coloring: Optional[ColoringResult] = None,
    seed: int = 0,
    init_jitter: int = 4,
) -> StaticPlan:
    """Derive the page->color function a run would realize.

    Supports the three policies of the paper's evaluation:

    * ``page_coloring`` — closed form ``vpage % C``;
    * ``bin_hopping`` — the global fault-order counter replayed over the
      jittered initialization order (data pages) and the ascending warmup
      fault order (instruction pages); requires a deterministic run
      (``race_seed=None``);
    * CDPC (``cdpc=True``) — over ``page_coloring``, the
      :class:`ColoringResult` hint table (madvise delivery) with the
      closed-form fallback for unhinted pages; over ``bin_hopping``,
      *touch* delivery — the runtime pre-faults ``coloring.page_order``
      so the cycling kernel counter realizes the k-th touched page's
      color as ``k mod C``, and the counter keeps cycling from
      ``len(page_order) mod C`` for every later (unhinted) fault.
    """
    num_colors = config.num_colors
    psz = config.page_size
    instr = instruction_pages(program, config)
    colors: dict[int, int] = {}
    counter = 0

    if policy not in ("page_coloring", "bin_hopping"):
        raise ValueError(f"unknown mapping policy {policy!r}")
    if cdpc:
        if coloring is None:
            raise ValueError("cdpc plan derivation requires a ColoringResult")
        label = "cdpc"
        if policy == "bin_hopping":
            touched = list(coloring.page_order)
            colors = {
                vpage: index % num_colors
                for index, vpage in enumerate(touched)
            }
            counter = len(touched)
        else:
            colors = dict(coloring.colors)
    else:
        label = policy
    if policy == "bin_hopping":
        order = _init_pages_order(program, layout, psz)
        if init_jitter > 1:
            order = _jitter_order(order, init_jitter, seed)
        for vpage in order:
            if vpage in colors:
                continue  # hinted or already faulted: the counter stays put
            colors[vpage] = counter % num_colors
            counter += 1
        for vpage in instr:  # faulted in ascending order during warmup
            if vpage not in colors:
                colors[vpage] = counter % num_colors
                counter += 1

    # Frame-pool overcommit check: the engine's budget gives each color
    # budget // C frames; demand above that spirals to neighbour colors.
    budget = derive_frame_budget(program, layout, config)
    supply = budget // num_colors
    demand: dict[int, list[int]] = {}
    data_pages = _init_pages_order(program, layout, psz)
    for vpage in dict.fromkeys(data_pages + instr):
        color = colors.get(vpage, vpage % num_colors)
        demand.setdefault(color, []).append(vpage)
    overflow: list[int] = []
    for color, pages in demand.items():
        if len(pages) > supply:
            overflow.extend(pages[supply:])
    return StaticPlan(
        policy=label,
        num_colors=num_colors,
        colors=colors,
        overflow_pages=tuple(sorted(overflow)),
    )


# ---------------------------------------------------------------------------
# Plan verification


@dataclass(frozen=True)
class ConflictWitness:
    """A proven cache-set overflow under a color plan.

    ``pages`` all contain a touched line with index ``line_index`` and
    all map to ``color``: more than ``associativity`` distinct lines
    compete for one external-cache set of processor ``cpu``.
    """

    cpu: int
    color: int
    line_index: int
    pages: tuple[int, ...]
    arrays: tuple[str, ...]
    excess: int
    phase: Optional[str] = None
    loop: Optional[str] = None

    def to_dict(self) -> dict[str, object]:
        return {
            "cpu": self.cpu,
            "color": self.color,
            "line_index": self.line_index,
            "pages": list(self.pages),
            "arrays": list(self.arrays),
            "excess": self.excess,
            "phase": self.phase,
            "loop": self.loop,
        }


@dataclass
class PlanVerification:
    """Outcome of :func:`verify_plan` for one plan on one machine."""

    conflict_free: bool
    witnesses: list[ConflictWitness] = field(default_factory=list)
    loop_witnesses: list[ConflictWitness] = field(default_factory=list)
    max_occupancy: int = 0
    sets_checked: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "conflict_free": self.conflict_free,
            "max_occupancy": self.max_occupancy,
            "sets_checked": self.sets_checked,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "loop_witnesses": [w.to_dict() for w in self.loop_witnesses],
        }


_WITNESS_CAP = 32


def _set_id(laddr: int, psz: int, line: int, lpp: int, plan: StaticPlan) -> int:
    """Symbolic cache-set id: ``color * lines_per_page + line_index``.

    This is a relabeling of the machine's physical set index, valid on
    every geometry: ``ColorFunction.set_of`` maps ``(color, k)`` pairs
    bijectively onto the global external-cache sets, so equality of
    ``_set_id`` is equality of the physical set, which is all the
    symbolic simulation depends on.
    """
    vpage = laddr // psz
    k = (laddr % psz) // line
    return plan.color_of(vpage) * lpp + k


@dataclass
class _CpuSets:
    """One processor's steady-state cycle grouped by external-cache set.

    Sets carry :func:`_set_id`'s symbolic ``color * lines_per_page + k``
    labels.  ``events[sid]`` lists, in loop order, every loop execution
    that touches the set as ``(loop index, [(line addr, touch), ...])``;
    ``population[sid]`` counts the set's distinct lines over the cycle.
    Both dicts keep the order in which the cycle first touches each set.
    """

    events: dict[int, list[tuple[int, list[tuple[int, LineTouch]]]]]
    population: dict[int, int]


def _group_sets(image: ProgramImage, plan: StaticPlan, cpu: int) -> _CpuSets:
    """Group one processor's line touches by set, computing each line's set once."""
    config = image.config
    psz = config.page_size
    line = config.l2.line_size
    lpp = psz // line
    line_sid: dict[int, int] = {}
    events: dict[int, list[tuple[int, list[tuple[int, LineTouch]]]]] = {}
    population: dict[int, int] = {}
    for j, loop_image in enumerate(image.loops):
        for laddr, touch in loop_image.lines[cpu].items():
            sid = line_sid.get(laddr)
            if sid is None:
                sid = line_sid[laddr] = _set_id(laddr, psz, line, lpp, plan)
                population[sid] = population.get(sid, 0) + 1
            set_events = events.get(sid)
            if set_events is None:
                events[sid] = [(j, [(laddr, touch)])]
            elif set_events[-1][0] == j:
                set_events[-1][1].append((laddr, touch))
            else:
                set_events.append((j, [(laddr, touch)]))
    return _CpuSets(events, population)


def _witness(
    image: ProgramImage,
    cpu: int,
    sid: int,
    excess: int,
    touch_lists: list[list[tuple[int, LineTouch]]],
    loop_image: Optional[LoopImage] = None,
) -> ConflictWitness:
    """The witness for one overflowing set, naming its pages' arrays."""
    psz = image.config.page_size
    color, k = divmod(sid, psz // image.config.l2.line_size)
    pages = tuple(
        sorted({laddr // psz for touches in touch_lists for laddr, _ in touches})
    )
    arrays: list[str] = []
    for vpage in pages:
        vaddr = vpage * psz
        if vaddr >= INSTRUCTION_BASE:
            name = "instructions"
        else:
            name = image.layout.array_at(vaddr) or "other"
        if name not in arrays:
            arrays.append(name)
    return ConflictWitness(
        cpu=cpu,
        color=color,
        line_index=k,
        pages=pages,
        arrays=tuple(arrays),
        excess=excess,
        phase=None if loop_image is None else loop_image.phase,
        loop=None if loop_image is None else loop_image.loop,
    )


def _verify_sets(image: ProgramImage, groups: list[_CpuSets]) -> PlanVerification:
    """:func:`verify_plan` over per-processor set groupings.

    Overflowing sets are ranked by ``(-excess, cpu, color, line_index)``,
    loop-scoped overflows of one set then by loop order, and only the
    first ``_WITNESS_CAP`` of each list become witnesses.  The set label
    ``color * lines_per_page + line_index`` orders like
    ``(color, line_index)``, so it stands in for the pair in the keys.
    """
    assoc = image.config.l2.associativity
    cycle: list[tuple[int, int, int]] = []  # (-excess, cpu, sid)
    looped: list[tuple[int, int, int, int]] = []  # (-excess, cpu, sid, loop)
    max_occ = 0
    sets_checked = 0
    for cpu, sets in enumerate(groups):
        sets_checked += len(sets.population)
        for sid, events in sets.events.items():
            occ = sets.population[sid]
            max_occ = max(max_occ, occ)
            if occ > assoc:
                cycle.append((assoc - occ, cpu, sid))
            for j, touches in events:
                if len(touches) > assoc:
                    looped.append((assoc - len(touches), cpu, sid, j))
    cycle.sort()
    looped.sort()
    witnesses = [
        _witness(
            image,
            cpu,
            sid,
            -neg_excess,
            [touches for _j, touches in groups[cpu].events[sid]],
        )
        for neg_excess, cpu, sid in cycle[:_WITNESS_CAP]
    ]
    loop_witnesses = [
        _witness(
            image,
            cpu,
            sid,
            -neg_excess,
            [dict(groups[cpu].events[sid])[j]],
            image.loops[j],
        )
        for neg_excess, cpu, sid, j in looped[:_WITNESS_CAP]
    ]
    return PlanVerification(
        conflict_free=not cycle,
        witnesses=witnesses,
        loop_witnesses=loop_witnesses,
        max_occupancy=max_occ,
        sets_checked=sets_checked,
    )


def verify_plan(
    image: ProgramImage, plan: StaticPlan
) -> PlanVerification:
    """Prove a plan conflict-free for the summarized accesses, or refute it.

    A plan is *conflict-free* when no processor's steady-state cycle maps
    more distinct cache lines to any external-cache set than the cache's
    associativity can hold simultaneously.  Every overflow produces a
    :class:`ConflictWitness`; loop-scoped witnesses (overflow within a
    single loop execution, the immediately thrashing case) are reported
    separately.

    Binning by the ``(color, line-index)`` set label is exact on every
    geometry, not just the classic bit-field: a
    :class:`~repro.machine.hierarchy.ColorFunction` maps each
    ``(color, line-index)`` pair to a distinct external-cache set
    (``set_of`` is a bijection onto the sets), so two lines collide in
    the cache iff they share a bin.  Sliced XOR-hashed LLCs satisfy this
    because their hash is GF(2)-linear in the frame number.  Within one
    bin, distinct lines lie on distinct pages, so a bin's line count is
    its page occupancy.
    """
    groups = [_group_sets(image, plan, cpu) for cpu in range(image.num_cpus)]
    return _verify_sets(image, groups)


@dataclass(frozen=True)
class ConflictHotspot:
    """A data-page occupancy overflow judged against the balanced load.

    ``balanced`` is the occupancy a perfectly spread plan would put in
    this (color, line-index) bin; ``occupancy`` above it is *avoidable*
    skew rather than capacity pressure.
    """

    cpu: int
    color: int
    line_index: int
    occupancy: int
    balanced: int
    pages: tuple[int, ...]
    arrays: tuple[str, ...]
    phase: Optional[str] = None
    loop: Optional[str] = None

    @property
    def skew(self) -> float:
        return self.occupancy / max(1, self.balanced)

    def to_dict(self) -> dict[str, object]:
        return {
            "cpu": self.cpu,
            "color": self.color,
            "line_index": self.line_index,
            "occupancy": self.occupancy,
            "balanced": self.balanced,
            "skew": self.skew,
            "pages": list(self.pages),
            "arrays": list(self.arrays),
            "phase": self.phase,
            "loop": self.loop,
        }


@dataclass
class StaticConflictSummary:
    """Compact occupancy analysis for the S-rule family.

    Excludes instruction pages throughout: the instruction stream is
    pinned by the engine and its bin pressure is not actionable by a
    data-page color plan.
    """

    plan: StaticPlan
    #: Cycle-wide data hotspots, worst skew first.
    hotspots: list[ConflictHotspot] = field(default_factory=list)
    #: Single-loop-execution data hotspots, worst skew first.
    loop_hotspots: list[ConflictHotspot] = field(default_factory=list)
    max_occupancy: int = 0
    data_witnesses: int = 0


def _data_hotspots(
    lines: dict[int, LineTouch],
    plan: StaticPlan,
    config: MachineConfig,
    layout: Layout,
    cpu: int,
    phase: Optional[str] = None,
    loop: Optional[str] = None,
) -> tuple[list[ConflictHotspot], int, int]:
    """Occupancy overflows on data pages, with balanced-load baselines.

    Bins by ``(color, k)`` like :func:`verify_plan`; exact on
    all geometries because ``ColorFunction.set_of`` is a bijection from
    those pairs onto the physical external-cache sets.
    """
    psz = config.page_size
    line = config.l2.line_size
    assoc = config.l2.associativity
    num_colors = plan.num_colors
    bins: dict[tuple[int, int], set[int]] = {}
    pages_per_k: dict[int, set[int]] = {}
    for laddr in lines:
        if laddr >= INSTRUCTION_BASE:
            continue
        vpage = laddr // psz
        k = (laddr % psz) // line
        bins.setdefault((plan.color_of(vpage), k), set()).add(vpage)
        pages_per_k.setdefault(k, set()).add(vpage)
    hotspots: list[ConflictHotspot] = []
    max_occ = 0
    overflows = 0
    for (color, k), pages in bins.items():
        occ = len(pages)
        max_occ = max(max_occ, occ)
        if occ <= assoc:
            continue
        overflows += 1
        balanced = max(assoc, -(-len(pages_per_k[k]) // num_colors))
        ordered = tuple(sorted(pages))
        arrays: list[str] = []
        for vpage in ordered:
            name = layout.array_at(vpage * psz) or "other"
            if name not in arrays:
                arrays.append(name)
        hotspots.append(
            ConflictHotspot(
                cpu=cpu,
                color=color,
                line_index=k,
                occupancy=occ,
                balanced=balanced,
                pages=ordered,
                arrays=tuple(arrays),
                phase=phase,
                loop=loop,
            )
        )
    hotspots.sort(key=lambda h: (-h.skew, -h.occupancy, h.color, h.line_index))
    return hotspots, max_occ, overflows


def conflict_summary(
    image: ProgramImage,
    coloring: Optional[ColoringResult] = None,
) -> StaticConflictSummary:
    """Occupancy analysis of the plan a CDPC (or page-coloring) run realizes."""
    plan = derive_static_plan(
        image.program,
        image.layout,
        image.config,
        policy="page_coloring",
        cdpc=coloring is not None,
        coloring=coloring,
    )
    hotspots: list[ConflictHotspot] = []
    loop_hotspots: list[ConflictHotspot] = []
    max_occ = 0
    witnesses = 0
    for cpu in range(image.num_cpus):
        found, occ, over = _data_hotspots(
            image.cycle_lines(cpu), plan, image.config, image.layout, cpu
        )
        hotspots.extend(found)
        max_occ = max(max_occ, occ)
        witnesses += over
        for loop_image in image.loops:
            loop_found, _, _ = _data_hotspots(
                loop_image.lines[cpu],
                plan,
                image.config,
                image.layout,
                cpu,
                phase=loop_image.phase,
                loop=loop_image.loop,
            )
            loop_hotspots.extend(loop_found)
    hotspots.sort(key=lambda h: (-h.skew, -h.occupancy, h.cpu))
    loop_hotspots.sort(key=lambda h: (-h.skew, -h.occupancy, h.cpu))
    return StaticConflictSummary(
        plan=plan,
        hotspots=hotspots[:_WITNESS_CAP],
        loop_hotspots=loop_hotspots[:_WITNESS_CAP],
        max_occupancy=max_occ,
        data_witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Witness replay


def replay_witness(
    witness: ConflictWitness,
    config: MachineConfig,
    rounds: int = 8,
) -> dict[str, int]:
    """Reproduce a witness's conflict on the real memory system.

    Builds a :class:`~repro.machine.memory_system.MemorySystem`, maps the
    witness pages to frames of the witness color (plus L1 eviction-set
    filler pages on *other* colors, so the virtually-indexed on-chip
    cache cannot absorb the repeats), and cycles the conflicting lines.
    Returns the resulting per-kind L2 miss counts for processor 0; a real
    conflict shows up as a positive ``conflict`` count.

    The replay isolates the external-cache claim the witness makes: on
    three-level geometries the private mid-level cache is dropped for
    the replay, because it only *filters* traffic on its way to the
    overflowing LLC set — exactly like the L1, whose filtering the
    filler pages defeat — and a handful of witness lines would otherwise
    live in the mid forever, masking the conflict being demonstrated.
    """
    from dataclasses import replace as _replace

    from repro.machine.memory_system import MemorySystem

    cfg = _replace(config, num_cpus=1)
    if cfg.hierarchy is not None and cfg.hierarchy.mid is not None:
        cfg = _replace(cfg, hierarchy=_replace(cfg.hierarchy, mid=None))
    ms = MemorySystem(cfg)
    psz = cfg.page_size
    line = cfg.l2.line_size
    lpp = psz // line
    num_colors = cfg.num_colors
    k = witness.line_index
    assoc = cfg.l2.associativity
    pages = list(witness.pages[: assoc + 2])
    if len(pages) <= assoc:
        raise ValueError("witness does not overflow the cache set")

    # Page-distance that preserves the L1 set of line k: (dq * lpp) must be
    # a multiple of the number of L1 sets.
    l1_sets = cfg.l1d.num_sets
    page_step = l1_sets // math.gcd(lpp, l1_sets)
    if page_step == 0:
        page_step = 1

    # Map every page to a frame of the required color: witness pages on
    # the witness color, fillers on distinct other colors.  Frames come
    # from the geometry's color function, so on sliced/hashed LLCs the
    # replay lands in exactly the set the analysis binned — a witness
    # derived under an XOR slice hash replays under that same hash.
    color_function = cfg.color_function
    frames: dict[int, int] = {}
    color_iters: dict[int, Iterator[int]] = {}

    def map_page(vpage: int, color: int) -> int:
        frame = frames.get(vpage)
        if frame is None:
            it = color_iters.get(color)
            if it is None:
                it = color_function.frames_of_color(color)
                color_iters[color] = it
            frame = next(it)
            frames[vpage] = frame
        return frame

    l1_assoc = cfg.l1d.associativity
    sequence: list[tuple[int, int]] = []  # (vaddr, paddr)
    used_pages = set(pages)
    filler_color = witness.color
    for vpage in pages:
        frame = map_page(vpage, witness.color)
        sequence.append((vpage * psz + k * line, frame * psz + k * line))
        # After touching the witness line, touch enough same-L1-set lines
        # (on other page colors) to evict it from the on-chip cache, so
        # the next round reaches the external cache again.  Fillers must
        # stay congruent to *this* page modulo the step so they land in
        # the same on-chip set as the witness line.
        added = 0
        m = 1
        while added < l1_assoc:
            filler = vpage + m * page_step
            m += 1
            if filler in used_pages:
                continue
            used_pages.add(filler)
            filler_color = (filler_color + 1) % num_colors
            if filler_color == witness.color:
                filler_color = (filler_color + 1) % num_colors
            f_frame = map_page(filler, filler_color)
            sequence.append(
                (filler * psz + k * line, f_frame * psz + k * line)
            )
            added += 1

    t = 0.0
    for _ in range(max(2, rounds)):
        for vaddr, paddr in sequence:
            result = ms.access(0, t, vaddr, paddr, is_write=False)
            t += cfg.cycle_ns + result.stall_ns + result.kernel_ns
    stats = ms.stats.cpus[0]
    return {kind.value: stats.l2_misses[kind] for kind in MissKind}


# ---------------------------------------------------------------------------
# Miss prediction


@dataclass(frozen=True)
class MissEstimate:
    """A predicted miss count with an explicit containment interval."""

    predicted: float
    lo: float
    hi: float

    @property
    def bound(self) -> float:
        """Self-reported error bound: the larger half-width of the interval."""
        return max(self.predicted - self.lo, self.hi - self.predicted)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def to_dict(self) -> dict[str, object]:
        return {
            "predicted": self.predicted,
            "lo": self.lo,
            "hi": self.hi,
            "bound": self.bound,
        }


class _KindAcc:
    """Accumulates (estimate, ceiling) mass for one miss kind."""

    __slots__ = ("est", "hi")

    def __init__(self) -> None:
        self.est = 0.0
        self.hi = 0.0


#: One simulation's (conflict, capacity, sharing) accumulators.
_Tally = tuple[_KindAcc, _KindAcc, _KindAcc]


#: One loop execution's visits to one set: (loop index, [(line addr,
#: visits, shared)], most visits of any line).
_Visits = tuple[int, list[tuple[int, int, bool]], int]

#: Outcomes of one measured visit, recorded by :func:`_replay_set`.
_CONFLICT, _CAPACITY, _AMBIGUOUS, _SHARED_HIT, _SHARED_MISS = range(5)


#: Conflict/capacity classification bands relative to the shadow capacity.
_CONFLICT_BAND = 0.8
_CAPACITY_BAND = 1.8

#: Relative slack on the replacement-miss ceiling: trace interleaving can
#: split one symbolic line visit into several on-chip evictions, so the
#: simulator can retire slightly more external references than the
#: per-stream visit count.  Calibrated against the 10x3 workload matrix
#: (largest observed excess ~0.4%).
_INTERLEAVE_SLACK = 0.05


@dataclass
class StaticMissProfile:
    """Static prediction of a run's external-cache miss profile."""

    workload: str
    policy: str
    num_cpus: int
    scale_factor: int
    estimates: dict[str, MissEstimate]
    verification: PlanVerification
    plan: StaticPlan
    analyze_ns: float = 0.0
    #: Per-(phase, loop) predicted replacement misses (estimate) and
    #: total references, for figures and the S-rule family.
    per_loop: dict[tuple[str, str], dict[str, float]] = field(
        default_factory=dict
    )

    def estimate(self, kind: str) -> MissEstimate:
        return self.estimates[kind]

    def predicted_total(self) -> float:
        return self.estimates["total"].predicted

    def check(self, result: object) -> list[str]:
        """Compare a simulated :class:`RunResult` against the intervals.

        Returns a list of human-readable violations (empty when every
        measured component falls inside its predicted interval).
        """
        measured = self.measured_from(result)
        violations: list[str] = []
        for key, value in measured.items():
            estimate = self.estimates[key]
            if not estimate.contains(value):
                violations.append(
                    f"{key}: measured {value} outside predicted "
                    f"[{estimate.lo:.1f}, {estimate.hi:.1f}] "
                    f"(predicted {estimate.predicted:.1f})"
                )
        return violations

    @staticmethod
    def measured_from(result: object) -> dict[str, float]:
        """Extract the comparable measured components from a RunResult."""
        stats = getattr(result, "stats")
        return {
            "cold": float(stats.total_misses(MissKind.COLD)),
            "conflict": float(stats.total_misses(MissKind.CONFLICT)),
            "capacity": float(stats.total_misses(MissKind.CAPACITY)),
            "sharing": float(
                stats.total_misses(MissKind.TRUE_SHARING)
                + stats.total_misses(MissKind.FALSE_SHARING)
            ),
            "total": float(stats.total_l2_misses()),
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "num_cpus": self.num_cpus,
            "scale_factor": self.scale_factor,
            "estimates": {k: v.to_dict() for k, v in self.estimates.items()},
            "verification": self.verification.to_dict(),
            "plan": self.plan.to_dict(),
            "analyze_ns": self.analyze_ns,
            "per_loop": {
                f"{phase}/{loop}": dict(values)
                for (phase, loop), values in sorted(self.per_loop.items())
            },
        }


class StaticCheckError(RuntimeError):
    """Raised by the ``static_check`` gate when a measurement escapes its bound."""

    def __init__(
        self, profile: StaticMissProfile, violations: list[str]
    ) -> None:
        super().__init__(
            "static miss prediction violated by simulation:\n  "
            + "\n  ".join(violations)
        )
        self.profile = profile
        self.violations = violations


def _shared_written_lines(image: ProgramImage) -> dict[int, int]:
    """Line address -> bitmask of CPUs that write it anywhere in the cycle."""
    writers: dict[int, int] = {}
    for loop_image in image.loops:
        for cpu in range(image.num_cpus):
            for laddr, touch in loop_image.lines[cpu].items():
                if touch.written:
                    writers[laddr] = writers.get(laddr, 0) | (1 << cpu)
    return writers


def _simulate_cpu_sets(
    image: ProgramImage,
    sets: _CpuSets,
    cpu: int,
    writers: dict[int, int],
    estimate: _Tally,
    ceiling: _Tally,
    per_loop: dict[tuple[str, str], dict[str, float]],
) -> None:
    """Per-set symbolic cache simulation for one processor.

    Every set is replayed (:func:`_replay_set`) for two tallies.  For the
    estimate, lines whose L1 set is quiet (cycle occupancy within the
    on-chip associativity) never reach the external cache; for the
    ceiling, every visit counts.  When every line of a set passes that
    L1 gate both replays see the same visits, so the set is replayed
    once and its outcomes go to both tallies.

    External-cache sets carry :func:`_set_id`'s symbolic ``(color, k)``
    labels, which relabel the physical sets bijectively on every geometry
    (including sliced XOR-hashed LLCs), so no hash-specific logic is
    needed here.
    """
    config = image.config
    line = config.l2.line_size
    assoc = config.l2.associativity
    loops = image.loops

    # On-chip pressure per L1 set (data and instruction caches separately).
    l1d_sets = config.l1d.num_sets
    l1i_sets = config.l1i.num_sets
    l1d_pressure: dict[int, set[int]] = {}
    l1i_pressure: dict[int, set[int]] = {}
    loop_distinct: list[int] = []
    for loop_image in loops:
        lines_map = loop_image.lines[cpu]
        loop_distinct.append(len(lines_map))
        for laddr, touch in lines_map.items():
            if touch.instr:
                l1i_pressure.setdefault((laddr // line) % l1i_sets, set()).add(
                    laddr
                )
            else:
                l1d_pressure.setdefault((laddr // line) % l1d_sets, set()).add(
                    laddr
                )
    l1d_hot = {
        index
        for index, members in l1d_pressure.items()
        if len(members) > config.l1d.associativity
    }
    l1i_hot = {
        index
        for index, members in l1i_pressure.items()
        if len(members) > config.l1i.associativity
    }

    # Prefix sums of per-loop distinct line counts over two cycles, for
    # the reuse-distance proxy behind the conflict/capacity split.
    n_loops = len(loops)
    prefix = [0] * (2 * n_loops + 1)
    for j in range(2 * n_loops):
        prefix[j + 1] = prefix[j] + loop_distinct[j % n_loops]

    weights = [float(loop_image.weight) for loop_image in loops]
    names = [(loop_image.phase, loop_image.loop) for loop_image in loops]
    others = ~(1 << cpu)
    shadow_cap = config.l2.num_lines
    gated_outcomes: list[tuple[int, int]] = []
    ceiling_outcomes: list[tuple[int, int]] = []
    for sid, events in sets.events.items():
        # The ceiling's visits: every visiting line of each loop execution.
        visited: list[_Visits] = []
        instr_set = True
        for j, touches in events:
            lines: list[tuple[int, int, bool]] = []
            most = 0
            for laddr, touch in touches:
                if laddr < INSTRUCTION_BASE:
                    instr_set = False
                visits = touch.visits
                if visits > 0:
                    lines.append(
                        (laddr, visits, writers.get(laddr, 0) & others != 0)
                    )
                    most = max(most, visits)
            if lines:
                visited.append((j, lines, most))
        if instr_set:
            hot, l1_sets = l1i_hot, l1i_sets
        else:
            hot, l1_sets = l1d_hot, l1d_sets
        # The estimate's visits: the lines past the L1 gate.
        gated: list[_Visits] = []
        all_pass = True
        for j, lines, most in visited:
            passing = [entry for entry in lines if (entry[0] // line) % l1_sets in hot]
            if len(passing) < len(lines):
                all_pass = False
                if not passing:
                    continue
                most = max(visits for _a, visits, _s in passing)
            gated.append((j, passing, most))
        # A set whose cycle-wide line population exceeds the associativity
        # cannot sustain LRU hits against the real reference interleave:
        # merged streams split symbolic visits into several on-chip
        # excursions with same-set touches in between, so repeat visits
        # the symbolic LRU scores as hits miss in practice (confirmed
        # against per-set instrumentation of the simulator).
        contended = sets.population[sid] > assoc
        outcomes = _replay_set(
            visited, n_loops, assoc, contended, prefix, loop_distinct, shadow_cap
        )
        ceiling_outcomes += outcomes
        if not all_pass:
            outcomes = _replay_set(
                gated, n_loops, assoc, contended, prefix, loop_distinct, shadow_cap
            )
        gated_outcomes += outcomes
    _tally_outcomes(gated_outcomes, weights, names, estimate, per_loop)
    _tally_outcomes(ceiling_outcomes, weights, names, ceiling)


def _replay_set(
    events: list[_Visits],
    n_loops: int,
    assoc: int,
    contended: bool,
    prefix: list[int],
    loop_distinct: list[int],
    shadow_cap: int,
) -> list[tuple[int, int]]:
    """LRU-replay one set's visits; return the measured cycle's outcomes.

    Two passes over the steady-state cycle: the first settles state (the
    engine's warmup), the second records one ``(loop index, outcome)``
    pair per visit that counts as a miss, in visit order.  Within a loop
    execution a line with ``v`` visits is touched in rounds ``0..v-1``,
    each round in line order.
    """
    resident: list[int] = []  # LRU order, most recent last
    last_touch: dict[int, int] = {}  # line -> global loop position
    conflict_band = _CONFLICT_BAND * shadow_cap
    capacity_band = _CAPACITY_BAND * shadow_cap
    outcomes: list[tuple[int, int]] = []
    for measure in (False, True):
        base_pos = n_loops if measure else 0
        for j, lines, most in events:
            pos = base_pos + j
            loop_ws = loop_distinct[j]
            for round_index in range(most):
                for laddr, visits, shared in lines:
                    if visits <= round_index:
                        continue
                    hit = laddr in resident
                    if hit:
                        resident.remove(laddr)
                        resident.append(laddr)
                    else:
                        resident.append(laddr)
                        if len(resident) > assoc:
                            del resident[0]
                    if not measure:
                        pass  # the warm-up pass only settles state
                    elif shared:
                        # Invalidations strike regardless of residency:
                        # every visit can miss.
                        outcomes.append(
                            (j, _SHARED_MISS if not hit or contended else _SHARED_HIT)
                        )
                    elif not hit or contended:
                        # Reuse distance: the loop's own working set plus
                        # the distinct lines of the loops since the last
                        # touch.  A symbolic LRU hit survives in the real
                        # cache only when the line was re-touched within
                        # roughly one cache capacity of other references:
                        # beyond that, interleave-split visits and extra
                        # same-set traffic evict it even though the
                        # per-set LRU retains it.
                        last = last_touch.get(laddr)
                        if round_index > 0 or last is None or last >= pos:
                            distance = loop_ws  # sweep repeat within the loop
                            converted = True
                        else:
                            distance = prefix[pos] - prefix[last + 1] + loop_ws
                            converted = distance >= shadow_cap
                        if not hit or converted:
                            if distance <= conflict_band:
                                outcome = _CONFLICT
                            elif distance >= capacity_band:
                                outcome = _CAPACITY
                            else:
                                outcome = _AMBIGUOUS
                            outcomes.append((j, outcome))
                    last_touch[laddr] = pos
    return outcomes


def _tally_outcomes(
    outcomes: list[tuple[int, int]],
    weights: list[float],
    names: list[tuple[str, str]],
    tally: _Tally,
    per_loop: Optional[dict[tuple[str, str], dict[str, float]]] = None,
) -> None:
    """Add replayed outcomes, in order, to one simulation's accumulators."""
    conflict, capacity, sharing = tally
    for j, outcome in outcomes:
        weight = weights[j]
        if outcome == _SHARED_HIT:
            sharing.hi += weight
            continue
        if outcome == _SHARED_MISS:
            sharing.hi += weight
            sharing.est += weight
            continue
        if outcome == _CONFLICT:
            conflict.est += weight
            conflict.hi += weight
        elif outcome == _CAPACITY:
            capacity.est += weight
            capacity.hi += weight
        else:
            # Ambiguous shadow verdict: split the estimate, widen both sides.
            conflict.est += 0.5 * weight
            conflict.hi += weight
            capacity.est += 0.5 * weight
            capacity.hi += weight
        if per_loop is not None:
            entry = per_loop.setdefault(
                names[j], {"replacement_predicted": 0.0, "refs": 0.0}
            )
            entry["replacement_predicted"] += weight


def _cold_estimate(
    program: Program,
    layout: Layout,
    config: MachineConfig,
    num_cpus: int,
    profile: SimProfile,
    epochs: int,
) -> MissEstimate:
    """Cold misses in the measured window.

    Initialization writes every data page and the warmup pass touches
    every steady-state line, so with occurrence-invariant footprints the
    measured passes see zero cold misses — exactly.  Phases with
    ``miss_variation`` can grow their footprint between occurrences; the
    upper bound counts the lines between the smallest and largest
    realizable footprint.
    """
    hi = 0.0
    for phase in program.phases:
        if phase.miss_variation <= 0.0:
            continue
        scales = [
            occurrence_scale(phase.miss_variation, occ, phase.name)
            for occ in range(0, epochs + 1)
        ]
        low_scale = min(scales)
        high_scale = max(scales)
        grown = 0
        for loop in phase.loops:
            schedule = schedule_loop(loop, num_cpus)
            small = loop_line_touches(
                loop, schedule, layout, config, profile, low_scale
            )
            large = loop_line_touches(
                loop, schedule, layout, config, profile, high_scale
            )
            for cpu in range(num_cpus):
                grown += max(0, len(large[cpu]) - len(small[cpu]))
        hi += float(phase.occurrences) * grown
    return MissEstimate(predicted=hi / 2.0, lo=0.0, hi=hi)


def predict_program(
    program: Program,
    config: MachineConfig,
    *,
    num_cpus: Optional[int] = None,
    policy: str = "page_coloring",
    cdpc: bool = False,
    profile: Optional[SimProfile] = None,
    seed: int = 0,
    init_jitter: int = 4,
    epochs: int = 1,
    layout: Optional[Layout] = None,
    coloring: Optional[ColoringResult] = None,
) -> StaticMissProfile:
    """Predict a run's external-cache miss profile without simulating it.

    Mirrors the engine's construction pipeline (layout, summary, CDPC
    coloring) when the artifacts are not supplied, derives the realized
    color plan for the requested policy, verifies it, and runs the
    symbolic per-set cache simulation.
    """
    started = time.perf_counter()
    cpus = num_cpus if num_cpus is not None else config.num_cpus
    prof = profile if profile is not None else SimProfile()
    if layout is None:
        from repro.compiler.padding import layout_arrays

        layout = layout_arrays(
            program.arrays,
            config.l2.line_size,
            config.l1d.size,
            aligned=True,
            groups=program.group_pairs(),
        )
    if cdpc and coloring is None:
        from repro.compiler.summaries import extract_summary
        from repro.core.coloring import generate_page_colors

        summary = extract_summary(program, layout)
        coloring = generate_page_colors(
            summary, config.page_size, config.num_colors, cpus
        )
    plan = derive_static_plan(
        program,
        layout,
        config,
        policy=policy,
        cdpc=cdpc,
        coloring=coloring,
        seed=seed,
        init_jitter=init_jitter,
    )
    image = program_image(program, layout, config, cpus, prof, occurrence=1)
    groups = [_group_sets(image, plan, cpu) for cpu in range(cpus)]
    verification = _verify_sets(image, groups)

    writers = _shared_written_lines(image)
    estimate: _Tally = (_KindAcc(), _KindAcc(), _KindAcc())
    ceiling: _Tally = (_KindAcc(), _KindAcc(), _KindAcc())
    per_loop: dict[tuple[str, str], dict[str, float]] = {}
    for loop_image in image.loops:
        for cpu in range(cpus):
            entry = per_loop.setdefault(
                (loop_image.phase, loop_image.loop),
                {"replacement_predicted": 0.0, "refs": 0.0},
            )
            entry["refs"] += float(
                loop_image.weight * loop_image.total_refs(cpu)
            )
    for cpu in range(cpus):
        _simulate_cpu_sets(
            image, groups[cpu], cpu, writers, estimate, ceiling, per_loop
        )
    acc_conflict, acc_capacity, acc_sharing = estimate
    hi_conflict, hi_capacity, hi_sharing = ceiling

    # Interval assembly: the gated simulation is the estimate, the ungated
    # one the ceiling.  Stream interleaving can split one symbolic line
    # visit into several on-chip evictions (and thus several external
    # references), so the replacement ceiling carries a relative slack;
    # sharing reclassification and per-phase integer truncation widen the
    # intervals additively.
    truncation = float(
        len(program.phases) * max(1, epochs) * cpus * 2
    )
    sharing_hi = max(acc_sharing.hi, hi_sharing.hi)
    repl_hi = (hi_conflict.hi + hi_capacity.hi) * (1.0 + _INTERLEAVE_SLACK)
    conflict = MissEstimate(
        predicted=acc_conflict.est,
        lo=0.0,
        hi=max(repl_hi, acc_conflict.est) + sharing_hi + truncation,
    )
    capacity = MissEstimate(
        predicted=acc_capacity.est,
        lo=0.0,
        hi=max(repl_hi, acc_capacity.est) + sharing_hi + truncation,
    )
    sharing = MissEstimate(
        predicted=acc_sharing.est,
        lo=0.0,
        hi=sharing_hi + truncation,
    )
    cold = _cold_estimate(program, layout, config, cpus, prof, max(1, epochs))
    total_hi = (
        repl_hi
        + sharing_hi
        + cold.hi
        + truncation
    )
    total_est = (
        acc_conflict.est + acc_capacity.est + acc_sharing.est + cold.predicted
    )
    total = MissEstimate(
        predicted=total_est, lo=0.0, hi=max(total_hi, total_est)
    )
    label = "cdpc" if cdpc else policy
    profile_out = StaticMissProfile(
        workload=program.name,
        policy=label,
        num_cpus=cpus,
        scale_factor=config.scale_factor,
        estimates={
            "cold": cold,
            "conflict": conflict,
            "capacity": capacity,
            "sharing": sharing,
            "total": total,
        },
        verification=verification,
        plan=plan,
        per_loop=per_loop,
    )
    profile_out.analyze_ns = (time.perf_counter() - started) * 1e9
    return profile_out


def predict_workload(
    name: str,
    config: MachineConfig,
    **kwargs: object,
) -> StaticMissProfile:
    """Build a bundled SPEC95fp workload at the machine's scale and predict it."""
    from repro.workloads.specfp import get_workload

    workload = get_workload(name, scale=config.scale_factor)
    return predict_program(workload.program, config, **kwargs)  # type: ignore[arg-type]


def _iter_kinds() -> Iterator[str]:
    yield from ("cold", "conflict", "capacity", "sharing", "total")


def estimate_keys() -> Iterable[str]:
    """The component keys every :class:`StaticMissProfile` reports."""
    return list(_iter_kinds())
