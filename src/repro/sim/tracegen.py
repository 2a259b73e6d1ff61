"""Reference-stream generation from loop-nest programs.

For each (loop, processor) pair this module produces numpy arrays of
virtual addresses and flags.  Each access's stream is defined once, as a
:class:`StreamImage` of arithmetic progressions: the simulator enumerates
it into addresses and :mod:`repro.checker.staticmiss` counts its lines.
The streams of all arrays touched by a loop are *interleaved
proportionally* — iteration ``i`` touches ``a[i]``, ``b[i]``, ... in turn
— because that is how compiled loop bodies access memory, and it is
exactly the pattern that turns same-color array starts into direct-mapped
cache thrashing (the paper's objective 2, Section 5.2).

Flags are a bitmask per reference: bit 0 = write, bit 1 = instruction
fetch.  When a prefetch plan covers an access, a parallel array of
prefetch target addresses is produced (0 where no prefetch is issued);
prefetches are emitted once per cache line, ``distance_lines`` ahead for
software-pipelined accesses and 0 lines ahead when tiling inhibited
pipelining (they still cost bus bandwidth but hide nothing — the applu
pathology).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compiler.ir import (
    BoundaryAccess,
    Communication,
    InstructionStream,
    Loop,
    LoopKind,
    PartitionedAccess,
    Program,
    StridedAccess,
    WholeArrayAccess,
)
from repro.compiler.padding import Layout
from repro.compiler.parallelize import LoopSchedule
from repro.compiler.prefetch_pass import PrefetchPlan
from repro.machine.config import MachineConfig

FLAG_WRITE = 1
FLAG_INSTR = 2


@dataclass(frozen=True)
class SimProfile:
    """Simulation fidelity knobs.

    ``ref_stride`` is the distance between generated references within a
    bulk stream; ``None`` selects half a cache line (two references per
    line, preserving spatial-locality hits while keeping traces small).
    Communication (boundary) accesses are always generated at word
    granularity so the Dubois word-level sharing classification has real
    offsets to work with.  ``sweep_limit`` caps per-access sweeps, which
    the fast profile uses to shorten runs.
    """

    ref_stride: Optional[int] = None
    sweep_limit: float = 4.0

    def stride_for(self, config: MachineConfig) -> int:
        if self.ref_stride is not None:
            return self.ref_stride
        return max(config.word_size, config.l2.line_size // 2)

    @classmethod
    def fast(cls) -> "SimProfile":
        return cls(ref_stride=None, sweep_limit=1.0)


@dataclass(frozen=True)
class RefStream:
    """A :class:`CpuTrace` decomposed into plain-list columns for the engine.

    The engine's inner loop indexes python lists (cheaper than numpy
    scalars); the derived columns are batch-computed with numpy once per
    (trace, geometry) pair:

    * ``vpages``/``offsets`` — page number and in-page offset of every
      reference, so the simulation loop never divides per reference;
    * ``vlines`` — the external-cache-line-aligned virtual address used by
      the (L2-line-granular) on-chip cache model;
    * ``fast_kinds`` — per-reference hit-filter class: 0 = must take the
      full per-reference path (references carrying a prefetch), 1 = data
      read eligible for the bulk hit filter, 2 = instruction fetch
      eligible for it, 3 = data write eligible for the write filter (the
      filter still rejects it at run time unless the written line is
      already exclusively owned by the referencing processor).
    """

    addrs: list
    flags: list
    prefetch: Optional[list]
    vpages: list
    offsets: list
    vlines: list
    fast_kinds: list


@dataclass
class CpuTrace:
    """One processor's reference stream for one loop."""

    addrs: np.ndarray  # int64 virtual addresses
    flags: np.ndarray  # uint8 bitmask (FLAG_WRITE | FLAG_INSTR)
    prefetch: Optional[np.ndarray] = None  # int64 targets, 0 = none
    words_per_ref: float = 1.0

    def __len__(self) -> int:
        return len(self.addrs)

    def ref_stream(self, page_size: int, line_size: int) -> RefStream:
        """The engine-facing column view, memoized per geometry.

        Traces are immutable once generated, and the trace cache reuses
        them across warmup/measured passes and runs, so the (possibly
        expensive) numpy-to-list conversion is done at most once per
        (page_size, line_size) pair.
        """
        key = (page_size, line_size)
        cached = self.__dict__.get("_ref_stream")
        if cached is not None and cached[0] == key:
            return cached[1]
        addrs = self.addrs
        page_shift = page_size.bit_length() - 1
        vpages = (addrs >> page_shift).tolist()
        offsets = (addrs & (page_size - 1)).tolist()
        vlines = (addrs & ~(line_size - 1)).tolist()
        writes = (self.flags & FLAG_WRITE) != 0
        instr = (self.flags & FLAG_INSTR) != 0
        kinds = np.where(writes, np.where(instr, 0, 3), np.where(instr, 2, 1))
        if self.prefetch is not None:
            kinds = np.where(self.prefetch != 0, 0, kinds)
        fast_kinds = kinds.astype(np.int8).tolist()
        stream = RefStream(
            addrs=addrs.tolist(),
            flags=self.flags.tolist(),
            prefetch=self.prefetch.tolist() if self.prefetch is not None else None,
            vpages=vpages,
            offsets=offsets,
            vlines=vlines,
            fast_kinds=fast_kinds,
        )
        self.__dict__["_ref_stream"] = (key, stream)
        return stream


#: Virtual-address region where instruction footprints are placed (far
#: above any data array so pages never collide).
INSTRUCTION_BASE = 1 << 40


def text_base(page_size: int) -> int:
    """Virtual base of the instruction text.

    Offset by an odd page count so the text does not land color-aligned
    with the (page-aligned) data arrays under a page-coloring policy:
    linkers place text at arbitrary colors.
    """
    return INSTRUCTION_BASE + 173 * page_size


def text_bytes(program: Program) -> int:
    """The program's instruction footprint: its largest instruction stream."""
    return max(
        (
            access.footprint_bytes
            for phase in program.phases
            for loop in phase.loops
            for access in loop.accesses
            if isinstance(access, InstructionStream)
        ),
        default=0,
    )


def init_fault_order(
    program: Program, layout: Layout, page_size: int, jitter: int, seed: int
) -> list[int]:
    """Page fault order of the program's initialization loops.

    Each init group's arrays fault round robin, one page each; the groups
    run one after another.  ``jitter > 1`` shuffles every window of
    ``jitter`` faults with ``random.Random(seed)``: the racy init that
    bin hopping's fault-order coloring sees.
    """
    order: list[int] = []
    for group in program.effective_init_groups():
        page_lists = [list(layout.pages(name, page_size)) for name in group]
        for index in range(max(map(len, page_lists), default=0)):
            for pages in page_lists:
                if index < len(pages):
                    order.append(pages[index])
    if jitter > 1:
        rng = random.Random(seed)
        for start in range(0, len(order), jitter):
            chunk = order[start : start + jitter]
            rng.shuffle(chunk)
            order[start : start + jitter] = chunk
    return order


def frame_budget(program: Program, layout: Layout, config: MachineConfig) -> int:
    """Physical frames a run gets.

    Three times the footprint, rounded to whole color cycles: enough that
    the machine never runs out of memory, while ``memory_pressure`` can
    still make individual colors scarce.
    """
    psz = config.page_size
    pages = -(-layout.total_bytes // psz) + -(-text_bytes(program) // psz)
    colors = config.num_colors
    return max(colors * 4, -(-pages * 3 // colors) * colors)


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
    """``nbytes`` from ``start`` at ``stride``: one progression, or none."""
    if nbytes <= 0:
        return []
    count = -(-nbytes // stride)
    return [Progression(start, stride, count)]


def _unit_range(schedule: LoopSchedule, units: int, cpu: int) -> tuple[int, int]:
    """The loop-iteration range ``cpu`` executes, rescaled to ``units``."""
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
    """The neighbours' boundary strips one processor reads, word by word."""
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

    ``progs`` is one untiled pass; the stream repeats it ``whole`` times
    and then runs its first ``prefix_elems`` elements once more.
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
    """``sweeps`` passes as (whole passes, elements of the partial pass)."""
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
    """The stream of one access on one processor, in symbolic form."""
    stride = profile.stride_for(config)

    if isinstance(access, InstructionStream):
        sweeps = min(access.sweeps, profile.sweep_limit)
        fetch_stride = max(4, config.l1i.line_size // 2)
        progs = _bulk_progression(
            text_base(config.page_size), access.footprint_bytes, fetch_stride
        )
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
        return StreamImage(access.array, access.is_write, False, tuple(progs), 1, 0)

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
        # Gather/scatter work scales with the per-occurrence working set
        # (particles migrate between occurrences), hence fraction_scale.
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


def _enumerate(image: StreamImage) -> np.ndarray:
    """Every address of ``image`` in stream order, as int64.

    One pass is a single broadcast when all progressions share step and
    count (the strided blocks), else one ``np.arange`` per progression.
    """
    progs = image.progs
    if not progs or (image.whole == 0 and image.prefix_elems == 0):
        return np.empty(0, dtype=np.int64)
    first = progs[0]
    if all(p.step == first.step and p.count == first.count for p in progs):
        starts = np.fromiter((p.start for p in progs), np.int64, len(progs))
        offsets = np.arange(first.count, dtype=np.int64) * first.step
        one = (starts[:, None] + offsets[None, :]).ravel()
    else:
        one = np.concatenate(
            [np.arange(p.count, dtype=np.int64) * p.step + p.start for p in progs]
        )
    parts = [one] * image.whole
    if image.prefix_elems:
        parts.append(one[: image.prefix_elems])
    return np.concatenate(parts)


def _access_stream(
    access,
    layout: Layout,
    schedule: LoopSchedule,
    cpu: int,
    config: MachineConfig,
    profile: SimProfile,
    fraction_scale: float = 1.0,
) -> tuple[np.ndarray, int]:
    """Addresses and flags for one access on one processor."""
    image = access_stream_image(
        access, layout, schedule, cpu, config, profile, fraction_scale
    )
    if image.is_instr:
        return _enumerate(image), FLAG_INSTR
    return _enumerate(image), FLAG_WRITE if image.is_write else 0


def _neighbour_list(comm: Communication, cpu: int, num_cpus: int) -> list[int]:
    if num_cpus == 1:
        return []
    if comm is Communication.ROTATE:
        return sorted({(cpu - 1) % num_cpus, (cpu + 1) % num_cpus})
    return [c for c in (cpu - 1, cpu + 1) if 0 <= c < num_cpus]


def _is_upper(cpu: int, nb: int, num_cpus: int, comm: Communication) -> bool:
    if comm is Communication.ROTATE:
        return nb == (cpu + 1) % num_cpus
    return nb == cpu + 1


def _merge_streams(
    streams: list[tuple[np.ndarray, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proportionally interleave streams; returns (addrs, flags, stream ids).

    Element ``k`` of a stream of length ``L`` gets sort key ``(k+0.5)/L``;
    a stable sort over all keys interleaves the streams in proportion to
    their lengths, so equal-length streams alternate strictly — the memory
    behaviour of a loop body touching each array once per iteration.
    """
    streams = [(a, f) for a, f in streams if len(a)]
    if not streams:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int32)
    keys = np.concatenate(
        [(np.arange(len(a), dtype=np.float64) + 0.5) / len(a) for a, _ in streams]
    )
    addrs = np.concatenate([a for a, _ in streams])
    flags = np.concatenate(
        [np.full(len(a), f, dtype=np.uint8) for a, f in streams]
    )
    ids = np.concatenate(
        [np.full(len(a), i, dtype=np.int32) for i, (a, _) in enumerate(streams)]
    )
    order = np.argsort(keys, kind="stable")
    return addrs[order], flags[order], ids[order]


def occurrence_scale(variation: float, occurrence: int, salt: str) -> float:
    """Deterministic per-occurrence working-set multiplier in [1-v, 1+v]."""
    if variation <= 0.0:
        return 1.0
    # A small hash-based pseudo-random draw; stable across runs.
    import hashlib

    digest = hashlib.blake2s(
        f"{salt}:{occurrence}".encode(), digest_size=4
    ).digest()
    unit = int.from_bytes(digest, "big") / 0xFFFFFFFF  # [0, 1]
    return 1.0 + variation * (2.0 * unit - 1.0)


def loop_traces(
    loop: Loop,
    schedule: LoopSchedule,
    layout: Layout,
    config: MachineConfig,
    profile: SimProfile,
    prefetch_plan: Optional[PrefetchPlan] = None,
    fraction_scale: float = 1.0,
) -> list[CpuTrace]:
    """Per-processor traces for one loop under a static schedule.

    ``fraction_scale`` scales partitioned/whole-array working-set
    fractions (clamped to (0, 1]); the engine derives it from the phase's
    ``miss_variation`` and the occurrence index.
    """
    num_cpus = schedule.num_cpus
    cpus = range(num_cpus) if loop.kind is LoopKind.PARALLEL else [0]
    line = config.l2.line_size
    traces: list[CpuTrace] = []
    words_per_ref = profile.stride_for(config) / config.word_size
    for cpu in range(num_cpus):
        if cpu not in cpus:
            traces.append(
                CpuTrace(
                    addrs=np.empty(0, dtype=np.int64),
                    flags=np.empty(0, dtype=np.uint8),
                    words_per_ref=words_per_ref,
                )
            )
            continue
        streams: list[tuple[np.ndarray, int]] = []
        pf_distance: list[Optional[int]] = []
        for access in loop.accesses:
            addrs, flag = _access_stream(
                access, layout, schedule, cpu, config, profile, fraction_scale
            )
            streams.append((addrs, flag))
            decision = (
                prefetch_plan.decision_for(loop.name, access) if prefetch_plan else None
            )
            if decision is None:
                pf_distance.append(None)
            else:
                pf_distance.append(decision.distance_lines if decision.pipelined else 0)

        merged_addrs, merged_flags, merged_ids = _merge_streams(streams)

        prefetch_targets: Optional[np.ndarray] = None
        if prefetch_plan is not None and any(d is not None for d in pf_distance):
            prefetch_targets = np.zeros(len(merged_addrs), dtype=np.int64)
            live = [i for i, (a, _) in enumerate(streams) if len(a)]
            for live_index, stream_index in enumerate(live):
                distance = pf_distance[stream_index]
                if distance is None:
                    continue
                decision = prefetch_plan.decision_for(
                    loop.name, loop.accesses[stream_index]
                )
                mask = merged_ids == live_index
                stream_addrs = merged_addrs[mask]
                if len(stream_addrs) == 0:
                    continue
                lines = stream_addrs // line
                new_line = np.empty(len(lines), dtype=bool)
                new_line[0] = True
                new_line[1:] = lines[1:] != lines[:-1]
                # Software pipelining prefetches d iterations ahead *in the
                # stream* (A[i+d]), not d lines ahead in the address space:
                # for strided streams the next lines of this processor's
                # stream are in its own future blocks, not its neighbour's.
                line_starts = stream_addrs[new_line]
                lookahead = np.zeros(len(line_starts), dtype=np.int64)
                if distance < len(line_starts):
                    if distance == 0:
                        lookahead = line_starts.copy()
                    else:
                        lookahead[:-distance] = line_starts[distance:]
                targets = np.zeros(len(stream_addrs), dtype=np.int64)
                targets[new_line] = lookahead
                if decision is not None and decision.tlb_hostile:
                    # Word-aligned targets leave bit 0 free: set it to mark
                    # TLB-strict prefetches (see MemorySystem.prefetch).
                    targets = np.where(targets != 0, targets | 1, 0)
                prefetch_targets[mask] = targets

        traces.append(
            CpuTrace(
                addrs=merged_addrs,
                flags=merged_flags,
                prefetch=prefetch_targets,
                words_per_ref=words_per_ref,
            )
        )
    return traces
