"""Reference-stream generation from loop-nest programs.

For each (loop, processor) pair this module produces numpy arrays of
virtual addresses and flags.  The streams of all arrays touched by a loop
are *interleaved proportionally* — iteration ``i`` touches ``a[i]``,
``b[i]``, ... in turn — because that is how compiled loop bodies access
memory, and it is exactly the pattern that turns same-color array starts
into direct-mapped cache thrashing (the paper's objective 2, Section 5.2).

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


def _bulk_addresses(start: int, nbytes: int, stride: int) -> np.ndarray:
    if nbytes <= 0:
        return np.empty(0, dtype=np.int64)
    return np.arange(start, start + nbytes, stride, dtype=np.int64)


def _access_stream(
    access,
    layout: Layout,
    schedule: LoopSchedule,
    cpu: int,
    config: MachineConfig,
    profile: SimProfile,
    fraction_scale: float = 1.0,
) -> tuple[np.ndarray, int, float]:
    """Addresses, flags and words-per-ref for one access on one processor."""
    stride = profile.stride_for(config)
    num_cpus = schedule.num_cpus

    if isinstance(access, InstructionStream):
        sweeps = min(access.sweeps, profile.sweep_limit)
        fetch_stride = max(4, config.l1i.line_size // 2)
        one = _bulk_addresses(
            text_base(config.page_size), access.footprint_bytes, fetch_stride
        )
        addrs = _tile(one, sweeps)
        return addrs, FLAG_INSTR, fetch_stride / config.word_size

    base = layout.base_of(access.array)
    size = layout.sizes[access.array]

    if isinstance(access, PartitionedAccess):
        unit = max(1, size // access.units)
        lo_u, hi_u = _unit_range(schedule, access, cpu, num_cpus)
        chunk = min((hi_u - lo_u) * unit, size - lo_u * unit)
        fraction = min(1.0, max(1e-6, access.fraction * fraction_scale))
        touched = int(chunk * fraction)
        sweeps = min(access.sweeps, profile.sweep_limit)
        one = _bulk_addresses(base + lo_u * unit, touched, stride)
        addrs = _tile(one, sweeps)
        flag = FLAG_WRITE if access.is_write else 0
        return addrs, flag, stride / config.word_size

    if isinstance(access, BoundaryAccess):
        unit = max(1, size // access.units)
        boundary = max(config.word_size, int(unit * access.boundary_fraction))
        ranges = _byte_ranges(schedule, access, num_cpus, size, unit, base)
        neighbours = _neighbour_list(access.comm, cpu, num_cpus)
        pieces = []
        for nb in neighbours:
            n_lo, n_hi = ranges[nb]
            if n_hi <= n_lo:
                continue
            if _is_upper(cpu, nb, num_cpus, access.comm):
                strip = (n_lo, min(n_lo + boundary, n_hi))
            else:
                strip = (max(n_hi - boundary, n_lo), n_hi)
            pieces.append(
                _bulk_addresses(strip[0], strip[1] - strip[0], config.word_size)
            )
        if pieces:
            addrs = np.concatenate(pieces)
        else:
            addrs = np.empty(0, dtype=np.int64)
        flag = FLAG_WRITE if access.is_write else 0
        return addrs, flag, 1.0

    if isinstance(access, StridedAccess):
        block = access.block_bytes
        nblocks = size // block
        mine = np.arange(cpu, nblocks, num_cpus, dtype=np.int64)
        inner = np.arange(0, block, stride, dtype=np.int64)
        one = (base + mine[:, None] * block + inner[None, :]).ravel()
        # Gather/scatter work scales with the per-occurrence working set
        # (particles migrate between occurrences), hence fraction_scale.
        sweeps = min(access.sweeps, profile.sweep_limit) * fraction_scale
        addrs = _tile(one, sweeps)
        flag = FLAG_WRITE if access.is_write else 0
        return addrs, flag, stride / config.word_size

    if isinstance(access, WholeArrayAccess):
        touched = int(size * min(1.0, max(1e-6, access.fraction * fraction_scale)))
        sweeps = min(access.sweeps, profile.sweep_limit)
        one = _bulk_addresses(base, touched, stride)
        addrs = _tile(one, sweeps)
        flag = FLAG_WRITE if access.is_write else 0
        return addrs, flag, stride / config.word_size

    raise TypeError(f"unknown access type: {type(access)!r}")


def _tile(addrs: np.ndarray, sweeps: float) -> np.ndarray:
    if sweeps <= 0 or len(addrs) == 0:
        return np.empty(0, dtype=np.int64)
    whole = int(sweeps)
    frac = sweeps - whole
    parts = [addrs] * whole
    if frac > 0:
        parts.append(addrs[: int(len(addrs) * frac)])
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts) if len(parts) > 1 else parts[0].copy()


def _unit_range(schedule: LoopSchedule, access, cpu: int, num_cpus: int) -> tuple[int, int]:
    """The unit range this processor executes, rescaled to this access.

    The loop schedule is expressed in loop iterations; an access whose
    ``units`` differs from the loop's iteration count is scaled
    proportionally (e.g. a half-resolution array in the same loop).
    """
    lo, hi = schedule.ranges[cpu]
    total = max(1, schedule.loop.effective_iterations)
    if access.units == total:
        return lo, hi
    scale = access.units / total
    return int(lo * scale), int(hi * scale)


def _byte_ranges(schedule, access, num_cpus, size, unit, base) -> list[tuple[int, int]]:
    result = []
    for cpu in range(num_cpus):
        lo_u, hi_u = _unit_range(schedule, access, cpu, num_cpus)
        lo = base + lo_u * unit
        hi = min(base + hi_u * unit, base + size)
        result.append((lo, max(lo, hi)))
    return result


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
            addrs, flag, _wpr = _access_stream(
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

        merged_addrs, merged_flags, merged_ids = _merge_streams(
            [(a, f) for (a, f) in streams]
        )

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
