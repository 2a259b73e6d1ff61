"""Graceful-degradation accounting and the cold-page reclaim policy.

Degradation events are the observable half of the paper's "colors are
hints" argument: a pressured run should *survive* (reclaiming frames,
falling back to nearby colors, abandoning optional migrations) and every
such survival action should be visible in the run's results rather than
silent.  :class:`DegradationLog` collects the events during a run;
:class:`DegradationReport` is the JSON-friendly summary attached to
:class:`repro.sim.results.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.machine.memory_system import MemorySystem
from repro.osmodel.physmem import PhysicalMemory, ReclaimPolicy
from repro.osmodel.vm import VirtualMemory


class DegradationLog:
    """Counts degradation events by kind, keeping a bounded detail trail.

    Counting is exact; the per-event detail list is capped so a heavily
    pressured run (thousands of reclaims) cannot balloon results.
    """

    def __init__(self, max_detailed_events: int = 256) -> None:
        self.counts: dict[str, int] = {}
        self.events: list[dict] = []
        self.max_detailed_events = max_detailed_events

    def record(self, kind: str, detail: Optional[dict] = None) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self.events) < self.max_detailed_events:
            event = {"kind": kind}
            if detail:
                event.update(detail)
            self.events.append(event)

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class DegradationReport:
    """Summary of every graceful-degradation action in one run."""

    reclaims: int = 0
    watchdog_trips: int = 0
    aborted_recolor_steps: int = 0
    forced_alloc_failures: int = 0
    dropped_hints: int = 0
    pressure_events: int = 0
    frames_seized: int = 0
    frames_released: int = 0
    #: Capacity frames the host revoked / gave back during the run.
    frames_revoked: int = 0
    frames_restored: int = 0
    #: Revocations the free lists + reclaim could not satisfy in full.
    revocation_shortfall: int = 0
    #: Adaptive CDPC transactional re-plans and the page migrations (and
    #: aborted migration passes) they performed.
    adaptive_replans: int = 0
    replan_migrations: int = 0
    aborted_replans: int = 0
    #: Hinted allocations by ring distance from the preferred color to the
    #: granted color; ``{0: n}`` means every hint was honored exactly.
    fallback_distance_histogram: dict[int, int] = field(default_factory=dict)
    #: ``(beat, capacity_frames, free_frames)`` after each churn beat —
    #: kept separately from ``events`` because the bounded detail trail
    #: can overflow long before the last beat fires.
    capacity_timeline: list[tuple[int, int, int]] = field(default_factory=list)
    invariant_checks: int = 0
    events: list[dict] = field(default_factory=list)

    @property
    def fallback_allocations(self) -> int:
        """Hinted allocations that did *not* land on the preferred color."""
        return sum(
            count for distance, count in self.fallback_distance_histogram.items()
            if distance > 0
        )

    @property
    def total_events(self) -> int:
        return (
            self.reclaims
            + self.watchdog_trips
            + self.aborted_recolor_steps
            + self.forced_alloc_failures
            + self.dropped_hints
            + self.pressure_events
            + self.adaptive_replans
        )

    @classmethod
    def collect(
        cls,
        log: DegradationLog,
        physmem: PhysicalMemory,
        aborted_recolor_steps: int = 0,
        invariant_checks: int = 0,
        injector=None,
        churn=None,
        adaptive=None,
    ) -> "DegradationReport":
        frames_seized = injector.frames_seized if injector is not None else 0
        frames_released = injector.frames_released if injector is not None else 0
        if churn is not None:
            frames_seized += churn.frames_seized
            frames_released += churn.frames_released
        return cls(
            reclaims=physmem.reclaims,
            watchdog_trips=log.count("watchdog_trip"),
            aborted_recolor_steps=aborted_recolor_steps,
            forced_alloc_failures=physmem.forced_failures,
            dropped_hints=(
                injector.hints_dropped if injector is not None
                else log.count("hint_dropped")
            ),
            pressure_events=log.count("pressure"),
            frames_seized=frames_seized,
            frames_released=frames_released,
            frames_revoked=physmem.frames_revoked_total,
            frames_restored=physmem.frames_restored_total,
            revocation_shortfall=physmem.revocation_shortfall,
            adaptive_replans=adaptive.total_replans if adaptive is not None else 0,
            replan_migrations=(
                adaptive.total_migrations if adaptive is not None else 0
            ),
            aborted_replans=(
                adaptive.aborted_replans if adaptive is not None else 0
            ),
            fallback_distance_histogram=dict(
                sorted(physmem.fallback_distance.items())
            ),
            capacity_timeline=(
                list(churn.timeline) if churn is not None else []
            ),
            invariant_checks=invariant_checks,
            events=list(log.events),
        )

    def to_dict(self) -> dict:
        return {
            "reclaims": self.reclaims,
            "watchdog_trips": self.watchdog_trips,
            "aborted_recolor_steps": self.aborted_recolor_steps,
            "forced_alloc_failures": self.forced_alloc_failures,
            "dropped_hints": self.dropped_hints,
            "pressure_events": self.pressure_events,
            "frames_seized": self.frames_seized,
            "frames_released": self.frames_released,
            "frames_revoked": self.frames_revoked,
            "frames_restored": self.frames_restored,
            "revocation_shortfall": self.revocation_shortfall,
            "adaptive_replans": self.adaptive_replans,
            "replan_migrations": self.replan_migrations,
            "aborted_replans": self.aborted_replans,
            "fallback_allocations": self.fallback_allocations,
            "fallback_distance_histogram": {
                str(k): v
                for k, v in sorted(self.fallback_distance_histogram.items())
            },
            "capacity_timeline": [list(row) for row in self.capacity_timeline],
            "invariant_checks": self.invariant_checks,
            "total_events": self.total_events,
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationReport":
        """Inverse of :meth:`to_dict`; rehydrates byte-identically.

        ``fallback_allocations`` and ``total_events`` are derived
        properties and are dropped; the histogram keys come back as ints.
        """
        payload = dict(data)
        payload.pop("fallback_allocations", None)
        payload.pop("total_events", None)
        payload["fallback_distance_histogram"] = {
            int(k): v
            for k, v in payload.get("fallback_distance_histogram", {}).items()
        }
        payload["capacity_timeline"] = [
            tuple(row) for row in payload.get("capacity_timeline", [])
        ]
        return cls(**payload)


class ColdPageReclaimer(ReclaimPolicy):
    """Evict the coldest mapped page when the allocator is exhausted.

    "Cold" is judged by the memory system's per-frame miss counts: the
    mapped frame with the fewest external-cache misses is the one whose
    working-set contribution is smallest, so evicting it (unmap, purge
    its cache lines, shoot down its TLB entries) costs the least.  The
    evicted page simply faults back in on its next access — the normal
    paging path, minus the disk.

    ``on_evict(vpage, frame)`` lets the engine drop its own translation
    cache for the evicted page.  The reclaimer keeps ``vm``'s page table,
    not ``vm`` itself: the VM's physical memory holds the reclaimer, so a
    reference back to the VM would make every run a reference cycle.
    """

    def __init__(
        self,
        vm: VirtualMemory,
        ms: MemorySystem,
        on_evict: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.page_table = vm.page_table
        self.ms = ms
        self.on_evict = on_evict
        self.evictions: int = 0

    def reclaim(
        self, physmem: PhysicalMemory, preferred_color: Optional[int]
    ) -> Optional[int]:
        coldest_vpage: Optional[int] = None
        coldest_frame: Optional[int] = None
        coldest_misses: Optional[int] = None
        for vpage, frame in self.page_table.mappings():
            misses = self.ms.frame_misses.get(frame, 0)
            if (
                coldest_misses is None
                or misses < coldest_misses
                or (misses == coldest_misses and frame < coldest_frame)
            ):
                coldest_vpage, coldest_frame, coldest_misses = vpage, frame, misses
        if coldest_vpage is None:
            return None
        self.page_table.unmap(coldest_vpage)
        self.ms.invalidate_frame(coldest_frame)
        self.ms.shootdown(coldest_vpage)
        physmem.free(coldest_frame)
        self.evictions += 1
        if self.on_evict is not None:
            self.on_evict(coldest_vpage, coldest_frame)
        return coldest_frame
