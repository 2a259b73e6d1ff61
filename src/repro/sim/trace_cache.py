"""Memoization of generated reference streams (the trace cache).

Trace generation is pure: for a fixed (loop, schedule, layout, machine
geometry, simulation profile, prefetch plan, fraction scale) the numpy
streams :func:`repro.sim.tracegen.loop_traces` produces are bit-identical
every time.  The engine regenerates them constantly — once for the warmup
pass and once for the measured pass of every phase, once per occurrence in
:func:`measure_occurrence_variation`, and once per run in a policy sweep
even though page-mapping policy does not influence *virtual* address
streams at all.

This module provides a bounded LRU cache keyed by a full fingerprint of
every input that can change the generated stream.  Anything that alters
the trace — a different layout (e.g. ``aligned=False``), another
simulation profile, a phase occurrence with a different
``fraction_scale``, a different prefetch plan or processor count — lands
on a different key, so stale traces can never be returned; entries beyond
the capacity are evicted least-recently-used first.

Cached :class:`~repro.sim.tracegen.CpuTrace` objects are shared between
runs, which is safe because the engine treats traces as read-only (its
derived ``ref_stream`` columns are themselves memoized on the trace).

**Concurrency contract.**  The cache is thread-safe: all bookkeeping
(lookup, insertion, LRU reordering, eviction, counters) happens under one
lock, so the coloring service's batcher — which runs serial campaigns on
worker *threads* of one process — can share the process-wide default
cache without corrupting the LRU list or losing hit/miss accounting.
Trace *generation* runs outside the lock (it dominates the cost and must
not serialize independent misses); when two threads miss the same key
concurrently, both generate, the first insertion wins, and the loser's
identical result is discarded — wasted work, never a wrong answer.
Worker *processes* of a parallel sweep each hold their own copy, so
cross-process sharing never arises.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

from repro.compiler.padding import Layout
from repro.compiler.parallelize import LoopSchedule
from repro.compiler.prefetch_pass import PrefetchPlan
from repro.machine.config import MachineConfig
from repro.sim.tracegen import CpuTrace, SimProfile

__all__ = [
    "TraceCache",
    "default_trace_cache",
    "layout_fingerprint",
    "plan_fingerprint",
    "trace_key",
]


def layout_fingerprint(layout: Layout) -> tuple:
    """Hashable identity of a layout: every base, size, and the alignment."""
    return (
        tuple(sorted(layout.bases.items())),
        tuple(sorted(layout.sizes.items())),
        layout.aligned,
        layout.total_bytes,
    )


def plan_fingerprint(plan: Optional[PrefetchPlan]) -> Optional[tuple]:
    """Hashable identity of a prefetch plan (decisions are frozen)."""
    if plan is None:
        return None
    return tuple(plan.decisions)


def trace_key(
    schedule: LoopSchedule,
    layout_fp: tuple,
    config: MachineConfig,
    profile: SimProfile,
    plan_fp: Optional[tuple],
    fraction_scale: float,
) -> tuple:
    """The full cache key for one ``loop_traces`` invocation.

    ``schedule`` embeds the loop (a frozen dataclass) and the per-CPU
    iteration ranges, so loop identity and processor count are covered.
    """
    return (schedule, layout_fp, config, profile, plan_fp, fraction_scale)


class TraceCache:
    """A bounded LRU cache of generated per-loop trace lists."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, list[CpuTrace]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get_or_generate(
        self, key: tuple, generate: Callable[[], list[CpuTrace]]
    ) -> list[CpuTrace]:
        """Return the cached traces for ``key``, generating them on a miss.

        Generation runs outside the lock: concurrent misses on the same
        key each generate (generation is pure, so the results are
        identical), the first insertion wins, and every caller returns
        the winning list so all threads share one object.
        """
        with self._lock:
            traces = self._entries.get(key)
            if traces is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return traces
            self.misses += 1
        traces = generate()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # A concurrent thread published first; keep its object so
                # every caller shares one memoized trace list.
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = traces
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return traces

    def clear(self) -> None:
        """Drop every entry (counters are kept for inspection)."""
        with self._lock:
            self._entries.clear()

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Counters plus a census of derived artifacts riding on entries.

        ``columnar_indexes`` counts cached streams carrying a memoized
        columnar block index (:func:`repro.machine.columnar.block_index`),
        which this cache amortizes across runs, so the census shows how
        much static-lowering work warm runs are reusing.
        """
        columnar = 0
        with self._lock:
            entries = list(self._entries.values())
        for traces in entries:
            for trace in traces:
                d = getattr(trace, "__dict__", None)
                if d is None:
                    continue
                cached_stream = d.get("_ref_stream")
                if cached_stream is not None and "_columnar" in getattr(
                    cached_stream[1], "__dict__", {}
                ):
                    columnar += 1
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "columnar_indexes": columnar,
            }


#: Process-wide cache shared by every engine instance with
#: ``EngineOptions(trace_cache=True)``.  Worker processes of a parallel
#: sweep each hold their own copy.
_DEFAULT = TraceCache()


def default_trace_cache() -> TraceCache:
    return _DEFAULT
