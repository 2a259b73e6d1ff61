"""Set-associative and fully-associative LRU cache models.

These are behavioural models: they track which line addresses are resident
and which are evicted, not the data itself.  The fully-associative cache is
used as a *shadow* cache to separate conflict misses (miss in the real
cache, hit in a fully-associative cache of the same capacity) from capacity
misses (miss in both), the standard classification the paper relies on.

The set-associative model is on the simulator's per-reference hot path, so
it keeps two redundant views of its contents: the per-set LRU lists that
define replacement behaviour, and a flat ``resident`` set that answers
membership probes in O(1).  The engine's vectorized hit filter
(``docs/performance.md``) relies on ``resident`` and on :meth:`promote`,
which must replay exactly the LRU effect of a :meth:`lookup` hit.

Set selection is pluggable: by default a line maps to set
``(addr >> line_shift) % num_sets`` (the classic physically- or
virtually-indexed modulo), but a sliced LLC passes ``index_fn`` — the
geometry's :meth:`~repro.machine.hierarchy.ColorFunction.line_index` —
so the slice hash decides which global set a line occupies.  The engine's
fast path mirrors whichever indexing the cache uses (it captures the same
``index_fn``), keeping the two paths bit-identical on every geometry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional

from repro.machine.config import CacheConfig


class SetAssociativeCache:
    """An LRU set-associative cache of line addresses.

    Lines are identified by their line-aligned byte address.  Each set is a
    small list ordered most-recently-used first, which is fast for the low
    associativities (1-8) the paper studies.
    """

    def __init__(
        self,
        config: CacheConfig,
        index_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.config = config
        num_sets = config.num_sets
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        # Hot-path constants, hoisted out of the per-reference lookups:
        # line_size is a validated power of two, so ``// line_size`` is a
        # shift; num_sets may not be (odd associativities), so keep ``%``.
        self._num_sets = num_sets
        self._line_shift = config.line_size.bit_length() - 1
        self._associativity = config.associativity
        #: Geometry-supplied set indexing (``None`` = classic modulo).
        self.index_fn = index_fn
        #: Flat membership view of every resident line (all sets combined).
        #: Kept exactly in sync with the per-set lists.
        self.resident: set[int] = set()

    def index_of(self, line_addr: int) -> int:
        """Which set a line-aligned address maps to."""
        if self.index_fn is not None:
            return self.index_fn(line_addr)
        return (line_addr >> self._line_shift) % self._num_sets

    def _set_for(self, line_addr: int) -> list[int]:
        return self._sets[self.index_of(line_addr)]

    def lookup(self, line_addr: int) -> bool:
        """Probe for a line; on a hit the line becomes most recently used."""
        idx = self.index_fn
        ways = self._sets[
            idx(line_addr) if idx is not None
            else (line_addr >> self._line_shift) % self._num_sets
        ]
        try:
            ways.remove(line_addr)
        except ValueError:
            return False
        ways.insert(0, line_addr)
        return True

    def contains(self, line_addr: int) -> bool:
        """Probe without disturbing LRU order."""
        return line_addr in self.resident

    def insert(self, line_addr: int) -> Optional[int]:
        """Insert a line, returning the evicted line address if any."""
        idx = self.index_fn
        ways = self._sets[
            idx(line_addr) if idx is not None
            else (line_addr >> self._line_shift) % self._num_sets
        ]
        if line_addr in ways:
            ways.remove(line_addr)
            ways.insert(0, line_addr)
            return None
        ways.insert(0, line_addr)
        self.resident.add(line_addr)
        if len(ways) > self._associativity:
            victim = ways.pop()
            self.resident.discard(victim)
            return victim
        return None

    def access_line(self, line_addr: int) -> tuple[bool, Optional[int]]:
        """Combined lookup-then-insert: one set probe per reference.

        Returns ``(hit, evicted)``.  Equivalent to ``lookup`` followed, on
        a miss, by ``insert`` — the form every demand access takes — but
        with a single set indexing.
        """
        idx = self.index_fn
        ways = self._sets[
            idx(line_addr) if idx is not None
            else (line_addr >> self._line_shift) % self._num_sets
        ]
        try:
            ways.remove(line_addr)
        except ValueError:
            ways.insert(0, line_addr)
            self.resident.add(line_addr)
            if len(ways) > self._associativity:
                victim = ways.pop()
                self.resident.discard(victim)
                return False, victim
            return False, None
        ways.insert(0, line_addr)
        return True, None

    def promote(self, line_addr: int) -> None:
        """Make a *known-resident* line most recently used.

        Exactly the state effect of a :meth:`lookup` hit, used by the
        engine's bulk hit filter after it has verified residency through
        ``resident``.  Calling it for a non-resident line is a bug.
        """
        ways = self._set_for(line_addr)
        if ways[0] != line_addr:
            ways.remove(line_addr)
            ways.insert(0, line_addr)

    def invalidate(self, line_addr: int) -> bool:
        """Remove a line (coherence invalidation).  True if it was present."""
        idx = self.index_fn
        ways = self._sets[
            idx(line_addr) if idx is not None
            else (line_addr >> self._line_shift) % self._num_sets
        ]
        try:
            ways.remove(line_addr)
        except ValueError:
            return False
        self.resident.discard(line_addr)
        return True

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.resident.clear()

    def resident_lines(self) -> Iterator[int]:
        for ways in self._sets:
            yield from ways

    def occupancy(self) -> int:
        """Number of resident lines."""
        return len(self.resident)

    def utilization(self) -> float:
        """Fraction of the cache's line slots that are occupied."""
        return self.occupancy() / self.config.num_lines


class FullyAssociativeLRU:
    """A fully-associative LRU cache used as a shadow for miss classification.

    Implemented with an ``OrderedDict``: a hit is ``move_to_end`` and the
    eviction victim is ``popitem(last=False)``, both O(1), so the front is
    the least recently used.
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines < 1:
            raise ValueError("capacity must be at least one line")
        self.capacity = capacity_lines
        self._lines: OrderedDict[int, None] = OrderedDict()

    def access(self, line_addr: int) -> bool:
        """Touch a line; returns True on hit.  Misses insert with LRU eviction."""
        lines = self._lines
        if line_addr in lines:
            lines.move_to_end(line_addr)
            return True
        lines[line_addr] = None
        if len(lines) > self.capacity:
            lines.popitem(last=False)
        return False

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._lines

    def invalidate(self, line_addr: int) -> bool:
        if line_addr in self._lines:
            del self._lines[line_addr]
            return True
        return False

    def __len__(self) -> int:
        return len(self._lines)
