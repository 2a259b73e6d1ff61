"""A per-processor TLB model.

TLB misses contribute to the kernel overhead category of Figure 2 (the
paper notes the kernel time is "primarily servicing TLB faults"), and the
R10000-style prefetch instruction drops prefetches whose page is not mapped
in the TLB — the reason prefetching is ineffective for applu (Section 6.2).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.machine.config import TlbConfig


class Tlb:
    """Fully-associative LRU TLB over virtual page numbers."""

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, vpage: int) -> bool:
        """Translate a page; fills on miss.  Returns True on a hit."""
        entries = self._entries
        if vpage in entries:
            entries.move_to_end(vpage)
            self.hits += 1
            return True
        self.misses += 1
        entries[vpage] = None
        if len(entries) > self.config.entries:
            entries.popitem(last=False)
        return False

    def probe(self, vpage: int) -> bool:
        """Check for a mapping without filling (used by prefetch drop logic)."""
        return vpage in self._entries

    @property
    def entries(self) -> OrderedDict[int, None]:
        """The live entry table, least recently used first.

        Exposed for the engine's bulk hit filter, which needs O(1)
        membership probes and replays the move-to-back of a hit directly
        (``entries.move_to_end(vpage)``) while crediting ``hits`` in bulk.
        Treat as read-mostly; any mutation must preserve the LRU-order
        invariant ``access`` maintains.
        """
        return self._entries

    def invalidate(self, vpage: int) -> None:
        self._entries.pop(vpage, None)

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
