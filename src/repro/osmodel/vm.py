"""Virtual memory manager: page-fault servicing and the CDPC interfaces.

Two CDPC delivery mechanisms from Section 5.3 are modeled:

* ``madvise_colors`` — the IRIX kernel extension: hints go into a table
  consulted by the fault handler (requires a :class:`CdpcHintPolicy`).
* ``touch_pages`` — the Digital UNIX user-level trick: with a bin-hopping
  native policy, faulting pages in a chosen order produces the desired
  mapping without kernel changes, at the cost of serializing the faults.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.machine.config import MachineConfig
from repro.osmodel.page_table import PageTable
from repro.osmodel.physmem import PhysicalMemory
from repro.osmodel.policies import CdpcHintPolicy, MappingPolicy


class VirtualMemory:
    """One address space on one machine, under one mapping policy."""

    #: Cost of servicing a page fault, charged as kernel overhead.
    PAGE_FAULT_NS = 2000.0

    def __init__(
        self,
        config: MachineConfig,
        policy: MappingPolicy,
        physmem: Optional[PhysicalMemory] = None,
        memory_frames: Optional[int] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        if policy.num_colors != config.num_colors:
            raise ValueError(
                f"policy has {policy.num_colors} colors but the machine has "
                f"{config.num_colors}"
            )
        if physmem is None:
            # Default: enough physical memory for 4x the largest working
            # set we simulate, in whole multiples of the color count.
            # Non-classic geometries supply their learned frame->color
            # map; the classic bit-field keeps the allocator's own
            # ``frame % num_colors`` arithmetic (identical results,
            # cheaper per call).
            frames = memory_frames or config.num_colors * 64
            color_function = config.color_function
            color_fn = None if color_function.classic else color_function.color_of
            physmem = PhysicalMemory(frames, config.num_colors, color_fn=color_fn)
        self.physmem = physmem
        self.page_table = PageTable(config.page_size)
        self.faults = 0
        self.fault_ns_total = 0.0

    # ------------------------------------------------------------------
    # Fault path

    def fault(self, vpage: int, cpu: int = 0, concurrent_faults: int = 1) -> int:
        """Service a page fault; returns the allocated frame."""
        if self.page_table.is_mapped(vpage):
            raise ValueError(f"virtual page {vpage} is already mapped")
        color = self.policy.preferred_color(vpage, cpu, concurrent_faults)
        frame = self.physmem.alloc(color)
        self.page_table.map(vpage, frame)
        self.faults += 1
        self.fault_ns_total += self.PAGE_FAULT_NS
        return frame

    def ensure_mapped(self, vpage: int, cpu: int = 0, concurrent_faults: int = 1) -> bool:
        """Map a page if needed.  Returns True when a fault was taken."""
        if self.page_table.is_mapped(vpage):
            return False
        self.fault(vpage, cpu, concurrent_faults)
        return True

    def translate(self, vaddr: int) -> int:
        return self.page_table.translate(vaddr)

    def color_of_vpage(self, vpage: int) -> int:
        frame = self.page_table.frame_of(vpage)
        if frame is None:
            raise KeyError(f"virtual page {vpage} is not mapped")
        return self.physmem.color_of(frame)

    # ------------------------------------------------------------------
    # CDPC interfaces (Section 5.3)

    def madvise_colors(self, hints: dict[int, int]) -> int:
        """Install preferred-color hints via the IRIX-style kernel extension.

        Returns the number of hints installed.  Raises ``TypeError`` when
        the mapping policy has no hint table (i.e. is not CDPC-capable),
        mirroring an OS without the extension.
        """
        if not isinstance(self.policy, CdpcHintPolicy):
            raise TypeError(
                f"policy {self.policy.name!r} does not accept page color hints"
            )
        self.policy.install_hints(hints)
        return len(hints)

    def touch_pages(self, vpages: Sequence[int]) -> int:
        """Fault pages in a specific order (the Digital UNIX user-level CDPC).

        All faults are serialized on one CPU, matching the drawback noted in
        Section 5.3.  Already-mapped pages are skipped.  Returns the number
        of faults taken.
        """
        taken = 0
        for vpage in vpages:
            if self.ensure_mapped(vpage, cpu=0, concurrent_faults=1):
                taken += 1
        return taken

    # ------------------------------------------------------------------
    # Introspection

    def color_histogram(self) -> list[int]:
        """Number of mapped pages per color, for utilization analysis."""
        histogram = [0] * self.config.num_colors
        for _vpage, frame in self.page_table.mappings():
            histogram[self.physmem.color_of(frame)] += 1
        return histogram
