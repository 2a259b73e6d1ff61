"""The CDPC run-time library (Section 5, stages 2-3).

The compiler emits access-pattern summaries; at program start-up this
library combines them with machine-specific parameters (processor count,
cache configuration, page size) to produce a preferred color for each
virtual page, then delivers the hints to the operating system:

* on an IRIX-style kernel, through the single ``madvise``-style system
  call (:meth:`CdpcRuntime.install_hints`);
* on a Digital-UNIX-style kernel with native bin hopping, by touching
  pages in the coloring order (:meth:`CdpcRuntime.touch_order`) — since
  bin hopping hands out colors cyclically in fault order and CDPC's hints
  are round-robin over its page order, faulting pages in exactly that
  order realizes the mapping with no kernel modification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.access_summary import AccessSummary

if TYPE_CHECKING:  # imported lazily at run time to avoid a package cycle
    from repro.compiler.ir import Program
    from repro.compiler.padding import Layout
from repro.core.coloring import ColoringResult, generate_page_colors
from repro.machine.config import MachineConfig
from repro.osmodel.vm import VirtualMemory


@dataclass
class CdpcRuntime:
    """Generates and delivers page-color hints for one program instance."""

    summary: AccessSummary
    config: MachineConfig
    num_cpus: int
    coloring: ColoringResult

    @classmethod
    def from_summary(
        cls, summary: AccessSummary, config: MachineConfig, num_cpus: int | None = None
    ) -> "CdpcRuntime":
        cpus = num_cpus or config.num_cpus
        coloring = generate_page_colors(
            summary, config.page_size, config.num_colors, cpus
        )
        return cls(summary=summary, config=config, num_cpus=cpus, coloring=coloring)

    @classmethod
    def from_program(
        cls,
        program: Program,
        layout: Layout,
        config: MachineConfig,
        num_cpus: int | None = None,
    ) -> "CdpcRuntime":
        """Convenience constructor running the compiler pass first."""
        from repro.compiler.summaries import extract_summary

        summary = extract_summary(program, layout)
        return cls.from_summary(summary, config, num_cpus)

    @property
    def hints(self) -> dict[int, int]:
        return self.coloring.colors

    def install_hints(self, vm: VirtualMemory) -> int:
        """Deliver hints through the madvise-style kernel interface."""
        return vm.madvise_colors(self.hints)

    def touch_order(self) -> list[int]:
        """The page-fault order realizing the mapping on bin hopping.

        Bin hopping assigns color ``k mod num_colors`` to the k-th fault;
        CDPC's round-robin assignment gives the k-th page of its order the
        same color, so the coloring order *is* the touch order.
        """
        return list(self.coloring.page_order)

    def install_by_touching(self, vm: VirtualMemory) -> int:
        """Deliver the mapping on an unmodified bin-hopping kernel."""
        return vm.touch_pages(self.touch_order())
