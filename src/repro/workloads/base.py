"""Workload model: a program plus benchmark metadata."""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import Program


@dataclass(frozen=True)
class WorkloadModel:
    """One SPEC95fp benchmark as modeled for this reproduction."""

    spec_id: str  # e.g. "101.tomcatv"
    program: Program
    #: SPEC95 reference time on the SparcStation 10, in seconds (used for
    #: the SPEC ratio of Table 2).
    reference_time_s: float
    #: Multiplier converting one simulated steady-state unit into the
    #: benchmark's full run time, used to put measured times on a Table 2
    #: scale (the steady state accounts for >95% of execution, Section 3.2).
    steady_state_repeats: float = 1.0
    description: str = ""

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def data_set_mb(self) -> float:
        return self.program.data_set_bytes / (1024 * 1024)
