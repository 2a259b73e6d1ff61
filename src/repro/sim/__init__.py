"""Trace-driven execution engine (the reproduction's SimOS).

* :mod:`repro.sim.tracegen` — turns loop-nest programs into per-processor
  reference streams (numpy address/flag arrays), interleaving the arrays
  touched by a loop the way the generated code would (a[i], b[i], ... per
  iteration) — the interleaving is what makes same-color array starts
  thrash a direct-mapped cache;
* :mod:`repro.sim.windows` — representative execution windows (Section
  3.2) and the per-occurrence variation check that validates them;
* :mod:`repro.sim.engine` — drives the streams through the memory system
  with per-processor clocks, barrier/sequential/suppressed overhead
  accounting, page-fault servicing and optional prefetching;
* :mod:`repro.sim.results` — the :class:`RunResult` record with the
  Figure 2 breakdowns;
* :mod:`repro.sim.sweeps` — policy/processor-count sweep helpers.
"""

from repro.sim.engine import EngineOptions, run_benchmark, run_program
from repro.sim.results import PhaseResult, RunResult
from repro.sim.sweeps import STANDARD_POLICIES, cpu_sweep, policy_sweep, speedup_table
from repro.sim.tracegen import SimProfile, loop_traces
from repro.sim.windows import (
    PhaseWindow,
    occurrence_variation,
    representative_window,
)

__all__ = [
    "EngineOptions",
    "STANDARD_POLICIES",
    "cpu_sweep",
    "policy_sweep",
    "speedup_table",
    "PhaseResult",
    "PhaseWindow",
    "RunResult",
    "SimProfile",
    "loop_traces",
    "occurrence_variation",
    "representative_window",
    "run_benchmark",
    "run_program",
]
