"""Synthetic SPEC95fp workload models.

The paper evaluates the ten SPEC95fp benchmarks parallelized by SUIF.  The
binaries and reference inputs are not available here, so each benchmark is
modeled as a :class:`repro.compiler.ir.Program`: its arrays (matching the
reference data-set sizes of Table 1), its steady-state phase structure
(Section 3.2), and per-loop access declarations that reproduce the
behaviours the paper attributes to it — e.g. su2cor's non-contiguous
per-processor accesses, applu's 33-iteration blocked loops and tiling,
fpppp's instruction-cache-bound sequential execution, and apsi/wave5's
suppressed fine-grain parallelism.  Each model is a ``<name>.workload``
text file in this package; :mod:`repro.workloads.specfp` loads them.
"""

from repro.workloads.specfp import (
    SPEC_REFERENCE_TIMES,
    WORKLOAD_NAMES,
    WorkloadModel,
    data_set_mb,
    get_workload,
    iter_workloads,
)

__all__ = [
    "SPEC_REFERENCE_TIMES",
    "WORKLOAD_NAMES",
    "WorkloadModel",
    "data_set_mb",
    "get_workload",
    "iter_workloads",
]
