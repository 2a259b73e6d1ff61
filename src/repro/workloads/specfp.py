"""Registry of the ten SPEC95fp workload models (Table 1).

Each model is a text-format program (:mod:`repro.compiler.frontend`)
shipped in this package as ``<name>.workload`` at its reference data-set
size.  :func:`get_workload` parses the file and scales it to the machine;
the table below adds what the text format does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from repro.compiler.frontend import parse_program
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


#: name -> (SPEC id, reference time in seconds, steady-state repeats,
#: description), in the suite order of the paper's tables and figures.
_SUITE: dict[str, tuple[str, float, float, str]] = {
    "tomcatv": ("101.tomcatv", 3700.0, 75.0,
                "Mesh generation; 7 x 2MB arrays, shift communication."),
    "swim": ("102.swim", 8600.0, 90.0,
             "Shallow water stencil; 14 x 1MB arrays, rotate boundaries."),
    "su2cor": ("103.su2cor", 1400.0, 40.0,
               "Monte Carlo; cyclic-distributed gauge arrays defeat CDPC."),
    "hydro2d": ("104.hydro2d", 2400.0, 60.0,
                "Hydrodynamics; 40 x 200KB fields, shift stencils."),
    "mgrid": ("107.mgrid", 2500.0, 50.0,
              "Multigrid V-cycles; high reuse, few replacement misses."),
    "applu": ("110.applu", 2200.0, 50.0,
              "SSOR PDE solver; 33-iteration blocked loops, tiled."),
    "turb3d": ("125.turb3d", 4100.0, 3.0,
               "Turbulence FFTs; 4 phases x (11, 66, 100, 120)."),
    "apsi": ("141.apsi", 2100.0, 40.0,
             "Pollutant transport; parallelism mostly suppressed."),
    "fpppp": ("145.fpppp", 9600.0, 30.0,
              "No loop parallelism; instruction-cache bound."),
    "wave5": ("146.wave5", 3000.0, 25.0,
              "Particle-in-cell; suppressed particle pushes, 40MB."),
}

#: Suite order used throughout the paper's tables and figures.
WORKLOAD_NAMES = tuple(_SUITE)

#: SPEC95 reference times (SparcStation 10), seconds — the denominator of
#: the SPEC ratio in Table 2.
SPEC_REFERENCE_TIMES = {name: row[1] for name, row in _SUITE.items()}


def get_workload(name: str, scale: int = 1) -> WorkloadModel:
    """Load one workload model, geometrically scaled by ``scale``.

    ``scale`` must match the machine's :attr:`MachineConfig.scale_factor`
    so that footprint-to-cache ratios are preserved.
    """
    try:
        spec_id, reference_time_s, repeats, description = _SUITE[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}"
        ) from None
    text = resources.files("repro.workloads").joinpath(f"{name}.workload").read_text()
    return WorkloadModel(
        spec_id=spec_id,
        program=parse_program(text).scaled(scale),
        reference_time_s=reference_time_s,
        steady_state_repeats=repeats,
        description=description,
    )


def iter_workloads(scale: int = 1) -> Iterator[WorkloadModel]:
    """All ten workloads in suite order."""
    for name in WORKLOAD_NAMES:
        yield get_workload(name, scale)


def data_set_mb(name: str) -> float:
    """Reference data-set size in MB (Table 1)."""
    return get_workload(name, scale=1).data_set_mb
