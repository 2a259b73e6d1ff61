"""Figure family: symbolic miss prediction vs simulated measurement.

The static analyzer's claim is quantitative: for every workload and
mapping policy, the measured external-cache miss total must land inside
the predictor's self-reported ``[lo, hi]`` interval.  This module sweeps
all 10 SPEC95fp models across {page_coloring, bin_hopping, cdpc},
collects (predicted, bound, measured) triples, and renders them as the
paper-style ASCII figure plus a JSON payload CI archives for diffing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.figures import ascii_bar
from repro.machine.config import MachineConfig
from repro.sim.tracegen import SimProfile

#: The policy labels of the paper's Figure 2 comparison; "cdpc" matches
#: :data:`repro.sim.sweeps.STANDARD_POLICIES` — the bin_hopping base
#: policy with compiler-directed hints delivered by touch order.
POLICY_LABELS = ("page_coloring", "bin_hopping", "cdpc")


@dataclass(frozen=True)
class PredictionCell:
    """One (workload, policy) cell of the cross-validation matrix."""

    workload: str
    policy: str
    predicted: float
    bound_lo: float
    bound_hi: float
    measured: float
    analyze_ns: float
    sim_ns: float
    violations: tuple[str, ...]

    @property
    def within_bound(self) -> bool:
        return not self.violations

    @property
    def error(self) -> float:
        """Relative prediction error vs measurement (0 when both idle)."""
        if self.measured == 0:
            return 0.0 if self.predicted == 0 else 1.0
        return abs(self.predicted - self.measured) / self.measured

    def to_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "predicted": self.predicted,
            "bound_lo": self.bound_lo,
            "bound_hi": self.bound_hi,
            "measured": self.measured,
            "error": self.error,
            "within_bound": self.within_bound,
            "analyze_ns": self.analyze_ns,
            "sim_ns": self.sim_ns,
            "violations": list(self.violations),
        }


def collect_static_vs_sim(
    config: MachineConfig,
    workloads: Optional[Sequence[str]] = None,
    policies: Sequence[str] = POLICY_LABELS,
    num_cpus: Optional[int] = None,
    profile: Optional[SimProfile] = None,
) -> list[PredictionCell]:
    """Predict then simulate every (workload, policy) cell.

    The simulator leg is the expensive one (seconds per cell vs tens of
    milliseconds for the prediction); callers wanting prediction only
    should use :func:`repro.checker.predict_workload` directly.
    """
    import time

    from repro.checker.staticmiss import StaticMissProfile, predict_workload
    from repro.sim.engine import EngineOptions, run_benchmark
    from repro.workloads.specfp import WORKLOAD_NAMES

    names = list(workloads) if workloads is not None else list(WORKLOAD_NAMES)
    sim_profile = profile if profile is not None else SimProfile()
    cells: list[PredictionCell] = []
    for name in names:
        for label in policies:
            cdpc = label == "cdpc"
            native = "bin_hopping" if cdpc else label
            prediction = predict_workload(
                name,
                config,
                num_cpus=num_cpus,
                policy=native,
                cdpc=cdpc,
                profile=sim_profile,
            )
            started = time.perf_counter()
            result = run_benchmark(
                name,
                config,
                EngineOptions(policy=native, cdpc=cdpc, profile=sim_profile),
            )
            sim_ns = (time.perf_counter() - started) * 1e9
            total = prediction.estimate("total")
            measured = StaticMissProfile.measured_from(result)
            cells.append(
                PredictionCell(
                    workload=name,
                    policy=label,
                    predicted=prediction.predicted_total(),
                    bound_lo=total.lo,
                    bound_hi=total.hi,
                    measured=measured["total"],
                    analyze_ns=prediction.analyze_ns,
                    sim_ns=sim_ns,
                    violations=tuple(prediction.check(result)),
                )
            )
    return cells


def static_vs_sim_figure(cells: Sequence[PredictionCell], width: int = 36) -> str:
    """Paired predicted/measured bars per cell, with bound verdicts.

    ``P`` rows are predictions (the trailing ``<= hi`` is the interval
    ceiling), ``M`` rows are simulator measurements; a cell whose
    measurement escapes the interval is flagged ``OUT OF BOUND``.
    """
    if not cells:
        return "(no cells collected)"
    peak = max(max(c.bound_hi, c.measured) for c in cells) or 1.0
    lines = [
        "static prediction vs simulation "
        f"({len(cells)} cells, {sum(1 for c in cells if c.within_bound)} "
        "within bound):"
    ]
    last_workload = None
    for cell in cells:
        if cell.workload != last_workload:
            lines.append(f"{cell.workload}:")
            last_workload = cell.workload
        flag = "" if cell.within_bound else "  OUT OF BOUND"
        lines.append(
            f"  {cell.policy:>13} P {ascii_bar(cell.predicted, peak, width).ljust(width)}"
            f" {cell.predicted:>10.0f} <= {cell.bound_hi:.0f}"
        )
        lines.append(
            f"  {'':>13} M {ascii_bar(cell.measured, peak, width).ljust(width)}"
            f" {cell.measured:>10.0f} err {cell.error:6.1%}"
            f" ({cell.analyze_ns / 1e6:.0f}ms vs {cell.sim_ns / 1e6:.0f}ms){flag}"
        )
    return "\n".join(lines)


def static_vs_sim_payload(cells: Sequence[PredictionCell]) -> dict[str, object]:
    """The JSON artifact CI uploads: cells plus matrix-level verdicts."""
    return {
        "cells": [cell.to_dict() for cell in cells],
        "within_bound": all(cell.within_bound for cell in cells),
        "max_error": max((cell.error for cell in cells), default=0.0),
        "median_analyze_ns": sorted(
            cell.analyze_ns for cell in cells
        )[len(cells) // 2] if cells else 0.0,
    }
