"""Fast-path/oracle equivalence: the optimization must be bit-identical.

The vectorized hit filter (``EngineOptions(fast_path=True)``) retires
references in bulk only when it can prove the oracle would produce the
same state and timing; everything else falls through to the per-reference
path.  These tests pin the contract: for every policy and engine feature
that shapes the reference stream or the memory-system state machine, the
full serialized ``RunResult`` — counters, float stall times, overheads,
degradation report — matches the ``fast_path=False`` oracle exactly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.machine.config import sgi_base
from repro.machine.memory_system import MemorySystem
from repro.robustness.faults import FaultPlan
from repro.sim.engine import EngineOptions, _Simulation, run_benchmark
from repro.sim.tracegen import SimProfile
from repro.workloads.specfp import get_workload

CONFIG = sgi_base(4).scaled(16)

#: Every variant crosses a different hazard for the hit filter:
#: coherence (cdpc/bin_hopping layouts), mid-reference TLB fills
#: (prefetch_fills_tlb), phase-boundary remapping (dynamic_recolor), and
#: mid-run frame seizure/reclaim (fault plans).
VARIANTS = {
    "page_coloring": {"policy": "page_coloring"},
    "bin_hopping": {"policy": "bin_hopping"},
    "cdpc": {"policy": "bin_hopping", "cdpc": True},
    "prefetch": {"policy": "page_coloring", "prefetch": True},
    "prefetch_fills_tlb": {
        "policy": "bin_hopping",
        "cdpc": True,
        "prefetch": True,
        "prefetch_fills_tlb": True,
    },
    "dynamic_recolor": {"policy": "bin_hopping", "dynamic_recolor": True},
    "fault_plan": {
        "policy": "bin_hopping",
        "cdpc": True,
        "fault_plan": FaultPlan(
            seed=7, pressure=0.4, hint_loss=0.2, alloc_failure_rate=0.02
        ),
    },
    "fault_race": {
        "policy": "bin_hopping",
        "race_seed": 3,
        "fault_plan": FaultPlan(seed=3, race_storm=2),
    },
}


@pytest.mark.parametrize("workload", ["tomcatv", "swim"])
@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_fast_path_matches_reference(workload, label):
    base = EngineOptions(profile=SimProfile.fast(), **VARIANTS[label])
    fast = run_benchmark(
        workload, CONFIG, replace(base, fast_path=True, trace_cache=True)
    )
    reference = run_benchmark(
        workload, CONFIG, replace(base, fast_path=False, trace_cache=False)
    )
    assert fast.to_dict() == reference.to_dict()


def test_fast_path_is_the_default():
    assert EngineOptions().fast_path
    assert EngineOptions().trace_cache


def test_reference_path_runs_the_layered_oracle(monkeypatch):
    # Without this, wiring fast_path=False to a flat runner would make
    # every equivalence test above compare the fast path with itself.
    calls = 0
    layered = MemorySystem.access

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return layered(self, *args, **kwargs)

    monkeypatch.setattr(MemorySystem, "access", counted)
    config = sgi_base(2).scaled(16)
    program = get_workload("tomcatv", scale=config.scale_factor).program
    for fast_path in (False, True):
        calls = 0
        options = EngineOptions(
            policy="bin_hopping", cdpc=True, profile=SimProfile.fast(),
            fast_path=fast_path,
        )
        sim = _Simulation(program, config, options)
        sim.run()
        ms = sim.ms
        if fast_path:
            assert calls == 0
            continue
        translations = sum(sum(ms.tlb_stats(cpu)) for cpu in range(config.num_cpus))
        assert calls == translations > 0
        assert ms.fast_retired_data == ms.fast_retired_instr == 0
        assert ms.fast_retired_blocks == 0
