"""Property suite over the option space: accepted sets run right, the rest raise.

Hypothesis draws option sets that :class:`EngineOptions` accepts and runs
each on a small program, on a tiny machine or any preset at 1/16 scale,
at 1, 2 or 4 CPUs, with the invariant checker on.  Every accepted set must give
the same serialized result on the fast path, on the oracle
(``fast_path=False``) and with observability on; wherever ``static_check``
is legal it is drawn too, so the predictor's interval must hold.  A
table of rejected sets must raise at construction, naming the field.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import MACHINE_PRESETS
from repro.obs import ObsConfig
from repro.robustness.faults import FaultPlan
from repro.scenarios import CapacityEvent, JobSpec, ScenarioSpec, compile_churn
from repro.sim.engine import (
    CDPC_DELIVERIES,
    NATIVE_POLICIES,
    EngineOptions,
    run_program,
)
from repro.sim.tracegen import SimProfile

from tests.conftest import make_stencil_program, make_two_array_program
from tests.test_sim_engine import tiny_machine

#: The tiny machine and every preset at 1/16 scale, drawn per example.
MACHINES = {
    "tiny_machine": tiny_machine,
    **{
        f"{name}/16": lambda cpus, preset=preset: preset(cpus).scaled(16)
        for name, preset in MACHINE_PRESETS.items()
    },
}

PROGRAMS = {
    "fig4": make_two_array_program,
    "stencil": make_stencil_program,
}

#: A co-runner arrival plus a revocation and a restore, beats 0-3.
CHURN = compile_churn(
    ScenarioSpec(
        name="options",
        workload="fpppp",
        seed=1,
        jobs=(JobSpec("co", arrive_beat=0, depart_beat=3, frames=0.2,
                      color_skew=0.8),),
        capacity_events=(
            CapacityEvent(beat=1, delta_frames=-0.2),
            CapacityEvent(beat=2, delta_frames=0.2),
        ),
    )
)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 3)),
        pressure=draw(st.sampled_from([0.0, 0.4])),
        hint_loss=draw(st.sampled_from([0.0, 0.3])),
        alloc_failure_rate=draw(st.sampled_from([0.0, 0.05])),
        race_storm=draw(st.sampled_from([0, 2])),
    )


@st.composite
def accepted_options(draw):
    """Option sets construction accepts, ``static_check`` wherever legal.

    Half the draws leave every runtime perturbation off, so the region
    where ``static_check`` is legal is reached as often as the rest.
    """
    perturb = draw(st.booleans())

    def maybe(strategy, default):
        return draw(strategy) if perturb else default

    cdpc = draw(st.booleans())
    prefetch = maybe(st.booleans(), False)
    hint_watchdog = maybe(st.none() | st.sampled_from([0.5, 0.9]), None)
    options = EngineOptions(
        policy=draw(st.sampled_from(NATIVE_POLICIES)),
        cdpc=cdpc,
        cdpc_delivery=draw(st.sampled_from(CDPC_DELIVERIES)),
        prefetch=prefetch,
        prefetch_fills_tlb=prefetch and draw(st.booleans()),
        aligned=draw(st.booleans()),
        profile=SimProfile.fast(),
        race_seed=maybe(st.none() | st.integers(0, 3), None),
        init_jitter=draw(st.sampled_from([0, 4])),
        memory_pressure=maybe(st.sampled_from([0.0, 0.3]), 0.0),
        dynamic_recolor=maybe(st.booleans(), False),
        recolor_threshold=draw(st.sampled_from([4, 16])),
        seed=draw(st.integers(0, 3)),
        fault_plan=maybe(st.none() | fault_plans(), None),
        hint_watchdog=hint_watchdog,
        churn=maybe(st.sampled_from([None, CHURN]), None),
        adaptive_cdpc=(
            cdpc and hint_watchdog is not None and draw(st.booleans())
        ),
        epochs=draw(st.integers(1, 2)),
        columnar=draw(st.booleans()),
        trace_cache=draw(st.booleans()),
        strict=draw(st.booleans()),
    )
    try:
        checked = replace(options, static_check=True)
    except ValueError:
        return options
    return checked if draw(st.booleans()) else options


class TestAcceptedOptions:
    @settings(max_examples=30, deadline=None)
    @given(
        accepted_options(),
        st.sampled_from(sorted(PROGRAMS)),
        st.sampled_from(sorted(MACHINES)),
        st.sampled_from([1, 2, 4]),
    )
    def test_fast_path_oracle_and_obs_agree(self, options, program, machine, cpus):
        config = MACHINES[machine](cpus)
        workload = PROGRAMS[program](config.page_size)
        checked = replace(options, check_invariants=True)
        fast = run_program(workload, config, replace(checked, fast_path=True))
        oracle = run_program(workload, config, replace(checked, fast_path=False))
        observed = run_program(
            workload, config, replace(checked, fast_path=True, obs=ObsConfig())
        )
        assert fast.to_dict() == oracle.to_dict() == observed.to_dict()
        assert fast.degradation.invariant_checks > 0
        # A violated interval raises StaticCheckError inside run_program.
        assert (fast.static_check is not None) == options.static_check


#: (fields, the field the error must name).
REJECTED = [
    ({"policy": "fifo"}, "policy"),
    ({"policy": "cdpc"}, "policy"),
    ({"cdpc_delivery": "carrier_pigeon"}, "cdpc_delivery"),
    ({"epochs": 0}, "epochs"),
    ({"adaptive_cdpc": True}, "adaptive_cdpc"),
    ({"adaptive_cdpc": True, "cdpc": True}, "adaptive_cdpc"),
    ({"adaptive_cdpc": True, "hint_watchdog": 0.5}, "adaptive_cdpc"),
    ({"prefetch_fills_tlb": True}, "prefetch_fills_tlb"),
    ({"static_check": True, "prefetch": True}, "prefetch"),
    ({"static_check": True, "dynamic_recolor": True}, "dynamic_recolor"),
    ({"static_check": True, "churn": CHURN}, "churn"),
    ({"static_check": True, "fault_plan": FaultPlan()}, "fault_plan"),
    ({"static_check": True, "memory_pressure": 0.5}, "memory_pressure"),
    ({"static_check": True, "hint_watchdog": 0.5}, "hint_watchdog"),
    ({"static_check": True, "race_seed": 7}, "race_seed"),
    ({"static_check": True, "aligned": False}, "aligned"),
    (
        {"static_check": True, "cdpc": True, "hint_watchdog": 0.5,
         "adaptive_cdpc": True},
        "adaptive_cdpc",
    ),
    ({"static_check": True, "cdpc": True, "cdpc_delivery": "touch"},
     "cdpc_delivery"),
    (
        {"static_check": True, "cdpc": True, "policy": "bin_hopping",
         "cdpc_delivery": "madvise"},
        "cdpc_delivery",
    ),
]


@pytest.mark.parametrize(
    "fields, named", REJECTED, ids=[repr(fields) for fields, _ in REJECTED]
)
def test_rejected_at_construction(fields, named):
    with pytest.raises(ValueError, match=named):
        EngineOptions(**fields)
    with pytest.raises(ValueError, match=named):
        replace(EngineOptions(), **fields)


@pytest.mark.parametrize(
    "fields",
    [
        # Session.sweep over labels that ignore the watchdog.
        {"hint_watchdog": 0.5},
        # repro faults --no-cdpc keeps the seeded race.
        {"race_seed": 3, "hint_watchdog": 0.5},
        # An explicit delivery without CDPC is inert, not wrong.
        {"policy": "bin_hopping", "cdpc_delivery": "madvise"},
        # The oracle, spelled with the default columnar flag.
        {"fast_path": False, "columnar": True},
    ],
)
def test_inert_combinations_stay_legal(fields):
    EngineOptions(**fields)
