"""The execution engine: runs a program on the simulated multiprocessor.

``run_program`` reproduces the paper's methodology end to end:

1. **Layout** — arrays are placed in virtual memory by the compiler's
   layout pass (aligned + group-padded by default; packed unaligned for
   the Figure 9 baseline).
2. **Compilation** — access summaries are extracted and, when enabled,
   the prefetch pass runs.
3. **OS setup** — a virtual-memory instance is created under the chosen
   page-mapping policy.  With CDPC enabled, hints are delivered either
   through the madvise extension (IRIX style) or by pre-touching pages in
   coloring order (Digital UNIX style).
4. **Initialization** — the master touches every array page in the
   program's init order, taking the page faults that determine bin
   hopping's coloring.  An optional jitter models the kernel fault race.
5. **Steady state** — a representative execution window runs: one warmup
   pass (statistics discarded, like the paper's cold-phase discard), then
   one measured pass with per-phase statistics weighted by occurrence
   counts.

Per-processor clocks advance by instruction work plus memory stalls;
parallel loops end at a barrier where arrival spread is charged to load
imbalance; sequential and suppressed loops charge slave idle time to the
matching Figure 2 overhead category.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.compiler.ir import LoopKind, Program
from repro.compiler.padding import layout_arrays
from repro.compiler.parallelize import schedule_loop
from repro.compiler.prefetch_pass import PrefetchPlan, insert_prefetches
from repro.compiler.summaries import extract_summary
from repro.core.runtime import CdpcRuntime
from repro.machine.config import MachineConfig
from repro.machine.columnar import columnar_runner as columnar_loop_runner
from repro.machine.fast_path import loop_runner as fast_loop_runner
from repro.machine.memory_system import MemorySystem, reference_runner
from repro.machine.stats import MachineStats
from repro.obs import DEFAULT_DISTANCE_EDGES, Observability, ObsConfig
from repro.osmodel.physmem import CascadeReclaimer, HeldFrameReclaimer
from repro.osmodel.policies import (
    BinHoppingPolicy,
    CdpcHintPolicy,
    MappingPolicy,
    PageColoringPolicy,
)
from repro.osmodel.vm import VirtualMemory
from repro.robustness.degradation import (
    ColdPageReclaimer,
    DegradationLog,
    DegradationReport,
)
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.invariants import check_invariants
from repro.sim.results import (
    PhaseResult,
    RunResult,
    add_scaled_stats,
)
from repro.sim.trace_cache import (
    default_trace_cache,
    layout_fingerprint,
    plan_fingerprint,
    trace_key,
)
from repro.sim.tracegen import (
    INSTRUCTION_BASE,
    RefStream,
    SimProfile,
    loop_traces,
    occurrence_scale,
)
from repro.sim.windows import occurrence_variation, representative_window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checker.staticmiss import StaticMissProfile
    from repro.osmodel.dynamic import AdaptiveCdpc, DynamicRecolorer
    from repro.scenarios.churn import ChurnDriver, ChurnSchedule

_CHUNK = 16  # references simulated per processor per scheduling round

#: Adaptive CDPC re-plans allowed per run before the mode concedes and
#: falls back to the dynamic recolorer like a plain watchdog trip.
_ADAPTIVE_MAX_REPLANS = 4
#: An adaptive-CDPC window only counts as a *collapse* (and triggers a
#: re-plan) when its honor rate is below ``hint_watchdog`` AND below this
#: fraction of the best healthy rate observed so far.  The relative test
#: keeps a plan that is merely mediocre from burning the re-plan budget
#: the moment the run starts; the watchdog reacts to *drops*.
_ADAPTIVE_COLLAPSE_RATIO = 0.8


#: The native OS page-mapping policies: IRIX page coloring and Digital
#: UNIX bin hopping.
NATIVE_POLICIES = ("page_coloring", "bin_hopping")
#: How CDPC hints reach the OS (Section 5.3): the madvise extension, the
#: touch order, or ``auto``, the one the native policy's OS uses.
CDPC_DELIVERIES = ("auto", "madvise", "touch")


@dataclass(frozen=True)
class EngineOptions:
    """Configuration of one benchmark run.

    Construction is the only legality check: :meth:`__post_init__` raises
    ``ValueError``, naming the fields, for any combination the engine
    would otherwise ignore or reject part-way through a run.
    """

    policy: str = "page_coloring"  # native OS policy, one of NATIVE_POLICIES
    cdpc: bool = False
    cdpc_delivery: str = "auto"  # one of CDPC_DELIVERIES
    prefetch: bool = False
    aligned: bool = True
    profile: SimProfile = field(default_factory=SimProfile)
    race_seed: Optional[int] = None
    #: Window (pages) of fault-order perturbation modeling the kernel race
    #: bin hopping suffers; 0 disables.
    init_jitter: int = 4
    memory_pressure: float = 0.0
    #: Enable the Section 2.1 alternative: miss-counter-driven dynamic
    #: page recoloring, inspected at every phase boundary.
    dynamic_recolor: bool = False
    #: The paper's footnote-1 extension: prefetches fill missing TLB
    #: entries instead of being dropped (Section 6.2).  Requires
    #: ``prefetch``.
    prefetch_fills_tlb: bool = False
    recolor_threshold: int = 16
    recolor_max_per_step: int = 32
    seed: int = 0
    #: Deterministic mid-run perturbations (pressure, hint loss, forced
    #: allocation failures, race storms); None runs fault-free.
    fault_plan: Optional[FaultPlan] = None
    #: Run the page-table/physical-memory/miss-accounting invariant sweep
    #: after initialization and after every phase, raising on violation.
    check_invariants: bool = False
    #: Hint-honor-rate watchdog: when the rate drops below this threshold
    #: the engine abandons the static CDPC hints and falls back to the
    #: Section 2.1 dynamic recolorer.  None disables the watchdog.
    hint_watchdog: Optional[float] = None
    #: Scheduled capacity churn (co-runner arrivals/departures, host
    #: capacity revocation/restoration), executed at phase boundaries.
    #: None runs churn-free.
    churn: Optional["ChurnSchedule"] = None
    #: Adaptive CDPC: instead of abandoning the static hints when the
    #: watchdog fires, re-plan the coloring transactionally against the
    #: surviving capacity (demand-driven color remap + bounded
    #: migrations) and keep going.  The adaptive watchdog is judged over
    #: a *window* of recent faults — checked after every hinted fault,
    #: not just at phase boundaries — so a mid-phase collapse is repaired
    #: mid-phase.  Requires ``cdpc`` and ``hint_watchdog``, which
    #: construction checks.
    adaptive_cdpc: bool = False
    #: Times the measured window repeats (statistics are averaged over
    #: epochs, so results stay comparable across epoch counts).  Churn
    #: scenarios need many phase-boundary beats for their schedules to
    #: play out; a plain run keeps the default single epoch, which is
    #: bit-identical to the historical behavior.  At least 1.
    epochs: int = 1
    #: Run the flattened fast runner (:func:`repro.machine.fast_path.
    #: loop_runner`): a vectorized hit filter that retires references
    #: which provably hit the on-chip cache and TLB with no coherence side
    #: effect in bulk, and an inlined copy of the miss path.  Results are
    #: bit-identical to ``fast_path=False``, which runs :func:`repro.
    #: machine.memory_system.reference_runner` -- one layered
    #: ``MemorySystem.access`` per reference, the oracle of the
    #: equivalence suite.
    fast_path: bool = True
    #: Columnar epoch kernel on top of the fast path: retire whole
    #: 16-reference column blocks whose references all pass the hit
    #: filter with one block-level membership check and a batch LRU
    #: replay (:mod:`repro.machine.columnar`), falling back to the
    #: scalar filter for the coherence-active residual.  Bit-identical
    #: to both the scalar fast path and ``reference_runner``; ignored
    #: when ``fast_path`` is off.
    columnar: bool = True
    #: Memoize generated reference streams in the process-wide trace
    #: cache, reusing them across warmup/measured passes, repeated phase
    #: occurrences and runs with identical trace inputs.
    trace_cache: bool = True
    #: Every run passes the repro.checker static-analysis gate before
    #: simulating.  It is warn-only by default: ERROR diagnostics emit a
    #: warning and the run proceeds.  With ``strict=True`` the engine
    #: refuses to simulate such a program, raising
    #: :class:`repro.checker.LintError` instead.
    strict: bool = False
    #: Cross-validate the symbolic miss predictor against this run: build
    #: a :class:`repro.checker.StaticMissProfile` before simulating and,
    #: after the run, check every measured miss component against the
    #: profile's self-reported ``[lo, hi]`` interval, raising
    #: :class:`repro.checker.StaticCheckError` on any violation.  Only
    #: meaningful for configurations the predictor models (no prefetch,
    #: faults, churn, pressure or dynamic recoloring; the aligned layout
    #: and the native CDPC delivery); construction rejects the others.
    static_check: bool = False
    #: Observability: metrics registry + span tracing + sampled hot-path
    #: profiling (:class:`repro.obs.ObsConfig`).  ``None`` (the default)
    #: is the shared no-op bundle; simulated results are bit-identical
    #: with observability on or off — instruments only read wall clocks.
    obs: Optional[ObsConfig] = None

    def __post_init__(self) -> None:
        if self.policy not in NATIVE_POLICIES:
            raise ValueError(
                f"policy must be one of {', '.join(NATIVE_POLICIES)}; "
                f"got {self.policy!r}"
            )
        if self.cdpc_delivery not in CDPC_DELIVERIES:
            raise ValueError(
                f"cdpc_delivery must be one of {', '.join(CDPC_DELIVERIES)}; "
                f"got {self.cdpc_delivery!r}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1; got {self.epochs}")
        if self.adaptive_cdpc and not (self.cdpc and self.hint_watchdog is not None):
            raise ValueError("adaptive_cdpc requires cdpc and hint_watchdog")
        if self.prefetch_fills_tlb and not self.prefetch:
            raise ValueError("prefetch_fills_tlb requires prefetch")
        if not self.static_check:
            return
        # The symbolic predictor mirrors the deterministic trace/placement
        # pipeline only; anything that perturbs placement or accounting at
        # runtime would make the cross-validation gate meaningless, so it
        # is an error rather than a silently vacuous check.
        unsupported = [
            name
            for name, active in (
                ("prefetch", self.prefetch),
                ("dynamic_recolor", self.dynamic_recolor),
                ("adaptive_cdpc", self.adaptive_cdpc),
                ("churn", self.churn is not None),
                ("fault_plan", self.fault_plan is not None),
                ("memory_pressure", self.memory_pressure > 0),
                ("hint_watchdog", self.hint_watchdog is not None),
                ("race_seed", self.race_seed is not None),
            )
            if active
        ]
        if unsupported:
            raise ValueError(
                "static_check does not model these options: "
                + ", ".join(unsupported)
            )
        if not self.aligned:
            # The predictor counts at most one miss per line per sweep.
            # The packed layout can put two arrays of one loop in the same
            # set at the same offset, and then the two references to a
            # line each miss.
            raise ValueError(
                "static_check models the aligned layout only; got aligned=False"
            )
        if self.cdpc:
            expected = "touch" if self.policy == "bin_hopping" else "madvise"
            if self.resolved_delivery() != expected:
                raise ValueError(
                    "static_check models the native CDPC delivery only "
                    f"({expected!r} on {self.policy!r}; got "
                    f"cdpc_delivery={self.resolved_delivery()!r})"
                )

    def resolved_delivery(self) -> str:
        if self.cdpc_delivery != "auto":
            return self.cdpc_delivery
        return "touch" if self.policy == "bin_hopping" else "madvise"


def _build_policy(config: MachineConfig, options: EngineOptions) -> MappingPolicy:
    colors = config.num_colors
    if options.policy == "bin_hopping":
        native: MappingPolicy = BinHoppingPolicy(colors, race_seed=options.race_seed)
    else:
        native = PageColoringPolicy(colors)
    if options.cdpc and options.resolved_delivery() == "madvise":
        return CdpcHintPolicy(colors, fallback=native)
    return native


class _Simulation:
    """Mutable state of one run."""

    def __init__(self, program: Program, config: MachineConfig, options: EngineOptions):
        self.program = program
        self.config = config
        self.options = options
        self.num_cpus = config.num_cpus
        self.obs = Observability.from_config(options.obs)
        tracer = self.obs.tracer

        with tracer.span("compile.layout"):
            self.layout = layout_arrays(
                program.arrays,
                config.l2.line_size,
                config.l1d.size,
                aligned=options.aligned,
                groups=program.group_pairs(),
            )
        with tracer.span("compile.summaries"):
            self.summary = extract_summary(program, self.layout)
        self.prefetch_plan: Optional[PrefetchPlan] = None
        if options.prefetch:
            with tracer.span("compile.prefetch"):
                self.prefetch_plan = insert_prefetches(
                    program, self.layout, config, self.num_cpus
                )

        policy = _build_policy(config, options)
        frames = self._frame_budget()
        with tracer.span("os.setup", frames=frames):
            self.vm = VirtualMemory(config, policy, memory_frames=frames)
            if options.memory_pressure > 0:
                self.vm.physmem.occupy_fraction(
                    options.memory_pressure, seed=options.seed
                )

        self.degradation_log = DegradationLog()
        self.vm.physmem.event_hook = self.degradation_log.record
        self.injector: Optional[FaultInjector] = None
        if options.fault_plan is not None and options.fault_plan.active:
            self.injector = FaultInjector(
                options.fault_plan,
                self.vm.physmem,
                config.num_colors,
                on_event=self.degradation_log.record,
            )
            self.injector.initial_pressure()

        self.churn: Optional["ChurnDriver"] = None
        if options.churn is not None and options.churn.active:
            from repro.scenarios.churn import ChurnDriver

            self.churn = ChurnDriver(
                options.churn,
                self.vm.physmem,
                on_event=self.degradation_log.record,
            )

        self.runtime: Optional[CdpcRuntime] = None
        if options.cdpc:
            with tracer.span("color.assign"):
                self.runtime = CdpcRuntime.from_summary(
                    self.summary, config, self.num_cpus
                )

        with tracer.span("check.lint"):
            self._run_lint_gate()

        self.static_profile: Optional["StaticMissProfile"] = None
        if options.static_check:
            from repro.checker.staticmiss import predict_program

            with tracer.span(
                "check.staticmiss", policy=options.policy, cdpc=options.cdpc
            ):
                self.static_profile = predict_program(
                    self.program,
                    config,
                    num_cpus=self.num_cpus,
                    policy=options.policy,
                    cdpc=options.cdpc,
                    profile=options.profile,
                    seed=options.seed,
                    init_jitter=options.init_jitter,
                    epochs=options.epochs,
                    layout=self.layout,
                    coloring=self.runtime.coloring if self.runtime else None,
                )

        self.ms = MemorySystem(
            config, prefetch_fills_tlb=options.prefetch_fills_tlb
        )
        page_cache: dict[int, int] = {}  # vpage -> frame base address
        self.page_cache = page_cache
        # Graceful degradation: on allocator exhaustion, reclaim a
        # competing address space's frame or evict the coldest mapped page
        # instead of raising OutOfMemoryError.  Reclaim only engages where
        # the run would otherwise crash, so fault-free results are
        # unchanged.  The hook holds the page cache, not the simulation: a
        # bound method here would close a reference cycle through the VM,
        # keeping every finished run alive until a full collection.
        cold = ColdPageReclaimer(
            self.vm, self.ms,
            on_evict=lambda vpage, _frame: page_cache.pop(vpage, None),
        )
        self.vm.physmem.reclaim_policy = CascadeReclaimer([
            HeldFrameReclaimer(),
            cold,
        ])
        # Capacity revocation must not confiscate the competing address
        # space's frames — the subject's cold pages pay.
        self.vm.physmem.revocation_policy = cold
        self._invariant_checks = 0
        self._watchdog_tripped = False
        self.adaptive: Optional["AdaptiveCdpc"] = None
        # Windowed honor-rate baseline: counters at the last re-plan (or
        # healthy phase boundary), so each watchdog window judges fresh
        # faults only; the reference rate is the best healthy window seen,
        # against which a collapse is judged.
        self._honor_base_requests = 0
        self._honor_base_honored = 0
        self._honor_ref_rate: Optional[float] = None
        self._trace_cache = default_trace_cache() if options.trace_cache else None
        # One runner protocol, three runners: the layered reference path,
        # the scalar fast path, or the columnar kernel over it.  The init
        # pass writes every line once, so it has no column blocks to
        # retire and never takes the columnar runner.
        if options.fast_path:
            self._init_runner_factory = fast_loop_runner
            self._runner_factory = (
                columnar_loop_runner if options.columnar else fast_loop_runner
            )
        else:
            self._init_runner_factory = self._runner_factory = reference_runner
        # Observability wiring.  Profilers are ``None`` when disabled so
        # the hot chunk path pays one identity check; the physmem hooks
        # are installed only when metrics are on (one attribute check per
        # hinted allocation otherwise).
        self._chunk_prof = self.obs.profiler("engine.chunk")
        registry = self.obs.registry
        if registry.enabled:
            self._tc_hits: Optional[object] = registry.counter("trace_cache.hits")
            self._tc_misses: Optional[object] = registry.counter("trace_cache.misses")
            self._tracegen_ns: Optional[object] = registry.histogram(
                "tracegen.generate_ns"
            )
            physmem = self.vm.physmem
            physmem.distance_hook = registry.histogram(
                "physmem.fallback_distance", DEFAULT_DISTANCE_EDGES
            ).observe
            physmem.profiler = self.obs.profiler("physmem.alloc")
        else:
            self._tc_hits = None
            self._tc_misses = None
            self._tracegen_ns = None
        self._layout_fp = layout_fingerprint(self.layout)
        self._plan_fp = plan_fingerprint(self.prefetch_plan)
        self.clocks = [0.0] * self.num_cpus
        self._rng = random.Random(options.seed)
        self.init_ns = 0.0
        # Occurrence counters per phase, for miss_variation (Section 3.2's
        # wave5 anomaly: one phase whose miss rate varies per occurrence).
        self._phase_occurrence: dict[str, int] = {}
        self.recolorer: Optional["DynamicRecolorer"] = None
        if options.dynamic_recolor:
            from repro.osmodel.dynamic import DynamicRecolorer

            self.recolorer = DynamicRecolorer(
                self.vm,
                self.ms,
                threshold=options.recolor_threshold,
                max_per_step=options.recolor_max_per_step,
                on_degradation=self.degradation_log.record,
            )

    # ------------------------------------------------------------------

    def _run_lint_gate(self) -> None:
        """Pre-simulation static gate, reusing the artifacts just built.

        Warn-only by default: ERROR diagnostics emit a warning and the
        simulation proceeds; ``strict=True`` refuses to simulate the
        program.  The already-computed layout, summary and CDPC coloring
        are handed to the checker, so the gate adds no duplicate
        compilation work.
        """
        from repro.checker.lint import lint_context, lint_context_report

        ctx = lint_context(
            self.program,
            self.config,
            num_cpus=self.num_cpus,
            aligned=self.options.aligned,
            cdpc=self.options.cdpc,
            layout=self.layout,
            summary=self.summary,
            coloring=self.runtime.coloring if self.runtime else None,
            static=self.options.static_check,
        )
        report = lint_context_report(ctx)
        if self.options.strict:
            report.raise_if_errors()
        elif report.errors():
            import warnings

            first = report.errors()[0]
            warnings.warn(
                f"static analysis found {len(report.errors())} ERROR "
                f"diagnostic(s) in '{self.program.name}'; simulating anyway "
                f"(strict=False). First: {first.rule_id} {first.span}: "
                f"{first.message}",
                stacklevel=4,
            )

    def _frame_budget(self) -> int:
        psz = self.config.page_size
        data_pages = -(-self.layout.total_bytes // psz)
        instr_bytes = 0
        for phase in self.program.phases:
            for loop in phase.loops:
                for access in loop.accesses:
                    footprint = getattr(access, "footprint_bytes", None)
                    if footprint:
                        instr_bytes = max(instr_bytes, footprint)
        pages = data_pages + -(-instr_bytes // psz)
        colors = self.config.num_colors
        # Three times the footprint, rounded to whole color cycles: enough
        # that the machine never OOMs, while memory_pressure can still make
        # individual colors scarce.
        budget = max(colors * 4, -(-pages * 3 // colors) * colors)
        return budget

    # ------------------------------------------------------------------
    # Robustness hooks

    #: Honor-rate histogram buckets sampled once per churn beat.
    _HONOR_RATE_EDGES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def _churn_beat(self) -> None:
        """Advance the churn schedule one beat and sample churn telemetry.

        Capacity revocation may evict mapped pages through the reclaim
        cascade; the cold-page reclaimer's ``on_evict`` hook already
        drops the engine's stale translations, so nothing else here needs
        to touch the page cache.
        """
        self.churn.on_beat()
        registry = self.obs.registry
        if registry.enabled:
            physmem = self.vm.physmem
            registry.gauge("churn.capacity_frames").set(
                float(physmem.capacity_frames())
            )
            registry.gauge("churn.free_frames").set(float(physmem.free_frames()))
            if physmem.hint_requests:
                registry.histogram(
                    "churn.honor_rate", self._HONOR_RATE_EDGES
                ).observe(physmem.hint_honor_rate)

    def _run_invariant_sweep(self) -> None:
        if not self.options.check_invariants:
            return
        report = check_invariants(self.vm, self.ms)
        self._invariant_checks += 1
        report.raise_if_failed()

    def _watchdog_check(self) -> None:
        """Fall back from static hints to dynamic recoloring when hints rot.

        Once the hint honor rate drops below the watchdog threshold the
        compile-time coloring is no longer being realized — pressure or
        hint loss has scattered the pages — so the static hints are
        abandoned and the Section 2.1 dynamic recolorer takes over,
        repairing the worst conflicts at run time.
        """
        threshold = self.options.hint_watchdog
        if threshold is None or self._watchdog_tripped or not self.options.cdpc:
            return
        if self.options.adaptive_cdpc:
            self._adaptive_check(threshold, boundary=True)
            return
        physmem = self.vm.physmem
        if physmem.hint_requests < 8:  # too few samples to judge
            return
        rate = physmem.hint_honor_rate
        if rate >= threshold:
            return
        self._trip_watchdog(rate, threshold)

    def _trip_watchdog(self, rate: float, threshold: float) -> None:
        physmem = self.vm.physmem
        self._watchdog_tripped = True
        if isinstance(self.vm.policy, CdpcHintPolicy):
            self.vm.policy.clear_hints()
        if self.recolorer is None:
            from repro.osmodel.dynamic import DynamicRecolorer

            self.recolorer = DynamicRecolorer(
                self.vm,
                self.ms,
                threshold=self.options.recolor_threshold,
                max_per_step=self.options.recolor_max_per_step,
                on_degradation=self.degradation_log.record,
            )
        self.degradation_log.record(
            "watchdog_trip",
            {"hint_honor_rate": round(rate, 4), "threshold": threshold,
             "hint_requests": physmem.hint_requests},
        )

    def _fault_hook(self) -> Optional[Callable[[], None]]:
        """The per-fault watchdog hook for one chunk loop, or None.

        None keeps the fault path free of the check entirely.  The bound
        method is handed out per call, never stored on the simulation: a
        stored one would hold the simulation in a reference cycle.
        """
        return self._watchdog_fault_hook if self.options.adaptive_cdpc else None

    def _watchdog_fault_hook(self) -> None:
        """Intra-phase adaptive watchdog, run after every hinted fault.

        A capacity-revocation storm plays out *within* a phase — by the
        phase boundary every evicted page has already re-faulted and the
        damage is done.  Checking the window per fault lets the re-plan
        fire mid-storm, while there is still unmapped demand to re-aim at
        surviving capacity.
        """
        if not self._watchdog_tripped:
            self._adaptive_check(self.options.hint_watchdog)

    def _reset_honor_window(self) -> None:
        physmem = self.vm.physmem
        self._honor_base_requests = physmem.hint_requests
        self._honor_base_honored = physmem.hints_honored

    def _adaptive_check(self, threshold: float, boundary: bool = False) -> None:
        """Adaptive CDPC: re-plan colors transactionally instead of giving up.

        The honor rate is judged over a *window* — faults since the last
        re-plan (or healthy phase boundary) — because a re-plan is
        supposed to repair the rate going forward; the cumulative rate
        would keep a single early collapse visible forever and re-trigger
        endlessly.  A window is a *collapse* only when it is below the
        watchdog threshold AND below :data:`_ADAPTIVE_COLLAPSE_RATIO` of
        the best healthy window seen, so a plan that merely starts
        mediocre (capacity was already tight at load time) does not burn
        the re-plan budget.

        On collapse the plan's faulting classes are packed onto surviving
        grantable capacity (see
        :class:`repro.osmodel.dynamic.AdaptiveCdpc`), the new hints are
        installed, and the hottest stale pages migrate with the same
        shootdown/copy cost model the dynamic recolorer pays.  After
        :data:`_ADAPTIVE_MAX_REPLANS` re-plans the mode concedes and falls
        back to the dynamic recolorer, exactly like a plain watchdog trip.
        """
        physmem = self.vm.physmem
        window_requests = physmem.hint_requests - self._honor_base_requests
        if window_requests < 8:  # too few samples to judge
            return
        window_honored = physmem.hints_honored - self._honor_base_honored
        rate = window_honored / window_requests
        ref = self._honor_ref_rate
        collapsed = (
            rate < threshold
            and ref is not None
            and rate < _ADAPTIVE_COLLAPSE_RATIO * ref
        )
        if not collapsed:
            if boundary or window_requests >= 64:
                # Healthy window: fold it into the reference rate and
                # start fresh.  Rolling the window intra-phase keeps the
                # judgment tracking the *recent* fault stream — without
                # it, the faults of a long healthy stretch average away
                # the first minutes of a collapse and the watchdog reacts
                # only after the damage is done.
                self._honor_ref_rate = rate if ref is None else max(ref, rate)
                self._reset_honor_window()
            return
        if (
            self.adaptive is not None
            and self.adaptive.total_replans >= _ADAPTIVE_MAX_REPLANS
        ):
            self._trip_watchdog(rate, threshold)
            return
        if self.adaptive is None:
            from repro.osmodel.dynamic import AdaptiveCdpc

            self.adaptive = AdaptiveCdpc(
                self.vm,
                self.ms,
                plan_colors=dict(self.runtime.hints),
                max_migrations=self.options.recolor_max_per_step,
                on_degradation=self.degradation_log.record,
            )
        if not any(self.adaptive.demand_by_color()):
            # Nothing unmapped: the collapse already played out and there
            # is no future demand to re-aim.  Start a fresh window rather
            # than burning a re-plan on a no-op.
            self._reset_honor_window()
            return
        with self.obs.tracer.span(
            "cdpc.replan", honor_rate=round(rate, 4)
        ) as span:
            event = self.adaptive.replan(rate)
            span.set(migrations=len(event.migrations), aborted=event.aborted)
        if isinstance(self.vm.policy, CdpcHintPolicy):
            self.vm.policy.install_hints(event.hints)
        for migration in event.migrations:
            self.page_cache.pop(migration.vpage, None)
            self.ms.shootdown(migration.vpage)
        if event.cost_ns:
            stats = self.ms.stats.cpus
            for cpu in range(self.num_cpus):
                stats[cpu].overhead_ns["kernel"] += event.cost_ns
            self._sync_clocks(max(self.clocks) + event.cost_ns)
        # Fresh window: judge the re-planned hints on their own faults.
        self._reset_honor_window()

    # ------------------------------------------------------------------
    # Setup and initialization

    def deliver_cdpc(self) -> None:
        assert self.runtime is not None
        if self.options.resolved_delivery() == "madvise":
            hints = self.runtime.hints
            if self.injector is not None:
                hints = self.injector.filter_hints(hints)
            self.vm.madvise_colors(hints)
        else:
            # Touch: serialized user-level faulting, charged to the master.
            order = self.runtime.touch_order()
            if self.injector is not None:
                order = self.injector.filter_touch_order(order)
            t = self.clocks[0]
            stats = self.ms.stats.cpus[0]
            for vpage in order:
                if self.vm.ensure_mapped(vpage, cpu=0):
                    t += self.vm.PAGE_FAULT_NS
                    stats.overhead_ns["kernel"] += self.vm.PAGE_FAULT_NS
            self._sync_clocks(t)

    def init_pages_order(self) -> list[int]:
        """Page fault order of the program's initialization loops."""
        psz = self.config.page_size
        order: list[int] = []
        for group in self.program.effective_init_groups():
            page_lists = [list(self.layout.pages(name, psz)) for name in group]
            longest = max(len(pages) for pages in page_lists)
            for index in range(longest):
                for pages in page_lists:
                    if index < len(pages):
                        order.append(pages[index])
        if self.options.init_jitter > 1 and isinstance(
            self._native_policy(), BinHoppingPolicy
        ):
            order = self._jitter(order, self.options.init_jitter)
        return order

    def _native_policy(self) -> MappingPolicy:
        policy = self.vm.policy
        if isinstance(policy, CdpcHintPolicy):
            return policy.fallback
        return policy

    def _jitter(self, order: list[int], window: int) -> list[int]:
        result = list(order)
        for start in range(0, len(result), window):
            chunk = result[start : start + window]
            self._rng.shuffle(chunk)
            result[start : start + window] = chunk
        return result

    def run_init(self) -> None:
        """Master initializes every array page (the paper's init section).

        The init loop writes each line of each page in page order, so it
        is one reference stream: the runner faults a page at its first
        touch.  Only page-fault time is charged to the kernel overhead
        category; TLB service time advances the clock but is not overhead
        here.
        """
        psz = self.config.page_size
        line = self.config.l2.line_size
        addrs: list[int] = []
        for vpage in self.init_pages_order():
            start = vpage * psz
            addrs.extend(range(start, start + psz, line))
        n = len(addrs)
        page_shift = psz.bit_length() - 1
        page_mask = psz - 1
        stream = RefStream(
            addrs=addrs,
            flags=[1] * n,  # initialization writes
            prefetch=None,
            vpages=[a >> page_shift for a in addrs],
            offsets=[a & page_mask for a in addrs],
            vlines=addrs,  # already line-aligned
            fast_kinds=[0] * n,  # writes never take the hit filter
        )
        runner = self._primed_runner(self._init_runner_factory, 0, stream, None)
        t, _kernel_total, fault_kernel = runner.send(
            (0, n, self.clocks[0], self.config.cycle_ns, 1)
        )
        runner.close()
        self.ms.stats.cpus[0].overhead_ns["kernel"] += fault_kernel
        self._sync_clocks(t)
        self.init_ns = t

    def _primed_runner(self, factory, cpu, stream, fault_watch):
        runner = factory(self.ms, self.vm, self.page_cache, cpu, stream,
                         fault_watch=fault_watch)
        next(runner)
        return runner

    def _sync_clocks(self, value: float) -> None:
        for cpu in range(self.num_cpus):
            self.clocks[cpu] = value

    # ------------------------------------------------------------------
    # Steady state

    def run_phase(self, phase, record: bool) -> Optional[PhaseResult]:
        if self.injector is not None:
            self.injector.on_phase_boundary()
        if self.churn is not None:
            self._churn_beat()
        bus = self.ms.bus
        if record:
            self.ms.stats = MachineStats.for_cpus(self.num_cpus)
            bus_before = dict(bus.busy_ns)
        t0 = self.clocks[0]
        occurrence = self._phase_occurrence.get(phase.name, 0)
        self._phase_occurrence[phase.name] = occurrence + 1
        scale = occurrence_scale(phase.miss_variation, occurrence, phase.name)
        for loop in phase.loops:
            self.run_loop(loop, fraction_scale=scale)
        self._run_sequential_tail(self.clocks[0] - t0)
        if self.recolorer is not None:
            self._dynamic_recolor_step()
        self._watchdog_check()
        self._run_invariant_sweep()
        if not record:
            return None
        bus_delta = {
            kind.value: bus.busy_ns[kind] - bus_before[kind] for kind in bus.busy_ns
        }
        return PhaseResult(
            name=phase.name,
            occurrences=phase.occurrences,
            stats=self.ms.stats,
            wall_ns=self.clocks[0] - t0,
            bus_busy_ns=bus_delta,
        )

    def _dynamic_recolor_step(self) -> None:
        """Run the dynamic policy's inspect-and-migrate at a phase boundary.

        Migration cost (page copies plus a TLB shootdown on every
        processor) is charged as kernel time to all processors — the
        inter-processor interference the paper predicts for dynamic
        recoloring on multiprocessors.
        """
        events, cost_ns = self.recolorer.step(self.clocks[0])
        if not events:
            return
        for event in events:
            self.page_cache.pop(event.vpage, None)
            self.ms.shootdown(event.vpage)
        stats = self.ms.stats.cpus
        for cpu in range(self.num_cpus):
            stats[cpu].overhead_ns["kernel"] += cost_ns
        self._sync_clocks(max(self.clocks) + cost_ns)

    def _run_sequential_tail(self, phase_elapsed_ns: float) -> None:
        """Unparallelized code at the end of each phase (sequential time).

        The master executes ``sequential_fraction`` of the phase's wall
        time as extra serial work while the slaves spin.
        """
        fraction = self.program.sequential_fraction
        if fraction <= 0 or phase_elapsed_ns <= 0:
            return
        extra = fraction * phase_elapsed_ns
        master = self.ms.stats.cpus[0]
        master.busy_ns += extra
        master.instructions += int(extra / self.config.cycle_ns)
        self.clocks[0] += extra
        for cpu in range(1, self.num_cpus):
            self.ms.stats.cpus[cpu].overhead_ns["sequential"] += extra
        self._sync_clocks(self.clocks[0])

    def run_loop(self, loop, fraction_scale: float = 1.0) -> None:
        schedule = schedule_loop(loop, self.num_cpus)
        traces = self._loop_traces(loop, schedule, fraction_scale)
        start = self.clocks[0]
        if loop.kind is LoopKind.PARALLEL:
            self._simulate_parallel(loop, traces)
            self._barrier()
        else:
            self._simulate_cpu(0, loop, traces[0], concurrent=1)
            elapsed = self.clocks[0] - start
            category = (
                "suppressed" if loop.kind is LoopKind.SUPPRESSED else "sequential"
            )
            for cpu in range(1, self.num_cpus):
                self.ms.stats.cpus[cpu].overhead_ns[category] += elapsed
            self._sync_clocks(self.clocks[0])

    def _loop_traces(self, loop, schedule, fraction_scale: float):
        """Generate (or fetch memoized) per-CPU traces for one loop.

        The cache key fingerprints every input that shapes the streams —
        loop + schedule, layout, machine geometry, simulation profile,
        prefetch plan and the occurrence-dependent fraction scale — so a
        hit is guaranteed to return bit-identical traces.
        """

        def generate():
            if self._tracegen_ns is None:
                return loop_traces(
                    loop,
                    schedule,
                    self.layout,
                    self.config,
                    self.options.profile,
                    self.prefetch_plan,
                    fraction_scale=fraction_scale,
                )
            started = time.perf_counter()
            traces = loop_traces(
                loop,
                schedule,
                self.layout,
                self.config,
                self.options.profile,
                self.prefetch_plan,
                fraction_scale=fraction_scale,
            )
            self._tracegen_ns.observe((time.perf_counter() - started) * 1e9)
            return traces

        if self._trace_cache is None:
            return generate()
        key = trace_key(
            schedule,
            self._layout_fp,
            self.config,
            self.options.profile,
            self._plan_fp,
            fraction_scale,
        )
        if self._tc_hits is not None:
            (self._tc_hits if key in self._trace_cache else self._tc_misses).inc()
        return self._trace_cache.get_or_generate(key, generate)

    def _barrier(self) -> None:
        clocks = self.clocks
        tmax = max(clocks)
        stats = self.ms.stats.cpus
        for cpu in range(self.num_cpus):
            stats[cpu].overhead_ns["load_imbalance"] += tmax - clocks[cpu]
        if self.num_cpus > 1:
            cost = 500.0 + 300.0 * math.log2(self.num_cpus)
            for cpu in range(self.num_cpus):
                stats[cpu].overhead_ns["synchronization"] += cost
            tmax += cost
        self._sync_clocks(tmax)

    def _simulate_parallel(self, loop, traces) -> None:
        """Run all processors' streams interleaved in clock order.

        Always advancing the processor with the smallest clock keeps bus
        requests arriving in (approximate) time order, which is what makes
        the contention model behave like a closed queueing system: each
        processor has at most one outstanding miss, so queueing delays
        bound themselves at saturation instead of growing with burst size.
        """
        clocks = self.clocks
        psz = self.config.page_size
        line = self.config.l2.line_size
        runners = [
            self._primed_runner(self._runner_factory, cpu,
                                traces[cpu].ref_stream(psz, line),
                                self._fault_hook())
            for cpu in range(self.num_cpus)
        ]
        positions = [0] * self.num_cpus
        active = [cpu for cpu in range(self.num_cpus) if len(traces[cpu])]
        concurrent = len(active)
        while active:
            cpu = min(active, key=clocks.__getitem__)
            end = min(positions[cpu] + _CHUNK, len(traces[cpu]))
            self._run_chunk(cpu, runners[cpu], loop, traces[cpu],
                            positions[cpu], end, concurrent)
            positions[cpu] = end
            if end >= len(traces[cpu]):
                active.remove(cpu)
        for runner in runners:
            runner.close()

    def _simulate_cpu(self, cpu, loop, trace, concurrent) -> None:
        stream = trace.ref_stream(self.config.page_size, self.config.l2.line_size)
        runner = self._primed_runner(self._runner_factory, cpu, stream,
                                     self._fault_hook())
        self._run_chunk(cpu, runner, loop, trace, 0, len(trace), concurrent)
        runner.close()

    def _run_chunk(self, cpu, runner, loop, trace, start, end,
                   concurrent) -> None:
        """Send one scheduling chunk to ``cpu``'s primed runner.

        The runner (:func:`repro.machine.memory_system.reference_runner`
        or one of the fast runners) simulates the references; this
        charges the chunk's instruction work and kernel time to the CPU
        and advances its clock.
        """
        if end <= start:
            return
        busy_per_ref = (
            self.config.cycle_ns * loop.instructions_per_word * trace.words_per_ref
        )
        fault_concurrency = (
            concurrent if self.injector is None
            else self.injector.fault_concurrency(concurrent)
        )
        prof = self._chunk_prof
        started = prof.tick() if prof is not None else None
        t, kernel_total, _faults = runner.send(
            (start, end, self.clocks[cpu], busy_per_ref, fault_concurrency)
        )
        if started is not None:
            prof.observe(started)
        stats = self.ms.stats.cpus[cpu]
        count = end - start
        stats.busy_ns += busy_per_ref * count
        stats.instructions += int(
            loop.instructions_per_word * trace.words_per_ref * count
        )
        stats.overhead_ns["kernel"] += kernel_total
        self.clocks[cpu] = t

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        tracer = self.obs.tracer
        # Beat 0 of a churn schedule fires before initialization — the
        # analogue of the fault injector's initial pressure — so a
        # scenario can constrain the capacity the program initializes
        # under, not just perturb the steady state.
        if self.churn is not None:
            self._churn_beat()
        if self.options.cdpc:
            with tracer.span("cdpc.deliver", mode=self.options.resolved_delivery()):
                self.deliver_cdpc()
        with tracer.span("sim.init"):
            self.run_init()
        self._run_invariant_sweep()
        window = representative_window(self.program)
        with tracer.span("sim.warmup", phases=len(window.warmup)):
            for phase in window.warmup:
                self.run_phase(phase, record=False)
        total = MachineStats.for_cpus(self.num_cpus)
        wall = 0.0
        bus_busy: dict[str, float] = {}
        phase_results: list[PhaseResult] = []
        epochs = self.options.epochs
        for epoch in range(epochs):
            for phase, weight in zip(window.measured, window.weights):
                scaled_weight = weight / epochs
                with tracer.span(
                    "sim.loop", phase=phase.name, weight=weight, epoch=epoch
                ) as span:
                    result = self.run_phase(phase, record=True)
                    assert result is not None
                    span.set(
                        wall_ns=result.wall_ns,
                        l2_misses=result.stats.total_l2_misses(),
                    )
                phase_results.append(result)
                add_scaled_stats(total, result.stats, scaled_weight)
                wall += result.wall_ns * scaled_weight
                for key, value in result.bus_busy_ns.items():
                    bus_busy[key] = bus_busy.get(key, 0.0) + value * scaled_weight
        self._emit_run_metrics(total)
        if self.static_profile is not None:
            registry = self.obs.registry
            if registry.enabled:
                registry.histogram("staticmiss.analyze_ns").observe(
                    self.static_profile.analyze_ns
                )
                registry.gauge("staticmiss.predicted_misses").set(
                    self.static_profile.predicted_total()
                )
        result = RunResult(
            workload=self.program.name,
            policy=self.options.policy,
            num_cpus=self.num_cpus,
            config=self.config,
            cdpc=self.options.cdpc,
            prefetch=self.options.prefetch,
            aligned=self.options.aligned,
            stats=total,
            wall_ns=wall,
            init_ns=self.init_ns,
            bus_busy_ns=bus_busy,
            phases=phase_results,
            hint_honor_rate=self.vm.physmem.hint_honor_rate,
            array_misses=self._attribute_misses(),
            degradation=DegradationReport.collect(
                self.degradation_log,
                self.vm.physmem,
                aborted_recolor_steps=(
                    self.recolorer.aborted_steps if self.recolorer else 0
                ),
                invariant_checks=self._invariant_checks,
                injector=self.injector,
                churn=self.churn,
                adaptive=self.adaptive,
            ),
            obs=self.obs.report(),
        )
        if self.static_profile is not None:
            from repro.checker.staticmiss import StaticCheckError

            result.static_check = self.static_profile
            violations = self.static_profile.check(result)
            if violations:
                raise StaticCheckError(self.static_profile, violations)
        return result

    def _emit_run_metrics(self, total: MachineStats) -> None:
        """Publish end-of-run counters into the run's metrics registry.

        Emitting from the already-maintained simulator counters (instead
        of instrumenting every access) keeps the hot paths untouched; the
        registry is the read side, not the accounting of record.
        """
        registry = self.obs.registry
        if not registry.enabled:
            return
        total.emit_metrics(registry)
        self.ms.emit_metrics(registry)
        physmem = self.vm.physmem
        registry.counter("physmem.allocations").inc(physmem.allocations)
        registry.counter("physmem.hint_requests").inc(physmem.hint_requests)
        registry.counter("physmem.hints_honored").inc(physmem.hints_honored)
        registry.counter("physmem.reclaims").inc(physmem.reclaims)
        registry.counter("physmem.forced_failures").inc(physmem.forced_failures)
        registry.gauge("physmem.hint_honor_rate").set(physmem.hint_honor_rate)
        registry.gauge("engine.watchdog_tripped").set(float(self._watchdog_tripped))
        registry.counter("physmem.frames_revoked").inc(physmem.frames_revoked_total)
        registry.counter("physmem.frames_restored").inc(
            physmem.frames_restored_total
        )
        if self.adaptive is not None:
            registry.counter("engine.adaptive_replans").inc(
                self.adaptive.total_replans
            )
            registry.counter("engine.replan_migrations").inc(
                self.adaptive.total_migrations
            )

    def _attribute_misses(self) -> dict[str, int]:
        """Map per-frame miss counts back to the arrays that own them."""
        reverse = {
            frame: vpage for vpage, frame in self.vm.page_table.mappings()
        }
        psz = self.config.page_size
        attribution: dict[str, int] = {}
        for frame, count in self.ms.frame_misses.items():
            vpage = reverse.get(frame)
            if vpage is None:
                label = "other"
            else:
                vaddr = vpage * psz
                if vaddr >= INSTRUCTION_BASE:
                    label = "instructions"
                else:
                    label = self.layout.array_at(vaddr) or "other"
            attribution[label] = attribution.get(label, 0) + count
        return attribution


def run_program(
    program: Program, config: MachineConfig, options: Optional[EngineOptions] = None
) -> RunResult:
    """Simulate one program on one machine configuration.

    Warns when the program looks unscaled for a scaled machine (data set
    hundreds of times the cache on a ``scaled()`` config) — the usual
    symptom of passing full-size arrays to a 1/16 machine.  Scale the
    program with :meth:`Program.scaled` to match ``config.scale_factor``.
    """
    if config.scale_factor > 1 and program.data_set_bytes > 128 * config.l2.size:
        import warnings

        warnings.warn(
            f"program '{program.name}' has a {program.data_set_bytes >> 20}MB "
            f"data set on a machine scaled 1/{config.scale_factor} "
            f"({config.l2.size >> 10}KB cache); did you forget "
            f"program.scaled({config.scale_factor})?",
            stacklevel=2,
        )
    sim = _Simulation(program, config, options or EngineOptions())
    return sim.run()


def measure_occurrence_variation(
    program: Program,
    config: MachineConfig,
    options: Optional[EngineOptions] = None,
    repeats: int = 4,
) -> dict[str, dict[str, tuple[float, float, float]]]:
    """Re-measure each phase ``repeats`` times in the steady state.

    Reproduces the validation behind the representative-execution-window
    methodology (Section 3.2): the paper found that per-occurrence
    instruction counts and miss rates vary by less than 1% of the mean for
    every phase but one.  Returns, per phase, the (mean, std, cv) of the
    instruction count and the external-cache miss count across
    occurrences.
    """
    sim = _Simulation(program, config, options or EngineOptions())
    if sim.options.cdpc:
        sim.deliver_cdpc()
    sim.run_init()
    for phase in program.phases:  # warmup, as in a normal run
        sim.run_phase(phase, record=False)
    report: dict[str, dict[str, tuple[float, float, float]]] = {}
    for phase in program.phases:
        instructions: list[float] = []
        misses: list[float] = []
        for _ in range(repeats):
            result = sim.run_phase(phase, record=True)
            assert result is not None
            instructions.append(float(result.stats.total_instructions()))
            misses.append(float(result.stats.total_l2_misses()))
        report[phase.name] = {
            "instructions": occurrence_variation(instructions),
            "misses": occurrence_variation(misses),
        }
    return report


def run_benchmark(
    name: str,
    config: MachineConfig,
    options: Optional[EngineOptions] = None,
    **option_overrides,
) -> RunResult:
    """Build a SPEC95fp workload at the machine's scale factor and run it."""
    from repro.workloads.specfp import get_workload

    workload = get_workload(name, scale=config.scale_factor)
    if options is None:
        options = EngineOptions(**option_overrides)
    elif option_overrides:
        options = replace(options, **option_overrides)
    return run_program(workload.program, config, options)
