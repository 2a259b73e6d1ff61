"""Outside-in layer ledger for the benchmark's traced runs.

:class:`Ledger` is a context manager.  On entry it replaces the public
boundary of every ``repro`` layer listed in :data:`BOUNDARIES` -- module
functions, class methods and the kernel runner generators the engine
drives -- with a timing wrapper; on exit it puts every original back.
Nothing inside the program changes, so a traced run computes exactly what
an untraced one does.

Timing is exclusive: each thread keeps a stack of child-time
accumulators, and a call's *self* time is its duration minus the time of
the wrapped calls nested inside it.  The self times inside one cell
(one ``run_benchmark`` or ``predict_workload`` call) therefore add up to
the cell's own duration.  Coarse boundaries record one Chrome-trace span
per call; the hot ones (kernel ``send``, ``VirtualMemory.fault``,
``MemorySystem.access``) only add to per-layer counters, which each cell
span carries as a per-cell breakdown.  Spans are kept in memory and
written once, by :meth:`Ledger.write_chrome_trace`.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

clock = time.perf_counter_ns

#: Kinds of boundary.  SPAN records one trace event per call; HOT only
#: counts; CELL opens a per-cell breakdown; RUNNER wraps the generator a
#: kernel factory returns so that its ``next``/``send`` calls are timed.
SPAN, HOT, CELL, RUNNER = "span", "hot", "cell", "runner"

#: (owner, attribute, layer, kind).  An owner is a module, or
#: ``module:Class`` for a method.  The engine binds most of its
#: collaborators at import time, so each boundary is wrapped where the
#: caller looks it up: ``repro.sim.engine`` for the engine's calls, and
#: the defining module for the static analyzer's lazy imports.
BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sim.sweeps", "run_benchmark", "sim.engine", CELL),
    ("repro.sim.engine", "run_benchmark", "sim.engine", CELL),
    ("repro.checker.staticmiss", "predict_workload", "checker.staticmiss", CELL),
    ("repro.workloads.specfp", "get_workload", "workloads.build", SPAN),
    ("repro.sim.engine", "layout_arrays", "compiler.layout", SPAN),
    ("repro.compiler.padding", "layout_arrays", "compiler.layout", SPAN),
    ("repro.sim.engine", "extract_summary", "compiler.summaries", SPAN),
    ("repro.compiler.summaries", "extract_summary", "compiler.summaries", SPAN),
    ("repro.sim.engine", "schedule_loop", "compiler.schedule", SPAN),
    ("repro.checker.staticmiss", "schedule_loop", "compiler.schedule", SPAN),
    ("repro.core.runtime:CdpcRuntime", "from_summary", "core.cdpc_assign", SPAN),
    ("repro.core.coloring", "generate_page_colors", "core.cdpc_assign", SPAN),
    ("repro.checker.lint", "lint_context_report", "checker.lint", SPAN),
    ("repro.osmodel.vm:VirtualMemory", "__init__", "osmodel.setup", SPAN),
    ("repro.osmodel.vm:VirtualMemory", "madvise_colors", "osmodel.madvise", SPAN),
    ("repro.osmodel.vm:VirtualMemory", "fault", "osmodel.fault", HOT),
    ("repro.sim.engine", "loop_traces", "sim.tracegen", SPAN),
    ("repro.machine.columnar", "block_index", "machine.columnar_lower", SPAN),
    ("repro.sim.engine", "columnar_loop_runner", "machine.kernel", RUNNER),
    ("repro.sim.engine", "fast_loop_runner", "machine.init_kernel", RUNNER),
    ("repro.machine.memory_system:MemorySystem", "access", "machine.oracle_access", HOT),
    ("repro.machine.memory_system:MemorySystem", "prefetch", "machine.prefetch", HOT),
    ("repro.sim.sweeps", "run_campaign", "harness.campaign", SPAN),
    ("repro.service.engines", "run_campaign", "harness.campaign", SPAN),
)

#: Every layer the ledger accounts for; ``service.batch`` is timed
#: through the service's public ``runner=`` argument (:meth:`Ledger.timed`).
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys([layer for _, _, layer, _ in BOUNDARIES] + ["service.batch"])
)

# Per-layer accumulator slots.
SELF_NS, CALLS, TOTAL_NS, REFS = range(4)


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def _policy_label(policy: str, cdpc: bool) -> str:
    return "cdpc" if cdpc else policy


def _cell_args(args: tuple, kwargs: dict) -> tuple[str, Any, str]:
    """(model, config, policy label) of a run_benchmark/predict_workload call."""
    name, config = args[0], args[1]
    options = args[2] if len(args) > 2 else kwargs.get("options")
    if options is not None:
        return name, config, _policy_label(options.policy, options.cdpc)
    return name, config, _policy_label(
        kwargs.get("policy", "page_coloring"), bool(kwargs.get("cdpc", False))
    )


class _ThreadState:
    __slots__ = ("tid", "stack", "totals", "cell", "vms")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack = [0]
        self.totals = {layer: [0, 0, 0, 0] for layer in LAYERS}
        self.cell: Optional[str] = None
        self.vms: list = []


class _Runner:
    """Stands in for a kernel generator: times the engine's next/send."""

    __slots__ = ("_next", "send", "close")

    def __init__(self, gen: Any, next_: Callable, send: Callable) -> None:
        self._next = next_
        self.send = send
        self.close = gen.close

    def __next__(self) -> Any:
        return self._next()


class Ledger:
    """Wraps the layer boundaries while entered; accumulates across entries.

    ``preset_of`` names a machine configuration for cell ids, so a cell
    span and the service request that asked for it share one id.
    """

    def __init__(self, preset_of: Callable[[Any], str] = lambda config: "machine") -> None:
        self._preset_of = preset_of
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self.origin_ns = clock()
        #: (name, start ns, duration ns, tid, args) per recorded span.
        self.events: list[tuple[str, int, int, int, dict]] = []
        #: One entry per finished cell: id, layer, duration and breakdown.
        self.cells: list[dict] = []

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Ledger":
        for owner_name, attr, layer, kind in BOUNDARIES:
            owner = _resolve(owner_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, layer, kind))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original: Any, layer: str, kind: str) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self._wrapper(original.__func__, layer, kind))
        if kind == CELL:
            return self._cell(original, layer)
        if kind == RUNNER:
            return self._runner(original, layer)
        return self._timed(original, layer, span=kind == SPAN,
                           remember_vm=layer == "osmodel.setup")

    # -- timing ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states) + 1)
                self._states.append(state)
            self._local.state = state
        return state

    def _timed(self, fn: Callable, layer: str, *, span: bool = False,
               refs: bool = False, remember_vm: bool = False) -> Callable:
        get_state = self._state
        events = self.events

        def timed(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            stack = state.stack
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                acc = state.totals[layer]
                acc[0] += duration - child
                acc[1] += 1
                acc[2] += duration
                if refs:
                    acc[3] += args[0][1] - args[0][0]
                if remember_vm:
                    # VirtualMemory.__init__: the cell reads its hint
                    # counters when it ends.
                    state.vms.append(args[0])
                if span:
                    events.append((layer, start, duration, state.tid, {"id": state.cell}))

        return timed

    def timed(self, fn: Callable, layer: str) -> Callable:
        """A span-recording wrapper for a callable handed to the program."""
        return self._timed(fn, layer, span=True)

    def _runner(self, factory: Callable, layer: str) -> Callable:
        def runner(*args: Any, **kwargs: Any) -> _Runner:
            gen = factory(*args, **kwargs)
            return _Runner(
                gen,
                self._timed(gen.__next__, layer),
                self._timed(gen.send, layer, refs=True),
            )

        return runner

    def _cell(self, fn: Callable, layer: str) -> Callable:
        inner = self._timed(fn, layer)

        def cell(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            model, config, policy = _cell_args(args, kwargs)
            cell_id = f"{self._preset_of(config)}/{model}/{policy}@{config.num_cpus}"
            outer = state.cell, state.vms
            state.cell, state.vms = cell_id, []
            before = {name: (acc[0], acc[1]) for name, acc in state.totals.items()}
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                duration = clock() - start
                layers = {}
                for name, acc in state.totals.items():
                    self_ns, calls = acc[0] - before[name][0], acc[1] - before[name][1]
                    if calls:
                        layers[name] = {"self_ns": self_ns, "calls": calls}
                physmems = [vm.physmem for vm in state.vms]
                entry = {
                    "id": cell_id,
                    "layer": layer,
                    "duration_ns": duration,
                    "layers": layers,
                    "hint_requests": sum(p.hint_requests for p in physmems),
                    "hints_honored": sum(p.hints_honored for p in physmems),
                }
                self.cells.append(entry)
                self.events.append((layer, start, duration, state.tid, entry))
                state.cell, state.vms = outer

        return cell

    def event(self, name: str, start_ns: int, duration_ns: int, **args: Any) -> None:
        """Record a span measured by the caller (e.g. a client request)."""
        self.events.append((name, start_ns, duration_ns, 0, args))

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """Per layer: [self ns, calls, inclusive ns, refs], over all threads."""
        merged = {layer: [0, 0, 0, 0] for layer in LAYERS}
        for state in self._states:
            for layer, acc in state.totals.items():
                for slot, value in enumerate(acc):
                    merged[layer][slot] += value
        return merged

    def write_chrome_trace(self, path: Path) -> None:
        """Write every recorded span in Chrome trace-event format."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - self.origin_ns) / 1e3,
                "dur": duration / 1e3,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
            for name, start, duration, tid, args in self.events
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
