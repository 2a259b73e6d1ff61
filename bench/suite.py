"""The benchmark's four workloads and the outputs each repetition yields.

A workload is built from the run's seed, which shuffles the cell order,
sets ``EngineOptions.seed`` (the bin-hopping fault-order jitter) to
``seed % ENGINE_SEEDS``, and, for ``service_mixed``, draws the request
mix.  ``prepare`` is the untimed set-up; one ``rep`` is one timed
repetition of identical work.  Every repetition reports the digest of
each output it produced, which the runner checks against the oracle
golden digests (:mod:`golden`).

The program is driven only through public entry points:
``repro.sim.sweeps.run_task_campaign``,
``repro.checker.staticmiss.predict_workload`` and
``repro.service.ColoringService.submit``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.checker import staticmiss
from repro.harness.campaign import CampaignOptions
from repro.machine.config import MACHINE_PRESETS, MachineConfig
from repro.service import (
    ColoringRequest,
    ColoringService,
    RequestKind,
    Status,
    execute_service_task,
    run_service_batch,
    service_task,
)
from repro.sim.bench import modeled_references
from repro.sim.engine import EngineOptions
from repro.sim.sweeps import STANDARD_POLICIES, Task, run_task_campaign
from repro.sim.trace_cache import default_trace_cache
from repro.workloads.specfp import WORKLOAD_NAMES

SCALE = 16
CPUS = 8
#: Engine seeds with checked-in golden digests; a run's engine seed is
#: ``seed % ENGINE_SEEDS``, so every seed is checked.
ENGINE_SEEDS = 2

SERVICE_MACHINE = "sgi_base"
SERVICE_CPUS = (2, 4)
SERVICE_REQUESTS = 240
SERVICE_CLIENTS = 2
HOT_KEYS = 8
HOT_FRACTION = 0.75
PREDICT_EVERY = 10
#: Quotas never shed: the benchmark measures service time, and a
#: rejected request would count as a failure.
NO_QUOTA = 1e9


def machine(preset: str, cpus: int = CPUS) -> MachineConfig:
    return MACHINE_PRESETS[preset](cpus).scaled(SCALE)


def engine_seed(seed: int) -> int:
    return seed % ENGINE_SEEDS


def cell_id(preset: str, model: str, policy: str, cpus: int = CPUS) -> str:
    return f"{preset}/{model}/{policy}@{cpus}"


def sweep_cells(presets: tuple[str, ...]) -> list[tuple[str, str, str]]:
    """(preset, model, policy) for every model under every paper policy."""
    return [
        (preset, model, policy)
        for preset in presets
        for model in WORKLOAD_NAMES
        for policy in STANDARD_POLICIES
    ]


def service_keys() -> list[tuple[str, str, str, int]]:
    """(kind, model, policy, cpus) of every question service_mixed may ask."""
    return [
        (kind, model, policy, cpus)
        for kind in (RequestKind.SIMULATE.value, RequestKind.PREDICT.value)
        for model in WORKLOAD_NAMES
        for policy in STANDARD_POLICIES
        for cpus in SERVICE_CPUS
    ]


def service_key_id(kind: str, model: str, policy: str, cpus: int) -> str:
    return f"{kind}:{cell_id(SERVICE_MACHINE, model, policy, cpus)}"


def service_request(kind: str, model: str, policy: str, cpus: int,
                    request_id: Optional[str] = None) -> ColoringRequest:
    return ColoringRequest(
        workload=model, kind=kind, cpus=cpus, machine=SERVICE_MACHINE,
        scale=SCALE, policy=policy, fast=True, tenant="bench",
        request_id=request_id,
    )


_PRESETS_BY_CONFIG: dict[MachineConfig, str] = {}


def preset_of(config: MachineConfig) -> str:
    """Name of the preset a benchmark configuration was built from."""
    if not _PRESETS_BY_CONFIG:
        presets = {SERVICE_MACHINE}.union(*(w.presets for w in WORKLOADS.values()))
        for preset in presets:
            for cpus in (*SERVICE_CPUS, CPUS):
                _PRESETS_BY_CONFIG[machine(preset, cpus)] = preset
    return _PRESETS_BY_CONFIG.get(config, "machine")


def sweep_tasks(cells: list[tuple[str, str, str]], seed: int) -> list[Task]:
    base = EngineOptions(seed=seed)
    return [
        (model, machine(preset), replace(base, **STANDARD_POLICIES[policy]))
        for preset, model, policy in cells
    ]


def predict(preset: str, model: str, policy: str, seed: int) -> Any:
    overrides = STANDARD_POLICIES[policy]
    return staticmiss.predict_workload(
        model,
        machine(preset),
        policy=overrides["policy"],
        cdpc=bool(overrides.get("cdpc", False)),
        seed=seed,
    )


# -- digests ------------------------------------------------------------


def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def profile_payload(profile: dict) -> dict:
    """A StaticMissProfile dict without its host-time ``analyze_ns``."""
    return {key: value for key, value in profile.items() if key != "analyze_ns"}


def payload_digest(payload: dict) -> str:
    """Digest of a service answer: the run, or the profile sans host time."""
    if payload.get("kind") == RequestKind.PREDICT.value:
        return digest(profile_payload(payload["profile"]))
    return digest(payload["run"])


# -- repetitions --------------------------------------------------------


@dataclass
class Rep:
    """What one timed repetition did."""

    wall_s: float
    #: Host latency of each answered cell or request, seconds.
    latencies_s: list[float]
    #: (golden section, output id, digest or None when it failed).
    outputs: list[tuple[str, str, Optional[str]]]
    #: Simulated counts and per-cell values the metrics need.
    stats: dict = field(default_factory=dict)


class Workload:
    name = ""
    presets: tuple[str, ...] = ()

    def __init__(self, seed: int, cells: Optional[list] = None) -> None:
        self.seed = seed
        self.engine_seed = engine_seed(seed)
        self.rng = random.Random(seed)
        self.cells = list(cells) if cells is not None else sweep_cells(self.presets)
        self.rng.shuffle(self.cells)

    def prepare(self) -> None:
        """Untimed set-up; may run several times per process."""

    def rep(self, ledger: Any = None) -> Rep:
        raise NotImplementedError


class _Sweep(Workload):
    #: Clear the trace cache before every repetition.
    cold = False
    tasks: list[Task]

    def prepare(self) -> None:
        default_trace_cache().clear()
        self.tasks = sweep_tasks(self.cells, self.engine_seed)
        run_task_campaign(self.warmup(), max_workers=1).raise_if_failed()

    def warmup(self) -> list[Task]:
        raise NotImplementedError

    def rep(self, ledger: Any = None) -> Rep:
        if self.cold:
            default_trace_cache().clear()
        stamps: list[float] = []
        options = CampaignOptions(on_progress=lambda _: stamps.append(time.perf_counter()))
        start = time.perf_counter()
        campaign = run_task_campaign(self.tasks, max_workers=1, campaign=options)
        wall = time.perf_counter() - start
        outputs = []
        sim_wall_ns = {}
        done = {}
        for (preset, model, policy), result in zip(self.cells, campaign.results):
            key = cell_id(preset, model, policy)
            outputs.append(("cells", key, digest(result.to_dict()) if result else None))
            if result is not None:
                sim_wall_ns[key] = result.wall_ns
                done[key] = result
        cpus = [cpu for result in done.values() for cpu in result.stats.cpus]
        return Rep(
            wall_s=wall,
            # on_progress fires once before the first task and once per task.
            latencies_s=[b - a for a, b in zip(stamps, stamps[1:])],
            outputs=outputs,
            stats={
                "refs": modeled_references({"rep": done}),
                "l1_misses": sum(cpu.l1d_misses + cpu.l1i_misses for cpu in cpus),
                "llc_misses": sum(r.stats.total_l2_misses() for r in done.values()),
                "sim_wall_ns": sim_wall_ns,
                "retries": campaign.report.retries,
                "failures": len(campaign.report.failures),
            },
        )


class Fig6Warm(_Sweep):
    name = "fig6_warm"
    presets = ("sgi_base",)

    def warmup(self) -> list[Task]:
        # Traces are keyed by loop, layout and machine, not by policy, so
        # the page-coloring cells generate every trace the sweep reuses.
        return [
            task for task, cell in zip(self.tasks, self.cells)
            if cell[2] == "page_coloring"
        ]


class GeometryCold(_Sweep):
    name = "geometry_cold"
    presets = ("sliced_llc_8x", "three_level")
    cold = True

    def warmup(self) -> list[Task]:
        # Only the smallest model: one-time imports and nothing else,
        # since every repetition starts from an empty cache.
        return [task for task in self.tasks if task[0] == "fpppp"]


class PredictSweep(Workload):
    name = "predict_sweep"
    presets = ("sgi_base", "three_level")

    def prepare(self) -> None:
        predict("sgi_base", "fpppp", "page_coloring", self.engine_seed)

    def rep(self, ledger: Any = None) -> Rep:
        latencies = []
        outputs: list[tuple[str, str, Optional[str]]] = []
        predicted = {}
        start = time.perf_counter()
        for preset, model, policy in self.cells:
            key = cell_id(preset, model, policy)
            began = time.perf_counter()
            try:
                profile = predict(preset, model, policy, self.engine_seed)
            except Exception as exc:  # counted as a failed output
                print(f"{key}: {exc!r}", file=sys.stderr)
                outputs.append(("predict", key, None))
                continue
            latencies.append(time.perf_counter() - began)
            outputs.append(("predict", key, digest(profile_payload(profile.to_dict()))))
            predicted[key] = profile.predicted_total()
        return Rep(
            wall_s=time.perf_counter() - start,
            latencies_s=latencies,
            outputs=outputs,
            stats={"predicted": predicted},
        )


class ServiceMixed(Workload):
    name = "service_mixed"

    def __init__(self, seed: int, requests: int = SERVICE_REQUESTS) -> None:
        super().__init__(seed)
        simulate, predict_keys = [], []
        for key in service_keys():
            (simulate if key[0] == RequestKind.SIMULATE.value else predict_keys).append(key)
        self.rng.shuffle(simulate)
        self.rng.shuffle(predict_keys)
        hot = simulate[:HOT_KEYS]
        # Exactly 25% of the simulate requests are fresh, cycling through
        # every non-hot key, so the mix's composition does not vary with
        # the seed; the seed picks which keys, where, and in what order.
        fresh, predicts = itertools.cycle(simulate[HOT_KEYS:]), itertools.cycle(predict_keys)
        slots = [i for i in range(requests) if i % PREDICT_EVERY != PREDICT_EVERY - 1]
        fresh_slots = set(self.rng.sample(slots, round(len(slots) * (1 - HOT_FRACTION))))
        self.requests: list[tuple[str, ColoringRequest]] = []
        for index in range(requests):
            if index % PREDICT_EVERY == PREDICT_EVERY - 1:
                key = next(predicts)
            elif index in fresh_slots:
                key = next(fresh)
            else:
                key = self.rng.choice(hot)
            self.requests.append(
                (service_key_id(*key), service_request(*key, request_id=f"{seed}-{index}"))
            )

    def prepare(self) -> None:
        # One tiny answer of each kind pays the engine's one-time imports.
        for kind in (RequestKind.SIMULATE.value, RequestKind.PREDICT.value):
            execute_service_task(service_task(service_request(kind, "fpppp", "cdpc", 2)))

    def rep(self, ledger: Any = None) -> Rep:
        default_trace_cache().clear()
        return asyncio.run(self._serve(ledger))

    async def _serve(self, ledger: Any) -> Rep:
        n = len(self.requests)
        responses: list[Any] = [None] * n
        latencies = [0.0] * n
        pending = iter(range(n))
        runner = ledger.timed(run_service_batch, "service.batch") if ledger else None

        async def client(service: ColoringService) -> None:
            # Closed loop: the next request goes out when the last answer is in.
            for index in pending:
                key, request = self.requests[index]
                began = time.perf_counter_ns()
                responses[index] = response = await service.submit(request)
                latencies[index] = (time.perf_counter_ns() - began) / 1e9
                if ledger is not None:
                    ledger.event("service.request", began, time.perf_counter_ns() - began,
                                 id=key, request=request.request_id,
                                 status=response.status.value, cached=response.cached)

        start = time.perf_counter()
        async with ColoringService(
            engine="harness", workers=1, max_concurrent_batches=1,
            quota_rate=NO_QUOTA, quota_burst=NO_QUOTA, runner=runner,
        ) as service:
            await asyncio.gather(*(client(service) for _ in range(SERVICE_CLIENTS)))
            metrics = service.metrics_snapshot()
        wall = time.perf_counter() - start

        outputs: list[tuple[str, str, Optional[str]]] = []
        hit_latencies = []
        for (key, _request), response, latency in zip(self.requests, responses, latencies):
            ok = response.status == Status.OK and response.result is not None
            outputs.append(("service", key, payload_digest(response.result) if ok else None))
            if ok and response.cached:
                hit_latencies.append(latency)
        counters = metrics["counters"]
        sizes = metrics["histograms"].get("service.batch_size", {"sum": 0})
        return Rep(
            wall_s=wall,
            latencies_s=latencies,
            outputs=outputs,
            stats={
                "answers": n,
                "cached": sum(1 for r in responses if r.cached),
                "coalesced": sum(1 for r in responses if r.coalesced),
                "hit_latencies_s": hit_latencies,
                "batches": counters.get("service.batches", 0),
                "batched_requests": sizes["sum"],
                "retries": counters.get("service.retries", 0),
                "failures": sum(
                    value for name, value in counters.items()
                    if name.startswith("service.failures.")
                ),
            },
        )


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Fig6Warm, GeometryCold, PredictSweep, ServiceMixed)
}
