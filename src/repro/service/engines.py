"""Execution engines: how one accepted request becomes one answer.

Every request the service actually works on is lowered to a *service
task* — a plain picklable tuple tagged by kind — and executed by
:func:`execute_service_task`, which is module-level so it crosses the
process boundary of a harness worker pool unchanged.  Batches of tasks
run as one fault-tolerant campaign (:func:`run_service_batch`), which is
where the service inherits the whole harness stack for free: durable
fingerprint-keyed results, bounded retries with backoff, per-task
wall-clock watchdogs that kill hung workers, and crash attribution that
never charges queued bystanders.

Three kinds exist:

* ``simulate`` — a full engine run; the answer is the serialized
  :class:`~repro.sim.results.RunResult`.
* ``predict`` — the symbolic analyzer
  (:mod:`repro.checker.staticmiss`); no simulation.  In the repository
  benchmark's ``predict_sweep`` workload (8 CPUs, machines scaled by 16,
  a shared 2-CPU Xeon host) one prediction takes about 90 ms at the
  median and 230 ms at the 95th percentile.
* ``synthetic`` — a deterministic fake used by the load generator, the
  chaos suite and the bench leg.  Its knobs can sleep, crash the worker
  with a real ``SIGKILL`` (once, when given a scratch directory to
  remember the first attempt in), hang past the watchdog deadline, or
  raise — exactly the failure modes the robustness machinery must absorb.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from typing import Any, Optional, Sequence

from repro.harness.campaign import Campaign, CampaignOptions, run_campaign
from repro.harness.retry import RetryPolicy
from repro.harness.store import ResultStore

__all__ = [
    "ServiceTask",
    "execute_service_task",
    "run_service_batch",
    "service_task",
    "task_label",
]

#: ("simulate", workload, config, options) | ("predict", workload,
#: config, policy, cdpc, profile) | ("synthetic", workload, knobs)
ServiceTask = tuple


def service_task(request: Any) -> ServiceTask:
    """Lower one :class:`~repro.service.protocol.ColoringRequest`."""
    kind = request.kind.value
    if kind == "synthetic":
        return ("synthetic", request.workload, request.synthetic)
    if kind == "predict":
        overrides = _policy_overrides(request.policy)
        return (
            "predict",
            request.workload,
            request.config(),
            overrides["policy"],
            bool(overrides.get("cdpc", False)),
            request.options().profile,
        )
    return ("simulate", request.workload, request.config(), request.options())


def _policy_overrides(label: str) -> dict:
    from repro.sim.sweeps import STANDARD_POLICIES

    return STANDARD_POLICIES[label]


def task_label(task: ServiceTask) -> str:
    kind = task[0]
    if kind == "synthetic":
        knobs = dict(task[2])
        return f"synthetic[{knobs.get('key', 0)}]"
    if kind == "predict":
        return f"predict[{task[1]}@{task[2].num_cpus}cpu/{task[3]}]"
    _, workload, config, options = task
    return f"simulate[{workload}@{config.num_cpus}cpu/{options.policy}]"


def execute_service_task(task: ServiceTask) -> dict:
    """Run one service task; module-level so it pickles to pool workers.

    Returns a JSON-friendly payload dict tagged with ``"kind"`` — this is
    what lands in the response's ``result`` field and in the plan cache.
    """
    kind = task[0]
    if kind == "simulate":
        from repro.sim.engine import run_benchmark

        _, workload, config, options = task
        result = run_benchmark(workload, config, options)
        return {"kind": "simulate", "run": result.to_dict()}
    if kind == "predict":
        from repro.checker.staticmiss import predict_workload

        _, workload, config, policy, cdpc, profile = task
        profile_result = predict_workload(
            workload, config, policy=policy, cdpc=cdpc, profile=profile
        )
        return {"kind": "predict", "profile": profile_result.to_dict()}
    if kind == "synthetic":
        return _execute_synthetic(task)
    raise ValueError(f"unknown service task kind {kind!r}")


def _execute_synthetic(task: ServiceTask) -> dict:
    """The loadgen/chaos fake: deterministic value, injectable failure."""
    _, workload, knob_items = task
    knobs = dict(knob_items)
    chaos = knobs.get("chaos")
    if chaos:
        _apply_chaos(str(chaos), knobs)
    delay_ms = float(knobs.get("delay_ms", 0.0))
    if delay_ms > 0:
        time.sleep(delay_ms / 1000.0)
    key = knobs.get("key", 0)
    digest = hashlib.sha256(f"{workload}|{key}".encode()).hexdigest()
    return {
        "kind": "synthetic",
        "workload": workload,
        "key": key,
        "value": digest[:16],
    }


def _chaos_armed(knobs: dict) -> bool:
    """Whether this attempt should fire the chaos (first attempt only,
    when a scratch directory is available to remember it in).

    The marker file is created with ``O_EXCL`` *before* the fault fires,
    so even a ``SIGKILL`` that lands mid-syscall leaves the marker behind
    and the harness's retry attempt runs clean — transient by
    construction, like a worker lost to the OOM killer.  Without a
    scratch directory the chaos fires on every attempt (a *persistent*
    fault that exhausts the retry budget and feeds the circuit breaker).
    """
    scratch = knobs.get("scratch")
    token = knobs.get("token")
    if not scratch or token is None:
        return True
    os.makedirs(str(scratch), exist_ok=True)
    marker = os.path.join(str(scratch), f"{token}.fired")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _apply_chaos(chaos: str, knobs: dict) -> None:
    if not _chaos_armed(knobs):
        return
    if chaos == "kill":
        # A real SIGKILL: the pool loses this worker mid-task, exactly
        # like an OOM kill, and the supervisor must rebuild and retry.
        os.kill(os.getpid(), signal.SIGKILL)
    elif chaos == "hang":
        # Sleep far past any sane deadline; only the harness watchdog
        # (task timeout -> pool restart) gets the task unstuck.
        time.sleep(float(knobs.get("hang_s", 3600.0)))
    elif chaos == "fail":
        # A deterministic exception: not retryable by default, so this
        # is what trips circuit breakers in tests and the load generator.
        raise RuntimeError(f"injected failure ({knobs.get('key', '?')})")
    else:
        raise ValueError(f"unknown chaos knob {chaos!r}")


def run_service_batch(
    tasks: Sequence[ServiceTask],
    keys: Sequence[str],
    *,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    store: "ResultStore | str | None" = None,
    max_workers: int = 1,
    tracer: Any = None,
) -> Campaign:
    """Run one admitted batch as a fault-tolerant harness campaign.

    ``keys`` are the requests' fingerprints, so with a durable ``store``
    the campaign itself is the plan cache's write path *and* its resume
    path: a repeat of a previously-answered question is loaded, never
    recomputed, even straight after a service restart.
    """
    options = CampaignOptions(
        store=store,
        resume=store is not None,
        retry=retry if retry is not None else RetryPolicy(),
        timeout_s=timeout_s,
        strict=False,
        tracer=tracer,
    )
    return run_campaign(
        execute_service_task,
        list(tasks),
        labels=[task_label(task) for task in tasks],
        keys=list(keys),
        options=options,
        max_workers=max_workers,
    )
