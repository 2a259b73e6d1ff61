"""Wire protocol of the coloring service: requests, responses, statuses.

A request names *what* the caller wants — ``simulate`` (a full engine run
producing a color plan and measured miss profile) or ``predict`` (the
symbolic analyzer's static miss profile, no simulation) — plus the target
workload/machine/policy and the robustness envelope (tenant identity for
quota accounting, a per-request deadline).  Everything is a plain frozen
dataclass with lossless ``to_dict``/``from_dict``, so the same objects
ride the in-process transport and the TCP JSON-lines transport.

The full request identity hashes to a :func:`ColoringRequest.fingerprint`
using the same sha256 discipline as the harness store and the trace
cache: identical questions land on identical keys, which is what lets the
service answer repeats O(1) from its plan/result cache, and distinct
questions (different machine, scale, policy, engine knobs) can never
alias.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.harness.store import task_fingerprint
from repro.machine.config import MACHINE_PRESETS, MachineConfig, alpha_server
from repro.sim.engine import EngineOptions
from repro.sim.sweeps import STANDARD_POLICIES
from repro.sim.tracegen import SimProfile

__all__ = [
    "MACHINE_FACTORIES",
    "ColoringRequest",
    "RejectedOverload",
    "RequestKind",
    "ServiceResponse",
    "Status",
]

#: Machine models a request may name (mirrors the CLI's ``--machine``):
#: every preset geometry, plus the CLI's historical ``alpha`` alias.
MACHINE_FACTORIES: dict[str, Callable[[int], MachineConfig]] = {
    **{name: preset for name, preset in MACHINE_PRESETS.items()},
    "alpha": alpha_server,
}


class RequestKind(str, enum.Enum):
    """What the caller wants computed."""

    #: Full engine run: color plan + measured miss profile (expensive).
    SIMULATE = "simulate"
    #: Symbolic static-miss prediction (cheap, no simulation).
    PREDICT = "predict"
    #: Synthetic work item for load-generation and chaos drills; only
    #: honored by a service configured with ``engine="synthetic"``.
    SYNTHETIC = "synthetic"

    def __str__(self) -> str:
        return self.value


class Status(str, enum.Enum):
    """Terminal disposition of one request.  Every accepted request ends
    in exactly one of ``ok``/``degraded``/``failed``; a shed request ends
    in ``rejected`` — nothing is ever silently dropped."""

    OK = "ok"
    #: Answered from the fallback path (static predictor or cached plan)
    #: because the primary path was unavailable; carries ``reason``.
    DEGRADED = "degraded"
    #: Load-shed before any work was done (overload, quota, deadline,
    #: shutdown); carries ``reason`` and possibly ``retry_after_s``.
    REJECTED = "rejected"
    #: Accepted but unanswerable: work failed after retries and no
    #: fallback was possible.
    FAILED = "failed"

    def __str__(self) -> str:
        return self.value


class RejectedOverload(RuntimeError):
    """Raised client-side (``raise_for_status``) for a shed request.

    The service itself never raises this across the wire — shedding is an
    explicit :class:`ServiceResponse` with ``status="rejected"`` so the
    caller always learns *why* (``overload``, ``quota``, ``deadline``,
    ``shutdown``) and, for quota rejections, when to retry.
    """

    def __init__(self, response: "ServiceResponse") -> None:
        super().__init__(
            f"request {response.request_id or '<anonymous>'} rejected: "
            f"{response.reason}"
            + (
                f" (retry after {response.retry_after_s:.3f}s)"
                if response.retry_after_s is not None
                else ""
            )
        )
        self.response = response


@dataclass(frozen=True)
class ColoringRequest:
    """One "program + machine → color plan / miss profile" question."""

    workload: str = "fpppp"
    kind: RequestKind = RequestKind.SIMULATE
    #: Tenant identity for quota accounting and per-tenant metrics.
    tenant: str = "default"
    cpus: int = 8
    machine: str = "sgi_base"
    scale: int = 16
    #: Policy label: ``page_coloring``, ``bin_hopping`` or ``cdpc``
    #: (the paper's comparison set, as in ``STANDARD_POLICIES``).
    policy: str = "page_coloring"
    #: Simulate with the single-sweep fast profile (the service default:
    #: latency matters more than the two-sweep averaging).
    fast: bool = True
    #: Wall-clock budget from admission to answer.  Propagated into the
    #: harness task timeout; expires queued requests.  ``None`` accepts
    #: the service default.
    deadline_s: Optional[float] = None
    #: Caller-chosen correlation id, echoed on the response.
    request_id: Optional[str] = None
    #: Synthetic-engine behavior knobs (loadgen/chaos only): e.g.
    #: ``{"chaos": "kill", "delay_ms": 5, "key": 3}``.
    synthetic: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if isinstance(self.kind, str) and not isinstance(self.kind, RequestKind):
            object.__setattr__(self, "kind", RequestKind(self.kind))
        if self.machine not in MACHINE_FACTORIES:
            raise ValueError(
                f"unknown machine {self.machine!r}; "
                f"one of {', '.join(sorted(MACHINE_FACTORIES))}"
            )
        if self.policy not in STANDARD_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"one of {', '.join(STANDARD_POLICIES)}"
            )
        if self.cpus < 1:
            raise ValueError("cpus must be >= 1")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.kind != RequestKind.SYNTHETIC and self.synthetic:
            raise ValueError("synthetic knobs require kind='synthetic'")

    # -- derived identities --------------------------------------------

    def config(self) -> MachineConfig:
        return MACHINE_FACTORIES[self.machine](self.cpus).scaled(self.scale)

    def options(self) -> EngineOptions:
        overrides = STANDARD_POLICIES[self.policy]
        profile = SimProfile.fast() if self.fast else SimProfile()
        return EngineOptions(profile=profile, **overrides)

    def workload_class(self) -> str:
        """The circuit-breaker grouping: failures of one class must not
        open the breaker for unrelated work."""
        return f"{self.kind.value}:{self.workload}"

    def fingerprint(self) -> str:
        """sha256 digest of the full question (tenant/deadline excluded:
        the *answer* does not depend on who asks or how patient they are,
        so repeats across tenants share one cache entry)."""
        if self.kind == RequestKind.SYNTHETIC:
            identity: tuple = ("synthetic", self.workload, self.synthetic)
        else:
            identity = (
                self.kind.value,
                (self.workload, self.config(), self.options()),
            )
        return task_fingerprint(identity)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {
            "workload": self.workload,
            "kind": self.kind.value,
            "tenant": self.tenant,
            "cpus": self.cpus,
            "machine": self.machine,
            "scale": self.scale,
            "policy": self.policy,
            "fast": self.fast,
        }
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.synthetic:
            payload["synthetic"] = dict(self.synthetic)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ColoringRequest":
        if not isinstance(payload, dict):
            raise ValueError("request payload must be a JSON object")
        known = {
            "workload", "kind", "tenant", "cpus", "machine", "scale",
            "policy", "fast", "deadline_s", "request_id", "synthetic",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown request field(s): {', '.join(unknown)}")
        kwargs = dict(payload)
        if "kind" in kwargs:
            try:
                kwargs["kind"] = RequestKind(kwargs["kind"])
            except ValueError:
                raise ValueError(
                    f"unknown kind {kwargs['kind']!r}; one of "
                    f"{', '.join(k.value for k in RequestKind)}"
                ) from None
        if "synthetic" in kwargs:
            knobs = kwargs["synthetic"]
            if not isinstance(knobs, dict):
                raise ValueError("synthetic must be an object")
            kwargs["synthetic"] = tuple(sorted(knobs.items()))
        return cls(**kwargs)


@dataclass
class ServiceResponse:
    """The service's one-and-only answer to one request."""

    status: Status
    request_id: Optional[str] = None
    #: Fingerprint of the question (absent on malformed requests).
    fingerprint: Optional[str] = None
    #: ``RunResult.to_dict()`` / ``StaticMissProfile.to_dict()`` payload
    #: (tagged with ``"kind"``), or ``None`` for rejected/failed.
    result: Optional[dict] = None
    #: Answer served from the fingerprint cache — no harness work spawned.
    cached: bool = False
    #: Request coalesced onto an identical in-flight computation.
    coalesced: bool = False
    #: Why the answer is rejected/degraded/failed (machine-readable:
    #: ``overload``, ``quota``, ``deadline``, ``shutdown``,
    #: ``circuit_open``, ``worker_failure``, ``bad_request``...).
    reason: str = ""
    #: Quota rejections: seconds until the tenant's bucket refills.
    retry_after_s: Optional[float] = None
    #: Admission-to-answer latency as measured by the service.
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (Status.OK, Status.DEGRADED)

    @property
    def degraded(self) -> bool:
        return self.status == Status.DEGRADED

    def raise_for_status(self) -> "ServiceResponse":
        if self.status == Status.REJECTED:
            raise RejectedOverload(self)
        if self.status == Status.FAILED:
            raise RuntimeError(
                f"request {self.request_id or '<anonymous>'} failed: {self.reason}"
            )
        return self

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {
            "status": self.status.value,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.fingerprint is not None:
            payload["fingerprint"] = self.fingerprint
        if self.result is not None:
            payload["result"] = self.result
        if self.reason:
            payload["reason"] = self.reason
        if self.retry_after_s is not None:
            payload["retry_after_s"] = self.retry_after_s
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceResponse":
        return cls(
            status=Status(payload["status"]),
            request_id=payload.get("request_id"),
            fingerprint=payload.get("fingerprint"),
            result=payload.get("result"),
            cached=bool(payload.get("cached", False)),
            coalesced=bool(payload.get("coalesced", False)),
            reason=payload.get("reason", ""),
            retry_after_s=payload.get("retry_after_s"),
            elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
        )
