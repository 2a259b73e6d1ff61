"""Acceptance chaos suite: the ISSUE's robustness claims, demonstrated.

One scripted outage at a time:

* worker ``SIGKILL`` mid-batch *plus* a flooding tenant, with zero
  accepted-request loss and the flood shed by quota, not by collapse;
* a persistent fault tripping the circuit breaker, degraded fallbacks
  while it is open, and recovery through the half-open probe;
* a drain that leaves the durable :class:`ResultStore` crash-consistent
  (a fresh store serves every answer the service gave);
* cached repeats answered without spawning any harness work, proven by
  the service's own observability counters.

These are integration tests over the real machinery — real pool
workers, a real ``SIGKILL``, the real store — kept small enough to run
in seconds.
"""

import asyncio

from repro.harness.store import ResultStore
from repro.service import (
    ColoringRequest,
    ColoringService,
    LoadSpec,
    RequestKind,
    Status,
    run_loadgen,
)


def synthetic(key, tenant="default", **knobs):
    knobs = {"key": key, **knobs}
    return ColoringRequest(
        kind=RequestKind.SYNTHETIC,
        workload="w",
        tenant=tenant,
        synthetic=tuple(sorted(knobs.items())),
    )


class TestKillAndFlood:
    def test_sigkill_plus_flood_loses_nothing(self, tmp_path):
        """A worker SIGKILL mid-campaign and a flooding tenant at once.

        Every accepted request must still get exactly one response; the
        flood is shed by per-tenant quota while well-behaved tenants
        keep their SLO.
        """
        scratch = str(tmp_path / "chaos")
        spec = LoadSpec(
            requests=40,
            tenants=4,
            concurrency=8,
            cached_fraction=0.6,
            kill_every=20,  # two real SIGKILLs
            flood_requests=30,
            seed=11,
            max_shed_rate=0.0,
        )

        async def main():
            async with ColoringService(
                engine="synthetic",
                batch_window_s=0.002,
                max_batch=8,
                queue_limit=10_000,
                # Flood tenant sends 30 at burst 12: most must bounce.
                quota_rate=5.0,
                quota_burst=12.0,
                task_timeout_s=5.0,  # forces pool workers (survivable kill)
                # The quota and breaker clock stands still, so the bucket
                # never refills during the flood, however slow the host.
                clock=lambda: 0.0,
            ) as svc:
                report = await run_loadgen(svc.submit, spec, scratch=scratch)
                return report, svc.metrics_snapshot()["counters"]

        report, counters = asyncio.run(main())
        payload = report.to_dict()
        assert payload["lost"] == []  # zero accepted-request loss
        assert payload["responded"] == payload["sent"] == 70
        assert report.ok, payload["slo"]["violations"]
        # The SIGKILLed tasks were retried to success, not dropped.
        assert payload["by_status"].get("ok", 0) == payload["answered"]
        assert payload["shed_rate"] == 0.0
        # Every flood request spends a token before the cache is asked:
        # the burst admits 12, the other 18 bounce.
        assert payload["flood"]["rejected"] == spec.flood_requests - 12
        assert counters["service.rejected.quota"] == payload["flood"]["rejected"]
        assert counters.get("service.retries", 0) >= 2

    def test_flooding_tenant_cannot_starve_neighbours(self):
        async def main():
            async with ColoringService(
                engine="synthetic",
                batch_window_s=0.001,
                quota_rate=1.0,
                quota_burst=2.0,
            ) as svc:
                flood = [
                    await svc.submit(synthetic(f"f{i}", tenant="flood"))
                    for i in range(5)
                ]
                good = await svc.submit(synthetic("good", tenant="wellbehaved"))
                return flood, good

        flood, good = asyncio.run(main())
        assert sum(r.status == Status.REJECTED for r in flood) == 3
        assert all(r.reason == "quota" for r in flood if r.status == Status.REJECTED)
        assert good.status == Status.OK


class TestBreakerLifecycle:
    def test_trip_degrade_probe_recover_under_load(self):
        """Persistent faults trip the breaker; traffic degrades instead
        of failing; after recovery_s one probe closes it again."""
        clock_offset = {"value": 0.0}
        import time as _time

        def clock():
            return _time.monotonic() + clock_offset["value"]

        async def main():
            async with ColoringService(
                engine="synthetic",
                batch_window_s=0.001,
                breaker_threshold=2,
                breaker_recovery_s=30.0,
                clock=clock,
            ) as svc:
                # Persistent (no scratch) failures: retried, then counted.
                for key in ("boom1", "boom2"):
                    response = await svc.submit(synthetic(key, chaos="fail"))
                    assert response.status == Status.DEGRADED
                trips = svc.metrics_snapshot()["gauges"]["service.breaker.trips"]
                assert svc.health()["breakers"]["synthetic:w"] == "open"
                # While open: served degraded, never an exception or loss.
                shielded = [await svc.submit(synthetic(f"s{i}")) for i in range(5)]
                clock_offset["value"] += 30.0
                probe = await svc.submit(synthetic("probe"))
                closed = svc.health()["breakers"]["synthetic:w"]
                fresh = await svc.submit(synthetic("fresh"))
                return trips, shielded, probe, closed, fresh

        trips, shielded, probe, closed, fresh = asyncio.run(main())
        assert trips == 1
        assert all(r.status == Status.DEGRADED for r in shielded)
        assert all(r.reason == "circuit_open" for r in shielded)
        assert all(r.result is not None for r in shielded)  # canned answer
        assert probe.status == Status.OK
        assert closed == "closed"
        assert fresh.status == Status.OK and not fresh.cached


class TestDrainCrashConsistency:
    def test_fresh_store_serves_everything_the_service_answered(self, tmp_path):
        """After a drain, a brand-new ResultStore on the same directory
        must load every fingerprint the service answered — no torn or
        half-written entries."""
        store_dir = str(tmp_path / "plans")

        async def main():
            async with ColoringService(
                engine="synthetic", batch_window_s=0.001, store=store_dir
            ) as svc:
                responses = [
                    await svc.submit(synthetic(f"k{i}")) for i in range(6)
                ]
                return responses

        responses = asyncio.run(main())
        assert all(r.status == Status.OK for r in responses)
        store = ResultStore(store_dir)
        for response in responses:
            assert response.fingerprint in store
            assert store.get(response.fingerprint) == response.result
        # The journal itself replays cleanly too.
        assert len(store.fingerprints()) == 6

    def test_restarted_service_answers_from_the_store_without_work(self, tmp_path):
        store_dir = str(tmp_path / "plans")
        request = synthetic("durable")

        async def life(n):
            async with ColoringService(
                engine="synthetic", batch_window_s=0.001, store=store_dir
            ) as svc:
                response = await svc.submit(request)
                return response, svc.metrics_snapshot()["counters"]

        first, first_counters = asyncio.run(life(1))
        second, second_counters = asyncio.run(life(2))
        assert first.status == Status.OK and not first.cached
        assert first_counters["service.batches"] == 1
        assert second.status == Status.OK and second.cached
        assert second.result == first.result
        assert second_counters.get("service.batches", 0) == 0
        # The hit was promoted from the durable tier into memory.
        assert second_counters["service.cache.hits"] == 1


class TestCachedRepeatsDoNoWork:
    def test_obs_counters_prove_the_cache_path(self):
        """A hot-key-heavy run must answer most requests without any
        harness work: batches and executed tasks stay far below the
        request count, and the cache counters account for the rest."""
        spec = LoadSpec(
            requests=60,
            concurrency=1,  # serialize: repeats hit the cache, not coalescing
            cached_fraction=1.0,
            hot_keys=4,
            seed=5,
        )

        async def main():
            async with ColoringService(
                engine="synthetic",
                batch_window_s=0.001,
                queue_limit=10_000,
                quota_rate=1e9,
                quota_burst=1e9,
            ) as svc:
                report = await run_loadgen(svc.submit, spec)
                return report, svc.metrics_snapshot()["counters"]

        report, counters = asyncio.run(main())
        payload = report.to_dict()
        assert payload["lost"] == [] and payload["by_status"] == {"ok": 60}
        # Only the 4 distinct hot keys ever reached the harness.
        assert counters["service.batches"] == 4
        assert counters["service.cache.hits"] == 56
        assert payload["cached"] == 56
        assert counters["service.responses.ok"] == 60
