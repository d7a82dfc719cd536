"""Service benchmark: concurrent clients against one warm cache.

Boots a ``repro.service`` instance in-process (ephemeral port), warms
the content-addressed cache with one job per distinct parameter set,
then fans out N concurrent :class:`AsyncServiceClient` submissions
from a single event loop.  Reports p50/p95 end-to-end latency
(submit -> terminal) and the cache hit rate; the acceptance property
is that every warm request is answered from the cache.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI): a handful of
clients and a single round -- it checks the service survives
concurrent load and that warm submissions hit, not how fast the
runner machine is.

Set ``REPRO_BENCH_SERVICE_JSON=<path>`` to emit a machine-readable
``BENCH_SERVICE.json`` summary (CI uploads it with the obs
artifacts).
"""

import asyncio
import json
import os
import time

from benchmarks.conftest import print_result
from repro.engine import ResultCache
from repro.service import (
    DEV_TENANT_KEY,
    AsyncServiceClient,
    ServiceClient,
    ServiceConfig,
    Tenant,
    TenantRegistry,
    start_in_thread,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CLIENTS = 4 if SMOKE else 16
ROUNDS = 1 if SMOKE else 3
#: Distinct parameter sets; concurrent clients cycle through them so
#: the fan-out exercises several cache keys, not one hot entry.
KERNELS = ("Parity Check", "XorShift8") if SMOKE else (
    "Parity Check", "XorShift8", "IntAvg", "Thresholding",
)


def _params(kernel):
    return {"kernel": kernel, "transactions": 2 if SMOKE else 8,
            "isa": "flexicore4"}


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


async def _client_round(base_url, count):
    """``count`` concurrent submit->wait round trips; returns
    (latencies, documents)."""
    client = AsyncServiceClient(base_url, DEV_TENANT_KEY)

    async def one(index):
        params = _params(KERNELS[index % len(KERNELS)])
        started = time.perf_counter()
        document = await client.run("kernel_run", params, timeout=120.0)
        return time.perf_counter() - started, document

    pairs = await asyncio.gather(*(one(i) for i in range(count)))
    return [p[0] for p in pairs], [p[1] for p in pairs]


class TestServiceThroughput:
    def test_warm_cache_fanout(self, tmp_path):
        """Acceptance: under concurrent load, every warm request is a
        cache hit and completes."""
        cache = ResultCache(tmp_path / "cache")
        handle = start_in_thread(ServiceConfig(
            port=0, cache=cache, engine_jobs=1,
            max_running=4, max_queued=4 * CLIENTS,
        ))
        try:
            warm_client = ServiceClient(handle.base_url, DEV_TENANT_KEY)
            # Cold pass: one job per distinct parameter set fills the
            # shared cache (and is itself timed for the report).
            cold_s = time.perf_counter()
            for kernel in KERNELS:
                document = warm_client.run(
                    "kernel_run", _params(kernel), timeout=120.0)
                assert document["status"] == "completed", document
                assert document["cache_hit"] is False
            cold_s = time.perf_counter() - cold_s

            latencies = []
            hits = 0
            total = 0
            for _ in range(ROUNDS):
                round_lat, documents = asyncio.run(
                    _client_round(handle.base_url, CLIENTS))
                latencies.extend(round_lat)
                for document in documents:
                    assert document["status"] == "completed", document
                    total += 1
                    hits += bool(document["cache_hit"])
        finally:
            handle.stop()

        hit_rate = hits / total
        assert hit_rate == 1.0, (hits, total)
        p50 = _percentile(latencies, 0.50)
        p95 = _percentile(latencies, 0.95)

        payload = {
            "clients": CLIENTS,
            "rounds": ROUNDS,
            "kernels": list(KERNELS),
            "requests": total,
            "cache_hits": hits,
            "hit_rate": hit_rate,
            "cold_fill_s": cold_s,
            "p50_s": p50,
            "p95_s": p95,
            "mean_s": sum(latencies) / len(latencies),
            "smoke": SMOKE,
        }
        artifact = os.environ.get("REPRO_BENCH_SERVICE_JSON")
        if artifact:
            with open(artifact, "w") as handle_:
                json.dump(payload, handle_, indent=2)
        print_result(
            f"Service warm-cache fan-out ({CLIENTS} concurrent clients"
            f" x {ROUNDS} rounds, {len(KERNELS)} cache keys)",
            f"cold fill {cold_s * 1e3:8.1f} ms "
            f"({len(KERNELS)} jobs, serial)\n"
            f"warm p50  {p50 * 1e3:8.1f} ms\n"
            f"warm p95  {p95 * 1e3:8.1f} ms\n"
            f"hit rate  {hit_rate:8.0%} ({hits}/{total})",
        )

    def test_warm_single_request_bench(self, benchmark, tmp_path):
        """Steady-state cost of one warm submit->wait round trip."""
        cache = ResultCache(tmp_path / "cache")
        # A warm round trip is one request of a few ms, so the rounds
        # outrun the dev tenant's 10 submissions/s; the limiter is not
        # what this measures.
        tenants = TenantRegistry([Tenant(
            name="dev", key=DEV_TENANT_KEY, rate=10_000.0, burst=10_000,
        )])
        handle = start_in_thread(ServiceConfig(port=0, cache=cache,
                                               tenants=tenants))
        try:
            client = ServiceClient(handle.base_url, DEV_TENANT_KEY)
            params = _params(KERNELS[0])
            cold = client.run("kernel_run", params, timeout=120.0)
            assert cold["status"] == "completed"

            def warm():
                document = client.run("kernel_run", params, timeout=120.0)
                assert document["cache_hit"] is True
                return document

            benchmark(warm)
        finally:
            handle.stop()
