"""``service_mix``: a ``repro serve`` subprocess driven by two
closed-loop ``AsyncServiceClient.run`` clients in one event loop.

Three of every four requests are warm ``kernel_run`` resubmissions over
four keys filled during set-up; one is a cold ``yield_study``
(``flexicore4``, 64 wafers, a fresh seed).  The loop is closed because
the bundled clients wait for each reply.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

from repro.kernels.suite import SUITE
from repro.service import AsyncServiceClient, ServiceClient

from harness import beyond, median, percentile
from layers import dies_per_wafer

#: Why this workload is in the benchmark.
WHY = ("the only path through HTTP, the job queue and client polling; "
       "fab does most of the work; warm hits and cold misses share the "
       "server's two job threads")

CLIENTS = 2
HIT_KEYS = 4
MISS_WAFERS = 64
KEY = "perfbench-key"
#: Requests per client whose result documents enter the digest.
DIGEST_REQUESTS = 8
#: p95 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: The round trip charged to a failed request: the client's own wait
#: limit (``AsyncServiceClient.run``), so it misses every latency limit.
FAILED_RTT_MS = 300_000.0

#: Which metrics fill the end-to-end slots every workload reports.
HEADLINE = {"work_per_s": "requests_per_s", "op_p50_ms": "rtt_p50_ms",
            "second_path_ms": "hit_rtt_p50_ms"}


class ServiceMix:
    name = "service_mix"
    workers = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.base = int(np.random.SeedSequence([seed, 1])
                        .generate_state(1)[0]) % 10**9
        names = np.random.default_rng([seed, 2]).choice(
            [kernel.name for kernel in SUITE], HIT_KEYS, replace=False)
        self.hit_params = [
            {"kernel": str(name), "isa": "flexicore4", "transactions": 10,
             "seed": self.base + key}
            for key, name in enumerate(names)
        ]
        self.server = None
        self.url = None
        self.fills = {}
        self.requests = []     # one dict per attempted request
        self.cursor = [0] * CLIENTS
        self.schedules = [self._schedule(c) for c in range(CLIENTS)]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.phase_wall = 0.0
        self.phase_done = 0

    # -- inputs --------------------------------------------------------

    def _schedule(self, client):
        """Endless ``(kind, params)`` stream: in each block of four, one
        cold yield study at a seeded position, three warm hits."""
        rng = np.random.default_rng([self.seed, 3, client])
        index = 0
        while True:
            miss_at = int(rng.integers(4))
            for slot in range(4):
                if slot == miss_at:
                    yield "miss", {
                        "core": "flexicore4", "wafers": MISS_WAFERS,
                        "seed": self.base + HIT_KEYS
                        + client * 10**6 + index,
                    }
                else:
                    yield "hit", int(rng.integers(HIT_KEYS))
                index += 1

    # -- server lifecycle ----------------------------------------------

    def setup(self):
        """Server up, then the four warm keys filled cold."""
        tenants = os.path.join(self.workdir, "tenants.json")
        with open(tenants, "w") as handle:
            # Default quota (max_active 4); rate and burst above what
            # two closed-loop clients can offer, so the limiter is not
            # what gets measured.
            json.dump({"tenants": [{"name": "bench", "key": KEY,
                                    "rate": 10000.0, "burst": 10000}]},
                      handle)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"),
                   REPRO_STATE_DIR=os.path.join(self.workdir, "server"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--tenants", tenants,
             "--cache-dir", os.path.join(self.workdir, "server-cache"),
             "--drain-grace", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        line = self.server.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = line.split("listening on ")[1].split()[0]
        client = ServiceClient(self.url, KEY)
        for key in range(HIT_KEYS):
            doc = client.run("kernel_run", self.hit_params[key])
            if doc["status"] != "completed" or doc["cache_hit"]:
                raise RuntimeError(f"warm-key fill {key} failed: {doc}")
            self.fills[key] = doc["result"]

    def close(self):
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
        try:
            self.server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        self.server = None

    # -- the closed loop -----------------------------------------------

    def run(self, seconds):
        started = time.perf_counter()
        first = len(self.requests)
        asyncio.run(self._drive(started + seconds))
        wall = time.perf_counter() - started
        done = sum(1 for r in self.requests[first:] if r["ok"])
        self.phase_wall += wall
        self.phase_done += done
        return len(self.requests) - first, wall

    async def _drive(self, deadline):
        client = AsyncServiceClient(self.url, KEY)
        await asyncio.gather(*(
            self._client(index, client, deadline)
            for index in range(CLIENTS)
        ))

    async def _client(self, index, client, deadline):
        schedule = self.schedules[index]
        while time.perf_counter() < deadline:
            kind, spec = next(schedule)
            number = self.cursor[index]
            self.cursor[index] += 1
            if kind == "hit":
                jobtype, params = "kernel_run", self.hit_params[spec]
            else:
                jobtype, params = "yield_study", spec
            self.attempted += 1
            record = {"client": index, "index": number, "kind": kind,
                      "key": spec if kind == "hit" else None,
                      "doc": None, "status": None, "ok": False}
            t0 = time.perf_counter()
            try:
                doc = await client.run(jobtype, params)
            except Exception as exc:  # counted as failed; the loop goes on
                record["status"] = getattr(exc, "status", None)
                error = f"{type(exc).__name__}: {exc}"
            else:
                record["doc"] = doc
                record["ok"] = doc.get("status") == "completed"
                error = f"job {doc.get('id')} {doc.get('status')}"
            record["rtt_s"] = time.perf_counter() - t0
            if not record["ok"]:
                self.failed += 1
                self.errors.append(error)
            self.requests.append(record)

    # -- results -------------------------------------------------------

    def _rtts(self, kind=None):
        """Round trips in ms, failed requests at ``FAILED_RTT_MS``."""
        return [
            r["rtt_s"] * 1e3 if r["ok"] else FAILED_RTT_MS
            for r in self.requests if kind is None or r["kind"] == kind
        ]

    def end_to_end(self):
        rtts = self._rtts()
        metrics = {
            "rtt_p50_ms": (percentile(rtts, 50), "ms"),
            "hit_rtt_p50_ms": (percentile(self._rtts("hit"), 50), "ms"),
            "miss_rtt_p50_ms": (percentile(self._rtts("miss"), 50), "ms"),
            "requests_per_s": (self.phase_done / self.phase_wall, "req/s"),
        }
        if beyond(rtts, 95) >= TAIL_SAMPLES:
            metrics["rtt_p95_ms"] = (percentile(rtts, 95), "ms")
        return metrics

    def checks(self):
        problems = []
        for r in self.requests:
            if not r["ok"]:
                continue
            doc = r["doc"]
            if r["kind"] == "hit":
                if doc.get("cache_hit") is not True:
                    problems.append(f"warm request {r['client']}/"
                                    f"{r['index']} missed the cache")
                if doc.get("result") != self.fills[r["key"]]:
                    problems.append(f"warm request {r['client']}/"
                                    f"{r['index']} differs from its fill")
            elif doc.get("cache_hit") is not False:
                problems.append(f"cold request {r['client']}/{r['index']} "
                                "was answered from the cache")
        for client in range(CLIENTS):
            done = [r for r in self.requests
                    if r["client"] == client and r["index"] < DIGEST_REQUESTS
                    and r["ok"]]
            if len(done) < DIGEST_REQUESTS:
                problems.append(f"client {client} completed only "
                                f"{len(done)} of its first "
                                f"{DIGEST_REQUESTS} requests")
        return problems

    def digest_doc(self):
        """Result documents of the fills and of each client's first
        requests: a fixed, seed-determined prefix of the traffic."""
        prefix = sorted(
            (r["client"], r["index"], r["doc"]["result"])
            for r in self.requests
            if r["ok"] and r["index"] < DIGEST_REQUESTS
        )
        return {"fills": self.fills, "requests": prefix}

    def counters(self):
        return {}

    def layer_overrides(self, first_request):
        """Service-layer metrics of the traced phase (requests from
        ``first_request`` on), plus the server's own ``fab`` spans of
        its cold jobs, read back through ``GET /v1/jobs/{id}/trace``."""
        traced = self.requests[first_request:]
        docs = [r["doc"] for r in traced if r["ok"]]
        hits = [d for d in docs if d.get("cache_hit")]
        misses = [d for d in docs if not d.get("cache_hit")]

        def ms(values):
            return median(values) * 1e3

        fabricate = probe = 0.0
        wafers = 0
        client = ServiceClient(self.url, KEY)
        for doc in misses:
            spans = client.trace(doc["id"]).get("spans", [])
            for span in spans:
                if span["name"] == "fab.fabricate":
                    fabricate += span["wall_s"]
                    wafers += 1
                elif span["name"] == "fab.probe":
                    probe += span["wall_s"]
        return {
            "service.queue_wait_p50_ms": (
                ms([d["started"] - d["created"] for d in docs]), "ms"),
            "service.hit_server_p50_ms": (
                ms([d["finished"] - d["created"] for d in hits]), "ms"),
            "service.miss_server_p50_ms": (
                ms([d["finished"] - d["created"] for d in misses]), "ms"),
            "service.refused": (
                sum(1 for r in traced if r.get("status") in (403, 429)),
                "count"),
            "fab.fabricate_s": (fabricate, "s"),
            "fab.probe_s": (probe, "s"),
            "fab.mc_dies_per_s": (
                wafers * dies_per_wafer() / (fabricate + probe)
                if fabricate + probe else 0.0, "dies/s"),
        }
