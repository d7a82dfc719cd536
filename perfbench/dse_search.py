"""``dse_search``: a cold adaptive DSE search on an empty result cache
with ``Engine(jobs=2)`` on the ``local`` executor, then warm replays of
the same search from that cache."""

import importlib
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import repro.dse.evaluate  # noqa: F401  (imported before workers fork)
import repro.kernels.suite  # noqa: F401
from repro.engine import Engine, ResultCache

from harness import median, rep_seed

# The module, not the ``repro.dse.search`` function the package exports.
dse_search = importlib.import_module("repro.dse.search")

#: Why this workload is in the benchmark.
WHY = ("cold scoring crosses process-pool dispatch and writes the cache "
       "(asm, ISA sim, netlist builds); the warm replay only reads it")

#: Scoring jobs per search.
BUDGET = 96
WORKERS = 2
#: Warm replays per cold search (the replay is ~50 ms; several make its
#: median steady).
REPLAYS = 10

#: Which metrics fill the end-to-end slots every workload reports.
HEADLINE = {"work_per_s": "evals_per_s", "op_p50_ms": "cold_search_p50_ms",
            "second_path_ms": "replay_p50_ms"}


class DseSearch:
    name = "dse_search"
    workers = WORKERS

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.pools = []
        self.cold_s = []       # (evaluations, seconds) per repetition
        self.replay_s = []     # (evaluations, median replay seconds)
        self.cold = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []
        self.retries = 0
        self.failures = 0

    def _pool(self, workers):
        pool = ProcessPoolExecutor(max_workers=workers)
        self.pools.append(pool)
        return pool

    def setup(self):
        """Imports, the design space, and one pool started and joined
        (every timed search starts its own, as each ``repro dse
        search`` invocation does)."""
        dse_search.SearchConfig().space.size()
        pool = self._pool(WORKERS)
        list(pool.map(abs, range(WORKERS)))
        self._shutdown_pools()

    def _shutdown_pools(self):
        while self.pools:
            self.pools.pop().shutdown(wait=True)

    def _search(self, cache_root, seed):
        """One search on a fresh engine over the cache at
        ``cache_root``, as one ``repro dse search`` invocation."""
        self.attempted += 1
        engine = Engine(jobs=WORKERS, cache=ResultCache(cache_root),
                        executor="local", pool_factory=self._pool)
        try:
            return dse_search.search(budget=BUDGET, seed=seed,
                                     engine=engine)
        except Exception as exc:  # counted as failed; the run goes on
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            # Join the workers first: the engine's own close does not
            # wait for them to exit.
            self._shutdown_pools()
            engine.close()
            self.retries += engine.metrics.retries
            self.failures += engine.metrics.failures

    def run(self, seconds):
        """A cold search and its warm replays, repeated until
        ``seconds`` have passed, each repetition with its own search
        seed; every call starts again from the first repetition's."""
        units, started = 0, time.perf_counter()
        deadline, repetition = started + seconds, 0
        while repetition == 0 or time.perf_counter() < deadline:
            seed = rep_seed(self.seed, repetition)
            repetition += 1
            root = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
            try:
                t0 = time.perf_counter()
                cold = self._search(root, seed)
                t1 = time.perf_counter()
                replays = []
                for _ in range(REPLAYS if cold is not None else 0):
                    t2 = time.perf_counter()
                    replay = self._search(root, seed)
                    replays.append((time.perf_counter() - t2, replay))
            finally:
                shutil.rmtree(root, ignore_errors=True)
            replays = [(s, r) for s, r in replays if r is not None]
            if cold is None or not replays:
                continue
            self.cold_s.append((cold.evaluations, t1 - t0))
            self.replay_s.append(
                (cold.evaluations, median([s for s, _ in replays])))
            if repetition == 1:
                self.cold = cold
            self._check(cold, [r for _, r in replays])
            units += 1
        return units, time.perf_counter() - started

    def _check(self, cold, replays):
        for replay in replays:
            if replay.frontier_names() != cold.frontier_names():
                self.problems.append("replay frontier differs from the "
                                     "cold frontier")
            if replay.cache_misses or replay.cache_hits != replay.evaluations:
                self.problems.append(
                    f"replay: {replay.cache_hits} hits, "
                    f"{replay.cache_misses} misses for "
                    f"{replay.evaluations} evaluations"
                )
            if _scores(replay) != _scores(cold):
                self.problems.append("replay scores differ from cold")

    def end_to_end(self):
        return {
            "evals_per_s": (
                median([n / s for n, s in self.cold_s]), "evals/s"),
            "replay_evals_per_s": (
                median([n / s for n, s in self.replay_s]), "evals/s"),
            "cold_search_p50_ms": (
                median([s for _, s in self.cold_s]) * 1e3, "ms"),
            "replay_p50_ms": (
                median([s for _, s in self.replay_s]) * 1e3, "ms"),
        }

    def checks(self):
        problems = list(dict.fromkeys(self.problems))
        if self.cold is None:
            problems.append("no cold search completed")
        return problems

    def digest_doc(self):
        """The first repetition's cold score documents."""
        return _scores(self.cold) if self.cold else None

    def counters(self):
        return {"engine.retries": self.retries,
                "engine.failures": self.failures}

    def close(self):
        self._shutdown_pools()


def _scores(result):
    """The score documents, keyed by genome."""
    return {key: result.scored[key] for key in sorted(result.scored)}
