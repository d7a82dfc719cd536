"""Thread-safety of the on-disk stores: every atomic write goes through
:func:`repro.obs.state.atomic_write`, whose temp names are unique per
call, so threads of one process never share (or steal) a temp file.

A service runs engine work on a thread pool, so two jobs can store the
same cache key, artifact or state file at the same moment; each write
must land whole and none may be lost.
"""

import json
import os
import threading

import pytest

from repro.engine import ResultCache
from repro.obs import state as obs_state
from repro.obs.state import atomic_write
from repro.service.artifacts import ArtifactStore

THREADS = 8


def _hammer(count, fn):
    """Run ``fn(thread, index)`` ``count`` times on each of
    :data:`THREADS` threads started together; returns every result."""
    barrier = threading.Barrier(THREADS)
    results = [[] for _ in range(THREADS)]

    def worker(thread):
        barrier.wait()
        for index in range(count):
            results[thread].append(fn(thread, index))

    threads = [threading.Thread(target=worker, args=(thread,))
               for thread in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return [value for per_thread in results for value in per_thread]


def _temp_litter(root):
    return list(root.rglob("*.tmp*"))


class TestAtomicWrite:
    def test_replaces_target(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("old")
        with atomic_write(target) as handle:
            handle.write("new")
        assert target.read_text() == "new"
        assert _temp_litter(tmp_path) == []

    def test_failure_keeps_target_and_cleans_up(self, tmp_path):
        target = tmp_path / "doc.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(target, "wb") as handle:
                handle.write(b"half")
                raise RuntimeError("crash mid-write")
        assert target.read_bytes() == b"old"
        assert _temp_litter(tmp_path) == []

    def test_permissions_follow_umask(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("x")
        atomic = tmp_path / "atomic"
        with atomic_write(atomic) as handle:
            handle.write("x")
        assert (os.stat(atomic).st_mode & 0o777) == \
            (os.stat(plain).st_mode & 0o777)


class TestThreadedWrites:
    def test_same_key_cache_puts_never_lost(self, tmp_path):
        """8 threads x 200 puts of one 200 KB value under one key."""
        cache = ResultCache(tmp_path / "cache")
        key = "c" * 64
        value = {"blob": b"x" * 200_000}
        outcomes = _hammer(200, lambda thread, index: cache.put(
            "stress.fn", key, value, meta={"thread": thread}
        ))
        assert len(outcomes) == THREADS * 200
        assert outcomes.count(True) == len(outcomes)
        hit, stored = cache.get("stress.fn", key)
        assert hit and stored == value
        assert _temp_litter(tmp_path) == []

    def test_concurrent_identical_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        data = "table 5\n" * 10_000
        descriptors = _hammer(50, lambda thread, index: store.put(
            "table5.txt", data
        ))
        assert len({d["digest"] for d in descriptors}) == 1
        _meta, stored = store.get(descriptors[0]["digest"])
        assert stored == data.encode("utf-8")
        assert _temp_litter(tmp_path) == []

    def test_concurrent_state_documents(self, tmp_path):
        outcomes = _hammer(100, lambda thread, index: obs_state.write_json(
            "last_run.json", {"thread": thread, "index": index},
            root=tmp_path,
        ))
        assert all(outcomes)
        document = json.loads((tmp_path / "last_run.json").read_text())
        assert set(document) == {"thread", "index"}
        assert _temp_litter(tmp_path) == []
