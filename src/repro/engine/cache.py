"""Content-addressed on-disk result cache.

A cache entry is addressed by the SHA-256 of a canonical JSON document
naming everything that determines the result:

- the job function's registered name and version
  (:func:`repro.engine.registry.function_identity`),
- the package version (``repro.__version__``),
- the canonicalized job parameters,
- the seed token (entropy + spawn key).

Layout on disk (default root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``)::

    <root>/<function-name>/<digest>.pkl    pickled result
    <root>/<function-name>/<digest>.json   human-readable entry metadata
    <root>/last_run.json                   metrics of the latest engine run

With ``shards > 1`` (constructor argument, ``$REPRO_CACHE_SHARDS``, or
a persisted ``shards.json``) entries spread over N key-hash shards, and
an append-only *index tier* records every put so a cluster coordinator
can answer "who has this digest" without walking the tree::

    <root>/shards.json                     {"shards": N}
    <root>/shard-03/<function-name>/<digest>.pkl
    <root>/index/shard-03.jsonl            one JSON line per put

Index lines are written with a single ``O_APPEND`` write (the same
crash-safety discipline as :func:`repro.obs.state.append_jsonl`): a
crash can tear at most the final line, and readers skip torn lines.
The index is advisory -- lookups verify the blob on disk -- so a stale
or missing index never serves wrong data.  A sharded cache still reads
legacy flat-layout entries, so enabling sharding on an existing cache
loses no hits.

Values that cannot be canonicalized deterministically (arbitrary objects
whose ``repr`` embeds addresses) are rejected with ``TypeError`` rather
than silently producing an unstable key; the engine runs jobs with
such parameters uncached unless they supply ``Job.cache_key``.
"""

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import shutil
import time
from pathlib import Path

import numpy as np

from repro.obs.state import atomic_write

#: Environment override for the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment override for the shard count of new caches.
CACHE_SHARDS_ENV = "REPRO_CACHE_SHARDS"
#: Project-local default cache root.
DEFAULT_CACHE_DIRNAME = ".repro-cache"
#: File persisting a cache's shard count so reopens agree.
SHARDS_FILENAME = "shards.json"


def default_cache_dir():
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIRNAME


def _package_version():
    try:
        from repro import __version__
        return __version__
    except Exception:  # pragma: no cover - import cycle guard
        return "0"


def canonical(value):
    """Reduce ``value`` to a deterministic JSON-safe structure."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return {"__float__": repr(float(value))}
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": hashlib.sha256(bytes(value)).hexdigest()}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (frozenset, set)):
        items = [canonical(item) for item in value]
        return {"__set__": sorted(items, key=json.dumps)}
    if isinstance(value, dict):
        return {
            "__map__": sorted(
                ([canonical(k), canonical(v)] for k, v in value.items()),
                key=json.dumps,
            )
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    token = getattr(value, "cache_token", None)
    if callable(token):
        return {"__token__": canonical(token())}
    raise TypeError(
        f"cannot build a stable cache key from {type(value).__name__!r}; "
        "pass primitives/dataclasses or set Job.cache_key explicitly"
    )


def job_cache_key(job):
    """The content address of a job's result (hex digest)."""
    if job.cache_key is not None:
        return job.cache_key
    from repro.engine.registry import function_identity

    name, version = function_identity(job.fn)
    document = {
        "fn": name,
        "fn_version": version,
        "package": _package_version(),
        "params": canonical(dict(job.params)),
        "seed": job.seed.token() if job.seed is not None else None,
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _safe_name(name):
    return "".join(c if (c.isalnum() or c in "._-") else "_"
                   for c in name) or "anonymous"


class ShardIndex:
    """Append-only "who has what" ledger over a sharded cache.

    One JSONL file per shard under ``<root>/index/``; every
    :meth:`record` is a single ``O_APPEND`` write so concurrent
    writers (engine + cluster workers sharing a filesystem) interleave
    whole lines and a crash tears at most the last one.  Lookups are
    served from an mtime-validated in-memory load and are *advisory*:
    callers must verify the blob exists before trusting a hit.
    """

    def __init__(self, root):
        self.root = Path(root) / "index"
        self._loaded = None     # {key: {"fn", "shard", "bytes"}}
        self._loaded_stamp = None

    def _file(self, shard):
        return self.root / f"shard-{int(shard):02d}.jsonl"

    def record(self, shard, fn_name, key, nbytes):
        """Append one put record; IO errors are swallowed (the index
        is a hint tier, never load-bearing for correctness)."""
        line = json.dumps(
            {"key": key, "fn": fn_name, "shard": int(shard),
             "bytes": int(nbytes), "t": time.time()},
            separators=(",", ":"),
        ) + "\n"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self._file(shard),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass

    def _stamp(self):
        try:
            return tuple(sorted(
                (path.name, path.stat().st_mtime_ns, path.stat().st_size)
                for path in self.root.glob("shard-*.jsonl")
            ))
        except OSError:
            return ()

    def load(self):
        """``{key: {"fn", "shard", "bytes"}}``, newest record wins."""
        stamp = self._stamp()
        if self._loaded is not None and stamp == self._loaded_stamp:
            return self._loaded
        mapping = {}
        for path in sorted(self.root.glob("shard-*.jsonl")):
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError:
                continue
            for line in text.splitlines():
                try:
                    record = json.loads(line)
                    mapping[record["key"]] = {
                        "fn": record["fn"],
                        "shard": record["shard"],
                        "bytes": record.get("bytes", 0),
                    }
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # torn/foreign line -- skip, never fail
        self._loaded = mapping
        self._loaded_stamp = stamp
        return mapping

    def lookup(self, key):
        """The recorded ``{"fn", "shard", "bytes"}`` for a digest."""
        return self.load().get(key)

    def __len__(self):
        return len(self.load())


class ResultCache:
    """Pickle-backed result store with hit/miss accounting.

    ``shards`` selects the N-way key-hash layout (see the module
    docstring); the default (``1``) is the exact legacy flat layout.
    A cache that was ever written sharded remembers its shard count in
    ``shards.json`` so later opens agree without repeating the option.
    """

    def __init__(self, root=None, shards=None):
        self.root = Path(root or default_cache_dir())
        self.shards = self._resolve_shards(shards)
        self.index = ShardIndex(self.root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._announced_shards = False

    def _resolve_shards(self, shards):
        if shards is None:
            persisted = self._read_persisted_shards()
            if persisted is not None:
                return persisted
            shards = os.environ.get(CACHE_SHARDS_ENV) or 1
        try:
            return max(1, int(shards))
        except (TypeError, ValueError):
            return 1

    def _read_persisted_shards(self):
        try:
            with open(self.root / SHARDS_FILENAME) as handle:
                return max(1, int(json.load(handle)["shards"]))
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError):
            return None

    def _persist_shards(self):
        if self._announced_shards or self.shards <= 1:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with atomic_write(self.root / SHARDS_FILENAME) as handle:
                json.dump({"shards": self.shards}, handle)
            self._announced_shards = True
        except OSError:
            pass

    # -- addressing ----------------------------------------------------

    def shard_of(self, key):
        """Which shard a digest lives in (``0`` when unsharded)."""
        if self.shards <= 1:
            return 0
        try:
            bucket = int(str(key)[:8], 16)
        except ValueError:
            bucket = int.from_bytes(
                hashlib.sha256(str(key).encode("utf-8")).digest()[:4],
                "big",
            )
        return bucket % self.shards

    def _shard_dir(self, shard):
        if self.shards <= 1:
            return self.root
        return self.root / f"shard-{int(shard):02d}"

    def _paths(self, fn_name, key):
        directory = (self._shard_dir(self.shard_of(key))
                     / _safe_name(fn_name))
        return directory / f"{key}.pkl", directory / f"{key}.json"

    def _legacy_paths(self, fn_name, key):
        directory = self.root / _safe_name(fn_name)
        return directory / f"{key}.pkl", directory / f"{key}.json"

    def _candidate_paths(self, fn_name, key):
        primary = self._paths(fn_name, key)
        yield primary
        legacy = self._legacy_paths(fn_name, key)
        if legacy[0] != primary[0]:
            yield legacy

    # -- lookup / store ------------------------------------------------

    def get(self, fn_name, key):
        """(hit, value); a corrupt or unreadable entry counts as a miss.

        A *corrupt* entry (the pickle exists but does not deserialize --
        truncated by a crash mid-write, or referencing symbols this
        checkout no longer has) is quarantined: both the ``.pkl`` and
        its ``.json`` metadata are deleted so the next ``put`` starts
        from a clean slot instead of shadowing good data with bad.
        A sharded cache falls back to the legacy flat path, so turning
        sharding on over an existing cache keeps its hits.
        """
        for data_path, meta_path in self._candidate_paths(fn_name, key):
            try:
                with open(data_path, "rb") as handle:
                    value = pickle.load(handle)
            except OSError:
                continue
            except (pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, ValueError):
                self._quarantine(fn_name, data_path, meta_path)
                self.misses += 1
                return False, None
            self.hits += 1
            # Mark the entry recently-used so :meth:`gc` evicts cold
            # entries first (mtime is the LRU clock; atime is
            # unreliable on noatime/relatime mounts).
            try:
                os.utime(data_path)
            except OSError:
                pass
            return True, value
        self.misses += 1
        return False, None

    def _quarantine(self, fn_name, data_path, meta_path):
        self.corrupt += 1
        for path in (data_path, meta_path):
            try:
                path.unlink()
            except OSError:
                pass
        try:
            from repro import obs
            if obs.active():
                obs.registry().counter(
                    "engine_cache_corrupt_total",
                    "Corrupt cache entries quarantined",
                ).inc(fn=fn_name)
        except Exception:  # pragma: no cover - obs must never break IO
            pass

    def put(self, fn_name, key, value, meta=None):
        """Atomically store a result (tmp file + rename)."""
        return self._store(
            fn_name, key, meta,
            lambda handle: pickle.dump(
                value, handle, pickle.HIGHEST_PROTOCOL
            ),
        )

    def put_blob(self, fn_name, key, blob, meta=None):
        """Store an already-pickled result blob (the wire format the
        cluster ships between workers); same atomicity as :meth:`put`."""
        return self._store(
            fn_name, key, meta, lambda handle: handle.write(blob)
        )

    def _store(self, fn_name, key, meta, write):
        data_path, meta_path = self._paths(fn_name, key)
        try:
            data_path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        try:
            with atomic_write(data_path, "wb") as handle:
                write(handle)
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError):
            # Never leave metadata describing a value that was not
            # stored: a stale .json next to no (or an older) .pkl lies
            # about what the entry holds.
            if not data_path.exists():
                try:
                    meta_path.unlink()
                except OSError:
                    pass
            return False
        entry_meta = {"fn": fn_name, "key": key,
                      "created": time.time()}
        entry_meta.update(meta or {})
        try:
            with atomic_write(meta_path) as handle:
                json.dump(entry_meta, handle, indent=2, default=str)
        except OSError:
            pass
        self._persist_shards()
        try:
            nbytes = data_path.stat().st_size
        except OSError:
            nbytes = 0
        self.index.record(self.shard_of(key), fn_name, key, nbytes)
        return True

    def get_blob(self, fn_name, key):
        """The raw pickled bytes for an entry, or ``None`` on miss.

        This is the cluster's cache-sharing read: no deserialization
        (the coordinator relays bytes it never needs to understand)
        and no hit/miss accounting (session counters stay about *this*
        process's lookups).
        """
        for data_path, _meta in self._candidate_paths(fn_name, key):
            try:
                with open(data_path, "rb") as handle:
                    return handle.read()
            except OSError:
                continue
        return None

    def shared_lookup(self, key, fn_name=None):
        """Resolve a digest through the index tier: ``(fn, blob)``.

        The index says which function/shard recorded the digest; the
        filesystem is the authority (a stale index entry whose blob is
        gone is a miss).  ``fn_name`` is a fallback probe for entries
        that predate the index.
        """
        record = self.index.lookup(key)
        if record is not None:
            blob = self.get_blob(record["fn"], key)
            if blob is not None:
                return record["fn"], blob
        if fn_name is not None:
            blob = self.get_blob(fn_name, key)
            if blob is not None:
                return fn_name, blob
        return None, None

    def has(self, fn_name, key):
        return any(
            data.exists()
            for data, _meta in self._candidate_paths(fn_name, key)
        )

    # -- maintenance / reporting ---------------------------------------

    def clear(self):
        """Delete every cache entry (and the last-run metrics)."""
        if self.root.exists():
            shutil.rmtree(self.root)

    def gc(self, max_bytes):
        """Evict least-recently-used entries down to ``max_bytes``.

        A long-lived service accumulates results without bound; this
        walks every ``.pkl`` entry, sorts by mtime (refreshed on every
        :meth:`get` hit, so it is an LRU clock), and deletes the
        coldest entries (data + metadata) until the total is within
        budget.  Returns ``{"before_bytes", "after_bytes",
        "evicted_entries", "evicted_bytes", "max_bytes"}``.
        """
        max_bytes = max(0, int(max_bytes))
        records = []
        for _shard, _fn_name, data_path in self._scan():
            try:
                stat = data_path.stat()
            except OSError:
                continue
            records.append((stat.st_mtime, stat.st_size, data_path))
        total = sum(size for _, size, _ in records)
        before = total
        evicted = 0
        evicted_bytes = 0
        for _, size, data_path in sorted(records, key=lambda r: r[0]):
            if total <= max_bytes:
                break
            for path in (data_path, data_path.with_suffix(".json")):
                try:
                    path.unlink()
                except OSError:
                    pass
            total -= size
            evicted += 1
            evicted_bytes += size
        return {
            "before_bytes": before,
            "after_bytes": total,
            "evicted_entries": evicted,
            "evicted_bytes": evicted_bytes,
            "max_bytes": max_bytes,
        }

    def _scan(self):
        """Yield ``(shard, fn_name, data_path)`` for every entry.

        Walks both the sharded layout and legacy flat directories;
        skips the index tier and the service artifact store, which
        share the root but are not result entries.
        """
        if not self.root.exists():
            return
        for child in sorted(self.root.iterdir()):
            if not child.is_dir() or child.name in ("index", "artifacts"):
                continue
            if child.name.startswith("shard-"):
                try:
                    shard = int(child.name.split("-", 1)[1])
                except ValueError:
                    continue
                for fn_dir in sorted(child.iterdir()):
                    if not fn_dir.is_dir():
                        continue
                    for data_path in fn_dir.glob("*.pkl"):
                        yield shard, fn_dir.name, data_path
            else:
                for data_path in child.glob("*.pkl"):
                    yield 0, child.name, data_path

    def stats(self):
        """{function name: {"entries": n, "bytes": total}} plus totals,
        and (for sharded caches) a per-shard entry/byte breakdown."""
        by_fn = {}
        by_shard = {}
        total_entries = 0
        total_bytes = 0
        for shard, fn_name, data_path in self._scan():
            try:
                size = data_path.stat().st_size
            except OSError:
                continue
            fn_slot = by_fn.setdefault(fn_name,
                                       {"entries": 0, "bytes": 0})
            fn_slot["entries"] += 1
            fn_slot["bytes"] += size
            shard_slot = by_shard.setdefault(
                shard, {"entries": 0, "bytes": 0}
            )
            shard_slot["entries"] += 1
            shard_slot["bytes"] += size
            total_entries += 1
            total_bytes += size
        return {
            "root": str(self.root),
            "functions": by_fn,
            "entries": total_entries,
            "bytes": total_bytes,
            "cache_bytes": total_bytes,
            "shards": self.shards,
            "per_shard": {
                f"shard-{shard:02d}": counts
                for shard, counts in sorted(by_shard.items())
            },
            "index_entries": len(self.index),
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_corrupt": self.corrupt,
        }

    @property
    def hit_rate(self):
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0
