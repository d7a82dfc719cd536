"""The observability state directory.

Snapshots that must survive the process -- the latest engine-run
metrics, the exported span stream, the metrics registry dump, and the
structured log -- live in a small state directory *independent of the
result cache*, so ``repro obs``/``repro engine stats`` stay truthful
even for ``--no-cache`` runs (the cache can be cleared or bypassed at
any time; the record of what last ran should not go with it).

Layout (default root: ``$REPRO_STATE_DIR`` or ``.repro-state``)::

    <root>/last_run.json    latest engine-run metrics (``engine stats``)
    <root>/metrics.json     latest metrics-registry snapshot
    <root>/spans.jsonl      latest run's finished spans, one per line
    <root>/log.jsonl        structured log records, appended across runs

Every writer here swallows ``OSError``: observability must never take
an experiment down with it.
"""

import contextlib
import json
import os
import tempfile
from pathlib import Path

#: Environment override for the state root directory.
STATE_DIR_ENV = "REPRO_STATE_DIR"
#: Project-local default state root.
DEFAULT_STATE_DIRNAME = ".repro-state"

LAST_RUN_FILE = "last_run.json"
METRICS_FILE = "metrics.json"
SPANS_FILE = "spans.jsonl"
LOG_FILE = "log.jsonl"


def state_dir(root=None):
    """The state root as a :class:`~pathlib.Path` (not created yet)."""
    return Path(root or os.environ.get(STATE_DIR_ENV)
                or DEFAULT_STATE_DIRNAME)


#: Swallowed ``OSError`` counts per file name.  Writers stay silent to
#: the caller (observability must never fail a run) but the failures
#: are counted, folded into ``obs_write_errors_total``, and announced
#: by one warn-once log line so a read-only state dir is visible.
_WRITE_ERRORS = {}
_write_warned = False


def write_error_count(name=None):
    """Swallowed write failures so far (for ``name``, or in total)."""
    if name is not None:
        return _WRITE_ERRORS.get(name, 0)
    return sum(_WRITE_ERRORS.values())


def _note_write_failure(name, exc):
    global _write_warned
    _WRITE_ERRORS[name] = _WRITE_ERRORS.get(name, 0) + 1
    try:
        from repro import obs
        if obs.active():
            obs.registry().counter(
                "obs_write_errors_total",
                "State-dir writes swallowed as OSError",
            ).inc(file=name)
    except Exception:  # pragma: no cover - obs must never break IO
        pass
    if _write_warned:
        return
    # Flip the latch *before* logging: the warning itself may try to
    # persist through append_jsonl and fail straight back into here.
    _write_warned = True
    try:
        from repro.obs.logging import get_logger
        get_logger("repro.obs.state").warning(
            "state-dir write failed; further failures counted silently",
            file=name, error=f"{type(exc).__name__}: {exc}",
        )
    except Exception:  # pragma: no cover
        pass


#: The process umask, read once at import (reading it means setting
#: it, which is not thread-safe), so atomically written files get the
#: same permissions a plain ``open(path, "w")`` would give them.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Write ``path`` all-or-nothing: yields a handle on a unique
    temporary file in the same directory, which replaces ``path`` when
    the block exits cleanly.  On any exception the temporary file is
    removed and the exception re-raised, so concurrent writers (threads
    included) never share a temp path and a failed write leaves
    ``path`` as it was."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.tmp.")
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(name, payload, root=None):
    """Atomically write one JSON document; returns True on success."""
    directory = state_dir(root)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with atomic_write(directory / name) as handle:
            json.dump(payload, handle, indent=2, default=str)
    except OSError as exc:
        _note_write_failure(name, exc)
        return False
    return True


def read_json(name, root=None):
    """The parsed document, or None when absent/corrupt."""
    try:
        with open(state_dir(root) / name) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def write_jsonl(name, records, root=None):
    """Replace a JSONL file with ``records`` (one object per line)."""
    directory = state_dir(root)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with atomic_write(directory / name) as handle:
            for record in records:
                handle.write(json.dumps(record, default=str) + "\n")
    except OSError as exc:
        _note_write_failure(name, exc)
        return False
    return True


def append_jsonl(name, record, root=None):
    """Append one record to a JSONL file.

    The record is serialized first and written with a *single*
    ``write`` of one bytes object to a file opened in unbuffered
    binary append mode.  On POSIX, ``O_APPEND`` writes of one buffer
    are atomic with respect to other appenders, so concurrent writers
    (engine workers all logging to ``log.jsonl``) interleave whole
    lines instead of tearing each other's records mid-line.
    """
    directory = state_dir(root)
    payload = (json.dumps(record, default=str) + "\n").encode("utf-8")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / name, "ab", buffering=0) as handle:
            handle.write(payload)
    except OSError as exc:
        _note_write_failure(name, exc)
        return False
    return True


#: Malformed JSONL lines skipped by :func:`read_jsonl` this session,
#: keyed by file name.  Torn or half-flushed lines from older writers
#: (or a crash mid-append) are survivable, but not silently ignorable.
_MALFORMED = {}


def malformed_line_count(name=None):
    """Malformed lines skipped so far (for ``name``, or in total)."""
    if name is not None:
        return _MALFORMED.get(name, 0)
    return sum(_MALFORMED.values())


def read_jsonl(name, root=None, last=None):
    """All (or the ``last`` N) parsed records of a JSONL file.

    Lines that fail to parse -- torn by a concurrent writer or a crash
    mid-append -- are skipped, counted in :func:`malformed_line_count`,
    and folded into the ``obs_jsonl_malformed_total`` metric when a
    session is active.
    """
    try:
        with open(state_dir(root) / name) as handle:
            lines = handle.readlines()
    except OSError:
        return []
    if last is not None:
        lines = lines[-last:]
    records = []
    malformed = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            malformed += 1
    if malformed:
        _MALFORMED[name] = _MALFORMED.get(name, 0) + malformed
        try:
            from repro import obs
            if obs.active():
                obs.registry().counter(
                    "obs_jsonl_malformed_total",
                    "Malformed JSONL lines skipped on read",
                ).inc(malformed, file=name)
        except Exception:  # pragma: no cover - obs must never break IO
            pass
    return records
