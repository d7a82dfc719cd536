"""Always-on flight recorder: the last N things that happened.

Post-mortem observability has a bootstrapping problem: the run that
crashes is never the run you profiled.  The flight recorder keeps a
fixed-size ring buffer of recent engine events, finished spans, and
structured log records *at all times* -- profiling on or off -- so
that when something does go wrong there is a recent history to dump.

The ring is a :class:`collections.deque` with ``maxlen``; appends are
O(1), memory is bounded by ``capacity``, and the recorder never does
I/O on the hot path.  Cost on the disabled-profiling path is one dict
wrap + deque append per *event* (engine events and warning-level logs
-- rare), which `benchmarks/test_bench_obs.py` holds under the same
< 5% overhead bar as the rest of the obs layer.

Dumps land in ``<state-dir>/flight/`` as self-describing JSON, written
when an engine job fails for good, the service answers an unhandled
500, or the process receives ``SIGQUIT``.  ``repro obs flight dump``
forces one; ``repro obs flight show`` replays the latest.
"""

import json
import os
import signal
import threading
import time
from collections import deque

from repro.obs import bridge as _bridge
from repro.obs import logging as _logging
from repro.obs import spans as _spans
from repro.obs import state as _state

#: Subdirectory of the state dir that dumps are written to.
FLIGHT_DIRNAME = "flight"
#: Default ring capacity (records, across all kinds).
DEFAULT_CAPACITY = 2048
#: Dumps beyond this count are pruned oldest-first.
MAX_DUMPS = 20

_lock = threading.Lock()
_ring = deque(maxlen=DEFAULT_CAPACITY)
_enabled = True
_installed = False
_dump_count = 0


def enabled():
    return _enabled


def configure(capacity=None, enabled=None):
    """Resize and/or enable/disable the recorder (partial updates)."""
    global _ring, _enabled
    with _lock:
        if capacity is not None and capacity != _ring.maxlen:
            _ring = deque(_ring, maxlen=max(1, int(capacity)))
        if enabled is not None:
            _enabled = bool(enabled)


def clear():
    """Drop the ring's contents (the recorder stays enabled)."""
    with _lock:
        _ring.clear()


def record(kind, payload):
    """Append one record to the ring (no-op when disabled)."""
    if not _enabled:
        return
    entry = {"kind": kind, "ts": time.time()}
    entry.update(payload)
    _ring.append(entry)


def snapshot():
    """The ring's contents, oldest first."""
    with _lock:
        return list(_ring)


# ----------------------------------------------------------------------
# Taps: engine events, finished spans, structured log records.
# ----------------------------------------------------------------------

def _on_engine_event(event, payload):
    if _enabled:
        record("event", {"event": event, "payload": dict(payload)})


def _on_span(span_record):
    if _enabled:
        record("span", dict(span_record))


def _on_log(log_record):
    if _enabled:
        record("log", dict(log_record))


def install():
    """Tap the bridge, the span stream, and the logger (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    _bridge.subscribe(_on_engine_event)
    _spans.add_span_sink(_on_span)
    _logging.add_log_sink(_on_log)


# ----------------------------------------------------------------------
# Dumps.
# ----------------------------------------------------------------------

def flight_dir(root=None):
    return _state.state_dir(root) / FLIGHT_DIRNAME


def dump(reason, context=None, root=None):
    """Write the ring to ``<state-dir>/flight/``; path or None.

    Best-effort like every state-dir writer: failures are counted via
    :func:`repro.obs.state.write_error_count` and swallowed.
    """
    global _dump_count
    records = snapshot()
    _dump_count += 1
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
    name = f"{stamp}_{os.getpid()}_{_dump_count:03d}_{reason}.json"
    document = {
        "written": time.time(),
        "reason": reason,
        "pid": os.getpid(),
        "context": context or {},
        "capacity": _ring.maxlen,
        "records": records,
    }
    directory = flight_dir(root)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with _state.atomic_write(directory / name) as handle:
            json.dump(document, handle, indent=2, default=str)
    except OSError as exc:
        _state._note_write_failure(f"{FLIGHT_DIRNAME}/{name}", exc)
        return None
    _prune(directory)
    return directory / name


def _prune(directory):
    try:
        dumps = sorted(path for path in directory.iterdir()
                       if path.suffix == ".json")
        for stale in dumps[:-MAX_DUMPS]:
            stale.unlink()
    except OSError:
        pass


def list_dumps(root=None):
    """Existing dump paths, oldest first."""
    try:
        return sorted(path for path in flight_dir(root).iterdir()
                      if path.suffix == ".json")
    except OSError:
        return []


def load_dump(entry=None, root=None):
    """Parse a dump by path/name (default: the latest), or None."""
    if entry is None:
        dumps = list_dumps(root)
        if not dumps:
            return None
        path = dumps[-1]
    else:
        path = flight_dir(root) / str(entry)
        if not path.exists():
            path = _state.state_dir(root) / str(entry)
        if not path.exists():
            from pathlib import Path
            path = Path(str(entry))
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def render(document, limit=None):
    """Human rendering of a dump (or a live snapshot list)."""
    if document is None:
        return "(no flight dump found)"
    if isinstance(document, dict):
        records = document.get("records", [])
        header = (
            f"flight dump: reason={document.get('reason', '?')} "
            f"pid={document.get('pid', '?')} "
            f"records={len(records)}"
        )
    else:
        records = list(document)
        header = f"flight ring: records={len(records)}"
    if limit is not None:
        records = records[-limit:]
    lines = [header]
    for entry in records:
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(entry.get("ts", 0)))
        kind = entry.get("kind", "?")
        if kind == "event":
            payload = entry.get("payload", {})
            detail = entry.get("event", "?") + "".join(
                f" {key}={payload[key]}"
                for key in ("label", "stage", "status", "trace_id")
                if key in payload
            )
        elif kind == "span":
            detail = (
                f"{entry.get('name', '?')} "
                f"wall={entry.get('wall_s', 0.0):.3f}s "
                f"trace={entry.get('trace', '?')}"
            )
            if entry.get("error"):
                detail += f" !{entry['error']}"
        elif kind == "log":
            detail = (
                f"[{entry.get('logger', '?')}] "
                f"{entry.get('level', '?')}: {entry.get('event', '')}"
            )
            if entry.get("trace_id"):
                detail += f" trace={entry['trace_id']}"
        else:
            detail = json.dumps(entry, default=str)
        lines.append(f"{stamp} {kind:<5} {detail}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# SIGQUIT: dump-on-demand for a live, wedged process.
# ----------------------------------------------------------------------

def install_sigquit():
    """Dump the ring on ``SIGQUIT`` (Ctrl-\\) and keep running.

    Main-thread only (signal module restriction); platforms without
    SIGQUIT (Windows) silently skip installation.
    """
    if not hasattr(signal, "SIGQUIT"):
        return False
    if threading.current_thread() is not threading.main_thread():
        return False

    def _handler(signum, frame):
        dump("sigquit")

    try:
        signal.signal(signal.SIGQUIT, _handler)
    except (ValueError, OSError):
        return False
    return True
