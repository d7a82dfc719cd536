"""Job records and the in-memory job store of ``repro.service``.

A :class:`JobRecord` is the unit of truth for one submitted job: its
parameters, lifecycle status, per-job event log (what the ``/events``
endpoint streams), result document, and artifact listing.  Records are
mutated from executor threads and read from the asyncio serving thread,
so every mutable field goes through the record's condition variable.
Reaching a terminal state also fires the record's terminal callbacks,
which is how a long-polling request on the serving loop is woken
without a thread of its own.

The :class:`JobStore` is deliberately in-memory: job state is cheap to
recompute (the *results* live in the content-addressed engine cache,
which is durable), and a restarted service serving a resubmitted job
answers it straight from that cache.
"""

import json
import threading
import time
import uuid
import zlib
from collections import OrderedDict

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL = frozenset({COMPLETED, FAILED, CANCELLED})


def new_job_id():
    return uuid.uuid4().hex[:16]


class JobRecord:
    """One submitted job: parameters, status, events, result."""

    def __init__(self, tenant, jobtype, params, job_id=None):
        self.id = job_id or new_job_id()
        self.tenant = tenant
        self.type = jobtype
        self.params = params
        self.status = QUEUED
        self.created = time.time()
        self.started = None
        self.finished = None
        self.result = None
        self.error = None
        self.cache_hit = False
        self.artifacts = []
        self.cancel_requested = False
        #: Live engine while the job is running (the cancellation hook).
        self.engine = None
        #: W3C-style trace identity (set at submission by the service).
        self.trace_id = None
        self.parent_span_id = None
        self.traceparent = None
        #: Finished span records harvested when the job went terminal
        #: (the ``GET /v1/jobs/{id}/trace`` payload), kept compressed.
        self._spans_blob = b""
        self._events = []
        self._terminal_callbacks = []
        self._cond = threading.Condition()

    # -- spans ---------------------------------------------------------

    @property
    def spans(self):
        """The harvested span records (decoded on every read)."""
        if not self._spans_blob:
            return []
        return json.loads(zlib.decompress(self._spans_blob))

    @spans.setter
    def spans(self, spans):
        # A finished job can sit in the store for thousands of jobs, so
        # its spans are kept as compressed JSON (~1/16 the size of the
        # live dicts).  ``default=repr`` keeps an attr JSON cannot
        # encode from failing the job that recorded it.
        self._spans_blob = zlib.compress(json.dumps(
            spans, default=repr, separators=(",", ":"),
        ).encode("utf-8")) if spans else b""

    # -- events --------------------------------------------------------

    def emit(self, event, **fields):
        """Append one event to the job's log and wake any waiters."""
        with self._cond:
            record = {
                "seq": len(self._events),
                "ts": round(time.time(), 6),
                "job": self.id,
                "event": event,
            }
            record.update(fields)
            self._events.append(record)
            self._cond.notify_all()
        return record

    def events_since(self, index, timeout=None):
        """Events past ``index``; blocks up to ``timeout`` for news.

        Returns immediately with whatever exists past ``index``; when
        nothing does and the job is still live, waits for the next
        :meth:`emit` (or the timeout).  An empty list therefore means
        "nothing new yet" for a live job and "stream over" for a
        terminal one -- the server uses :attr:`terminal` to tell them
        apart.
        """
        with self._cond:
            if len(self._events) <= index and self.status not in TERMINAL:
                self._cond.wait(timeout)
            return list(self._events[index:])

    @property
    def terminal(self):
        return self.status in TERMINAL

    def set_status(self, status):
        """Move to ``status``; a terminal one fires every registered
        terminal callback once, outside the lock, in this thread."""
        callbacks = ()
        with self._cond:
            self.status = status
            self._cond.notify_all()
            if status in TERMINAL:
                callbacks = self._terminal_callbacks
                self._terminal_callbacks = []
        for callback in callbacks:
            callback()

    def on_terminal(self, callback):
        """Call ``callback()`` once the job is terminal: at once (in
        this thread) when it already is, else from :meth:`set_status`."""
        with self._cond:
            if self.status not in TERMINAL:
                self._terminal_callbacks.append(callback)
                return
        callback()

    def discard_terminal_callback(self, callback):
        """Unregister ``callback`` (a no-op once it has fired)."""
        with self._cond:
            if callback in self._terminal_callbacks:
                self._terminal_callbacks.remove(callback)

    # -- serialization -------------------------------------------------

    def to_doc(self, include_result=True):
        """The ``GET /v1/jobs/{id}`` document."""
        doc = {
            "id": self.id,
            "type": self.type,
            "tenant": self.tenant,
            "status": self.status,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "cache_hit": self.cache_hit,
            "events": len(self._events),
            "artifacts": list(self.artifacts),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
            doc["traceparent"] = self.traceparent
        if self.error is not None:
            doc["error"] = self.error
        if include_result and self.status == COMPLETED:
            doc["result"] = self.result
        return doc


class JobStore:
    """Thread-safe id-ordered registry of :class:`JobRecord`.

    Bounded: once ``max_records`` is exceeded the oldest *terminal*
    records are dropped (live records are never evicted), so a
    long-running service's memory stays flat while every in-flight
    job remains addressable.
    """

    def __init__(self, max_records=4096):
        self.max_records = max_records
        self._records = OrderedDict()
        self._lock = threading.Lock()

    def add(self, record):
        with self._lock:
            self._records[record.id] = record
            excess = len(self._records) - self.max_records
            if excess > 0:
                for job_id in [
                    job_id for job_id, rec in self._records.items()
                    if rec.terminal
                ][:excess]:
                    del self._records[job_id]

    def get(self, job_id, tenant=None):
        """The record, or None; with ``tenant``, scoped to that tenant
        (another tenant's job is indistinguishable from no job)."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            return None
        if tenant is not None and record.tenant != tenant:
            return None
        return record

    def for_tenant(self, tenant):
        with self._lock:
            records = list(self._records.values())
        return [r for r in records if r.tenant == tenant]

    def active_count(self, tenant=None):
        """Queued + running jobs, optionally for one tenant."""
        with self._lock:
            records = list(self._records.values())
        return sum(
            1 for r in records
            if not r.terminal and (tenant is None or r.tenant == tenant)
        )

    def all_records(self):
        with self._lock:
            return list(self._records.values())
