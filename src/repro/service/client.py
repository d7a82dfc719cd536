"""Bundled clients for the ``repro.service`` HTTP API.

:class:`ServiceClient` is the synchronous client the CLI and the CI
smoke test use -- plain :mod:`http.client`, one connection per call
(the server closes every connection anyway), NDJSON event iteration.

:class:`AsyncServiceClient` is the asyncio twin used by the service
benchmark to hold many requests in flight from one thread; it speaks
the same minimal HTTP/1.1 the server does, over ``asyncio`` streams.

Both wait for a job by long-polling: ``submit`` and ``status`` take a
``wait`` in seconds, which the server spends parked until the job is
terminal.  ``run`` therefore answers any job that ends within one wait
slice (half the client's request timeout, capped by the server at
30 s) in a single request -- a warm cache hit always -- and adds one
status request per further slice.
"""

import asyncio
import http.client
import json
import time
from urllib.parse import urlencode, urlsplit

from repro.service.state import TERMINAL


class ServiceApiError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status, code, message, retry_after=None):
        super().__init__(f"HTTP {status} ({code}): {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


def _wait_query(wait):
    return "?" + urlencode({"wait": wait}) if wait > 0 else ""


def _wait_slice(remaining, request_timeout):
    """Seconds one long-poll may park: the time left, and at most half
    the client's request timeout, so the reply lands before that."""
    return max(0.0, min(remaining, request_timeout / 2))


def _timed_out(job_id, document, timeout):
    return TimeoutError(
        f"job {job_id} still {document['status']} after {timeout:g}s"
    )


def _raise_for(status, headers, body):
    try:
        document = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        document = {}
    retry_after = headers.get("Retry-After") or headers.get("retry-after")
    raise ServiceApiError(
        status,
        document.get("error", "error"),
        document.get("message", body[:200] if isinstance(body, str)
                     else repr(body[:200])),
        retry_after=float(retry_after) if retry_after else None,
    )


class ServiceClient:
    """Synchronous client: ``submit``/``status``/``wait``/``events``."""

    def __init__(self, base_url, api_key, timeout=60.0):
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(
                f"only http:// service URLs are supported, "
                f"got {base_url!r}"
            )
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.api_key = api_key
        self.timeout = timeout

    def _request(self, method, path, document=None, headers=None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = (json.dumps(document).encode("utf-8")
                    if document is not None else None)
            all_headers = {"Authorization": f"Bearer {self.api_key}"}
            if body is not None:
                all_headers["Content-Type"] = "application/json"
            if headers:
                all_headers.update(headers)
            connection.request(method, path, body=body,
                               headers=all_headers)
            response = connection.getresponse()
            payload = response.read().decode("utf-8", "replace")
            if response.status >= 400:
                _raise_for(response.status, dict(response.getheaders()),
                           payload)
            return json.loads(payload) if payload else {}
        finally:
            connection.close()

    # -- API calls -----------------------------------------------------

    def health(self):
        return self._request("GET", "/healthz")

    def types(self):
        return self._request("GET", "/v1/types")["types"]

    def stats(self):
        return self._request("GET", "/v1/stats")

    def slo(self):
        """Per-tenant SLO report (``GET /v1/slo``)."""
        return self._request("GET", "/v1/slo")

    def submit(self, jobtype, params=None, traceparent=None, wait=0.0):
        """Submit a job; returns the job document (with ``id``).

        ``traceparent`` propagates a caller-side W3C trace context;
        without one the service mints a fresh trace per job.  With
        ``wait`` the reply comes once the job is terminal or ``wait``
        seconds have passed, whichever is first.
        """
        headers = {"traceparent": traceparent} if traceparent else None
        return self._request(
            "POST", "/v1/jobs" + _wait_query(wait),
            {"type": jobtype, "params": params or {}},
            headers=headers,
        )

    def status(self, job_id, wait=0.0):
        """The job document; ``wait`` long-polls as in :meth:`submit`."""
        return self._request("GET", f"/v1/jobs/{job_id}{_wait_query(wait)}")

    def trace(self, job_id, format="tree"):
        """The job's span tree (``format="chrome"`` for trace_event)."""
        return self._request(
            "GET", f"/v1/jobs/{job_id}/trace?format={format}"
        )

    def jobs(self):
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id):
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def artifact(self, digest):
        """Raw artifact bytes for ``digest``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "GET", f"/v1/artifacts/{digest}",
                headers={"Authorization": f"Bearer {self.api_key}"},
            )
            response = connection.getresponse()
            data = response.read()
            if response.status >= 400:
                _raise_for(response.status,
                           dict(response.getheaders()),
                           data.decode("utf-8", "replace"))
            return data
        finally:
            connection.close()

    def events(self, job_id, since=0):
        """Yield event dicts; the generator ends with the job."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "GET", f"/v1/jobs/{job_id}/events?since={since}",
                headers={"Authorization": f"Bearer {self.api_key}"},
            )
            response = connection.getresponse()
            if response.status >= 400:
                _raise_for(
                    response.status, dict(response.getheaders()),
                    response.read().decode("utf-8", "replace"),
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    def wait(self, job_id, timeout=300.0, document=None):
        """Long-poll until the job is terminal; returns the final
        document.  ``document`` is one already in hand (a waited
        submit's reply), which saves a request when it is terminal."""
        deadline = time.monotonic() + timeout
        while document is None or document["status"] not in TERMINAL:
            remaining = deadline - time.monotonic()
            if document is not None and remaining <= 0:
                raise _timed_out(job_id, document, timeout)
            document = self.status(
                job_id, wait=_wait_slice(remaining, self.timeout))
        return document

    def run(self, jobtype, params=None, timeout=300.0, traceparent=None):
        """Submit and wait; returns the terminal job document."""
        deadline = time.monotonic() + timeout
        document = self.submit(jobtype, params, traceparent=traceparent,
                               wait=_wait_slice(timeout, self.timeout))
        return self.wait(document["id"],
                         timeout=deadline - time.monotonic(),
                         document=document)


class AsyncServiceClient:
    """asyncio client (one-shot connections, like the sync one)."""

    def __init__(self, base_url, api_key, timeout=60.0):
        split = urlsplit(base_url)
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.api_key = api_key
        self.timeout = timeout

    async def _request(self, method, path, document=None):
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            self.timeout,
        )
        try:
            body = (json.dumps(document).encode("utf-8")
                    if document is not None else b"")
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                f"Authorization: Bearer {self.api_key}",
                "Connection: close",
            ]
            if body:
                head.append("Content-Type: application/json")
                head.append(f"Content-Length: {len(body)}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
            )
            await writer.drain()
            status_line = await asyncio.wait_for(
                reader.readline(), self.timeout
            )
            status = int(status_line.split()[1])
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await asyncio.wait_for(reader.read(), self.timeout)
            text = payload.decode("utf-8", "replace")
            if status >= 400:
                _raise_for(status, headers, text)
            return json.loads(text) if text.strip() else {}
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def submit(self, jobtype, params=None, wait=0.0):
        return await self._request(
            "POST", "/v1/jobs" + _wait_query(wait),
            {"type": jobtype, "params": params or {}},
        )

    async def status(self, job_id, wait=0.0):
        return await self._request(
            "GET", f"/v1/jobs/{job_id}{_wait_query(wait)}")

    async def wait(self, job_id, timeout=300.0, document=None):
        deadline = time.monotonic() + timeout
        while document is None or document["status"] not in TERMINAL:
            remaining = deadline - time.monotonic()
            if document is not None and remaining <= 0:
                raise _timed_out(job_id, document, timeout)
            document = await self.status(
                job_id, wait=_wait_slice(remaining, self.timeout))
        return document

    async def run(self, jobtype, params=None, timeout=300.0):
        deadline = time.monotonic() + timeout
        document = await self.submit(
            jobtype, params, wait=_wait_slice(timeout, self.timeout))
        return await self.wait(document["id"],
                               timeout=deadline - time.monotonic(),
                               document=document)
