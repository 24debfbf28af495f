"""The HTTP client for the reduction service.

The protocol of :mod:`repro.service.server` is one JSON request per
connection, so stdlib ``http.client`` is all a client needs.  This is
the one client in ``src/``: ``jlreduce submit``, ``jlreduce loadgen``
(one blocking client call per thread, :mod:`repro.service.loadgen`)
and the test-suite all talk to the server through it.  The server's
work is waiting on its workers, so a thread per in-flight job holds as
many jobs as a load test needs.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP-level failure, carrying the status and decoded body."""

    def __init__(self, status: int, body: Dict[str, Any]):
        super().__init__(
            f"service returned {status}: {body.get('error', body)}"
        )
        self.status = status
        self.body = body


class ServiceClient:
    """One service endpoint, one blocking request at a time."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> tuple:
        """One request; returns ``(status, decoded body)`` unchecked."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
            return response.status, decoded
        finally:
            conn.close()

    def _call(
        self,
        method: str,
        path: str,
        expect: int = 200,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One request whose status must be ``expect``, else
        :class:`ServiceError`."""
        status, body = self._request(method, path, payload)
        if status != expect:
            raise ServiceError(status, body)
        return body

    # -- endpoints -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/healthz")

    def submit(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job; raises :class:`ServiceError` on refusal.

        A 429 refusal's ``body["retry_after"]`` is the server's
        backpressure hint — callers that want to wait-and-retry should
        honor it (``jlreduce loadgen`` does).
        """
        return self._call("POST", "/v1/jobs", 202, job)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._call("GET", f"/v1/jobs/{job_id}")

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/v1/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._call("GET", path)["jobs"]

    def stats(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/stats")

    def drain(self) -> Dict[str, Any]:
        return self._call("POST", "/v1/drain", 202)

    def shutdown(self) -> Dict[str, Any]:
        return self._call("POST", "/v1/shutdown", 202)

    # -- conveniences --------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_seconds: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state.

        A status answer other than 200 (a job the server does not know)
        raises :class:`ServiceError` at once, not at the deadline.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in ("success", "error"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']!r} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_seconds)

    def wait_until_up(self, timeout: float = 30.0) -> None:
        """Block until the server answers /v1/healthz (CI startup)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.health()
                return
            except (OSError, ServiceError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
