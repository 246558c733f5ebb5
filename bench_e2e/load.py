"""Closed-loop HTTP load for ``fleet_service``: one uploader, one reader.

Both run in the benchmark process, each on its own keep-alive
connection, so the load uses at most two threads and two connections.
The uploader sends one replay log, polls ``GET /jobs/<id>`` every
:data:`POLL_S` seconds until the job is final, fetches the report, and
only then sends the next log -- as ``repro submit`` callers do.  The
reader, when enabled, repeats ``GET /races?limit=100`` back to back,
like a triage dashboard.  Stdlib only: the benchmark process never
imports ``repro``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

#: Status-poll interval.  ``ServiceClient.wait`` polls every 50 ms,
#: which would round job latency up to 50 ms steps; 5 ms keeps the
#: rounding well under the measured latencies.
POLL_S = 0.005
#: A job not final after this long counts as failed (timeout).
JOB_TIMEOUT_S = 60.0
READ_LIMIT = 100


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body=None, headers=None):
        """``(status, body)``; ``(0, b"")`` when the request fails."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=JOB_TIMEOUT_S
                )
            self._conn.request(method, path, body=body, headers=headers or {})
            reply = self._conn.getresponse()
            return reply.status, reply.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Job:
    index: int
    latency_s: float
    elapsed_s: Optional[float]
    polls: int
    report: Optional[bytes]


@dataclass
class LoadResult:
    jobs: List[Job] = field(default_factory=list)
    job_failures: int = 0
    reads: List[float] = field(default_factory=list)
    read_failures: int = 0
    store_races: int = 0
    window_s: float = 0.0


def run_job(conn: Connection, index: int, data: bytes) -> Job:
    """Submit one log and wait for its report; ``report`` None = failed."""
    started = time.perf_counter()
    status, body = conn.request(
        "POST",
        "/jobs",
        data,
        {"Content-Type": "application/octet-stream", "X-Repro-Mode": "full"},
    )
    if status != 202:
        return Job(index, time.perf_counter() - started, None, 0, None)
    job_id = json.loads(body)["job_id"]
    polls = 0
    while True:
        status, body = conn.request("GET", "/jobs/%s" % job_id)
        polls += 1
        document = json.loads(body) if status == 200 else {"state": "failed"}
        state = document.get("state")
        if state == "done":
            break
        if state in ("failed", "cancelled") or (
            time.perf_counter() - started > JOB_TIMEOUT_S
        ):
            return Job(index, time.perf_counter() - started, None, polls, None)
        time.sleep(POLL_S)
    status, report = conn.request("GET", "/jobs/%s/report" % job_id)
    latency = time.perf_counter() - started
    return Job(
        index,
        latency,
        document.get("elapsed_s"),
        polls,
        report if status == 200 else None,
    )


def _read_loop(conn: Connection, stop: threading.Event, result: LoadResult) -> None:
    path = "/races?limit=%d" % READ_LIMIT
    while not stop.is_set():
        started = time.perf_counter()
        status, body = conn.request("GET", path)
        latency = time.perf_counter() - started
        try:
            document = json.loads(body) if status == 200 else None
            ok = len(document["races"]) <= READ_LIMIT
            result.store_races = document["store"]["unique_races"]
        except (ValueError, TypeError, KeyError):
            ok = False
        if ok:
            result.reads.append(latency)
        else:
            result.read_failures += 1


def drive(host: str, port: int, uploads, seconds: float, reads: bool = True) -> LoadResult:
    """Run the uploader, and the reader beside it if ``reads``, for ``seconds``.

    ``uploads`` is a list of ``(index, bytes)``; the uploader stops at
    the end of the window or when the list is exhausted, and the reader
    stops with it.  A job in flight at the deadline is waited for.
    ``len(result.jobs)`` is the number of uploads consumed.
    """
    result = LoadResult()
    stop = threading.Event()
    reader_conn = Connection(host, port)
    reader = threading.Thread(
        target=_read_loop, args=(reader_conn, stop, result), daemon=True
    )
    uploader_conn = Connection(host, port)
    started = time.perf_counter()
    deadline = started + seconds
    if reads:
        reader.start()
    try:
        for index, data in uploads:
            if time.perf_counter() >= deadline:
                break
            job = run_job(uploader_conn, index, data)
            if job.report is None:
                result.job_failures += 1
            result.jobs.append(job)
        result.window_s = time.perf_counter() - started
    finally:
        stop.set()
        if reads:
            reader.join()
        reader_conn.close()
        uploader_conn.close()
    return result
