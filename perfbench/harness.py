"""Server process control and the closed-loop HTTP load generator.

The server runs as its own process, exactly as deployed
(``python -m repro.engine.server``), or under ``traced_server.py`` for a
traced run.  Each request follows the real client flow: ``POST /requests``,
drain ``/requests/<t>/events`` until the stream closes, then
``GET /requests/<t>/result``.  Its latency runs from the POST to the last
byte of the result body.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Seconds one HTTP exchange may take before the request counts as failed.
HTTP_TIMEOUT = 120.0
#: Seconds a server may take to print its address.
START_TIMEOUT = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One server process over a fresh store directory."""

    def __init__(self, root: Path, workdir: Path, spans_out: Optional[Path] = None):
        self.root = root
        self.workdir = workdir
        self.spans_out = spans_out
        self.port = 0
        self._process: Optional[subprocess.Popen] = None
        self._log = workdir / "server.log"

    def start(self) -> "ServerProcess":
        self.workdir.mkdir(parents=True, exist_ok=True)
        server_args = ["--port", "0", "--store", str(self.workdir / "results.sqlite")]
        if self.spans_out is None:
            command = [sys.executable, "-m", "repro.engine.server", *server_args]
        else:
            command = [
                sys.executable, str(self.root / "perfbench" / "traced_server.py"),
                "--spans-out", str(self.spans_out), "--", *server_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        # Anything the server puts in a temp dir stays in the run's directory.
        env["TMPDIR"] = str(self.workdir)
        with open(self._log, "wb") as log:
            self._process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + START_TIMEOUT
        marker = "serving on http://"
        while time.monotonic() < deadline:
            text = self._log.read_text(errors="replace")
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return self
            if self._process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise ServerError(f"server did not start:\n{self._log.read_text(errors='replace')}")

    @property
    def pid(self) -> int:
        assert self._process is not None
        return self._process.pid

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def get_json(self, path: str) -> dict:
        status, payload = http_call(self.port, "GET", path)
        if status != 200:
            raise ServerError(f"GET {path} -> {status}")
        return json.loads(payload)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        process, self._process = self._process, None
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)


def http_call(
    port: int, method: str, path: str, body: Optional[bytes] = None
) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@dataclass
class Outcome:
    """What the client saw for one request."""

    index: int
    request: dict
    start: float = 0.0
    submitted: float = 0.0
    events_done: float = 0.0
    end: float = 0.0
    ok: bool = False
    refused: bool = False
    error: str = ""
    envelope: bytes = b""

    @property
    def latency(self) -> float:
        return self.end - self.start


def explore_over_http(port: int, index: int, request: dict) -> Outcome:
    """Run one request through the client flow; never raises."""
    outcome = Outcome(index, request)
    outcome.start = time.perf_counter()
    try:
        status, payload = http_call(port, "POST", "/requests", json.dumps(request).encode())
        outcome.submitted = time.perf_counter()
        if status != 202:
            outcome.refused = status in (429, 503)
            outcome.error = f"POST /requests -> {status}: {payload[:200]!r}"
            return outcome
        ticket = json.loads(payload)["ticket"]
        status, _ = http_call(port, "GET", f"/requests/{ticket}/events")
        outcome.events_done = time.perf_counter()
        if status != 200:
            outcome.error = f"GET events -> {status}"
            return outcome
        status, payload = http_call(port, "GET", f"/requests/{ticket}/result")
        outcome.end = time.perf_counter()
        if status != 200:
            outcome.error = f"GET result -> {status}: {payload[:200]!r}"
            return outcome
        outcome.envelope = payload
        outcome.ok = True
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


@dataclass
class Window:
    """The outcomes of one timed window."""

    start: float
    end: float
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def completed(self) -> list[Outcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]


def closed_loop(port: int, requests: list[dict], clients: int) -> Window:
    """*clients* threads send *requests* in order, each waiting for its
    reply before sending the next, until every request has been sent."""
    lock = threading.Lock()
    cursor = iter(enumerate(requests))
    window = Window(start=time.perf_counter(), end=0.0)

    def client() -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            outcome = explore_over_http(port, *item)
            with lock:
                window.outcomes.append(outcome)

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.outcomes.sort(key=lambda outcome: outcome.index)
    window.end = max(
        (outcome.end for outcome in window.outcomes if outcome.ok),
        default=time.perf_counter(),
    )
    return window

