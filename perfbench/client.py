"""The benchmark's client: closed-loop keep-alive HTTP over loopback.

One thread per connection, blocking sockets, no think time: each
connection sends its next request only when the previous response is
fully read (the paper's emulated browsers wait the same way).  Every
response is checked as it arrives: a well-formed ``200`` whose body is
exactly ``Content-Length`` bytes, ends the document, and carries the
title of the page that was asked for.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
from dataclasses import dataclass, field

from workloads import names_page

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:[ \t]*(\d+)", re.IGNORECASE)


class Connection:
    """One keep-alive HTTP/1.1 connection (no pipelining)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Requests sent on this connection (the server-side accounting
        #: must add up to the sum over connections).
        self.sent = 0

    def exchange(self, payload: bytes) -> tuple[int, bytes]:
        """Send one request, read one response: ``(status, body)``.

        Raises ``ValueError`` on a malformed response (bad status line,
        missing Content-Length, or bytes beyond the declared body).
        """
        self.sent += 1
        self.sock.sendall(payload)
        buffer = b""
        head_end = -1
        while head_end < 0:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ValueError("connection closed before a response")
            buffer += chunk
            head_end = buffer.find(b"\r\n\r\n")
        if not buffer.startswith(b"HTTP/1.1 "):
            raise ValueError(f"malformed status line {buffer[:80]!r}")
        length = _CONTENT_LENGTH.search(buffer, 0, head_end + 2)
        if length is None:
            raise ValueError("response without Content-Length")
        end = head_end + 4 + int(length.group(1))
        while len(buffer) < end:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ValueError("connection closed inside a body")
            buffer += chunk
        if len(buffer) > end:
            raise ValueError("bytes beyond the declared Content-Length")
        return int(buffer[9:12]), buffer[head_end + 4 : end]

    def get_json(self, target: str) -> dict:
        status, body = self.exchange(
            f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        )
        if status != 200:
            raise RuntimeError(f"control request {target} answered {status}")
        return json.loads(body)

    def post_json(self, target: str) -> dict:
        status, body = self.exchange(
            f"POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n".encode(
                "latin-1"
            )
        )
        if status != 200:
            raise RuntimeError(f"control request {target} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


@dataclass
class Tally:
    """What one phase of driving produced."""

    attempted: int = 0
    failed: int = 0
    writes: int = 0
    #: Responses that arrived but were wrong (first few kept for the report).
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    #: The first few failed operations (these do not make a run incorrect).
    failures: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)

    def note(self, problem: str) -> None:
        self.wrong += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.writes += other.writes
        self.wrong += other.wrong
        self.problems.extend(other.problems[: max(0, 5 - len(self.problems))])
        self.failures.extend(other.failures[: max(0, 5 - len(self.failures))])
        self.latencies_ms.extend(other.latencies_ms)


def send(connection: Connection, request, tally: Tally, timed: bool) -> None:
    """Send one workload request, check its response, feed the session."""
    payload = request.wire
    tally.attempted += 1
    if request.method == "POST":
        tally.writes += 1
    begun = time.perf_counter()
    try:
        status, body = connection.exchange(payload)
    except (OSError, ValueError) as exc:
        tally.failed += 1
        tally.failures.append(f"{request.uri}: {type(exc).__name__}: {exc}")
        raise
    if timed:
        tally.latencies_ms.append((time.perf_counter() - begun) * 1000.0)
    if status != 200:
        tally.failed += 1
        if len(tally.failures) < 5:
            tally.failures.append(f"{request.uri} {request.params}: status {status}")
        return
    if not body.endswith(b"</html>"):
        tally.note(f"{request.uri}: body does not end the document")
    elif not names_page(body, request.uri, request.params):
        tally.note(f"{request.uri} {request.params}: wrong page {body[:120]!r}")
    if request.session is not None and request.uri.endswith("shopping_cart"):
        request.session.observe_response(request.planned, body.decode("utf-8"))


def server_cpu_seconds(pid: int) -> float:
    """User + system CPU of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def server_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


@dataclass
class PhaseResult:
    tally: Tally
    seconds: float
    cpu_seconds: float
    before: dict
    after: dict


def drive(
    port: int,
    pid: int,
    streams: list,
    warmup_per_connection: int,
    seconds: float,
    on_start=None,
    on_end=None,
) -> tuple[Tally, PhaseResult, list[Connection]]:
    """Warm up, then run the timed closed loop for ``seconds``.

    Returns the warm-up tally, the timed phase, and the (still open)
    connections so their request counts can be audited.
    """
    connections = [Connection(port) for _ in streams]
    warm = [Tally() for _ in streams]
    timed = [Tally() for _ in streams]
    gate = threading.Barrier(len(streams) + 1)
    deadline = [0.0]
    finished = [0.0] * len(streams)
    errors: list[BaseException] = []

    def worker(i: int) -> None:
        stream, connection = streams[i], connections[i]
        try:
            for _ in range(warmup_per_connection):
                send(connection, stream.next(), warm[i], timed=False)
        except BaseException as exc:  # recorded; the gate still opens
            errors.append(exc)
        gate.wait()  # warm-up done
        gate.wait()  # timing starts
        try:
            if not errors:
                while time.perf_counter() < deadline[0]:
                    send(connection, stream.next(), timed[i], timed=True)
        except BaseException as exc:
            errors.append(exc)
        finished[i] = time.perf_counter()

    # Daemon threads: if the server dies between the gates, the run
    # fails instead of waiting forever on a barrier.
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    before = on_start() if on_start else {}
    cpu_before = server_cpu_seconds(pid)
    started = time.perf_counter()
    deadline[0] = started + seconds
    gate.wait()
    for thread in threads:
        thread.join()
    elapsed = max(finished) - started
    cpu_after = server_cpu_seconds(pid)
    after = on_end() if on_end else {}
    if errors:
        raise RuntimeError(f"driving failed: {errors[0]!r}") from errors[0]
    warm_total, timed_total = Tally(), Tally()
    for tally in warm:
        warm_total.merge(tally)
    for tally in timed:
        timed_total.merge(tally)
    phase = PhaseResult(timed_total, elapsed, cpu_after - cpu_before, before, after)
    return warm_total, phase, connections
