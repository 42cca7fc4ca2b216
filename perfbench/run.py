"""End-to-end serving benchmark: the woven application over real sockets.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rubis-bidding --seed 1 --seconds 10 --trace 0

Starts the workload's server process (``server.py``: the woven
application on the async tier), drives it from this process over
loopback keep-alive connections, audits the outputs (``oracle.py``) and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics plus the
tracing overhead (a traced and an untraced run on the same seed).
See README.md in this directory for workloads, metrics and figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from client import Connection, drive, server_peak_rss_mib  # noqa: E402
from layers import REPORTED_CALLS, REPORTED_SELF  # noqa: E402
from oracle import audit  # noqa: E402
from workloads import CONNECTIONS, WORKLOADS, request_streams  # noqa: E402

#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: A server that is not ready by then has failed.
READY_TIMEOUT = 60.0

# -- the server process ------------------------------------------------------------------


class Server:
    """One server process, from launch to READY to stop."""

    def __init__(self, workload: str, trace: bool, unwoven: bool, spans: str | None):
        command = [sys.executable, os.path.join(HERE, "server.py"), "--workload", workload]
        if trace:
            command.append("--trace")
        if unwoven:
            command.append("--unwoven")
        if spans:
            command += ["--spans", spans]
        begun = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self._ready_line()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - begun
        self.port = int(line.split()[1])

    def _ready_line(self) -> str:
        import selectors

        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT):
                raise RuntimeError("server did not become ready")
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"server failed to start (exit {self.proc.poll()})")
        return line

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- one driven session --------------------------------------------------------------------


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def run_session(server: Server, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, time, audit.  Returns the session's figures."""
    streams = request_streams(workload, seed)
    control = Connection(server.port)
    if workload.hot_pages:
        # Warm the fixed page set: a miss then a first fast-path serve
        # (which pins the wire buffer) per page.
        for _ in range(2):
            for request in streams[0].order:
                status, _body = control.exchange(request.wire)
                if status != 200:
                    raise RuntimeError(f"warm-up {request.uri} answered {status}")

    def snapshot() -> dict:
        if trace:
            control.get_json("/_bench/layers_reset")
        return control.get_json("/_bench/state")

    def finish() -> dict:
        figures = {"state": control.get_json("/_bench/state")}
        if trace:
            figures["layers"] = control.get_json("/_bench/layers")
        figures["rss_mib"] = server_peak_rss_mib(server.pid)
        return figures

    warm, phase, connections = drive(
        server.port,
        server.pid,
        streams,
        workload.warmup_per_connection,
        seconds,
        on_start=snapshot,
        on_end=finish,
    )
    tally = phase.tally
    problems = list(warm.problems) + list(tally.problems)
    if warm.wrong + tally.wrong:
        problems.insert(0, f"{warm.wrong + tally.wrong} wrong responses")
    posts = warm.writes + tally.writes
    if workload.hot_pages and phase.before["cached"]:
        fast = (
            phase.after["state"]["server"]["fast_hits"]
            - phase.before["server"]["fast_hits"]
        )
        if fast != tally.attempted:
            problems.append(
                f"{tally.attempted} timed requests but {fast} fast-path serves"
            )
    found, audited = audit(control, connections, workload, posts)
    problems += found
    for connection in connections + [control]:
        connection.close()
    completed = tally.attempted - tally.failed
    ordered = sorted(tally.latencies_ms)
    return {
        "attempted": warm.attempted + tally.attempted,
        "failed": warm.failed + tally.failed,
        "problems": problems,
        "failures": warm.failures + tally.failures,
        "audited": audited,
        "timed": tally.attempted,
        "samples": len(ordered),
        "throughput_rps": completed / phase.seconds,
        "latency_p50_ms": percentile(ordered, 50),
        "latency_p99_ms": percentile(ordered, 99),
        "server_cpu_us_per_req": phase.cpu_seconds * 1e6 / completed,
        "server_rss_mib": phase.after["rss_mib"],
        "before": phase.before,
        "after": phase.after,
    }


# -- metrics ----------------------------------------------------------------------------------

END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "server_cpu_us_per_req": "us",
    "server_rss_mib": "MiB",
    "setup_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(session: dict, baseline: dict) -> dict:
    """Per-layer figures of a traced session (``baseline``: the untraced
    session on the same seed, for the tracing overhead)."""
    report = session["after"]["layers"]
    before, after = session["before"], session["after"]["state"]
    requests = report["requests"]
    total = report["total_requests"]
    out: dict[str, tuple[float, str]] = {}
    out["web.loop.cpu_us"] = (_ratio(report["loop_cpu_ns"] / 1e3, total), "us")
    for layer, classes in REPORTED_SELF.items():
        for cls in classes:
            self_ns = report["self_ns"][f"{layer}|{cls}"]
            out[f"{layer}.self_us.{cls}"] = (_ratio(self_ns / 1e3, requests[cls]), "us")
    for layer, classes in REPORTED_CALLS.items():
        for cls in classes:
            calls = report["calls"][f"{layer}|{cls}"]
            out[f"{layer}.calls.{cls}"] = (_ratio(calls, requests[cls]), "1/req")

    def delta(*path):
        a, b = before, after
        for part in path:
            a, b = a.get(part, {}), b.get(part, {})
        return (b or 0) - (a or 0)

    writes = delta("stats", "write_requests")
    served = session["timed"]  # workload requests (the control requests excluded)
    hits = delta("stats", "hits") + delta("stats", "semantic_hits")
    out["cache.hit_ratio"] = (_ratio(hits, hits + delta("stats", "misses")), "ratio")
    out["web.fast_path_ratio"] = (_ratio(delta("server", "fast_hits"), served), "ratio")
    out["cache.pages_doomed_per_write"] = (
        _ratio(delta("stats", "invalidated_pages"), writes), "1/write")
    out["cache.pair_analyses_per_write"] = (
        _ratio(delta("stats", "pair_analyses"), writes), "1/write")
    out["cache.templates_skipped_per_write"] = (
        _ratio(
            delta("stats", "templates_skipped_by_index")
            + delta("stats", "templates_skipped_by_lineage"),
            writes,
        ),
        "1/write",
    )
    out["cache.extra_queries_per_write"] = (
        _ratio(delta("stats", "extra_queries"), writes), "1/write")
    out["cache.entries_end"] = (after.get("entries", 0), "count")
    out["cache.bytes_end"] = (after.get("bytes", 0), "bytes")
    out["db.rows_examined_per_req"] = (_ratio(delta("db", "rows_examined"), served), "1/req")
    out["db.queries_per_req"] = (
        _ratio(delta("db", "queries") + delta("db", "updates"), served), "1/req")
    out["cluster.bus_messages_per_write"] = (
        _ratio(delta("bus", "delivered"), writes), "1/write")
    out["cluster.replica_copies_per_insert"] = (
        _ratio(delta("replica_copies"), delta("stats", "inserts")), "1/insert")
    out["obs.spans_per_req"] = (_ratio(delta("spans_recorded"), served), "1/req")
    out["trace.overhead_pct"] = (
        100.0 * (1.0 - session["throughput_rps"] / baseline["throughput_rps"]), "%")
    out["trace.overhead_cpu_us_per_req"] = (
        session["server_cpu_us_per_req"] - baseline["server_cpu_us_per_req"], "us")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end serving benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--unwoven",
        action="store_true",
        help="serve the application with no cache (reference figures only)",
    )
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out")
    # Client and server (which inherits the affinity) share one CPU.
    # Split across two, each side's CPU idled between a request and its
    # reply, and on a virtualised host the wake-up of an idle CPU took
    # from microseconds to milliseconds depending on the neighbours: the
    # hit path's p99 moved tenfold between runs.  On one CPU that is
    # always busy, run-to-run spread follows CPU speed alone.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sessions = []
    setups: list[float] = []
    if args.trace:
        plan = [(False, None), (True, os.path.join(out_dir, f"spans-{workload.name}-{args.seed}.jsonl"))]
        os.makedirs(out_dir, exist_ok=True)
    else:
        for _ in range(SETUPS - 1):
            server = Server(workload.name, False, args.unwoven, None)
            server.stop()
            setups.append(server.setup_s)
        plan = [(False, None)]
    for traced, spans in plan:
        server = Server(workload.name, traced, args.unwoven, spans)
        try:
            setups.append(server.setup_s)
            sessions.append(run_session(server, workload, args.seed, args.seconds, traced))
        finally:
            server.stop()

    session = sessions[-1]
    problems = [p for s in sessions for p in s["problems"]]
    if args.trace:
        metrics = layer_metrics(session, sessions[0])
    else:
        metrics = {name: (session[name], END_TO_END[name]) for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = (statistics.median(setups), "s")

    print(
        f"{workload.name} seed={args.seed}: {session['timed']} timed requests"
        f" over {CONNECTIONS} connections, {session['samples']} latency samples"
        f" ({session['samples'] // 100} beyond p99);"
        f" audit compared {session['audited']} cached pages"
    )
    if args.trace:
        report = session["after"]["layers"]
        offloaded = report["requests"]["miss"] + report["requests"]["write"]
        print(
            f"  offloaded requests: {offloaded}, each"
            f" {_ratio(report['render_cpu_ns'] / 1e3, offloaded):.1f} us CPU inside"
            f" AsyncCachedServer.render; hits: {report['requests']['hit']}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.4f} {unit}")
    for failure in [f for s in sessions for f in s["failures"]][:10]:
        print(f"  FAILED: {failure}")
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more problems")
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
