"""The benchmark's server process: one woven application on the async tier.

Run as ``python3 perfbench/server.py --workload NAME [--trace] [--unwoven]``
from the repository root.  It builds and populates the workload's
application, weaves the cache (and, where the workload asks, the
observability tier), serves it with ``repro.web.asyncserver`` on an
ephemeral loopback port and prints ``READY <port>`` once it accepts
connections.  It serves until its standard input closes, then shuts down
(and, when traced, writes its span log).

A small unwoven control servlet under ``/_bench/`` lets the client read
the program's own accounting, the cached entries and the database state
without going through the cache -- see :class:`BenchControl`.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.web.asyncserver import start_async_server  # noqa: E402
from repro.web.servlet import HttpServlet  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, build_application, build_cache  # noqa: E402

CONTROL_URIS = (
    "/_bench/state",
    "/_bench/uninstall",
    "/_bench/items",
    "/_bench/customers",
    "/_bench/layers_reset",
    "/_bench/layers",
)


class Deployment:
    """The application, its cache facade, and the serving tier."""

    def __init__(self, workload_name: str, trace: bool = False, unwoven: bool = False):
        self.workload = WORKLOADS[workload_name]
        self.recorder = layers.Recorder() if trace else None
        self.app = build_application(self.workload)
        if self.recorder is not None:
            layers.install_before_weaving(self.recorder, self.app.servlet_classes)
        self.awc = None
        self.obs = None
        if not unwoven:
            self.awc = build_cache(self.workload)
            extra = ()
            if self.workload.obs:
                from repro.obs import Observability

                self.obs = Observability()
                extra = self.obs.aspects
            self.awc.install(self.app.servlet_classes, extra_aspects=extra)
            if self.obs is not None:
                self.obs.weave_infrastructure(self.awc)
        if self.recorder is not None:
            layers.install_after_weaving(self.recorder)
        control = BenchControl(self)
        for uri in CONTROL_URIS:
            self.app.container.register(uri, control)
        self.server = start_async_server(
            self.app.container, cache=self.awc.cache if self.awc else None
        )

    @property
    def port(self) -> int:
        return self.server.port

    def uninstall(self) -> None:
        """Unweave everything and turn the fast path off: from here on
        every request is rendered by the plain application."""
        self.server.fast_path_enabled = False
        if self.obs is not None:
            self.obs.unweave_infrastructure()
        if self.awc is not None:
            self.awc.uninstall()

    def shutdown(self) -> None:
        # asyncio.Server.close() is not thread-safe, and
        # AsyncCachedServer.shutdown() calls it from this thread while the
        # loop thread may be tearing down a just-closed connection: both
        # then wake the server's waiters and the second raises TypeError.
        # Closing on the loop thread first makes shutdown's close a no-op.
        async def close_listener() -> None:
            self.server._server.close()

        asyncio.run_coroutine_threadsafe(close_listener(), self.server.loop).result()
        self.server.shutdown()

    # -- what the control servlet reports ---------------------------------------------

    def cache_nodes(self) -> list:
        """The ``Cache`` objects holding entries (one, or one per node)."""
        if self.awc is None:
            return []
        if self.workload.cluster:
            return [node.cache for node in self.awc.router.nodes()]
        return [self.awc.cache]

    def state(self, with_pages: bool) -> dict:
        db = self.app.database.stats
        state = {
            "server": self.server.stats.snapshot(),
            "db": {
                "queries": db.queries,
                "updates": db.updates,
                "rows_examined": db.rows_examined,
            },
            "cached": self.awc is not None,
        }
        if self.awc is None:
            return state
        if self.workload.cluster:
            snapshot = self.awc.cluster_snapshot()
            state["stats"] = snapshot["cluster"]
            bus = self.awc.bus
            state["bus"] = {
                "seq": bus.seq,
                "applied": [n["last_applied_seq"] for n in snapshot["nodes"]],
                "delivered": bus.stats.delivered,
                "published": bus.stats.published,
            }
            state["replica_copies"] = sum(n["replica_copies"] for n in snapshot["nodes"])
        else:
            state["stats"] = self.awc.stats.snapshot()
        state["stats"].pop("by_type", None)
        state["open_flights"] = self.awc.cache.open_flights
        nodes = self.cache_nodes()
        state["entries"] = sum(len(cache.pages) for cache in nodes)
        state["bytes"] = sum(cache.pages.total_bytes for cache in nodes)
        if self.obs is not None:
            state["spans_recorded"] = self.obs.tracer.spans_recorded
        if with_pages:
            # Every whole-page copy the cache holds: key -> body digests.
            pages: dict[str, list[str]] = {}
            for cache in nodes:
                for entry in cache.pages.entries():
                    if entry.key.startswith("frag://"):
                        continue
                    digest = hashlib.sha1(entry.body.encode("utf-8")).hexdigest()
                    pages.setdefault(entry.key, []).append(digest)
            state["pages"] = pages
        return state

    def rows(self, sql: str, ids: list[int]) -> dict:
        """Rows read straight from the database (the cache never sees it)."""
        out = {}
        for i in ids:
            result = self.app.database.query(sql, (i,))
            out[str(i)] = [list(row) for row in result.rows]
        return out


class BenchControl(HttpServlet):
    """Unwoven control endpoints (registered after weaving)."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment

    def do_get(self, request, response) -> None:
        d = self.deployment
        uri = request.uri
        if uri == "/_bench/state":
            payload = d.state(request.get_parameter("pages") == "1")
        elif uri == "/_bench/items":
            ids = [int(i) for i in request.get_parameter("ids", "").split(",") if i]
            payload = d.rows("SELECT i_title FROM item WHERE i_id = ?", ids)
        elif uri == "/_bench/customers":
            ids = [int(i) for i in request.get_parameter("ids", "").split(",") if i]
            payload = d.rows(
                "SELECT c_fname, c_lname FROM customer WHERE c_id = ?", ids
            )
        elif uri == "/_bench/layers_reset":
            d.recorder.reset()
            d.recorder.enabled = True
            payload = {}
        elif uri == "/_bench/layers":
            d.recorder.enabled = False
            payload = d.recorder.report()
        else:
            response.send_error(404, uri)
            return
        response.headers["Content-Type"] = "application/json"
        response.write(json.dumps(payload))

    def do_post(self, request, response) -> None:
        if request.uri != "/_bench/uninstall":
            response.send_error(404, request.uri)
            return
        self.deployment.uninstall()
        response.write("{}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--unwoven", action="store_true")
    parser.add_argument("--spans", help="write the span log here on exit")
    args = parser.parse_args()
    deployment = Deployment(args.workload, trace=args.trace, unwoven=args.unwoven)
    print(f"READY {deployment.port}", flush=True)
    try:
        sys.stdin.read()  # serve until the client closes our stdin
    finally:
        deployment.shutdown()
        if args.spans and deployment.recorder is not None:
            deployment.recorder.write_spans(args.spans)


if __name__ == "__main__":
    main()
