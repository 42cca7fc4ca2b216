"""The oracle's controls: it passes on the working cache and fails on a
broken one.

Each test serves a workload's application in-process on the async tier
(the same :class:`server.Deployment` the benchmark launches), drives a
short seeded stream plus a scripted read/write/read over real sockets,
and runs :func:`oracle.audit`.  The negative controls break the cache
from here -- invalidation stubbed out, or a cached body altered -- and
the audit must then report problems, which shows it is not vacuous.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from client import Connection, Tally, send  # noqa: E402
from oracle import audit  # noqa: E402
from server import Deployment  # noqa: E402
from workloads import WORKLOADS, Request, request_streams  # noqa: E402

#: Per workload: a page the first request caches and the write (the
#: second) makes stale.
SCRIPTS = {
    "rubis-bidding": [
        Request("GET", "/rubis/view_item", {"item": "1"}),
        Request("POST", "/rubis/store_bid", {"item": "1", "user": "2", "bid": "999.5"}),
        Request("GET", "/rubis/view_item", {"item": "1"}),
    ],
    "tpcw-shopping-cluster": [
        Request("GET", "/tpcw/product_detail", {"i_id": "1"}),
        Request(
            "POST",
            "/tpcw/admin_confirm",
            {"i_id": "1", "cost": "77.25", "image": "img/control.png"},
        ),
        Request("GET", "/tpcw/product_detail", {"i_id": "1"}),
    ],
}


@pytest.fixture
def deploy():
    deployments = []

    def start(name: str) -> Deployment:
        deployment = Deployment(name)
        deployments.append(deployment)
        return deployment

    yield start
    for deployment in deployments:
        deployment.uninstall()  # a no-op once the audit has unwoven
        deployment.shutdown()


def drive_and_audit(deployment: Deployment, before_audit=None) -> list[str]:
    workload = deployment.workload
    tally = Tally()
    connections = []
    for stream in request_streams(workload, seed=7):
        connection = Connection(deployment.port)
        connections.append(connection)
        for _ in range(150):
            send(connection, stream.next(), tally, timed=False)
    scripted = Connection(deployment.port)
    connections.append(scripted)
    for request in SCRIPTS[workload.name]:
        send(scripted, request, tally, timed=False)
    assert tally.failed == 0 and tally.wrong == 0, tally.problems
    if before_audit is not None:
        before_audit()
    control = Connection(deployment.port)
    problems, audited = audit(control, connections, workload, tally.writes)
    assert audited > 0
    for connection in connections + [control]:
        connection.close()
    return problems


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_audit_passes_on_the_working_cache(deploy, name):
    assert drive_and_audit(deploy(name)) == []


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_audit_fails_when_invalidation_is_stubbed_out(deploy, monkeypatch, name):
    from repro.cache.api import Cache
    from repro.cluster.router import ClusterRouter

    facade = ClusterRouter if WORKLOADS[name].cluster else Cache
    monkeypatch.setattr(
        facade, "process_write_request", lambda self, uri, writes: set()
    )
    problems = drive_and_audit(deploy(name))
    assert any("differs from the uncached render" in p for p in problems), problems


def test_audit_fails_when_a_cached_body_is_altered(deploy):
    deployment = deploy("rubis-bidding")
    key = "/rubis/view_item?item=1"

    def tamper() -> None:
        entry = deployment.awc.cache.pages.peek(key)
        entry.body = entry.body.replace("</h1>", "</h1>tampered", 1)

    problems = drive_and_audit(deployment, before_audit=tamper)
    assert any(key in p for p in problems), problems
