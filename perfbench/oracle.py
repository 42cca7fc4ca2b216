"""The end-of-run audit: correctness computed apart from the cache.

Run with no request in flight, after the timed phase:

1. every whole page the cache holds -- every copy, on every node -- is
   fetched through the server, and must equal each stored copy;
2. pages with declared holes (TPC-W Home and SearchRequest) are never
   cached whole, so they are checked by a property read straight from
   the database: each item link shows that item's current ``i_title``
   and the greeting shows the customer's name;
3. the program's own accounting must add up (lookups, fast/slow
   requests against what the client sent, open flights, bus sequence);
4. the cache is then uninstalled (unweave, fast path off) and every page
   of step 1 is rendered again by the plain application over the same
   database state: it must be byte-identical to what the cache served.

:func:`audit` returns the problems found (none means the run is correct)
and the number of cached pages it compared.
"""

from __future__ import annotations

import hashlib
import re

_ITEM_LINK = re.compile(rb"<a href='/tpcw/product_detail\?i_id=(\d+)'>([^<]*)</a>")
_GREETING = re.compile(rb"<p>Hello ([^<]*)!</p>")
_SEARCH_FORM = (
    b"<form action='/tpcw/search_results'><select name='type'>"
    b"<option>author</option><option>title</option><option>subject</option>"
    b"</select><input name='search'><input type='submit'></form>"
)

#: Customers whose Home page the hole-page property check renders.
HOME_CUSTOMERS = range(0, 200, 5)


def _get(control, target: str) -> tuple[int, bytes]:
    return control.exchange(
        f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
    )


def _hole_pages(control, problems: list[str]) -> None:
    """TPC-W Home / SearchRequest against the database."""
    links: dict[int, set[bytes]] = {}
    greetings: dict[int, bytes] = {}
    for c_id in HOME_CUSTOMERS:
        status, body = _get(control, f"/tpcw/home?c_id={c_id}")
        if status != 200:
            problems.append(f"home c_id={c_id}: status {status}")
            continue
        for i_id, title in _ITEM_LINK.findall(body):
            links.setdefault(int(i_id), set()).add(title)
        greeting = _GREETING.search(body)
        if greeting is None:
            problems.append(f"home c_id={c_id}: no greeting")
        else:
            greetings[c_id] = greeting.group(1)
    for _ in range(5):
        status, body = _get(control, "/tpcw/search_request")
        if status != 200 or _SEARCH_FORM not in body or b"class='ad'" not in body:
            problems.append("search_request: form fragment or ad hole missing")
    if not links:
        problems.append("home: no item links rendered")
        return
    ids = ",".join(str(i) for i in sorted(links))
    titles = control.get_json(f"/_bench/items?ids={ids}")
    for i_id, seen in links.items():
        expected = {row[0].encode("utf-8") for row in titles[str(i_id)]}
        if seen != expected:
            problems.append(f"item link {i_id}: shows {seen}, database has {expected}")
    ids = ",".join(str(c) for c in sorted(greetings))
    names = control.get_json(f"/_bench/customers?ids={ids}")
    for c_id, shown in greetings.items():
        rows = names[str(c_id)]
        expected = f"{rows[0][0]} {rows[0][1]}".encode("utf-8") if rows else None
        if shown != expected:
            problems.append(f"greeting c_id={c_id}: shows {shown!r}, database has {expected!r}")


def audit(control, connections, workload, posts: int) -> tuple[list[str], int]:
    """Audit a quiesced server; ``connections`` are every connection that
    sent it requests besides ``control``, ``posts`` the POSTs they sent."""
    problems: list[str] = []
    state = control.get_json("/_bench/state?pages=1")
    if not state["cached"]:
        return problems, 0  # the unwoven deployment: nothing to audit
    pages: dict[str, list[str]] = state["pages"]
    if not pages:
        problems.append("the cache holds no whole page")
    served: dict[str, bytes] = {}
    for key in sorted(pages):
        status, body = _get(control, key)
        if status != 200:
            problems.append(f"{key}: cached page served with status {status}")
            continue
        served[key] = body
        digest = hashlib.sha1(body).hexdigest()
        for copy in pages[key]:
            if copy != digest:
                problems.append(f"{key}: a stored copy differs from the served page")
                break

    if workload.app == "tpcw":
        _hole_pages(control, problems)

    # -- accounting ------------------------------------------------------------------------
    state = control.get_json("/_bench/state")
    server = state["server"]
    received = sum(c.sent for c in connections) + control.sent
    if server["fast_hits"] + server["slow_requests"] != received:
        problems.append(
            f"server counted {server['fast_hits']} fast + {server['slow_requests']}"
            f" slow requests, the client sent {received}"
        )
    if server["bad_requests"]:
        problems.append(f"{server['bad_requests']} bad requests")
    stats = state["stats"]
    accounted = (
        stats["hits"] + stats["semantic_hits"] + stats["misses"] + stats["uncacheable"]
    )
    if stats["lookups"] != accounted:
        problems.append(
            f"lookups {stats['lookups']} != hits + semantic_hits + misses"
            f" + uncacheable = {accounted}"
        )
    if state["open_flights"]:
        problems.append(f"{state['open_flights']} open flights at rest")
    if workload.cluster:
        bus = state["bus"]
        if bus["seq"] != posts:
            problems.append(f"bus seq {bus['seq']} != {posts} writes")
        if any(applied != bus["seq"] for applied in bus["applied"]):
            problems.append(f"nodes applied {bus['applied']}, bus seq {bus['seq']}")

    # -- the same pages from the plain application ------------------------------------------
    control.post_json("/_bench/uninstall")
    for key, body in served.items():
        status, reference = _get(control, key)
        if status != 200 or reference != body:
            problems.append(
                f"{key}: cached page differs from the uncached render"
                f" over the same database state"
            )
    return problems, len(served)
