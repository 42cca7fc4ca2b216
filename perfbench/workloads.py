"""The benchmark's workloads: what the server deploys, what the client sends.

Shared by the server process (``server.py``: which application, which
cache tier, which observability) and the client process (``run.py``:
the seeded request streams).  The application, dataset and cache
configuration never depend on the seed; the seed only drives the
request streams, so every run serves the same program the same way and
differs only in the inputs it receives.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from urllib.parse import quote_plus

#: Keep-alive connections the client opens (one per core of the
#: two-core reference machine; the paper's emulated clients are closed
#: loops, so more connections only queue at the server).
CONNECTIONS = 2

#: CBMG sessions are renewed after this much *virtual* time, advanced by
#: each request's drawn think time (TPC-W clause 5.3.1.1 shape: 15 min
#: sessions, 7 s mean think time, about 128 interactions per session).
#: The closed loop itself never sleeps.
SESSION_SECONDS = 900.0
THINK_TIME_MEAN = 7.0


@dataclass(frozen=True)
class Workload:
    name: str
    app: str  # "rubis" | "tpcw"
    #: Cluster tier: 4 nodes, R=2, strong bus (single-node cache otherwise).
    cluster: bool
    #: Observability tier woven and enabled.
    obs: bool
    #: Untimed warm-up requests per connection.
    warmup_per_connection: int
    #: rubis-hot only: size of the fixed page set.
    hot_pages: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rubis-hot",
            "rubis",
            cluster=False,
            obs=False,
            warmup_per_connection=0,
            hot_pages=256,
        ),
        Workload(
            "rubis-bidding",
            "rubis",
            cluster=False,
            obs=False,
            warmup_per_connection=1500,
        ),
        Workload(
            "tpcw-shopping-cluster",
            "tpcw",
            cluster=True,
            obs=True,
            warmup_per_connection=1000,
        ),
    )
}


# -- the application side (server process) ---------------------------------------------


def build_application(workload: Workload):
    """A fresh, populated application (default dataset sizes)."""
    if workload.app == "rubis":
        from repro.apps.rubis import RubisDataset, build_rubis

        return build_rubis(RubisDataset())
    from repro.apps.tpcw import TpcwDataset, build_tpcw

    return build_tpcw(TpcwDataset())


def build_cache(workload: Workload):
    """The cache facade, configured as the workload deploys it."""
    semantics = None
    if workload.app == "tpcw":
        from repro.apps.tpcw.app import standard_semantics

        semantics = standard_semantics()
    if workload.cluster:
        from repro.cluster.awc import ClusterAutoWebCache

        return ClusterAutoWebCache(
            n_nodes=4, replication=2, bus_mode="strong", semantics=semantics
        )
    from repro.cache.autowebcache import AutoWebCache

    return AutoWebCache(semantics=semantics)


def mix_for(workload: Workload, dataset):
    if workload.app == "rubis":
        from repro.apps.rubis.workload import bidding_mix, browsing_mix

        if workload.hot_pages:
            return browsing_mix(dataset)
        return bidding_mix(dataset)
    from repro.apps.tpcw.workload import shopping_mix

    return shopping_mix(dataset)


# -- the request side (client process) -------------------------------------------------


@dataclass
class Request:
    method: str
    uri: str
    params: dict[str, str]
    #: The session's planned request (fed back with the response body
    #: so TPC-W sessions learn their server-allocated cart ids).
    planned: object = None
    session: object = None

    @property
    def query(self) -> str:
        return "&".join(
            f"{quote_plus(k)}={quote_plus(v)}" for k, v in self.params.items()
        )

    @cached_property
    def wire(self) -> bytes:
        """The request as sent (built once: hot pages are sent again and again)."""
        query = self.query
        if self.method == "GET":
            target = f"{self.uri}?{query}" if query else self.uri
            return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode(
                "latin-1"
            )
        body = query.encode("latin-1")
        return (
            f"POST {self.uri} HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/x-www-form-urlencoded\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body


def dataset_for(workload: Workload):
    """The dataset *descriptor* (sizes and id ranges) the mixes draw from.

    Only the default sizes are read; the client never builds a database.
    """
    if workload.app == "rubis":
        from repro.apps.rubis import RubisDataset

        return RubisDataset()
    from repro.apps.tpcw import TpcwDataset

    return TpcwDataset()


class SessionStream:
    """One connection's request stream: CBMG sessions over a mix.

    Sessions are replaced after ``SESSION_SECONDS`` of virtual time,
    advanced by each request's think-time draw, so a session sends as
    many interactions as an emulated browser would -- without the
    closed loop ever sleeping.
    """

    def __init__(self, workload: Workload, seed: int, index: int) -> None:
        from repro.workload.session import SessionConfig

        self.mix = mix_for(workload, dataset_for(workload))
        self.rng = random.Random(f"{workload.name}/{seed}/{index}")
        self.config = SessionConfig(
            think_time_mean=THINK_TIME_MEAN, session_duration=SESSION_SECONDS
        )
        self.index = index
        self._sessions = 0
        self._now = 0.0
        self.session = self._new_session()

    def _new_session(self):
        from repro.workload.session import ClientSession

        self._sessions += 1
        return ClientSession(
            # Distinct ids across connections: RUBiS RegisterUser
            # derives unique nicknames from them.
            session_id=self._sessions * 1000 + self.index,
            mix=self.mix,
            rng=random.Random(self.rng.random()),
            config=self.config,
            started_at=self._now,
        )

    def next(self) -> Request:
        if self.session.expired(self._now):
            self.session = self._new_session()
        planned = self.session.next_request()
        self._now += self.session.think_time()
        return Request(
            planned.method, planned.uri, planned.params, planned, self.session
        )


class HotStream:
    """rubis-hot: a seeded fixed page set, visited in a seeded cycle."""

    def __init__(self, pages: list[Request], seed: int, index: int) -> None:
        self.order = list(pages)
        random.Random(f"hot/{seed}/{index}").shuffle(self.order)
        self._i = 0

    def next(self) -> Request:
        request = self.order[self._i]
        self._i = (self._i + 1) % len(self.order)
        return request


def hot_pages(workload: Workload, seed: int) -> list[Request]:
    """The rubis-hot page set: distinct GETs drawn from RUBiS browsing
    sessions (so page popularity and parameter shapes are the mix's)."""
    stream = SessionStream(workload, seed, index=99)
    seen: dict[str, Request] = {}
    while len(seen) < workload.hot_pages:
        request = stream.next()
        request.planned = request.session = None
        seen.setdefault(request.uri + "?" + request.query, request)
    return list(seen.values())


def request_streams(workload: Workload, seed: int) -> list:
    if workload.hot_pages:
        pages = hot_pages(workload, seed)
        return [HotStream(pages, seed, i) for i in range(CONNECTIONS)]
    return [SessionStream(workload, seed, i) for i in range(CONNECTIONS)]


# -- "names the page it was asked for" ---------------------------------------------------

#: URI -> title pattern (a regular expression); ``{name}`` must read
#: exactly the request parameter of that name.  Every page renders its
#: ``<title>`` first.
TITLES = {
    "/rubis/home": "RUBiS: Welcome",
    "/rubis/browse": "RUBiS: Browse",
    "/rubis/browse_categories": "RUBiS: All categories",
    "/rubis/browse_regions": "RUBiS: All regions",
    "/rubis/browse_categories_in_region": "RUBiS: Categories in .+",
    "/rubis/search_items_by_category": "RUBiS: Items in category {category}",
    "/rubis/search_items_by_region": (
        "RUBiS: Items in category {category}, region {region}"
    ),
    "/rubis/view_item": "RUBiS: item-{item}",
    "/rubis/view_bid_history": "RUBiS: Bid history for item-{item}",
    "/rubis/view_user_info": "RUBiS: User [a-z]+{user}",
    "/rubis/about_me": "RUBiS: About [a-z]+{user}",
    "/rubis/buy_now_auth": "RUBiS: Buy now authentication",
    "/rubis/buy_now": "RUBiS: Buy item-{item} now",
    "/rubis/put_bid_auth": "RUBiS: Bid authentication",
    "/rubis/put_bid": "RUBiS: Bid on item-{item}",
    "/rubis/put_comment_auth": "RUBiS: Comment authentication",
    "/rubis/put_comment": "RUBiS: Comment on [a-z]+{to}",
    "/rubis/register": "RUBiS: Register",
    "/rubis/sell": "RUBiS: Sell your item",
    "/rubis/select_category_to_sell": "RUBiS: Select a category",
    "/rubis/sell_item_form": "RUBiS: Sell in .+",
    "/rubis/store_bid": "RUBiS: Bid recorded",
    "/rubis/store_buy_now": "RUBiS: Purchase recorded",
    "/rubis/store_comment": "RUBiS: Comment recorded",
    "/rubis/register_user": "RUBiS: User registered",
    "/rubis/register_item": "RUBiS: Item registered",
    "/tpcw/home": "TPC-W: Welcome to the online bookstore",
    "/tpcw/new_products": "TPC-W: New products in {subject}",
    "/tpcw/best_sellers": "TPC-W: Best sellers in {subject}",
    "/tpcw/product_detail": "TPC-W: [A-Z ]+ {i_id}",
    "/tpcw/search_request": "TPC-W: Search",
    "/tpcw/search_results": "TPC-W: Search results for {search}",
    "/tpcw/order_inquiry": "TPC-W: Order inquiry",
    "/tpcw/order_display": "TPC-W: Most recent order for {uname}",
    "/tpcw/customer_registration": "TPC-W: Customer registration",
    "/tpcw/admin_request": "TPC-W: Admin edit [A-Z ]+ {i_id}",
    "/tpcw/shopping_cart": "TPC-W: Shopping cart \\d+",
    "/tpcw/buy_request": "TPC-W: Confirm purchase",
    "/tpcw/buy_confirm": "TPC-W: Order placed",
    "/tpcw/admin_confirm": "TPC-W: Item updated",
}

_PARAM = re.compile(r"\{(\w+)\}")


def _compile(template: str) -> tuple[re.Pattern, tuple[str, ...]]:
    names = tuple(_PARAM.findall(template))
    pattern = _PARAM.sub(lambda m: f"(?P<{m.group(1)}>.+?)", template)
    return re.compile(f"<title>{pattern}</title>".encode("utf-8")), names


_COMPILED = {uri: _compile(template) for uri, template in TITLES.items()}


def names_page(body: bytes, uri: str, params: dict[str, str]) -> bool:
    """True when ``body``'s title is the one ``uri`` with ``params`` renders."""
    pattern, names = _COMPILED[uri]
    match = pattern.search(body, 0, 400)
    if match is None:
        return False
    return all(
        match.group(name).decode("utf-8") == params[name] for name in names
    )
