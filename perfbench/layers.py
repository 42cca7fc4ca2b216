"""The traced run: self time per layer and per request class.

Timers are installed from here, around the calls into each layer's
public functions; nothing under ``src/`` changes.  A span is one timed
call: its *self* time is its duration minus the time its child spans
cover.  Spans nest per thread, so the async tier's event-loop thread
(fast-path probes) and its executor threads (offloaded renders) keep
separate stacks.

Durations are read from the calling thread's CPU clock, not the wall
clock.  The server's loop thread and its executor threads share one
interpreter lock: a wall-clock span would also count the milliseconds
its thread waited for the lock while another request ran, and charge
them to whichever layer happened to be open.

Every span belongs to one request, and every request to one class:

* ``hit``   -- a GET the fast path served (``fast_check`` returned an entry);
* ``miss``  -- a GET the fast path could not serve (its probe plus the render);
* ``write`` -- a POST.

A request's spans are held until its root span (the fast-path probe or
the offloaded render) ends, then committed under its class.  Spans are
kept in memory (up to ``SPAN_LOG_LIMIT``) and written out as JSON lines
when the server stops.

Installation order matters and is split in two:

* :func:`install_before_weaving` wraps the *unwoven* bodies -- servlet
  ``do_get``/``do_post`` and the ``PageComposer`` fragment/hole bodies
  (``apps``) and the cache-infrastructure methods the observability
  weaver wraps -- so the weaver's dispatchers wrap the timers, not the
  other way round;
* :func:`install_after_weaving` wraps the *woven* DB-API and composer
  entry points as ``aop`` spans, so the advice bodies that run there
  (dependency collection, fragment checks) count as ``aop`` self time
  instead of leaking into the servlet body.
"""

from __future__ import annotations

import functools
import json
import threading
import time

CLASSES = ("hit", "miss", "write")

#: The (layer, class) self times reported.  A hit never leaves the
#: fast-path probe, and reads and writes take disjoint cache paths, so
#: the pairs left out are zero by construction.
REPORTED_SELF = {
    "web.fast_check": ("hit", "miss"),
    "web.render": ("miss", "write"),
    "aop": ("miss", "write"),
    "apps": ("miss", "write"),
    "cache.lookup": ("miss",),
    "cache.insert": ("miss",),
    "cache.register": ("miss",),
    "cache.invalidate": ("write",),
    "cache.analysis": ("write",),
    "sql.templateize": ("miss", "write"),
    "sql.parse": ("miss", "write"),
    "db.execute": ("miss", "write"),
    "cluster.bus": ("write",),
    "obs": ("miss", "write"),
}

#: The (layer, class) call counts reported per request.
REPORTED_CALLS = {
    "sql.templateize": ("miss", "write"),
    "sql.parse": ("miss", "write"),
    "db.execute": ("miss", "write"),
    "cache.analysis": ("write",),
}

LAYERS = tuple(REPORTED_SELF)

#: Raw spans kept for the span log (the aggregates never stop).
SPAN_LOG_LIMIT = 200_000

_clock = time.thread_time_ns


class Recorder:
    """Per-(layer, class) self time and call counts, plus a span log."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_ns = {(l, c): 0 for l in LAYERS for c in CLASSES}
            self.calls = {(l, c): 0 for l in LAYERS for c in CLASSES}
            self.requests = {c: 0 for c in CLASSES}
            #: CPU spent inside offloaded renders (the loop's share of
            #: process CPU is the rest).
            self.render_cpu_ns = 0
            self.process_cpu_ns = time.process_time_ns()
            self.spans: list[tuple] = []
            self._next_request = 0

    # -- span bookkeeping (all on the calling thread) ---------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # child time accumulated per open span
            local.pending = None  # spans of the request in progress
        return local

    def span(self, layer: str, fn, *args, **kwargs):
        local = self._state()
        if local.pending is None:  # outside a measured request
            return fn(*args, **kwargs)
        stack = local.stack
        stack.append(0)
        begun = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _clock() - begun
            child = stack.pop()
            if stack:
                stack[-1] += duration
            local.pending.append((layer, begun, duration, duration - child, len(stack)))

    def root(self, layer: str, fn, args, kwargs, classify):
        """Run a request's root span.  ``classify(result)`` returns the
        request's class (None: not a benchmark request, drop its spans)
        and whether this root completes the request -- a miss's fast-path
        probe is its first root, the render that follows its second."""
        local = self._state()
        if not self.enabled or local.pending is not None:
            return fn(*args, **kwargs)
        local.pending = []
        wall = time.perf_counter_ns()
        try:
            result = self.span(layer, fn, *args, **kwargs)
        finally:
            pending, local.pending = local.pending, None
        cls, completes = classify(result)
        if cls is not None:
            self._commit(cls, completes, pending, wall)
        return result

    def _commit(self, cls: str, completes: bool, pending: list, wall: int) -> None:
        root_layer, _begun, root_duration = pending[-1][:3]
        with self._lock:
            request = self._next_request
            self._next_request += 1
            if completes:
                self.requests[cls] += 1
            if root_layer == "web.render":
                self.render_cpu_ns += root_duration
            for layer, begun, duration, self_time, depth in pending:
                self.self_ns[(layer, cls)] += self_time
                self.calls[(layer, cls)] += 1
            if len(self.spans) + len(pending) <= SPAN_LOG_LIMIT:
                self.spans.extend(
                    (request, cls, wall, layer, begun, duration, self_time, depth)
                    for layer, begun, duration, self_time, depth in pending
                )

    # -- reporting -------------------------------------------------------------------------

    def report(self) -> dict:
        with self._lock:
            process_cpu = time.process_time_ns() - self.process_cpu_ns
            total = sum(self.requests.values())
            return {
                "requests": dict(self.requests),
                "self_ns": {f"{l}|{c}": v for (l, c), v in self.self_ns.items()},
                "calls": {f"{l}|{c}": v for (l, c), v in self.calls.items()},
                "render_cpu_ns": self.render_cpu_ns,
                "loop_cpu_ns": process_cpu - self.render_cpu_ns,
                "total_requests": total,
            }

    def write_spans(self, path: str) -> None:
        with self._lock, open(path, "w") as out:
            for request, cls, wall, layer, begun, duration, self_time, depth in self.spans:
                out.write(
                    json.dumps(
                        {
                            "request": request,
                            "class": cls,
                            "request_wall_ns": wall,
                            "layer": layer,
                            "cpu_start_ns": begun,
                            "cpu_ns": duration,
                            "self_ns": self_time,
                            "depth": depth,
                        }
                    )
                    + "\n"
                )


def _wrap(recorder: Recorder, owner, name: str, layer: str) -> None:
    """Replace ``owner.name`` (a class attribute or module global) with a
    timed wrapper."""
    original = owner.__dict__[name]

    @functools.wraps(original)
    def timed(*args, **kwargs):
        return recorder.span(layer, original, *args, **kwargs)

    setattr(owner, name, timed)


def _wrap_root(recorder: Recorder, owner, name: str, layer: str, classify) -> None:
    original = owner.__dict__[name]

    @functools.wraps(original)
    def timed(*args, **kwargs):
        return recorder.root(
            layer, original, args, kwargs, lambda result: classify(args, result)
        )

    setattr(owner, name, timed)


def _render_class(args, _result):
    method, target = args[1], args[2]
    if target.startswith("/_bench"):
        return None, False
    return ("write" if method == "POST" else "miss"), True


def _probe_class(_args, entry):
    return ("hit", True) if entry is not None else ("miss", False)


def install_before_weaving(recorder: Recorder, servlet_classes) -> None:
    """Timers on unwoven bodies and on the classes the weavers wrap."""
    from repro.apps.html import PageComposer
    from repro.cache import (
        api,
        aspects,
        aspects_result,
        dependency,
        external,
        invalidation,
    )
    from repro.cluster import bus, router
    from repro.db import engine
    from repro.obs import histogram, tracer
    from repro.sql import template

    for cls in servlet_classes:
        for name in ("do_get", "do_post"):
            if name in cls.__dict__:
                _wrap(recorder, cls, name, "apps")
    for name in ("fragment", "hole"):
        _wrap(recorder, PageComposer, name, "apps")

    for owner in (api.Cache, router.ClusterRouter):
        for name in (
            "check",
            "check_key",
            "join_flight",
            "wait_flight",
            "finish_flight",
            "begin_window",
            "end_window",
        ):
            _wrap(recorder, owner, name, "cache.lookup")
        for name in ("insert", "insert_key"):
            _wrap(recorder, owner, name, "cache.insert")
        _wrap(recorder, owner, "process_write_request", "cache.invalidate")
    _wrap(recorder, api.Cache, "apply_writes", "cache.invalidate")
    _wrap(recorder, dependency.DependencyTable, "register", "cache.register")
    _wrap(recorder, invalidation.Invalidator, "process_writes", "cache.analysis")
    _wrap(recorder, bus.InvalidationBus, "publish", "cluster.bus")

    # templateize is bound by name into each module that calls it.
    for module in (aspects, aspects_result, external):
        _wrap(recorder, module, "templateize", "sql.templateize")
    for module in (template, engine):
        _wrap(recorder, module, "parse_statement", "sql.parse")
    _wrap(recorder, engine.Database, "execute_statement", "db.execute")

    _wrap(recorder, tracer, "make_span", "obs")
    _wrap(recorder, tracer.Tracer, "_record", "obs")
    _wrap(recorder, histogram.MetricsHub, "observe", "obs")


def install_after_weaving(recorder: Recorder) -> None:
    """Timers on the woven entry points and the serving tier."""
    from repro.apps.html import PageComposer
    from repro.cache.api import Cache
    from repro.cluster.router import ClusterRouter
    from repro.db.dbapi import Connection, Statement
    from repro.web.asyncserver import AsyncCachedServer
    from repro.web.container import ServletContainer

    _wrap(recorder, ServletContainer, "handle", "aop")
    for name in ("execute_query", "execute_update"):
        _wrap(recorder, Statement, name, "aop")
    for name in ("commit", "rollback"):
        _wrap(recorder, Connection, name, "aop")
    for name in ("fragment", "hole"):
        _wrap(recorder, PageComposer, name, "aop")
    _wrap_root(recorder, AsyncCachedServer, "render", "web.render", _render_class)
    # The fast-path probe is the root of a hit (and the first root of a
    # miss); the cluster router's probe nests the node's, which then
    # runs inside the router's span.
    for owner in (Cache, ClusterRouter):
        _wrap_root(recorder, owner, "fast_check", "web.fast_check", _probe_class)
