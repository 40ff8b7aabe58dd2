"""Per-layer breakdown of a traced run.

Tracing is done from here, not from new spans in the program: the
public function at each layer boundary is wrapped for the duration of
the traced run, and each wrapper opens a span on one benchmark-owned
:class:`repro.obs.Tracer`.  The program's own spans (``synthesize``,
``assign``, ``lower_bound``, ``schedule``, ``serve.batch``,
``serve.solve``, ``engine.batch``) and counters (``dp.*``,
``engine.batch.*``, ``serve.*``) come along: spans nest through the
ambient span stack whichever tracer opened them, so every span of one
POST or one ``synthesize`` call lands in one tree.  Spans stay in memory
and are written out as JSON lines when the run ends.

A layer's time is the time inside its boundary spans.  Three metrics
are *self* times, a span's duration minus the part its child spans
cover: ``synthesis.self_ms_per_item`` (``synthesize`` minus its
phases), ``serve.solve.self_ms_per_request`` (``solve_canonical_batch``
minus phase 1 and the per-job phase 2 it runs) and
``assign.self_ms_per_item`` (phase 1 minus expansion and the engine's
refresh and traceback, which the engine times itself).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

import repro.assign.batch
import repro.assign.dfg_assign
import repro.io
import repro.serve.http
import repro.serve.jobs
import repro.serve.service
from repro.obs import Span, Tracer

#: Client-side span around one POST round trip.
CLIENT_SPAN = "serve.http.request"
#: Server-side spans whose time is not transport.
SERVER_SPANS = ("serve.loader", "serve.service")


class LayerTracer:
    """Wraps layer-boundary functions so each call opens a span."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.canonical_order_calls = 0
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self._server_op = 0

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper(original))
        self._undo.append((owner, attr, original, own))

    def _spanned(self, name: str, count: bool = False) -> Callable[..., Any]:
        def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(*args: Any, **kwargs: Any) -> Any:
                if count:
                    self.canonical_order_calls += 1
                with self.tracer.span(name):
                    return fn(*args, **kwargs)

            return call

        return wrap

    def _counted(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def call(*args: Any, **kwargs: Any) -> Any:
            self.canonical_order_calls += 1
            return fn(*args, **kwargs)

        return call

    def _server_root(self, name: str, first: bool) -> Callable[..., Any]:
        """A server-side root span, tagged with the POST it serves."""

        def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(*args: Any, **kwargs: Any) -> Any:
                if first:
                    self._server_op += 1
                with self.tracer.span(name, op=self._server_op - 1):
                    return fn(*args, **kwargs)

            return call

        return wrap

    def install(self, service: Any = None) -> None:
        expand = self._spanned("assign.expand")
        self._patch(repro.assign.dfg_assign, "choose_expansion", expand)
        self._patch(repro.assign.batch, "choose_expansion", expand)
        if service is None:
            return
        self._patch(
            repro.serve.http, "requests_from_doc", self._server_root("serve.loader", True)
        )
        self._patch(service, "solve_batch", self._server_root("serve.service", False))
        canon = self._spanned("io.canonicalize")
        self._patch(repro.serve.jobs, "canonical_instance_dict", canon)
        # prepare() calls canonical_order itself and once more through
        # canonical_instance_dict; both calls are counted.
        self._patch(
            repro.serve.jobs,
            "canonical_order",
            self._spanned("io.canonicalize", count=True),
        )
        self._patch(repro.io, "canonical_order", self._counted)
        cache = self._spanned("serve.cache")
        self._patch(service.cache, "get", cache)
        self._patch(service.cache, "put", cache)
        self._patch(repro.serve.service, "relabel_payload", self._spanned("serve.relabel"))

    def client_span(self, tag: str) -> Any:
        return self.tracer.span(CLIENT_SPAN, op=tag)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(roots: List[Span]) -> Dict[str, float]:
    """Seconds of self time per span name over every tree."""
    out: Dict[str, float] = defaultdict(float)
    for root in roots:
        for span in root.walk():
            covered = sum(child.duration for child in span.children)
            out[span.name] += span.duration - covered
    return out


def total_times(roots: List[Span]) -> Dict[str, float]:
    """Seconds of inclusive time per span name (outermost spans only)."""
    out: Dict[str, float] = defaultdict(float)

    def visit(span: Span, inside: frozenset) -> None:
        if span.name not in inside:
            out[span.name] += span.duration
        for child in span.children:
            visit(child, inside | {span.name})

    for root in roots:
        visit(root, frozenset())
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    layer: LayerTracer,
    counters: Dict[str, float],
    items: int,
    ops: int,
    plain_items_per_s: float,
    traced_items_per_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``items`` are ``synthesize`` calls or serve requests, ``ops`` timed
    operations (calls or POSTs).  ``counters`` are the program's
    counters accumulated during the traced run.
    """
    roots = layer.tracer.roots
    own = self_times(roots)
    total = total_times(roots)
    ms = 1000.0

    def per_item(seconds: float) -> float:
        return ms * seconds / items

    c = defaultdict(float, counters)
    server = sum(total[name] for name in SERVER_SPANS)
    lookups = c["serve.cache.hits"] + c["serve.cache.misses"]
    # Phase 1 is the assign span, or engine.batch for batched lanes.
    phase1 = total["assign"] + total["engine.batch"]
    expand = total["assign.expand"]
    engine = c["dp.seconds_refresh"] + c["dp.seconds_traceback"]
    return {
        "trace.items": float(items),
        "trace.ops": float(ops),
        "serve.http.transport_ms": _ratio(ms * (total[CLIENT_SPAN] - server), ops),
        "serve.loader.ms_per_request": per_item(total["serve.loader"]),
        "io.canonicalize.ms_per_request": per_item(total["io.canonicalize"]),
        "io.canonical_order.calls_per_request": layer.canonical_order_calls / items,
        "serve.cache.ms_per_request": per_item(total["serve.cache"]),
        "serve.cache.lookups": lookups,
        "serve.cache.hit_ratio": _ratio(c["serve.cache.hits"], lookups),
        "serve.relabel.ms_per_request": per_item(total["serve.relabel"]),
        "serve.solve.ms_per_request": per_item(total["serve.solve"]),
        "serve.solve.self_ms_per_request": per_item(own["serve.solve"]),
        "serve.solves": c["serve.solves"],
        "serve.batched_ratio": _ratio(c["serve.batched"], c["serve.solves"]),
        "assign.ms_per_item": per_item(phase1),
        "assign.self_ms_per_item": per_item(phase1 - expand - engine),
        "assign.expand_ms_per_item": per_item(expand),
        "engine.refresh_ms_per_item": per_item(c["dp.seconds_refresh"]),
        "engine.traceback_ms_per_item": per_item(c["dp.seconds_traceback"]),
        "engine.refreshes_per_item": c["dp.refreshes"] / items,
        "engine.nodes_visited_per_item": c["dp.nodes_visited"] / items,
        "engine.nodes_recomputed_per_item": c["dp.nodes_recomputed"] / items,
        "engine.cache_hit_ratio": _ratio(c["dp.cache_hits"], c["dp.nodes_visited"]),
        "engine.batch.groups": c["engine.batch.groups"],
        "engine.batch.lanes_per_group": _ratio(
            c["engine.batch.lanes"], c["engine.batch.groups"]
        ),
        "sched.lower_bound_ms_per_item": per_item(total["lower_bound"]),
        "sched.schedule_ms_per_item": per_item(total["schedule"]),
        "synthesis.self_ms_per_item": per_item(own["synthesize"]),
        "obs.trace_overhead_frac": 1.0 - traced_items_per_s / plain_items_per_s,
    }
