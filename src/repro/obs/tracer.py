"""Context-var based tracing: nested spans with wall time and counters.

The tracer is *ambient*: library code calls the module-level
:func:`span` / :func:`add_metric` helpers, which resolve the active
:class:`Tracer` through a :class:`contextvars.ContextVar`.  By default
the active tracer is the shared disabled singleton :data:`NULL_TRACER`,
whose ``span()`` returns one preallocated no-op context manager — the
disabled path allocates nothing and costs well under a microsecond per
touch point, which is what keeps instrumented hot loops within the
<2% overhead budget (see ``benchmarks/bench_obs_overhead.py``).

Enable tracing for a region with::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        synthesize(dfg, table, deadline)
    print(render_text(tracer.roots))

Spans nest through the context var, so concurrent tasks (threads /
asyncio) each see their own stack.  This module depends only on the
standard library and :mod:`repro.errors` — it sits at the bottom layer
and is importable from every other layer (lintkit rule RL004).
"""

from __future__ import annotations

import contextlib
import re
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from time import perf_counter
from types import TracebackType
from typing import ContextManager, Dict, Iterator, List, Optional, Tuple, Type

from .metrics import MetricsRegistry

__all__ = [
    "OBS_NAME_PATTERN",
    "OBS_NAME_RE",
    "OBS_NAMESPACES",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "span",
    "add_metric",
    "annotate",
    "tracing_active",
]

#: Registered naming convention for span and metric names: lowercase
#: ``snake_case`` segments, optionally dotted (``assign``, ``dp.refreshes``,
#: ``engine.pmap``).  Exporters group and prefix-filter on ``.`` — a name
#: outside this grammar breaks dashboards silently, so lintkit rule RL009
#: checks every ``span()``/``add_metric()`` literal against it.
OBS_NAME_PATTERN = r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*"

#: Compiled full-match form of :data:`OBS_NAME_PATTERN`.
OBS_NAME_RE = re.compile(rf"^{OBS_NAME_PATTERN}$")

#: Registered first segments of *dotted* span/metric names.  Dashboards
#: group on the prefix before the first ``.``, so that prefix is a
#: namespace: adding one is an API decision, recorded here and enforced
#: statically by lintkit rule RL009 (a dotted literal whose first
#: segment is not in this set is a finding).  Undotted names (plain
#: span labels like ``assign`` or ``synthesize``) are not namespaced
#: and only need to match :data:`OBS_NAME_PATTERN`.
OBS_NAMESPACES = frozenset(
    {
        "checkkit",  # fuzzing harness campaign counters
        "downgrade",  # downgrade_assign move counters
        "dp",  # incremental DP engine statistics
        "engine",  # tree-DP engine batches and pmap fan-outs
        "force_directed",  # force-directed scheduler placements
        "portfolio",  # metaheuristic race telemetry
        "retiming",  # retiming feasibility probes
        "serve",  # batch/service request telemetry
    }
)


@dataclass
class Span:
    """One timed region of execution, possibly with nested children.

    ``start``/``end`` are :func:`time.perf_counter` readings (seconds,
    arbitrary epoch); exporters convert them to relative times.
    ``attributes`` hold one-shot annotations (node counts, deadlines),
    ``counters`` hold values accumulated while the span was the
    innermost active one (via :func:`add_metric`).
    """

    name: str
    attributes: Dict[str, object] = field(default_factory=dict)
    start: float = 0.0
    end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds covered by the span (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Yield this span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree, or ``None``."""
        for candidate in self.walk():
            if candidate.name == name:
                return candidate
        return None


#: Shared sink for attribute/counter writes on the disabled path.  It is
#: intentionally a plain mutable Span (kept out of every export), so the
#: no-op context manager can hand out a real object without allocating.
NULL_SPAN = Span(name="<disabled>")


class _NullSpanContext:
    """Preallocated no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()

#: Per-context stack of open spans for the *enabled* tracer.
_SPAN_STACK: ContextVar[Tuple[Span, ...]] = ContextVar(
    "repro_obs_span_stack", default=()
)


class _SpanContext:
    """Context manager that opens/closes one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span_: Span):
        self._tracer = tracer
        self._span = span_
        self._token: Optional[Token[Tuple[Span, ...]]] = None

    def __enter__(self) -> Span:
        stack = _SPAN_STACK.get()
        if stack:
            stack[-1].children.append(self._span)
        else:
            self._tracer.roots.append(self._span)
        self._token = _SPAN_STACK.set(stack + (self._span,))
        self._span.start = perf_counter()
        return self._span

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self._span.end = perf_counter()
        if exc_type is not None:
            self._span.attributes["error"] = exc_type.__name__
        if self._token is not None:
            _SPAN_STACK.reset(self._token)
        return False


class Tracer:
    """Collects a forest of spans plus a :class:`MetricsRegistry`.

    ``Tracer()`` is enabled; ``Tracer(enabled=False)`` behaves exactly
    like :data:`NULL_TRACER` (no spans, no metrics, no allocation).
    """

    __slots__ = ("enabled", "roots", "metrics")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Top-level spans recorded while this tracer was active.
        self.roots: List[Span] = []
        #: Registry receiving :func:`add_metric` counter increments.
        self.metrics = MetricsRegistry()

    def span(self, name: str, **attributes: object) -> ContextManager[Span]:
        """Open a nested span; a disabled tracer returns a shared no-op."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, Span(name=name, attributes=dict(attributes)))

    def add_metric(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` in the registry and innermost span."""
        if not self.enabled:
            return
        self.metrics.counter(name).inc(amount)
        stack = _SPAN_STACK.get()
        if stack:
            top = stack[-1]
            top.counters[name] = top.counters.get(name, 0.0) + amount

    def annotate(self, **attributes: object) -> None:
        """Attach attributes to the innermost open span, if any."""
        if not self.enabled:
            return
        stack = _SPAN_STACK.get()
        if stack:
            stack[-1].attributes.update(attributes)


#: The default, disabled tracer every context starts with.
NULL_TRACER = Tracer(enabled=False)

_TRACER: ContextVar[Tracer] = ContextVar("repro_obs_tracer", default=NULL_TRACER)


def current_tracer() -> Tracer:
    """The tracer active in this context (default: :data:`NULL_TRACER`)."""
    return _TRACER.get()


def tracing_active() -> bool:
    """True when the ambient tracer records spans."""
    return _TRACER.get().enabled


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` body."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def span(name: str, **attributes: object) -> ContextManager[Span]:
    """Open a span on the ambient tracer (no-op when tracing is off)."""
    return _TRACER.get().span(name, **attributes)


def add_metric(name: str, amount: float = 1.0) -> None:
    """Increment a counter on the ambient tracer (no-op when off)."""
    _TRACER.get().add_metric(name, amount)


def annotate(**attributes: object) -> None:
    """Annotate the innermost open span of the ambient tracer."""
    _TRACER.get().annotate(**attributes)
