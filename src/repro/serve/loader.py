"""Building :class:`~repro.serve.jobs.Request` objects from JSON docs.

One request document is a JSON object naming its instance either by
registered benchmark or inline::

    {"benchmark": "elliptic", "seed": 2004, "deadline": 40}
    {"instance": { ...repro.io v1 instance JSON... }, "deadline": 40}

Optional knobs: ``algorithm``, ``scheduler``, ``strategy``,
``budget_evaluations``, ``budget_wall_s``, ``label``, plus
``num_types`` (benchmark form only; FU types of the seeded random
table, default 3).  ``deadline`` may be omitted — inline instances may
carry one, and otherwise it defaults to 1.3x the instance's minimum
feasible completion time, mirroring the CLI.

A batch document is ``{"requests": [<request doc>, ...]}`` (a bare
list is also accepted).

Sizes are bounded before anything is built: a deadline above
:data:`MAX_DEADLINE`, a ``num_types`` above :data:`MAX_TYPES` or an
inline instance with more than :data:`MAX_NODES` nodes is a
:class:`~repro.errors.ServeError`.  The DP holds ``deadline + 1``
floats per node per lane, so an unbounded deadline would let one
request allocate until the process dies.  The DP runs on the smaller
`DFG_Expand` tree, which can be exponentially larger than the graph,
so a built instance is also bounded, before any DP work, by its
expansion size (at most :data:`MAX_EXPANSION` nodes) and by the cells
of one DP lane, expansion x ``(deadline + 1)`` (at most
:data:`MAX_DP_CELLS`).

A batch document parses each distinct instance once: a request whose
instance document equals the previous request's (the benchmark form:
same benchmark, ``num_types`` and ``seed``) reuses that request's DFG
and table objects.  A deadline sweep of one instance is the common
batch shape, and the service canonicalizes each distinct object pair
once per batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..assign import min_completion_time
from ..errors import ReproError, ServeError
from ..fu.random_tables import random_table
from ..fu.table import TimeCostTable
from ..graph.classify import expansion_sizes
from ..graph.dfg import DFG
from ..io import instance_from_dict
from .jobs import Request

__all__ = [
    "MAX_DEADLINE",
    "MAX_DP_CELLS",
    "MAX_EXPANSION",
    "MAX_NODES",
    "MAX_TYPES",
    "load_json",
    "request_from_dict",
    "requests_from_doc",
    "requests_from_file",
]

#: Largest deadline (time steps) a request may ask for.
MAX_DEADLINE = 10_000
#: Largest node count of an inline instance.
MAX_NODES = 2_000
#: Largest ``num_types`` of a benchmark-form table.
MAX_TYPES = 64
#: Largest `DFG_Expand` tree (the smaller orientation) of an instance;
#: the default ``node_limit`` of :func:`repro.assign.dfg_expand`.
MAX_EXPANSION = 200_000
#: Largest expansion x ``(deadline + 1)`` of a request: the float cells
#: of one DP lane.  It admits any instance within :data:`MAX_NODES`
#: that expands to itself (a tree) at :data:`MAX_DEADLINE`.
MAX_DP_CELLS = 25_000_000

_KNOWN_FIELDS = frozenset(
    {
        "benchmark",
        "seed",
        "num_types",
        "instance",
        "deadline",
        "algorithm",
        "scheduler",
        "strategy",
        "budget_evaluations",
        "budget_wall_s",
        "label",
    }
)

#: Default seed for benchmark-form tables (the seed of record used in
#: EXPERIMENTS.md / the CLI).
_DEFAULT_SEED = 2004


@dataclass(frozen=True)
class _Instance:
    """A built instance and the document it was built from."""

    source: Any
    dfg: DFG
    table: TimeCostTable
    deadline: Optional[int]
    expansion: int


def request_from_dict(doc: Dict[str, Any]) -> Request:
    """Build one :class:`Request` from its JSON document form."""
    return _request(doc, None)[0]


def _request(doc: Any, last: Optional[_Instance]) -> Tuple[Request, _Instance]:
    """``(request, instance)``; ``last`` is reused when its source matches."""
    if not isinstance(doc, dict):
        raise ServeError(
            f"request must be an object, got {type(doc).__name__}"
        )
    unknown = sorted(set(doc) - _KNOWN_FIELDS)
    if unknown:
        raise ServeError(
            f"unknown request field(s) {unknown!r}; "
            f"known: {sorted(_KNOWN_FIELDS)}"
        )
    has_bench = "benchmark" in doc
    has_inline = "instance" in doc
    if has_bench == has_inline:
        raise ServeError(
            "a request names its instance with exactly one of "
            "'benchmark' or 'instance'"
        )
    deadline = doc.get("deadline")
    if deadline is not None:
        deadline = _integer("deadline", deadline, MAX_DEADLINE)
    if has_bench:
        source: Any = (
            str(doc["benchmark"]),
            _integer("num_types", doc.get("num_types", 3), MAX_TYPES),
            _integer("seed", doc.get("seed", _DEFAULT_SEED)),
        )
    else:
        if "num_types" in doc or "seed" in doc:
            raise ServeError(
                "'num_types'/'seed' apply to the benchmark form only "
                "(inline instances carry their own rows)"
            )
        source = doc["instance"]
    if last is not None and last.source == source:
        instance = last
    else:
        instance = _build(source, deadline)
    if deadline is None and instance.deadline is not None:
        deadline = _integer("deadline", instance.deadline, MAX_DEADLINE)
    if deadline is None:
        deadline = _integer(
            "deadline",
            int(1.3 * min_completion_time(instance.dfg, instance.table)) + 1,
            MAX_DEADLINE,
        )
    cells = instance.expansion * (deadline + 1)
    if cells > MAX_DP_CELLS:
        raise ServeError(
            f"request needs {cells} DP cells ({instance.expansion} expanded "
            f"nodes x {deadline + 1} budgets); the limit is {MAX_DP_CELLS}"
        )
    request = Request(
        dfg=instance.dfg,
        table=instance.table,
        deadline=deadline,
        algorithm=doc.get("algorithm"),
        scheduler=str(doc.get("scheduler", "min_resource")),
        strategy=str(doc.get("strategy", "paper")),
        budget_evaluations=doc.get("budget_evaluations"),
        budget_wall_s=doc.get("budget_wall_s"),
        label=str(doc.get("label", "")),
    )
    return request, instance


def _build(source: Any, deadline: Optional[int]) -> _Instance:
    """Build the instance a request names (benchmark triple or document)."""
    inline_deadline: Optional[int] = None
    if isinstance(source, tuple):
        from ..suite.registry import get_benchmark

        name, num_types, seed = source
        try:
            dfg = get_benchmark(name).dag()
        except ReproError as exc:
            raise ServeError(str(exc)) from exc
        table = random_table(dfg, num_types=num_types, seed=seed)
    else:
        if isinstance(source, dict):
            nodes = source.get("nodes")
            if isinstance(nodes, list) and len(nodes) > MAX_NODES:
                raise ServeError(
                    f"inline instance has {len(nodes)} nodes; "
                    f"the limit is {MAX_NODES}"
                )
            if deadline is None and source.get("deadline") is not None:
                _integer("deadline", source["deadline"], MAX_DEADLINE)
        dfg, table, inline_deadline = instance_from_dict(source)
        dfg = dfg.dag()
        if table is None:
            raise ServeError(
                "inline instance carries no table rows; the serve layer "
                "needs the full (DFG, table) instance to address results "
                "by content"
            )
    expansion = min(expansion_sizes(dfg))
    if expansion > MAX_EXPANSION:
        raise ServeError(
            f"instance expands to {expansion} tree nodes; "
            f"the limit is {MAX_EXPANSION}"
        )
    return _Instance(source, dfg, table, inline_deadline, expansion)


def _integer(name: str, value: Any, limit: Optional[int] = None) -> int:
    """``value`` as an int, at most ``limit``; otherwise a ServeError."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ServeError(f"{name} must be an integer, got {value!r}") from None
    if limit is not None and number > limit:
        raise ServeError(f"{name} {number} exceeds the limit {limit}")
    return number


def requests_from_doc(doc: Any) -> List[Request]:
    """Parse a batch document (``{"requests": [...]}`` or a bare list)."""
    if isinstance(doc, dict):
        if "requests" not in doc:
            raise ServeError("batch document has no 'requests' array")
        entries = doc["requests"]
    else:
        entries = doc
    if not isinstance(entries, list):
        raise ServeError(
            f"'requests' must be an array, got {type(entries).__name__}"
        )
    if not entries:
        raise ServeError("batch document contains no requests")
    requests: List[Request] = []
    last: Optional[_Instance] = None
    for entry in entries:
        request, last = _request(entry, last)
        requests.append(request)
    return requests


def load_json(data: bytes, what: str) -> Any:
    """Parse ``data`` as one JSON document in strict UTF-8.

    Every way the bytes can fail to be JSON is a
    :class:`~repro.errors.ServeError` naming ``what``: invalid UTF-8
    (``json.loads`` on bytes would sniff UTF-16/32 from the first bytes
    instead), a syntax error, or nesting deep enough to exhaust the
    parser's recursion.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ServeError(f"{what} is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ServeError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ServeError(f"{what} nests too deeply to parse") from None


def requests_from_file(path: str) -> List[Request]:
    """Load a batch request file (see module docstring for the format)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ServeError(f"cannot read batch file {path!r}: {exc}") from exc
    return requests_from_doc(load_json(data, f"batch file {path!r}"))
