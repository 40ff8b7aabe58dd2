"""Instance serialization: JSON exchange, text format, canonical form.

An *instance* is one complete solver input — a :class:`~repro.graph.dfg.DFG`
(possibly cyclic, with delay edges), an optional
:class:`~repro.fu.table.TimeCostTable` covering its nodes, and an
optional deadline.  This module is the single home for moving instances
across process and machine boundaries:

* :func:`instance_to_json` / :func:`instance_from_json` — the **v1
  exchange schema** (``schema_version`` 1): a faithful, name-preserving
  JSON round-trip used by the batch files and the HTTP front of
  :mod:`repro.serve`.
* :func:`loads_text` / :func:`dumps_text` — the line-oriented plain-text
  format that predates the JSON schema (kept for hand-written kernels
  and ``repro-hls run``).
* :func:`canonical_instance_json` / :func:`instance_key` — the
  **canonical form**: a relabel-invariant encoding in which two
  isomorphic instances (same structure, same per-node rows, any node
  names, any insertion order) serialize to the *same* bytes, so a
  content hash of the canonical form can deduplicate work across
  differently-labelled submissions.  The serve layer's
  content-addressed result cache is keyed on exactly this hash, and
  checkkit's ``canonical_key`` metamorphic relation fuzzes the
  invariance claim continuously.

Canonicalization runs iterative color refinement seeded from the
node-local invariants (operation label plus table row), then — only if
symmetric nodes remain — a bounded individualization/backtracking
search for the lexicographically smallest encoding.  Instances whose
automorphism group is so large that the search exceeds its budget fall
back to a deterministic (but label-dependent) order: the key is then
still collision-free, merely no longer guaranteed to match a relabelled
twin — a cache *miss*, never a wrong result.  Random tables make that
fallback essentially unreachable (it needs many nodes with identical
rows *and* identical neighbourhoods).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import GraphError, TableError
from .fu.table import TimeCostTable
from .graph.dfg import DFG, Edge, Node

__all__ = [
    "INSTANCE_SCHEMA_VERSION",
    "instance_to_dict",
    "instance_from_dict",
    "instance_to_json",
    "instance_from_json",
    "canonical_order",
    "canonical_instance_dict",
    "canonical_instance_json",
    "instance_key",
    "loads_text",
    "dumps_text",
    "load",
    "dump",
]

#: Version stamped into (and required of) every instance JSON document.
INSTANCE_SCHEMA_VERSION = 1

#: Refinement-step allowance for the canonical-order search; beyond it
#: the order falls back to a deterministic label-dependent sort (see
#: module docstring).  Generous: refinement touches every node once per
#: step, and real instances go discrete within a handful of steps.
_CANONICAL_BUDGET = 50_000


# ----------------------------------------------------------------------
# faithful JSON exchange (schema_version 1)
# ----------------------------------------------------------------------
def _row_dict(table: TimeCostTable, node: Node) -> Dict[str, List[Any]]:
    return {"times": table.times(node).tolist(), "costs": table.costs(node).tolist()}


def instance_to_dict(
    dfg: DFG,
    table: Optional[TimeCostTable] = None,
    deadline: Optional[int] = None,
) -> Dict[str, Any]:
    """Faithful dict form of an instance (node names preserved).

    Node identifiers are coerced to strings (the JSON object-key type);
    graphs with non-string hashable ids serialize, but round-trip to
    their string forms.
    """
    if table is not None:
        table.validate_for(dfg)
    doc: Dict[str, Any] = {
        "schema_version": INSTANCE_SCHEMA_VERSION,
        "name": dfg.name,
        "nodes": [{"id": str(n), "op": dfg.op(n)} for n in dfg.nodes()],
        "edges": [[str(u), str(v), int(d)] for u, v, d in dfg.edges()],
        "rows": (
            None
            if table is None
            else {str(n): _row_dict(table, n) for n in dfg.nodes()}
        ),
        "deadline": None if deadline is None else int(deadline),
    }
    return doc


def instance_from_dict(
    doc: Dict[str, Any],
) -> Tuple[DFG, Optional[TimeCostTable], Optional[int]]:
    """Rebuild ``(dfg, table, deadline)`` from :func:`instance_to_dict`."""
    if not isinstance(doc, dict):
        raise GraphError(f"instance document must be an object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != INSTANCE_SCHEMA_VERSION:
        raise GraphError(
            f"unsupported instance schema_version {version!r} "
            f"(this release reads version {INSTANCE_SCHEMA_VERSION})"
        )
    dfg = DFG(name=str(doc.get("name", "dfg")))
    try:
        for entry in doc.get("nodes", []):
            dfg.add_node(str(entry["id"]), op=str(entry.get("op", "op")))
        for edge in doc.get("edges", []):
            u, v, d = edge
            dfg.add_edge(str(u), str(v), int(d))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed instance document: {exc}") from exc
    table: Optional[TimeCostTable] = None
    rows = doc.get("rows")
    if rows:
        try:
            table = TimeCostTable.from_rows(
                {
                    str(node): (
                        [int(t) for t in row["times"]],
                        [float(c) for c in row["costs"]],
                    )
                    for node, row in rows.items()
                }
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TableError(f"malformed instance rows: {exc}") from exc
        table.validate_for(dfg)
        orphans = [n for n in rows if n not in dfg]
        if orphans:
            raise TableError(f"rows for unknown nodes {orphans[:5]!r}")
    deadline = doc.get("deadline")
    return dfg, table, None if deadline is None else int(deadline)


def instance_to_json(
    dfg: DFG,
    table: Optional[TimeCostTable] = None,
    deadline: Optional[int] = None,
    *,
    indent: Optional[int] = None,
) -> str:
    """Serialize an instance to the v1 JSON exchange schema."""
    return json.dumps(
        instance_to_dict(dfg, table, deadline), indent=indent, sort_keys=True
    )


def instance_from_json(
    text: str,
) -> Tuple[DFG, Optional[TimeCostTable], Optional[int]]:
    """Parse the JSON produced by :func:`instance_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid instance JSON: {exc}") from exc
    return instance_from_dict(doc)


# ----------------------------------------------------------------------
# canonical (relabel-invariant) form
# ----------------------------------------------------------------------
_Color = int
_Adj = Dict[Node, List[Tuple[int, Node]]]
_Invariant = Tuple[Any, ...]


def _node_invariants(
    dfg: DFG, table: Optional[TimeCostTable]
) -> Dict[Node, _Invariant]:
    """Label-free local invariant per node: operation plus table row (if any)."""
    out: Dict[Node, _Invariant] = {}
    for node in dfg:
        if table is not None and node in table:
            out[node] = (
                dfg.op(node),
                1,
                tuple(table.times(node).tolist()),
                tuple(table.costs(node).tolist()),
            )
        else:
            out[node] = (dfg.op(node), 0, (), ())
    return out


def _dense(colors: Dict[Node, Any]) -> Dict[Node, _Color]:
    """Re-rank arbitrary orderable color values to dense integers."""
    ranks = {value: i for i, value in enumerate(sorted(set(colors.values())))}
    return {node: ranks[value] for node, value in colors.items()}


def _refine(
    colors: Dict[Node, _Color], out_adj: _Adj, in_adj: _Adj, spent: List[int]
) -> Dict[Node, _Color]:
    """Color refinement to a fixpoint (isomorphism-invariant)."""
    while True:
        spent[0] += len(colors)
        signatures = {
            node: (
                color,
                tuple(sorted((d, colors[v]) for d, v in out_adj[node])),
                tuple(sorted((d, colors[u]) for d, u in in_adj[node])),
            )
            for node, color in colors.items()
        }
        refined = _dense(signatures)
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


def _encode(
    order: Sequence[Node], invariants: Dict[Node, _Invariant], edges: List[Edge]
) -> Tuple[Any, ...]:
    """Label-free encoding of the instance under one node order."""
    index = {node: i for i, node in enumerate(order)}
    nodes = tuple(invariants[node] for node in order)
    return (nodes, tuple(sorted((index[u], index[v], d) for u, v, d in edges)))


class _BudgetExceeded(Exception):
    """Internal: the canonical search ran out of refinement budget."""


def _search(
    colors: Dict[Node, _Color],
    invariants: Dict[Node, _Invariant],
    edges: List[Edge],
    out_adj: _Adj,
    in_adj: _Adj,
    spent: List[int],
) -> Tuple[Tuple[Any, ...], List[Node]]:
    """Minimal encoding (and its order) over all discrete extensions."""
    if spent[0] > _CANONICAL_BUDGET:
        # Internal control flow, caught by canonical_order; never
        # crosses the API boundary, so it stays outside the taxonomy.
        raise _BudgetExceeded  # lint: ignore[RL001]
    cells: Dict[_Color, List[Node]] = {}
    for node, color in colors.items():
        cells.setdefault(color, []).append(node)
    target = min((c for c, members in cells.items() if len(members) > 1), default=None)
    if target is None:
        order = sorted(colors, key=colors.__getitem__)
        return _encode(order, invariants, edges), order
    fresh = len(colors)  # strictly above every dense rank
    best: Optional[Tuple[Tuple[Any, ...], List[Node]]] = None
    for candidate in cells[target]:
        trial = dict(colors)
        trial[candidate] = fresh
        refined = _refine(_dense(trial), out_adj, in_adj, spent)
        result = _search(refined, invariants, edges, out_adj, in_adj, spent)
        if best is None or result[0] < best[0]:
            best = result
    assert best is not None
    return best


def canonical_order(
    dfg: DFG, table: Optional[TimeCostTable] = None
) -> List[Node]:
    """Nodes of ``dfg`` in canonical (relabel-invariant) order.

    Two isomorphic instances — related by any renaming/reordering of
    nodes that preserves ops, edges, delays, and table rows — produce
    orders under which :func:`canonical_instance_json` emits identical
    bytes.  See the module docstring for the pathological-symmetry
    fallback.
    """
    nodes = dfg.nodes()
    if not nodes:
        return []
    edges = dfg.edges()
    out_adj: _Adj = {n: [] for n in nodes}
    in_adj: _Adj = {n: [] for n in nodes}
    for u, v, d in edges:
        out_adj[u].append((d, v))
        in_adj[v].append((d, u))
    spent = [0]
    invariants = _node_invariants(dfg, table)
    colors = _refine(_dense(invariants), out_adj, in_adj, spent)
    try:
        _, order = _search(colors, invariants, edges, out_adj, in_adj, spent)
    except _BudgetExceeded:
        # Deterministic fallback: still collision-free, possibly not
        # relabel-invariant (worst case: a cache miss on a twin).
        order = sorted(dfg.nodes(), key=lambda n: (colors[n], str(n)))
    return order


def canonical_instance_dict(
    dfg: DFG,
    table: Optional[TimeCostTable] = None,
    deadline: Optional[int] = None,
    *,
    order: Optional[Sequence[Node]] = None,
) -> Dict[str, Any]:
    """The canonical (label-free) dict form of an instance.

    Node names are dropped entirely: nodes appear as a list in
    canonical order (position = canonical index), and edges reference
    those indices.  Hash this — via :func:`instance_key` — to address
    results by content.  ``order`` is ``canonical_order(dfg, table)``
    when the caller has already computed it.
    """
    if table is not None:
        table.validate_for(dfg)
    if order is None:
        order = canonical_order(dfg, table)
    index = {node: i for i, node in enumerate(order)}
    nodes = []
    for node in order:
        entry: Dict[str, Any] = {"op": dfg.op(node)}
        if table is not None:
            entry.update(_row_dict(table, node))
        nodes.append(entry)
    return {
        "schema_version": INSTANCE_SCHEMA_VERSION,
        "nodes": nodes,
        "edges": sorted([index[u], index[v], int(d)] for u, v, d in dfg.edges()),
        "deadline": None if deadline is None else int(deadline),
    }


def canonical_instance_json(
    dfg: DFG,
    table: Optional[TimeCostTable] = None,
    deadline: Optional[int] = None,
) -> str:
    """Canonical JSON bytes (compact, key-sorted) of an instance."""
    return json.dumps(
        canonical_instance_dict(dfg, table, deadline),
        sort_keys=True,
        separators=(",", ":"),
    )


def instance_key(
    dfg: DFG,
    table: Optional[TimeCostTable] = None,
    deadline: Optional[int] = None,
) -> str:
    """Content hash (sha256 hex) of the canonical instance form.

    Relabel-invariant: isomorphic instances share a key; any change to
    structure, ops, rows, or deadline changes it.
    """
    payload = canonical_instance_json(dfg, table, deadline)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# plain-text exchange format (pre-JSON)
# ----------------------------------------------------------------------
def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def loads_text(text: str) -> Tuple[DFG, Optional[TimeCostTable]]:
    """Parse the line-oriented exchange format from a string.

    Format::

        # comment
        dfg my_filter
        node m1 mul
        edge m1 a1          # zero-delay dependence
        edge a1 m1 1        # one register on the feedback edge
        row  m1 times 2 3 5 costs 9 5 2

    ``node`` lines are optional for nodes that appear in ``edge`` lines
    (they default to op ``op``); ``row`` lines are optional altogether.
    """
    dfg = DFG()
    rows = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "dfg":
                if len(parts) != 2:
                    raise GraphError("expected: dfg <name>")
                dfg.name = parts[1]
            elif kind == "node":
                if len(parts) not in (2, 3):
                    raise GraphError("expected: node <id> [op]")
                dfg.add_node(parts[1], op=parts[2] if len(parts) == 3 else "op")
            elif kind == "edge":
                if len(parts) not in (3, 4):
                    raise GraphError("expected: edge <src> <dst> [delay]")
                delay = int(parts[3]) if len(parts) == 4 else 0
                dfg.add_edge(parts[1], parts[2], delay)
            elif kind == "row":
                if "times" not in parts or "costs" not in parts:
                    raise TableError("expected: row <id> times ... costs ...")
                node = parts[1]
                ti = parts.index("times")
                ci = parts.index("costs")
                if not (1 < ti < ci):
                    raise TableError("row sections out of order")
                times = [int(x) for x in parts[ti + 1 : ci]]
                costs = [float(x) for x in parts[ci + 1 :]]
                if len(times) != len(costs) or not times:
                    raise TableError(
                        f"row needs equal non-empty times/costs, got "
                        f"{len(times)}/{len(costs)}"
                    )
                rows[node] = (times, costs)
            else:
                raise GraphError(f"unknown directive {kind!r}")
        except (GraphError, TableError, ValueError) as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc

    table: Optional[TimeCostTable] = None
    if rows:
        widths = {len(t) for t, _ in rows.values()}
        if len(widths) != 1:
            raise GraphError(f"rows disagree on FU type count: {sorted(widths)}")
        table = TimeCostTable.from_rows(rows)
        missing = [n for n in dfg.nodes() if n not in table]
        if missing:
            raise GraphError(f"table rows missing for nodes {missing[:5]!r}")
        orphans = [n for n in rows if n not in dfg]
        if orphans:
            raise GraphError(f"rows for unknown nodes {orphans[:5]!r}")
    return dfg, table


def dumps_text(dfg: DFG, table: Optional[TimeCostTable] = None) -> str:
    """Serialize a DFG (and optional table) to the text exchange format."""
    lines: List[str] = [f"dfg {dfg.name}"]
    for n in dfg.nodes():
        lines.append(f"node {n} {dfg.op(n)}")
    for u, v, d in dfg.edges():
        lines.append(f"edge {u} {v}" + (f" {d}" if d else ""))
    if table is not None:
        table.validate_for(dfg)
        for n in dfg.nodes():
            times = " ".join(str(int(t)) for t in table.times(n))
            costs = " ".join(f"{c:g}" for c in table.costs(n))
            lines.append(f"row {n} times {times} costs {costs}")
    return "\n".join(lines) + "\n"


def load(path: str) -> Tuple[DFG, Optional[TimeCostTable], Optional[int]]:
    """Read an instance file, auto-detecting JSON vs. the text format.

    A leading ``{`` (or a ``.json`` suffix) selects the JSON schema;
    anything else parses as the line-oriented text format (which
    carries no deadline — the third element is then ``None``).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip()[:1] == "{":
        return instance_from_json(text)
    dfg, table = loads_text(text)
    return dfg, table, None


def dump(
    path: str,
    dfg: DFG,
    table: Optional[TimeCostTable] = None,
    deadline: Optional[int] = None,
) -> None:
    """Write an instance file; a ``.json`` suffix selects the JSON schema."""
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".json"):
            fh.write(instance_to_json(dfg, table, deadline, indent=2) + "\n")
        else:
            fh.write(dumps_text(dfg, table))
