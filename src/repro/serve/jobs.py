"""Serve-layer job model: requests, canonical jobs, worker payload.

A :class:`Request` is one (DFG, table, deadline) synthesis instance
plus solver knobs.  The service reduces each request to a **canonical
job**: the relabel-invariant canonical instance form from
:mod:`repro.io` combined with the knobs, hashed into the request's
cache key.  Workers never see caller node names — they solve the
canonical instance (nodes named by canonical index), so two isomorphic
requests produce byte-identical job payloads, share one cache entry,
and receive structurally identical answers translated back through
each request's own node order.

:func:`solve_canonical_job` is the :func:`repro.engine.pmap` payload:
a module-level function over JSON strings (spawn-safe, no shared
state — lintkit rules RL007/RL008 verify this statically).  It runs
the solve under a private tracer and returns the canonical result
together with the counters it collected, so the coordinating service
can merge ``dp.*``/``engine.*`` telemetry regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..engine import Budget, pmap
from ..errors import CyclicDependencyError, ReproError, ServeError
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG, Node
from ..io import canonical_instance_dict, canonical_order
from ..obs import Tracer, add_metric, use_tracer
from ..synthesis import RESULT_SCHEMA_VERSION, auto_algorithm, synthesize

__all__ = [
    "Request",
    "Response",
    "PreparedJob",
    "prepare",
    "solve_canonical_job",
    "solve_canonical_batch",
    "relabel_payload",
]


@dataclass(frozen=True)
class Request:
    """One synthesis request: an instance plus solver knobs.

    ``budget_evaluations``/``budget_wall_s`` cap the anytime search
    when the portfolio runs (see :func:`repro.synthesize`); the service
    fills in its default evaluation budget when both are ``None``, so
    every request is solved under an explicit, deterministic
    :class:`~repro.engine.Budget`.  ``label`` is an opaque caller tag
    echoed on the response (it does not affect the cache key).
    """

    dfg: DFG
    table: TimeCostTable
    deadline: int
    algorithm: Optional[str] = None
    scheduler: str = "min_resource"
    strategy: str = "paper"
    budget_evaluations: Optional[int] = None
    budget_wall_s: Optional[float] = None
    label: str = ""

    def knobs(self) -> Dict[str, Any]:
        """The solver knobs that are part of the cache-key preimage."""
        return {
            "algorithm": self.algorithm,
            "scheduler": self.scheduler,
            "strategy": self.strategy,
            "budget_evaluations": self.budget_evaluations,
            "budget_wall_s": self.budget_wall_s,
        }


@dataclass(frozen=True)
class Response:
    """Outcome for one request, in the caller's node labels.

    Exactly one of ``result``/``error`` is set.  ``result`` is the
    :meth:`repro.SynthesisResult.to_dict` shape (schema
    ``RESULT_SCHEMA_VERSION``) with node keys translated back from
    canonical indices; its ``timings`` are empty by design — cache
    entries are content-pure, so responses are identical whether
    served cold, warm, serial, or parallel.  Request-level timing
    lives in the service tracer's ``serve.*`` spans instead.
    """

    key: str
    cached: bool
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    label: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "cached": self.cached,
            "ok": self.ok,
            "label": self.label,
            "result": self.result,
            "error": self.error,
        }


@dataclass(frozen=True)
class PreparedJob:
    """A request reduced to its canonical, cache-addressable form."""

    request: Request
    #: Caller nodes in canonical order: ``order[i]`` is the caller's
    #: name for canonical index ``i``.
    order: List[Node] = field(hash=False)
    #: sha256 over the canonical instance JSON + solver knobs.
    key: str = ""
    #: JSON payload handed to :func:`solve_canonical_job` on a miss.
    job_json: str = ""


def prepare(request: Request, *, default_evaluations: int) -> PreparedJob:
    """Canonicalize one request and derive its cache key.

    The effective budget is resolved *before* keying, so "no budget
    given" and "the default budget given explicitly" address the same
    cache entry.
    """
    evaluations = request.budget_evaluations
    wall_s = request.budget_wall_s
    if evaluations is None and wall_s is None:
        evaluations = default_evaluations
    knobs = dict(request.knobs())
    knobs["budget_evaluations"] = evaluations
    knobs["budget_wall_s"] = wall_s
    instance = canonical_instance_dict(
        request.dfg, request.table, request.deadline
    )
    job = {"instance": instance, "knobs": knobs}
    job_json = json.dumps(job, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(job_json.encode("utf-8")).hexdigest()
    order = canonical_order(request.dfg, request.table)
    return PreparedJob(request=request, order=order, key=key, job_json=job_json)


def _instance_from_canonical(doc: Dict[str, Any]) -> tuple:
    """Rebuild (dfg, table, deadline) with canonical-index node names."""
    dfg = DFG(name="canonical")
    rows: Dict[Node, tuple] = {}
    for i, entry in enumerate(doc["nodes"]):
        name = str(i)
        dfg.add_node(name, op=entry["op"])
        rows[name] = (entry["times"], entry["costs"])
    for u, v, d in doc["edges"]:
        dfg.add_edge(str(u), str(v), int(d))
    table = TimeCostTable.from_rows(rows)
    return dfg, table, int(doc["deadline"])


def solve_canonical_job(job_json: str) -> str:
    """pmap payload: solve one canonical job, return a JSON payload.

    The returned payload is ``{"result": ..., "counters": ...}`` on
    success or ``{"error": {"type", "message"}, "counters": ...}`` when
    the solve fails for an instance-determined reason (infeasible
    deadline, malformed knobs — :class:`~repro.errors.ReproError`
    family).  Both outcomes are deterministic functions of the job, so
    both are cacheable.  Unexpected exceptions propagate and abort the
    batch.  The result's ``timings`` are cleared: wall times are not
    content, and stripping them keeps responses identical across
    worker counts and cache states.
    """
    job = json.loads(job_json)
    dfg, table, deadline = _instance_from_canonical(job["instance"])
    knobs = job["knobs"]
    evaluations = knobs.get("budget_evaluations")
    wall_s = knobs.get("budget_wall_s")
    budget = None
    if evaluations is not None or wall_s is not None:
        budget = Budget(evaluations=evaluations, wall_s=wall_s)
        if wall_s is not None:
            budget.start()
    tracer = Tracer()
    payload: Dict[str, Any]
    try:
        with use_tracer(tracer):
            result = synthesize(
                dfg,
                table,
                deadline,
                algorithm=knobs.get("algorithm"),
                scheduler=knobs.get("scheduler", "min_resource"),
                strategy=knobs.get("strategy", "paper"),
                budget=budget,
            )
        doc = result.to_dict()
        doc["timings"] = {}
        payload = {"result": doc}
    except ReproError as exc:
        payload = {
            "error": {"type": type(exc).__name__, "message": str(exc)}
        }
    payload["counters"] = {
        name: counter.value
        for name, counter in sorted(tracer.metrics.counters.items())
    }
    return json.dumps(payload, sort_keys=True)


def _table_from_canonical(doc: Dict[str, Any]) -> TimeCostTable:
    """Just the table of a canonical instance (canonical-index keys)."""
    return TimeCostTable.from_rows(
        {
            str(i): (entry["times"], entry["costs"])
            for i, entry in enumerate(doc["nodes"])
        }
    )


def _structure_key(instance: Dict[str, Any]) -> str:
    """Everything about an instance except times/costs/deadline.

    Jobs sharing this key describe the same labeled graph, so they can
    share one :class:`~repro.graph.dfg.DFG` object — which is how
    :func:`repro.assign.dfg_assign_repeat_batch` recognizes lanes of a
    common structure and stacks them into one engine group.
    """
    return json.dumps(
        {
            "ops": [entry["op"] for entry in instance["nodes"]],
            "edges": instance["edges"],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def solve_canonical_batch(
    job_jsons: Sequence[str], *, workers: int = 0, arena: bool = True
) -> List[str]:
    """Solve many canonical jobs, batching the phase-1 DP across them.

    Jobs whose phase 1 resolves to `DFG_Assign_Repeat` (the general-DAG
    default) are grouped by graph structure and solved in **one**
    :func:`repro.assign.dfg_assign_repeat_batch` call — a deadline
    sweep or a burst of same-shape requests becomes a single batched
    engine run, optionally fanned out over ``workers`` processes with
    the shared-memory table arena.  Phase 2 (lower bound + schedule)
    then runs per job via ``synthesize(assign_result=...)``.

    Every returned payload's ``result``/``error`` parts are
    byte-identical to :func:`solve_canonical_job` on the same job —
    phase-1 outcomes are bit-identical lane by lane, including the
    ``dp.*`` integer counters — so cache entries are interchangeable
    between the two paths.  Jobs that are not batchable (trees, paths,
    explicit non-default algorithms, portfolio strategy, cyclic zero-
    delay parts) run :func:`solve_canonical_job` each, sharded over
    ``workers`` processes by :func:`repro.engine.pmap`.
    """
    from ..assign.batch import BatchJob, dfg_assign_repeat_batch
    from ..assign.dfg_assign import _emit_dp_metrics

    docs = [json.loads(text) for text in job_jsons]
    #: structure key -> shared (dfg, dag) pair, or None when the
    #: zero-delay part is cyclic (scalar path reproduces the error).
    structures: Dict[str, Optional[tuple]] = {}
    batch_items: List[tuple] = []  # (job index, dfg, table, deadline)
    for idx, doc in enumerate(docs):
        knobs = doc["knobs"]
        if knobs.get("algorithm") not in (None, "repeat"):
            continue
        if knobs.get("strategy", "paper") != "paper":
            continue
        key = _structure_key(doc["instance"])
        if key not in structures:
            dfg, _, _ = _instance_from_canonical(doc["instance"])
            try:
                structures[key] = (dfg, dfg.dag())
            except CyclicDependencyError:
                structures[key] = None
        entry = structures[key]
        if entry is None:
            continue
        dfg, dag = entry
        if knobs.get("algorithm") is None and auto_algorithm(dag) != "repeat":
            continue
        table = _table_from_canonical(doc["instance"])
        batch_items.append(
            (idx, dfg, dag, table, int(doc["instance"]["deadline"]))
        )

    out: List[Optional[str]] = [None] * len(docs)
    if batch_items:
        add_metric("serve.batched", float(len(batch_items)))
        outcomes = dfg_assign_repeat_batch(
            [BatchJob(dag, tbl, dl) for _, _, dag, tbl, dl in batch_items],
            workers=workers,
            arena=arena,
        )
        for (idx, dfg, _, table, deadline), outcome in zip(
            batch_items, outcomes
        ):
            knobs = docs[idx]["knobs"]
            tracer = Tracer()
            payload: Dict[str, Any]
            with use_tracer(tracer):
                if outcome.error is not None:
                    payload = {
                        "error": {
                            "type": type(outcome.error).__name__,
                            "message": str(outcome.error),
                        }
                    }
                else:
                    assert outcome.result is not None
                    _emit_dp_metrics({}, outcome.stats)
                    try:
                        result = synthesize(
                            dfg,
                            table,
                            deadline,
                            scheduler=knobs.get("scheduler", "min_resource"),
                            assign_result=outcome.result,
                        )
                        doc_out = result.to_dict()
                        doc_out["timings"] = {}
                        payload = {"result": doc_out}
                    except ReproError as exc:
                        payload = {
                            "error": {
                                "type": type(exc).__name__,
                                "message": str(exc),
                            }
                        }
            payload["counters"] = {
                name: counter.value
                for name, counter in sorted(tracer.metrics.counters.items())
            }
            out[idx] = json.dumps(payload, sort_keys=True)
    rest = [idx for idx, text in enumerate(out) if text is None]
    if rest:
        solved = pmap(
            solve_canonical_job,
            [job_jsons[idx] for idx in rest],
            workers=workers,
        )
        for idx, text in zip(rest, solved):
            out[idx] = text
    return [text for text in out if text is not None]


def relabel_payload(
    payload: Dict[str, Any], order: Sequence[Node]
) -> Dict[str, Any]:
    """Translate a canonical result payload back to caller labels.

    ``order`` is the request's canonical node order: canonical index
    ``i`` is the caller's node ``order[i]``.  Only the node-keyed
    sections (``assignment``, ``schedule``) need translation; the rest
    is label-free.
    """
    result = payload.get("result")
    if result is None:
        return payload
    if result.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ServeError(
            f"cached result has schema_version "
            f"{result.get('schema_version')!r}; this release reads "
            f"{RESULT_SCHEMA_VERSION} (clear the cache directory)"
        )
    names = [str(node) for node in order]
    translated = dict(result)
    translated["assignment"] = {
        names[int(idx)]: fu_type
        for idx, fu_type in result["assignment"].items()
    }
    translated["schedule"] = {
        names[int(idx)]: op for idx, op in result["schedule"].items()
    }
    out = dict(payload)
    out["result"] = translated
    return out
