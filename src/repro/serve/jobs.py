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
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..assign import AssignResult, tree_assign_sweep
from ..assign.dfg_assign import _emit_dp_metrics
from ..engine import Budget, DPStats, pmap
from ..errors import CyclicDependencyError, ReproError, ServeError
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG, Node
from ..io import canonical_instance_dict, canonical_order
from ..obs import Tracer, add_metric, current_tracer, use_tracer
from ..synthesis import RESULT_SCHEMA_VERSION, auto_algorithm, synthesize

__all__ = [
    "Request",
    "Response",
    "PreparedJob",
    "CanonicalMemo",
    "SOLVER_VERSION",
    "prepare",
    "solve_canonical_job",
    "solve_canonical_batch",
    "relabel_payload",
]


#: Version of the answers the solver serves.  Bump it with any change
#: that can alter a served result for some request (a solver fix, a new
#: tie-break, a changed default): it is hashed into every cache key, so
#: a persisted cache tier stops serving answers from an older solver.
SOLVER_VERSION = 1


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
    #: sha256 over the canonical instance JSON + solver knobs + versions.
    key: str = ""
    #: JSON payload handed to :func:`solve_canonical_job` on a miss.
    job_json: str = ""


#: One batch's canonical forms: ``(id(dfg), id(table))`` -> the pair
#: (kept alive, so the ids stay unique), its canonical order, and its
#: canonical instance dict without a deadline.
CanonicalMemo = Dict[
    Tuple[int, int], Tuple[DFG, TimeCostTable, List[Node], Dict[str, Any]]
]


def prepare(
    request: Request,
    *,
    default_evaluations: int,
    memo: Optional[CanonicalMemo] = None,
) -> PreparedJob:
    """Canonicalize one request and derive its cache key.

    The key hashes the canonical instance, the solver knobs, and the
    result-schema and solver versions (:data:`SOLVER_VERSION`).  The
    effective budget is resolved *before* keying, so "no budget
    given" and "the default budget given explicitly" address the same
    cache entry.  ``memo`` (one batch's, see :data:`CanonicalMemo`)
    canonicalizes each distinct ``(dfg, table)`` object pair once: the
    requests of a deadline sweep share their loader-built objects and
    differ in the deadline only.
    """
    evaluations = request.budget_evaluations
    wall_s = request.budget_wall_s
    if evaluations is None and wall_s is None:
        evaluations = default_evaluations
    knobs = dict(request.knobs())
    knobs["budget_evaluations"] = evaluations
    knobs["budget_wall_s"] = wall_s
    pair = (id(request.dfg), id(request.table))
    known = memo.get(pair) if memo is not None else None
    if known is None:
        order = canonical_order(request.dfg, request.table)
        base = canonical_instance_dict(request.dfg, request.table, order=order)
        known = (request.dfg, request.table, order, base)
        if memo is not None:
            memo[pair] = known
    order, base = known[2], known[3]
    instance = dict(base)
    instance["deadline"] = (
        None if request.deadline is None else int(request.deadline)
    )
    version = {
        "result_schema": RESULT_SCHEMA_VERSION,
        "solver": SOLVER_VERSION,
    }
    job = {"instance": instance, "knobs": knobs, "version": version}
    job_json = json.dumps(job, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(job_json.encode("utf-8")).hexdigest()
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


def _error_payload(exc: BaseException) -> Dict[str, Any]:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _result_payload(result: Any) -> Dict[str, Any]:
    doc = result.to_dict()
    doc["timings"] = {}
    return {"result": doc}


def _crash_payload(exc: Exception) -> Dict[str, Any]:
    """The entry of a job whose solve raised unexpectedly.

    A crash says nothing about the job, so the entry is ``transient``:
    the service answers the request with it but does not cache it, and
    a retry solves again.  The traceback goes to standard error.
    """
    sys.stderr.write(f"serve job failed\n{traceback.format_exc()}")
    payload = _error_payload(exc)
    payload["transient"] = True
    return payload


def _finish(tracer: Tracer, payload: Dict[str, Any]) -> str:
    """Attach the job tracer's counters and serialize the payload."""
    payload["counters"] = {
        name: counter.value
        for name, counter in sorted(tracer.metrics.counters.items())
    }
    return json.dumps(payload, sort_keys=True)


def solve_canonical_job(job_json: str) -> str:
    """pmap payload: solve one canonical job, return a JSON payload.

    The returned payload is ``{"result": ..., "counters": ...}`` on
    success or ``{"error": {"type", "message"}, "counters": ...}`` when
    the solve fails for an instance-determined reason (infeasible
    deadline, malformed knobs — :class:`~repro.errors.ReproError`
    family).  Both outcomes are deterministic functions of the job, so
    both are cacheable.  Any other exception is a crash: its error
    entry carries ``"transient": true`` (see :func:`_crash_payload`).
    The result's ``timings`` are cleared: wall times are not content,
    and stripping them keeps responses identical across worker counts
    and cache states.
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
        payload = _result_payload(result)
    except ReproError as exc:
        payload = _error_payload(exc)
    except Exception as exc:
        payload = _crash_payload(exc)
    return _finish(tracer, payload)


def _phase2(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    knobs: Dict[str, Any],
    outcome: Union[AssignResult, ReproError],
    stats: Optional[DPStats] = None,
) -> str:
    """The payload of a job whose phase 1 was solved in bulk.

    Phase 2 runs per job through ``synthesize(assign_result=...)``
    under a private tracer; ``stats`` are the job's lane counters,
    published as ``dp.*`` the way a scalar solve publishes them (a
    failed phase 1 publishes none, like a scalar solve that raised).
    """
    tracer = Tracer()
    if isinstance(outcome, ReproError):
        return _finish(tracer, _error_payload(outcome))
    payload: Dict[str, Any]
    try:
        with use_tracer(tracer):
            if stats is not None:
                _emit_dp_metrics({}, stats)
            result = synthesize(
                dfg,
                table,
                deadline,
                scheduler=knobs.get("scheduler", "min_resource"),
                assign_result=outcome,
            )
        payload = _result_payload(result)
    except ReproError as exc:
        payload = _error_payload(exc)
    except Exception as exc:
        payload = _crash_payload(exc)
    return _finish(tracer, payload)


def _table_from_canonical(doc: Dict[str, Any]) -> TimeCostTable:
    """Just the table of a canonical instance (canonical-index keys)."""
    return TimeCostTable.from_rows(
        {
            str(i): (entry["times"], entry["costs"])
            for i, entry in enumerate(doc["nodes"])
        }
    )


def _structure_key(instance: Dict[str, Any]) -> Tuple[Any, ...]:
    """Everything about an instance except times/costs/deadline.

    Jobs sharing this key describe the same labeled graph, so they can
    share one :class:`~repro.graph.dfg.DFG` object — which is how
    :func:`repro.assign.dfg_assign_repeat_batch` recognizes lanes of a
    common structure and stacks them into one engine group.
    """
    return (
        tuple(entry["op"] for entry in instance["nodes"]),
        tuple(tuple(edge) for edge in instance["edges"]),
    )


def _rows_key(instance: Dict[str, Any]) -> Tuple[Any, ...]:
    """The table part of an instance (times and costs, node by node)."""
    return tuple(
        (tuple(entry["times"]), tuple(entry["costs"]))
        for entry in instance["nodes"]
    )


def solve_canonical_batch(
    job_jsons: Sequence[str], *, workers: int = 0, arena: bool = True
) -> List[str]:
    """Solve many canonical jobs, sharing phase 1 across them.

    Each distinct graph structure gets one DAG and one
    :func:`~repro.synthesis.auto_algorithm` verdict.  Two kinds of jobs
    share their phase 1:

    * jobs whose phase 1 resolves to `DFG_Assign_Repeat` (the
      general-DAG default) are grouped by structure and solved in
      **one** :func:`repro.assign.dfg_assign_repeat_batch` call,
      optionally fanned out over ``workers`` processes with the
      shared-memory table arena;
    * jobs whose phase 1 is `Tree_Assign` (trees and forests) are
      grouped by structure and table, and each group is answered by
      one :func:`repro.assign.tree_assign_sweep`: one Fig. 7 pass at
      the group's largest deadline, one traceback per deadline.

    Phase 2 (lower bound + schedule) then runs per job via
    ``synthesize(assign_result=...)``.  Every returned payload's
    ``result``/``error`` parts are byte-identical to
    :func:`solve_canonical_job` on the same job — phase-1 outcomes are
    bit-identical lane by lane, including the ``dp.*`` integer counters
    — so cache entries are interchangeable between the two paths.  The
    remaining jobs (paths, other algorithms, the portfolio strategy,
    cyclic zero-delay parts) run :func:`solve_canonical_job` each,
    sharded over ``workers`` processes by :func:`repro.engine.pmap`.
    An unexpected exception becomes the error entry of the jobs it hit
    (all lanes of a shared phase 1), marked ``transient``.
    """
    from ..assign.batch import BatchJob, dfg_assign_repeat_batch

    docs = [json.loads(text) for text in job_jsons]
    #: structure key -> (dfg, dag, auto algorithm), or None when the
    #: zero-delay part is cyclic (the scalar path reproduces the error).
    structures: Dict[Tuple[Any, ...], Optional[Tuple[DFG, DFG, str]]] = {}
    #: (structure key, rows key) -> the one table of those jobs.
    tables: Dict[Tuple[Any, ...], TimeCostTable] = {}
    repeat_items: List[int] = []
    sweeps: Dict[Tuple[Any, ...], List[int]] = {}
    shared: Dict[int, Tuple[DFG, DFG, TimeCostTable]] = {}
    for idx, doc in enumerate(docs):
        knobs = doc["knobs"]
        algorithm = knobs.get("algorithm")
        if algorithm not in (None, "repeat", "tree"):
            continue
        if knobs.get("strategy", "paper") != "paper":
            continue
        key = _structure_key(doc["instance"])
        if key not in structures:
            dfg, _, _ = _instance_from_canonical(doc["instance"])
            try:
                dag = dfg.dag()
            except CyclicDependencyError:
                structures[key] = None
            else:
                structures[key] = (dfg, dag, auto_algorithm(dag))
        entry = structures[key]
        if entry is None:
            continue
        dfg, dag, auto = entry
        name = algorithm or auto
        if name != "repeat" and not (name == "tree" and auto != "repeat"):
            continue
        pair = (key, _rows_key(doc["instance"]))
        if pair not in tables:
            tables[pair] = _table_from_canonical(doc["instance"])
        shared[idx] = (dfg, dag, tables[pair])
        if name == "repeat":
            repeat_items.append(idx)
        else:
            sweeps.setdefault(pair, []).append(idx)

    def deadline_of(idx: int) -> int:
        return int(docs[idx]["instance"]["deadline"])

    out: List[Optional[str]] = [None] * len(docs)
    if repeat_items:
        add_metric("serve.batched", float(len(repeat_items)))
        try:
            outcomes = dfg_assign_repeat_batch(
                [
                    BatchJob(shared[i][1], shared[i][2], deadline_of(i))
                    for i in repeat_items
                ],
                workers=workers,
                arena=arena,
            )
        except Exception as exc:
            crash = _finish(Tracer(), _crash_payload(exc))
            for idx in repeat_items:
                out[idx] = crash
        else:
            for idx, outcome in zip(repeat_items, outcomes):
                dfg, _, table = shared[idx]
                phase1 = outcome.error or outcome.result
                assert phase1 is not None  # exactly one of the two is set
                out[idx] = _phase2(
                    dfg,
                    table,
                    deadline_of(idx),
                    docs[idx]["knobs"],
                    phase1,
                    outcome.stats,
                )
    tracer = current_tracer()
    for group in sweeps.values():
        dfg, dag, table = shared[group[0]]
        deadlines = [deadline_of(idx) for idx in group]
        try:
            with tracer.span("assign", algorithm="tree", jobs=len(group)):
                results = tree_assign_sweep(dag, table, deadlines)
        except Exception as exc:
            crash = _finish(Tracer(), _crash_payload(exc))
            for idx in group:
                out[idx] = crash
            continue
        for idx, deadline, outcome in zip(group, deadlines, results):
            out[idx] = _phase2(dfg, table, deadline, docs[idx]["knobs"], outcome)
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
