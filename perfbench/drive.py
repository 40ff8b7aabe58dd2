"""Closed-loop load for the three workloads, and the checks of their answers.

Each workload has one caller that sends its next operation only after
the previous one completed.  ``synth`` calls the library facade directly;
the serve workloads talk to the real HTTP front (``make_server`` on an
ephemeral port, served from a thread of this process) over one
keep-alive connection, with the service at the CLI defaults
(``workers=0``, memory cache).  Only the operation itself is timed:
input generation and answer checks run outside the timer.  Each
finished operation goes to a ``settle`` callback, which checks it at
once or keeps it to be checked after the measurement.  The serve
workloads always keep theirs: a check between two POSTs would idle the
connection, and an idle TCP connection acknowledges at once instead of
delaying its ACK, which would change the transport being measured.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import threading
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG
from repro.io import canonical_instance_dict, canonical_order
from repro.serve import SynthesisService
from repro.serve.http import make_server
from repro.synthesis import synthesize

import corpus

#: At least this many timed operations per run, so that the 90th
#: percentile has ten samples beyond it.
MIN_OPS = 100
#: A measurement stops after this much wall time even below ``MIN_OPS``.
MAX_MEASURE_S = 60.0


@dataclass
class Op:
    """One finished operation and what its check needs."""

    latency: float
    items: int
    payload: Any
    answer: Any


@dataclass
class Run:
    """The latencies of one measurement's timed operations."""

    latencies: List[float] = field(default_factory=list)
    tags: List[str] = field(default_factory=list)
    items: int = 0
    busy: float = 0.0

    def add(self, op: Op, tag: str = "") -> None:
        self.latencies.append(op.latency)
        self.tags.append(tag)
        self.items += op.items
        self.busy += op.latency

    @property
    def items_per_s(self) -> float:
        """Items per second the caller spent waiting on the program."""
        return self.items / self.busy


Settle = Callable[[Op], None]


def _keep_going(run: Run, seconds: float, min_ops: int, wall0: float) -> bool:
    """Whether to start another window.

    A window is one pass over a workload's visiting unit (every corpus
    item, or one round of cold graphs), so every run measures whole
    passes of the same mix of work.
    """
    if perf_counter() - wall0 > MAX_MEASURE_S:
        return False
    return run.busy < seconds or len(run.latencies) < min_ops


def _null_span(tag: str) -> ContextManager[object]:
    return contextlib.nullcontext()


# ----------------------------------------------------------------------
# synth: one caller looping synthesize() over the registry corpus
# ----------------------------------------------------------------------


class Synth:
    """``synthesize`` over every registry graph, whole passes only."""

    serve = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"synth-order/{seed}")
        self.items: List[corpus.SynthItem] = []
        self.expected: Dict[str, float] = {}

    def setup(self) -> None:
        self.items = corpus.synth_corpus(self.seed)
        self.expected = corpus.load_expected_costs()
        seen = set()
        for item in self.items:  # warm-up: one call per graph
            if item.graph not in seen:
                seen.add(item.graph)
                synthesize(item.dag, item.table, item.deadline)

    def measure(self, seconds: float, min_ops: int, settle: Settle) -> Run:
        run = Run()
        wall0 = perf_counter()
        while _keep_going(run, seconds, min_ops, wall0):
            order = list(self.items)
            self.rng.shuffle(order)
            for item in order:  # a pass visits every item once
                t0 = perf_counter()
                try:
                    answer: Any = synthesize(item.dag, item.table, item.deadline)
                except Exception as exc:  # counted as a failed operation
                    answer = exc
                op = Op(perf_counter() - t0, 1, item, answer)
                run.add(op, item.graph)
                settle(op)
        return run

    def check(self, op: Op) -> Optional[str]:
        item: corpus.SynthItem = op.payload
        result = op.answer
        if isinstance(result, Exception):
            return f"{item.key}: {result!r}"
        try:
            result.verify(item.dag, item.table)
        except ReproError as exc:
            return f"{item.key}: verify failed: {exc}"
        want = self.expected.get(item.key)
        if want is None or abs(result.cost - want) > 1e-9:
            return f"{item.key}: cost {result.cost} != expected {want}"
        return None

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve_cold / serve_warm: POST /v1/batch over one keep-alive connection
# ----------------------------------------------------------------------


class Harness:
    """The real HTTP front in a thread, and one keep-alive client."""

    def __init__(self) -> None:
        self.service = SynthesisService()  # the CLI defaults
        self.server = make_server(port=0, service=self.service)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-serve", daemon=True
        )
        self.thread.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def post(self, body: bytes) -> Tuple[int, bytes]:
        self.conn.request(
            "POST", "/v1/batch", body, {"Content-Type": "application/json"}
        )
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def reconnect(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def close(self) -> None:
        # The single-threaded server sits in the keep-alive handler until
        # the client hangs up, so close the connection before shutdown.
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        if self.thread.is_alive():
            raise RuntimeError("serve thread did not stop")


def _canonical_instance(doc: Dict[str, Any]) -> Tuple[DFG, TimeCostTable]:
    """The instance the service solves: nodes named by canonical index."""
    dag = DFG(name="canonical")
    rows = {}
    for i, entry in enumerate(doc["nodes"]):
        dag.add_node(str(i), op=entry["op"])
        rows[str(i)] = (entry["times"], entry["costs"])
    for u, v, d in doc["edges"]:
        dag.add_edge(str(u), str(v), int(d))
    return dag, TimeCostTable.from_rows(rows)


class Serve:
    """``serve_cold`` (every request a miss) or ``serve_warm`` (every one a hit)."""

    serve = True

    def __init__(self, seed: int, cold: bool):
        self.seed = seed
        self.cold = cold
        self.harness: Optional[Harness] = None
        self.solved: List[corpus.ServeRequest] = []
        self.next_index = 0
        #: POSTs per window: a round of cold graphs, a pass over the corpus.
        self.window = len(corpus.COLD_GRAPHS)
        self._library: Dict[str, Dict[str, Any]] = {}

    def _requests(self, index: int) -> List[corpus.ServeRequest]:
        if self.cold:
            return corpus.cold_post(self.seed, index)
        return corpus.warm_post(self.seed, index, self.solved)

    def _setup_post(self, requests: List[corpus.ServeRequest]) -> None:
        assert self.harness is not None
        status, raw = self.harness.post(corpus.post_body(requests))
        if status != 200:
            raise RuntimeError(f"set-up POST failed with HTTP {status}: {raw[:200]!r}")

    def setup(self) -> None:
        self.harness = Harness()
        if self.cold:
            for index in range(-len(corpus.COLD_GRAPHS), 0):  # warm-up
                self._setup_post(self._requests(index))
        else:
            self.solved = corpus.warm_corpus(self.seed)
            self.window = len(self.solved) // corpus.WARM_BATCH
            for requests in corpus.warm_fill_posts(self.solved):  # cache fill
                self._setup_post(requests)
            self._setup_post(self._requests(-1))  # warm-up

    def measure(
        self,
        seconds: float,
        min_ops: int,
        settle: Settle,
        span: Callable[[str], ContextManager[object]] = _null_span,
    ) -> Run:
        assert self.harness is not None
        run = Run()
        wall0 = perf_counter()
        while _keep_going(run, seconds, min_ops, wall0):
            for _ in range(self.window):
                requests = self._requests(self.next_index)
                body = corpus.post_body(requests)
                with span(f"op{self.next_index}"):
                    t0 = perf_counter()
                    try:
                        answer: Any = self.harness.post(body)
                    except (OSError, http.client.HTTPException) as exc:
                        answer = exc
                    latency = perf_counter() - t0
                if isinstance(answer, Exception):
                    self.harness.reconnect()
                # Inputs are a pure function of the index: the check rebuilds them.
                op = Op(latency, len(requests), self.next_index, answer)
                run.add(op)
                settle(op)
                self.next_index += 1
        return run

    def library_answer(self, request: corpus.ServeRequest) -> Dict[str, Any]:
        """``synthesize(...).to_dict()`` of what the service solves, in caller labels.

        The service solves each request's canonical relabeling and
        translates the answer back through the instance's canonical
        order.  Ties between equal-cost assignments follow node order,
        so the library facade is run on that same canonical instance.
        """
        doc = canonical_instance_dict(request.dag, request.table, request.deadline)
        key = json.dumps(doc, sort_keys=True)
        answer = self._library.get(key)
        if answer is None:
            dag, table = _canonical_instance(doc)
            try:
                result = synthesize(dag, table, request.deadline).to_dict()
                result["timings"] = {}
                answer = {"result": result, "error": None}
            except ReproError as exc:
                error = {"type": type(exc).__name__, "message": str(exc)}
                answer = {"result": None, "error": error}
            if not self.cold:  # twins of one corpus entry share an answer
                self._library[key] = answer
        if answer["result"] is None:
            return answer
        names = [str(node) for node in canonical_order(request.dag, request.table)]
        result = dict(answer["result"])
        for section in ("assignment", "schedule"):
            result[section] = {
                names[int(i)]: value for i, value in result[section].items()
            }
        return {"result": result, "error": None}

    def _check_response(
        self, request: corpus.ServeRequest, response: Dict[str, Any]
    ) -> Optional[str]:
        want = self.library_answer(request)
        got = {"result": response.get("result"), "error": response.get("error")}
        if got != want:
            return f"{request.label}: response differs from the library answer"
        if response.get("label") != request.label:
            return f"{request.label}: label {response.get('label')!r} not echoed"
        if response.get("cached") is not (not self.cold):
            return f"{request.label}: cached={response.get('cached')!r}"
        error_type = (response.get("error") or {}).get("type")
        if request.infeasible != (error_type == "InfeasibleError"):
            return f"{request.label}: error {error_type!r} for infeasible={request.infeasible}"
        result = response["result"]
        if result is None:
            return None
        # Independent of canonicalization: the answer, read in the
        # caller's own labels, must cost what it claims and meet the deadline.
        assignment = result["assignment"]
        if set(assignment) != {str(n) for n in request.dag.nodes()}:
            return f"{request.label}: assignment does not cover the graph"
        cost = sum(request.table.cost(n, assignment[str(n)]) for n in request.dag.nodes())
        if abs(cost - result["cost"]) > 1e-9:
            return f"{request.label}: cost {result['cost']} but assignment costs {cost}"
        if result["completion_time"] > request.deadline:
            return f"{request.label}: misses its deadline"
        return None

    def check(self, op: Op) -> Optional[str]:
        requests = self._requests(op.payload)
        if isinstance(op.answer, Exception):
            return f"POST raised {op.answer!r}"
        status, raw = op.answer
        if status != 200:
            return f"HTTP {status}: {raw[:200]!r}"
        try:
            responses = json.loads(raw)["responses"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed reply: {exc!r}"
        if len(responses) != len(requests):
            return f"{len(responses)} responses for {len(requests)} requests"
        for request, response in zip(requests, responses):
            problem = self._check_response(request, response)
            if problem is not None:
                return problem
        return None

    def close(self) -> None:
        if self.harness is not None:
            self.harness.close()
            self.harness = None


def make(workload: str, seed: int):
    if workload == "synth":
        return Synth(seed)
    if workload in ("serve_cold", "serve_warm"):
        return Serve(seed, cold=workload == "serve_cold")
    raise ValueError(f"unknown workload {workload!r}")


class Checker:
    """Counts operations and failed ones; a wrong answer or an exception fails."""

    def __init__(self, workload: Any, log: Callable[[str], None]):
        self.workload = workload
        self.log = log
        self.attempted = 0
        self.failed = 0

    def __call__(self, op: Op) -> None:
        self.attempted += 1
        try:
            problem = self.workload.check(op)
        except Exception:  # a check that crashes is a failed operation
            problem = traceback.format_exc(limit=3)
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                self.log(f"failed: {problem}")
