"""The stdlib HTTP/JSON front: endpoints, errors, cache behaviour.

Each test drives a real socket server bound to an ephemeral port,
serving from a background thread via ``handle_request`` — the same
single-threaded coordinator the long-running CLI mode uses.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.io import instance_to_dict
from repro.serve import SynthesisService, make_server
from repro.serve import http as http_module

from ..conftest import make_table


@pytest.fixture
def server():
    srv = make_server("127.0.0.1", 0, SynthesisService())
    try:
        yield srv
    finally:
        srv.server_close()


def _call(server, method, path, doc=None):
    """One HTTP round-trip against ``server`` (handled in a thread)."""
    host, port = server.server_address[:2]
    worker = threading.Thread(target=server.handle_request)
    worker.start()
    body = None if doc is None else json.dumps(doc).encode("utf-8")
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            status, payload = reply.status, json.load(reply)
    except urllib.error.HTTPError as exc:
        status, payload = exc.code, json.load(exc)
    worker.join(timeout=30)
    return status, payload


def _batch_doc(dfg, table, deadline):
    return {
        "requests": [
            {"instance": instance_to_dict(dfg, table), "deadline": deadline}
        ]
    }


class TestEndpoints:
    def test_health(self, server):
        status, doc = _call(server, "GET", "/v1/health")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["schema_version"] == 1
        assert doc["cache_entries"] == 0

    def test_batch_then_metrics_and_cache(self, server, chain3, chain3_table):
        payload = _batch_doc(chain3, chain3_table, 12)

        status, cold = _call(server, "POST", "/v1/batch", payload)
        assert status == 200
        assert cold["batch"] == {"requests": 1, "cached": 0, "failed": 0}
        (response,) = cold["responses"]
        assert response["result"]["schema_version"] == 1
        assert set(response["result"]["assignment"]) == {"a", "b", "c"}

        status, warm = _call(server, "POST", "/v1/batch", payload)
        assert status == 200
        assert warm["batch"]["cached"] == 1
        assert warm["responses"][0]["result"] == response["result"]

        status, metrics = _call(server, "GET", "/v1/metrics")
        assert status == 200
        assert metrics["counters"]["serve.solves"] == 1.0
        assert metrics["counters"]["serve.cache.hits"] >= 1.0

        status, health = _call(server, "GET", "/v1/health")
        assert health["cache_entries"] == 1

    def test_benchmark_form(self, server):
        status, doc = _call(
            server,
            "POST",
            "/v1/batch",
            {"requests": [{"benchmark": "diffeq", "deadline": 12}]},
        )
        assert status == 200
        assert doc["responses"][0]["error"] is None


class TestErrors:
    def test_unknown_path_404(self, server):
        status, doc = _call(server, "GET", "/v1/nope")
        assert status == 404 and "unknown path" in doc["error"]

    def test_invalid_json_400(self, server):
        host, port = server.server_address[:2]
        worker = threading.Thread(target=server.handle_request)
        worker.start()
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/batch", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        worker.join(timeout=30)
        assert excinfo.value.code == 400

    def test_malformed_batch_400(self, server):
        status, doc = _call(server, "POST", "/v1/batch", {"requests": []})
        assert status == 400 and "no requests" in doc["error"]

    def test_infeasible_request_is_not_an_http_error(
        self, server, chain3, chain3_table
    ):
        status, doc = _call(
            server, "POST", "/v1/batch", _batch_doc(chain3, chain3_table, 1)
        )
        assert status == 200
        assert doc["batch"]["failed"] == 1
        assert doc["responses"][0]["error"]["type"] == "InfeasibleError"


class TestWideDag:
    def test_labels_translate_through_http(self, server, wide_dag):
        table = make_table(wide_dag, seed=2)
        status, doc = _call(
            server, "POST", "/v1/batch", _batch_doc(wide_dag, table, 16)
        )
        assert status == 200
        (response,) = doc["responses"]
        assert set(response["result"]["schedule"]) == {
            str(n) for n in wide_dag.nodes()
        }


class TestFaults:
    def test_solver_exception_is_a_500_and_server_keeps_serving(
        self, server, chain3, chain3_table, monkeypatch
    ):
        payload = _batch_doc(chain3, chain3_table, 12)
        service = server.service

        def boom(requests):
            # an unexpected fault, outside the ReproError taxonomy
            raise RuntimeError("solver blew up")  # lint: ignore[RL001]

        monkeypatch.setattr(service, "solve_batch", boom)
        status, doc = _call(server, "POST", "/v1/batch", payload)
        assert status == 500
        assert doc == {"error": "internal error: RuntimeError: solver blew up"}

        monkeypatch.undo()
        status, doc = _call(server, "POST", "/v1/batch", payload)
        assert status == 200
        assert doc["batch"] == {"requests": 1, "cached": 0, "failed": 0}

    def test_malformed_inline_instance_is_a_400(self, server):
        doc = {"requests": [{"instance": {"schema_version": 99}, "deadline": 3}]}
        status, reply = _call(server, "POST", "/v1/batch", doc)
        assert status == 400 and "schema_version" in reply["error"]


class _CountingWriter:
    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def flush(self):
        self._inner.flush()


class TestTransport:
    @pytest.fixture
    def observed(self, monkeypatch):
        """Per accepted connection: its TCP_NODELAY flag and its writes."""
        seen = {"nodelay": [], "writes": []}
        setup = http_module._Handler.setup

        def observing_setup(handler):
            setup(handler)
            flag = handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            seen["nodelay"].append(flag)
            handler.wfile = _CountingWriter(handler.wfile, seen["writes"])

        monkeypatch.setattr(http_module._Handler, "setup", observing_setup)
        return seen

    def test_accepted_socket_has_nodelay(self, server, observed):
        _call(server, "GET", "/v1/health")
        assert len(observed["nodelay"]) == 1
        assert observed["nodelay"][0] != 0

    def test_reply_is_one_write(self, server, observed, chain3, chain3_table):
        status, doc = _call(
            server, "POST", "/v1/batch", _batch_doc(chain3, chain3_table, 12)
        )
        assert status == 200
        (write,) = observed["writes"]
        head, body = write.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body) == doc
        assert b", " not in body and b": " not in body  # compact separators
