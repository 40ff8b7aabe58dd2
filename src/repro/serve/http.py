"""Minimal stdlib HTTP/JSON front for the synthesis service.

Endpoints (all JSON):

* ``GET /v1/health`` — liveness probe: service configuration and
  cache size.
* ``POST /v1/batch`` — body is a batch document (see
  :mod:`repro.serve.loader`); the reply carries one response per
  request plus batch-level cache statistics.
* ``GET /v1/metrics`` — the service tracer's counter snapshot
  (``serve.*``, merged ``dp.*``/``engine.*``).

The server is the stdlib :class:`http.server.HTTPServer` —
single-threaded by design: requests are batches, batches shard across
the :func:`repro.engine.pmap` worker pools, and a single coordinator
keeps the cache free of write races without locks.  Malformed bodies
get a 400 with the :class:`~repro.errors.ServeError` message; solver
infeasibility is *not* an HTTP error (it is a per-request error entry
in a 200 reply); anything unexpected gets a 500 with an ``error``
message and the server keeps serving.

Each reply — status line, headers and compact JSON body — leaves in a
single write on a socket with ``TCP_NODELAY`` set.  Split across two
sends, the body would wait under Nagle's algorithm for the client's
delayed ACK of the headers, about 40 ms per keep-alive request.
"""

from __future__ import annotations

import json
import sys
import traceback
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..synthesis import RESULT_SCHEMA_VERSION
from .loader import load_json, requests_from_doc
from .service import SynthesisService

__all__ = ["ServeHTTPServer", "make_server"]

_MAX_BODY_BYTES = 64 * 1024 * 1024


class ServeHTTPServer(HTTPServer):
    """An :class:`HTTPServer` bound to one :class:`SynthesisService`."""

    def __init__(self, address: Tuple[str, int], service: SynthesisService):
        super().__init__(address, _Handler)
        self.service = service
        #: When true, per-request lines are written to stderr.
        self.verbose = False


class _Handler(BaseHTTPRequestHandler):
    server: ServeHTTPServer  # narrowed for the route helpers
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _reply(self, status: int, doc: Dict[str, Any]) -> None:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # end_headers() would send the buffered head on its own; append
        # the blank line and the body so that one write sends it all.
        self._headers_buffer.extend([b"\r\n", body])  # type: ignore[attr-defined]
        self.flush_headers()

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        if self.path == "/v1/health":
            self._reply(
                200,
                {
                    "status": "ok",
                    "schema_version": RESULT_SCHEMA_VERSION,
                    "workers": service.workers,
                    "cache_entries": len(service.cache),
                },
            )
        elif self.path == "/v1/metrics":
            self._reply(200, {"counters": service.metrics()})
        else:
            self._error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/batch":
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            status, doc = self._batch()
        except Exception as exc:  # a server fault: report it, keep serving
            sys.stderr.write(f"POST /v1/batch failed\n{traceback.format_exc()}")
            status, doc = 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
        self._reply(status, doc)

    def _batch(self) -> Tuple[int, Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return 400, {"error": "invalid Content-Length"}
        if length <= 0 or length > _MAX_BODY_BYTES:
            return 400, {"error": f"body length {length} out of range"}
        raw = self.rfile.read(length)
        try:
            requests = requests_from_doc(load_json(raw, "body"))
        except ReproError as exc:
            return 400, {"error": str(exc)}
        responses = self.server.service.solve_batch(requests)
        return 200, {
            "schema_version": RESULT_SCHEMA_VERSION,
            "responses": [r.to_dict() for r in responses],
            "batch": {
                "requests": len(responses),
                "cached": sum(1 for r in responses if r.cached),
                "failed": sum(1 for r in responses if not r.ok),
            },
        }


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[SynthesisService] = None,
) -> ServeHTTPServer:
    """Bind a serve HTTP server (``port=0`` picks an ephemeral port).

    The caller drives it: ``server.serve_forever()`` for a long-running
    process, ``server.handle_request()`` per request in tests.  The
    bound port is ``server.server_address[1]``.
    """
    return ServeHTTPServer(
        (host, port), service if service is not None else SynthesisService()
    )
