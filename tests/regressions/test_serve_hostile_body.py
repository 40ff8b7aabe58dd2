"""Hostile request bodies are a 400, not an internal error.

Reproducer: ``POST /v1/batch`` with a body that is not UTF-8
(``b'"\\xc3"'``), that ``json`` sniffs as UTF-16 (``b'\\xff\\xfe{'``), or
that nests 5000 arrays deep used to escape the loader as
``UnicodeDecodeError`` or ``RecursionError``: the server answered 500
``internal error`` and wrote a traceback to standard error.  Bodies and
batch files are now decoded as strict UTF-8 by one loader helper, which
turns both errors into a ``ServeError`` (HTTP 400).
"""

import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ServeError
from repro.serve import SynthesisService, make_server, requests_from_file

HOSTILE = {
    "invalid_utf8": b'"\xc3"',
    "utf16_sniffed": b"\xff\xfe{",
    "deep_nesting": b"[" * 5000,
}


@pytest.fixture(scope="module")
def server():
    srv = make_server("127.0.0.1", 0, SynthesisService())
    try:
        yield srv
    finally:
        srv.server_close()


@pytest.mark.parametrize("body", list(HOSTILE.values()), ids=list(HOSTILE))
def test_http_body_is_a_400(server, body, capfd):
    host, port = server.server_address[:2]
    worker = threading.Thread(target=server.handle_request)
    worker.start()
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/batch", data=body, method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    worker.join(timeout=30)
    assert excinfo.value.code == 400
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("body", list(HOSTILE.values()), ids=list(HOSTILE))
def test_batch_file_is_a_serve_error(tmp_path, body):
    path = tmp_path / "requests.json"
    path.write_bytes(body)
    with pytest.raises(ServeError, match="batch file"):
        requests_from_file(str(path))
