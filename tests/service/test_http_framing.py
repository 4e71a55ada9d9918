"""Request framing on both JSON HTTP servers (the bound server and the
fleet controller): a hostile ``Content-Length`` is answered ``400`` at
once instead of blocking the request thread or dropping the
connection.  Driven over raw sockets, since HTTP clients refuse to send
such headers."""

import json
import socket
import threading
import urllib.request

import pytest

from repro.fleet import make_fleet_server
from repro.service import make_server


def _quiet(msg):
    pass


@pytest.fixture(params=["service", "fleet"])
def server(request, tmp_path):
    """A live server on a free port; yields ``(port, post_path)``."""
    if request.param == "service":
        srv = make_server(tmp_path / "svc.db", port=0)
        path = "/v1/bound"
    else:
        srv = make_fleet_server(tmp_path / "fleet", port=0, log=_quiet)
        path = "/v1/lease"
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv.server_port, path
    finally:
        srv.shutdown()
        thread.join(5.0)
        if request.param == "service":
            srv.service.close()
        srv.server_close()


def raw_post(port: int, path: str, length: bytes, body: bytes = b""):
    """POST with a verbatim ``Content-Length`` value; returns
    ``(status, json_payload)``.  Fails (socket timeout) when the server
    sends no complete response within 5 s."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        "Content-Type: application/json\r\n"
    ).encode() + b"Content-Length: " + length + b"\r\n\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    status_line, _, rest = response.partition(b"\r\n")
    _headers, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload)


@pytest.mark.parametrize("length", [b"-1", b"abc", b"1.5", b"-0x10"])
def test_hostile_content_length_is_400(server, length):
    port, path = server
    status, payload = raw_post(port, path, length, body=b"{}")
    assert status == 400
    assert "Content-Length" in payload["error"]
    # The server keeps serving: no request thread is wedged on a read.
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/health", timeout=5
    ) as resp:
        assert resp.status == 200


@pytest.mark.parametrize("body,error", [
    (b"nope{", "request body is not valid JSON"),
    (b"[1, 2]", "request body must be a JSON object"),
])
def test_valid_content_length_reads_the_body(server, body, error):
    port, path = server
    length = str(len(body)).encode()
    assert raw_post(port, path, length, body) == (400, {"error": error})
