"""Request framing and hostile input on both JSON HTTP servers (the
bound server and the fleet controller), which share one server core: a
hostile ``Content-Length`` is answered ``400`` (``413`` over the body
cap) at once instead of blocking the request thread or dropping the
connection, bad numbers and field types are ``400`` and never ``500``,
and unknown paths cannot grow the metrics registry.  Driven over raw
sockets, since HTTP clients refuse to send such headers."""

import http.client
import json
import socket
import threading
import urllib.request

import pytest

from repro.fleet import make_fleet_server
from repro.service import make_server
from repro.utils.http import MAX_BODY_BYTES


def _quiet(msg):
    pass


@pytest.fixture(params=["service", "fleet"])
def server(request, tmp_path):
    """A live server on a free port; yields ``(port, post_path,
    metrics_registry)``."""
    if request.param == "service":
        srv = make_server(tmp_path / "svc.db", port=0)
        path, registry = "/v1/bound", srv.service.metrics
    else:
        srv = make_fleet_server(tmp_path / "fleet", port=0, log=_quiet)
        path, registry = "/v1/lease", srv.controller.metrics
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv.server_port, path, registry
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


@pytest.mark.parametrize("length", [
    b"-1", b"abc", b"1.5", b"-0x10",
    str(10**15).encode(), str(MAX_BODY_BYTES + 1).encode(),
])
def test_hostile_content_length_is_400(server, length):
    """Malformed lengths are 400; lengths over the body cap are 413."""
    port, path, _ = server
    status, payload = raw_post(port, path, length, body=b"{}")
    assert status == (413 if length.isdigit() else 400)
    assert "Content-Length" in payload["error"]
    # The server keeps serving: no request thread is wedged on a read.
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/health", timeout=5
    ) as resp:
        assert resp.status == 200


@pytest.mark.parametrize("body,error", [
    (b"nope{", "request body is not valid JSON"),
    (b"[1, 2]", "request body must be a JSON object"),
    pytest.param(b"[" * 100_000, "request body is not valid JSON",
                 id="deep-nesting"),
    (b'{"worker": NaN}', "request body is not valid JSON"),
])
def test_valid_content_length_reads_the_body(server, body, error):
    port, path, _ = server
    length = str(len(body)).encode()
    assert raw_post(port, path, length, body) == (400, {"error": error})


def test_body_at_the_cap_is_read(server):
    port, path, _ = server
    body = b"{}" + b" " * (MAX_BODY_BYTES - 2)
    status, _payload = raw_post(port, path, str(len(body)).encode(), body)
    assert status != 413


def _get_status(port: int, path: str) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        json.loads(resp.read())
        return resp.status
    finally:
        conn.close()


def test_unknown_paths_do_not_grow_the_registry(server):
    """Unknown routes tick ``http.unmatched`` only: a client sending
    distinct junk paths cannot add counters or histograms."""
    port, _path, registry = server
    assert _get_status(port, "/nope") == 404
    before = registry.snapshot()
    n = 50
    for i in range(n):
        assert _get_status(port, f"/nope{i}") == 404
    after = registry.snapshot()
    assert set(after["counters"]) == set(before["counters"])
    assert set(after["histograms"]) == set(before["histograms"])
    assert after["counters"]["http.unmatched"] == \
        before["counters"]["http.unmatched"] + n


_CHAIN = '"builder": "chain", "params": {"length": 8}'


@pytest.mark.parametrize("server,path,body", [
    ("service", "/v1/bound", f'{{{_CHAIN}, "s": 1e400}}'),
    ("service", "/v1/bound", f'{{{_CHAIN}, "s": null}}'),
    ("service", "/v1/bound", f'{{{_CHAIN}, "max_candidates": {{}}}}'),
    ("service", "/v1/compiled", f'{{{_CHAIN}, "seed": [1]}}'),
    ("service", "/v1/pebble", '{"seed": Infinity}'),
    ("fleet", "/v1/register", '{"worker": "w", "slots": 1e400}'),
], indirect=["server"])
def test_bad_numbers_and_types_are_400(server, path, body):
    port, _path, _registry = server
    raw = body.encode()
    status, payload = raw_post(port, path, str(len(raw)).encode(), raw)
    assert status == 400, payload
    assert payload["error"]
