"""Hypothesis fuzzing of both live JSON servers (the bound server and the
fleet controller): generated bodies posted to every POST route, and
requests to random paths, must each come back within the client timeout
as JSON with a 2xx or 4xx status — never a 500.

Bodies are bounded in depth and size and mix ``null``, bools, strings,
lists, nested objects, huge and non-finite floats, and the routes' own
field names and builder / experiment names.  Ints stay within
``|x| <= 64``: a valid builder with huge params is still admitted and
computed (cost-based admission is an open ROADMAP item), so larger ints
would test compute time, not input handling.
"""

import http.client
import json
import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.evaluation.harness import REGISTRY  # noqa: E402
from repro.fleet import make_fleet_server  # noqa: E402
from repro.service import make_server  # noqa: E402
from repro.store.analysis import BUILDERS  # noqa: E402

TIMEOUT_S = 30.0

SERVICE_POSTS = ("/v1/compiled", "/v1/schedule", "/v1/bound", "/v1/pebble")
SERVICE_FIELDS = ("builder", "params", "seed", "s", "method",
                  "max_candidates", "u_upper", "kind", "include_ids")
FLEET_POSTS = ("/v1/grid", "/v1/register", "/v1/lease", "/v1/heartbeat",
               "/v1/report")
FLEET_FIELDS = ("cells", "worker", "slots", "labels", "label", "ok",
                "error")

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-64, 64)
    | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([1e308, -1e308, 1e300, 5e-324])
)
names = st.sampled_from(
    sorted(BUILDERS) + sorted(REGISTRY)
    + list(SERVICE_FIELDS) + list(FLEET_FIELDS)
    + ["wavefront", "hong_kung", "analytical", "dfs", "minlive",
       "star", "chains", "w1"]
)
values = st.recursive(
    scalars | names,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | names, children, max_size=4),
    max_leaves=12,
)


def bodies(fields):
    """JSON objects keyed mostly by the routes' own field names."""
    return st.dictionaries(
        st.sampled_from(fields) | st.text(max_size=6), values, max_size=6
    )


def _start(srv):
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def service_port(tmp_path_factory):
    srv = make_server(tmp_path_factory.mktemp("fuzz") / "svc.db", port=0)
    thread = _start(srv)
    yield srv.server_port
    srv.shutdown()
    thread.join(5.0)
    srv.service.close()
    srv.server_close()


@pytest.fixture(scope="module")
def fleet_port(tmp_path_factory):
    srv = make_fleet_server(tmp_path_factory.mktemp("fuzz") / "fleet",
                            port=0, log=lambda msg: None)
    thread = _start(srv)
    yield srv.server_port
    srv.shutdown()
    thread.join(5.0)
    srv.server_close()


def request(port, method, path, body=None):
    """``(status, payload)``; raises on a timeout or a non-JSON reply."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        raw = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=raw,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def assert_client_answer(status, payload):
    assert 200 <= status < 300 or 400 <= status < 500, (status, payload)
    assert isinstance(payload, dict)


@FUZZ
@given(path=st.sampled_from(SERVICE_POSTS), body=bodies(SERVICE_FIELDS))
def test_service_posts_never_500(service_port, path, body):
    assert_client_answer(*request(service_port, "POST", path, body))


@FUZZ
@given(path=st.sampled_from(FLEET_POSTS), body=bodies(FLEET_FIELDS))
def test_fleet_posts_never_500(fleet_port, path, body):
    assert_client_answer(*request(fleet_port, "POST", path, body))


paths = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/_-.%?=&", max_size=16
).map(lambda tail: "/" + tail)


@FUZZ
@given(method=st.sampled_from(["GET", "POST"]), path=paths,
       which=st.sampled_from(["service", "fleet"]))
def test_random_paths_never_500(service_port, fleet_port, method, path,
                                which):
    port = service_port if which == "service" else fleet_port
    body = {} if method == "POST" else None
    assert_client_answer(*request(port, method, path, body))
