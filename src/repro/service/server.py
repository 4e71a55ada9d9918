"""The memoized bound server: analysis-as-a-service over the store.

A long-running, multi-threaded HTTP server (the stdlib-only JSON server
core of :mod:`repro.utils.http` — no framework dependency) fronting
one :class:`~repro.store.db.ArtifactStore`.  Every query is a pure
function of its JSON body, so the request handler is just: content
address -> store lookup -> (on miss) compute under the single-flight
lock -> publish -> respond.  N concurrent identical requests compute
once; everyone else waits for the leader and reads the published bytes.

Endpoints (full request/response examples in ``docs/service.md``):

=======================  ====================================================
``GET /health``          liveness: status, uptime, store path
``GET /stats``           store stats (hit rates, entries, DB size) +
                         per-endpoint request counters
``GET /metrics``         observability snapshot (:mod:`repro.obs`):
                         request counters + latency histograms + store
                         counters, plus the recent event ring —
                         canonical JSON, byte-stable per state
``POST /v1/compiled``    compile-snapshot query: ``{builder, params, seed}``
``POST /v1/schedule``    schedule query: ``+ {kind: dfs|minlive,
                         include_ids}``
``POST /v1/bound``       lower-bound query: ``+ {s, method, max_candidates,
                         u_upper}``
``POST /v1/pebble``      spill-strategy pebble game: the harness's spill
                         cell parameter set
=======================  ====================================================

The HTTP plumbing is the shared JSON server core
(:mod:`repro.utils.http`), so errors are JSON too: ``400`` for
malformed bodies or bad fields, unknown builders or params (the
exception text is the message), ``413`` for bodies over the core's
cap, ``404`` for unknown routes, ``500`` for unexpected failures.
Responses carry the artifact ``key`` and a ``cached`` flag so clients
(and the load benchmark) can audit cold-vs-warm behavior per request.

Doctest::

    >>> import tempfile, os
    >>> from repro.service import make_server, ServiceClient
    >>> srv = make_server(os.path.join(tempfile.mkdtemp(), "s.db"), port=0)
    >>> _ = srv.serve_in_thread()
    >>> client = ServiceClient(f"http://127.0.0.1:{srv.server_port}")
    >>> client.health()["status"]
    'ok'
    >>> r = client.bound(builder="chain", params={"length": 8}, s=2)
    >>> r["cached"], r["value"] >= 0
    (False, True)
    >>> client.bound(builder="chain", params={"length": 8}, s=2)["cached"]
    True
    >>> srv.shutdown(); srv.service.close()
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from ..obs import OBS_SCHEMA
from ..store.analysis import (
    cached_bound,
    cached_compiled_payload,
    cached_schedule,
    cached_spill,
    compiled_spec,
)
from ..store.codec import unpack_arrays
from ..store.db import ArtifactStore
from ..store.keys import artifact_key
from ..utils.http import JSONServer, Routes, serve_until_interrupted

__all__ = ["BoundService", "make_server", "serve", "DEFAULT_PORT"]

DEFAULT_PORT = 8177
SERVICE_SCHEMA = "repro-service/1"


class BoundService:
    """Endpoint logic, independent of HTTP plumbing (unit-testable).

    Wraps one :class:`ArtifactStore` and reports into its registry and
    event ring, so one scrape covers HTTP and store traffic.  Every
    query method takes the parsed JSON body and returns a JSON-safe
    response mapping; :meth:`routes` is the table the HTTP core serves.
    """

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store
        self.metrics = store.metrics
        self.events = store.events
        self._started_mono = time.monotonic()

    def close(self) -> None:
        self.store.close()

    # -- introspection -------------------------------------------------
    def health(self) -> Dict:
        return {
            "status": "ok",
            "schema": SERVICE_SCHEMA,
            "uptime_s": time.monotonic() - self._started_mono,
            "store": str(self.store.path),
        }

    def stats(self) -> Dict:
        prefix = "http.requests{"
        requests = {
            name[len(prefix):-1]: value
            for name, value in self.metrics.counter_values(prefix).items()
        }
        return {
            "schema": SERVICE_SCHEMA,
            "uptime_s": time.monotonic() - self._started_mono,
            "requests": requests,
            "store": self.store.stats(),
        }

    # -- queries -------------------------------------------------------
    @staticmethod
    def _query_triple(body: Dict) -> Tuple[str, Optional[Dict], int]:
        builder = body.get("builder")
        if not isinstance(builder, str):
            raise ValueError("request must name a 'builder' (string)")
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError("'params' must be a mapping when present")
        return builder, params, int(body.get("seed", 0))

    def compiled(self, body: Dict) -> Dict:
        builder, params, seed = self._query_triple(body)
        payload, hit = cached_compiled_payload(
            self.store, builder, params, seed
        )
        _arrays, meta = unpack_arrays(payload)
        return {
            "key": artifact_key(
                "compiled", compiled_spec(builder, params, seed)
            ),
            "cached": hit,
            "n": meta["n"],
            "m": meta["m"],
            "nbytes": len(payload),
        }

    def schedule(self, body: Dict) -> Dict:
        builder, params, seed = self._query_triple(body)
        kind = body.get("kind", "dfs")
        ids, hit = cached_schedule(self.store, builder, params, seed, kind)
        spec = compiled_spec(builder, params, seed)
        spec["schedule"] = kind
        out = {
            "key": artifact_key("schedule", spec),
            "cached": hit,
            "kind": kind,
            "length": int(ids.size),
        }
        if body.get("include_ids"):
            out["ids"] = [int(i) for i in ids.tolist()]
        return out

    def bound(self, body: Dict) -> Dict:
        builder, params, seed = self._query_triple(body)
        s = int(body.get("s", 16))
        method = body.get("method", "wavefront")
        max_candidates = int(body.get("max_candidates", 32))
        u_upper = body.get("u_upper")
        result, hit = cached_bound(
            self.store,
            builder,
            params,
            seed,
            s=s,
            method=method,
            max_candidates=max_candidates,
            u_upper=None if u_upper is None else float(u_upper),
        )
        spec = compiled_spec(builder, params, seed)
        spec["s"] = s
        spec["method"] = method
        if method == "wavefront":
            spec["max_candidates"] = max_candidates
        if method == "hong_kung":
            spec["u_upper"] = float(u_upper)
        return {"key": artifact_key("bound", spec), "cached": hit, **result}

    def pebble(self, body: Dict) -> Dict:
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError("'params' must be a mapping when present")
        seed = int(body.get("seed", 0))
        row, hit = cached_spill(self.store, params, seed)
        return {"cached": hit, **row}

    # -- observability -------------------------------------------------
    def metrics_view(self) -> Dict:
        """The ``GET /metrics`` payload: instrument snapshot (request
        counters, per-endpoint latency histograms, ``store.*``
        counters) plus the recent event ring.  Canonical JSON on the
        wire, so two scrapes of the same state are byte-identical."""
        return {
            "schema": SERVICE_SCHEMA,
            "obs_schema": OBS_SCHEMA,
            "uptime_s": time.monotonic() - self._started_mono,
            "metrics": self.metrics.snapshot(),
            "events": self.events.snapshot(limit=256),
        }

    def routes(self) -> Routes:
        return {
            ("GET", "/health"): lambda _body: self.health(),
            ("GET", "/stats"): lambda _body: self.stats(),
            ("GET", "/metrics"): lambda _body: self.metrics_view(),
            ("POST", "/v1/compiled"): self.compiled,
            ("POST", "/v1/schedule"): self.schedule,
            ("POST", "/v1/bound"): self.bound,
            ("POST", "/v1/pebble"): self.pebble,
        }


def make_server(
    db_path,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[ArtifactStore] = None,
) -> JSONServer:
    """A ready-to-serve threading HTTP server bound to ``host:port``
    (``port=0`` picks a free port — see ``server_port``).  The caller
    runs and stops it: ``serve_in_thread()`` / ``shutdown()``; close the
    store via ``server.service.close()``."""
    service = BoundService(store if store is not None
                           else ArtifactStore(db_path))
    server = JSONServer(
        (host, port), service.routes(), service.metrics,
        version=SERVICE_SCHEMA,
        # one thread per connection: hand its store connection back as
        # the thread ends, or every request would leave one open
        on_thread_end=service.store.release_connection,
    )
    server.service = service
    return server


def serve(
    db_path,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    log=print,
) -> None:  # pragma: no cover - blocking CLI loop
    """Blocking entry point of ``repro serve``."""
    server = make_server(db_path, host=host, port=port)
    serve_until_interrupted(server, [
        f"repro service listening on http://{host}:{server.server_port} "
        f"(store: {db_path})",
        "endpoints: GET /health /stats /metrics; "
        "POST /v1/compiled /v1/schedule /v1/bound /v1/pebble",
    ], log, close=server.service.close)
