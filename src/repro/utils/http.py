"""The JSON-over-HTTP server core of the bound server
(:mod:`repro.service.server`) and the fleet controller
(:mod:`repro.fleet.controller`).

A server is a route table ``{(method, path): fn(body) -> payload}`` and
the :class:`~repro.obs.MetricsRegistry` it reports into; the core owns
the rest.  POST bodies are JSON objects of at most
:data:`MAX_BODY_BYTES`: a hostile ``Content-Length`` is a ``400``, an
oversized one a ``413`` (the body is never read and the connection
closes), and a body that is not a JSON object or carries a non-finite
number is a ``400``.  A route raising ``KeyError``, ``TypeError`` or
``ValueError`` is a ``400``; anything else is a ``500``.  Each known
route is counted in ``http.requests{METHOD path}``, ``http.errors{…}``
and ``http.latency_s{…}``; unknown routes tick only ``http.unmatched``,
so no client can grow the registry.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..evaluation.manifest import dumps_canonical
from ..obs import labeled

__all__ = ["MAX_BODY_BYTES", "JSONServer", "Routes", "dispatch",
           "serve_until_interrupted"]

#: Largest POST body read, in bytes; the largest the repo sends (a
#: ``/v1/grid`` submit of ``default_grid``) is about 2.5 KB.
MAX_BODY_BYTES = 1 << 20

Routes = Mapping[Tuple[str, str], Callable[[Dict], Dict]]


def _finite(text: str) -> float:
    value = float(text)  # NaN, Infinity and 1e400 all come out non-finite
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _parse_body(raw: bytes) -> Dict:
    """The JSON object in ``raw`` (``{}`` when empty); ``ValueError``
    for anything else, non-finite numbers included."""
    try:
        body = json.loads(raw.decode("utf-8"), parse_constant=_finite,
                          parse_float=_finite) if raw else {}
    except (ValueError, RecursionError):
        raise ValueError("request body is not valid JSON") from None
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    return body


def dispatch(routes: Routes, metrics, method: str, path: str,
             body: Dict) -> Tuple[int, Dict]:
    """``(status, payload)`` for one parsed request, counted into
    ``metrics``."""
    route = routes.get((method, path))
    if route is None:
        metrics.counter("http.unmatched").inc()
        return 404, {"error": f"unknown endpoint {method} {path}"}
    endpoint = f"{method} {path}"
    start = time.perf_counter()
    try:
        status, payload = 200, route(body)
    except (KeyError, TypeError, ValueError) as exc:
        status, payload = 400, {"error": str(exc)}
    except Exception as exc:
        status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    metrics.counter(labeled("http.requests", endpoint)).inc()
    if status >= 400:
        metrics.counter(labeled("http.errors", endpoint)).inc()
    metrics.histogram(labeled("http.latency_s", endpoint)).observe(elapsed)
    return status, payload


class _JSONHandler(BaseHTTPRequestHandler):
    server: "JSONServer"

    @property
    def server_version(self) -> str:
        return self.server.version

    def _respond(self, status: int, payload: Dict) -> None:
        raw = dumps_canonical(payload, indent=None).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond(*dispatch(self.server.routes, self.server.metrics,
                                "GET", self.path, {}))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread: never parse it as the next request.
            self.close_connection = True
            if length < 0:
                error = "Content-Length must be a non-negative integer"
            else:
                error = (f"Content-Length {length} exceeds the "
                         f"{MAX_BODY_BYTES}-byte body cap")
            self._respond(400 if length < 0 else 413, {"error": error})
            return
        try:
            body = _parse_body(self.rfile.read(length))
        except ValueError as exc:
            self._respond(400, {"error": str(exc)})
            return
        self._respond(*dispatch(self.server.routes, self.server.metrics,
                                "POST", self.path, body))

    def log_message(self, fmt, *args) -> None:  # quiet by default
        pass


class JSONServer(ThreadingHTTPServer):
    """A threading HTTP server answering ``routes`` in canonical JSON;
    ``version`` is the ``Server`` header, and ``on_thread_end`` runs as
    each connection's daemon thread ends."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        routes: Routes,
        metrics,
        version: str,
        on_thread_end: Optional[Callable[[], None]] = None,
    ) -> None:
        self.routes = routes
        self.metrics = metrics
        self.version = version
        self.on_thread_end = on_thread_end
        super().__init__(address, _JSONHandler)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            if self.on_thread_end is not None:
                self.on_thread_end()

    def serve_in_thread(self) -> threading.Thread:
        """Serve from a new daemon thread until :meth:`shutdown`; the
        loop polls for shutdown every 0.1 s."""
        thread = threading.Thread(target=self.serve_forever, args=(0.1,),
                                  daemon=True)
        thread.start()
        return thread


def serve_until_interrupted(
    server: JSONServer,
    banner: Sequence[str],
    log: Callable[[str], None],
    close: Optional[Callable[[], None]] = None,
) -> None:  # pragma: no cover - blocking CLI loop
    """Log ``banner``, serve until Ctrl-C, then shut down and ``close``."""
    for line in banner:
        log(line)
    try:
        server.serve_in_thread().join()
    except KeyboardInterrupt:
        log("shutting down")
    finally:
        server.shutdown()
        if close is not None:
            close()
