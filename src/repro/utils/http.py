"""JSON-over-HTTP request plumbing shared by the bound server
(:mod:`repro.service.server`) and the fleet controller
(:mod:`repro.fleet.controller`).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional, Tuple

from ..evaluation.manifest import dumps_canonical

__all__ = ["JSONRequestHandler"]


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Reads POST bodies as JSON objects and answers in canonical JSON.

    Subclasses implement :meth:`route`.  Malformed requests — a
    non-numeric or negative ``Content-Length``, a body that is not JSON
    or not a JSON object — are answered ``400`` here and never reach it.
    A POST without ``Content-Length`` carries the empty body ``{}``.
    """

    def route(
        self, method: str, path: str, body: Optional[Dict]
    ) -> Tuple[int, Dict]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _respond(self, status: int, payload: Dict) -> None:
        raw = dumps_canonical(payload, indent=None).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _read_body(self) -> Tuple[Optional[Dict], Optional[str]]:
        """``(body, None)`` for a JSON-object body, else ``(None, error)``."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown: never read it, and never
            # parse what follows as another request.
            self.close_connection = True
            return None, "Content-Length must be a non-negative integer"
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            return None, "request body is not valid JSON"
        if not isinstance(body, dict):
            return None, "request body must be a JSON object"
        return body, None

    def _dispatch(self, method: str) -> None:
        body = None
        if method == "POST":
            body, error = self._read_body()
            if error is not None:
                self._respond(400, {"error": error})
                return
        status, payload = self.route(method, self.path, body)
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, fmt, *args) -> None:  # quiet by default
        pass
