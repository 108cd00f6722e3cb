"""HTTP/1.1 JSON API over a running engine.

Submissions are asynchronous: POST /v1/requests answers 202 immediately and
a worker drains the FCFS queue; clients poll GET /v1/requests/{id} for the
outcome. Every read and write runs under the engine's lock, so a read never
sees a half-made change.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .engine import Engine, EngineError
from .model import ReferenceError_, ValidationError
from .topology import TopologyError

log = logging.getLogger("foglet.http")

_ROUTES = []
MAX_BODY_BYTES = 1 << 20  # larger bodies are refused with 413
_DIGITS = re.compile(r"[0-9]+")  # RFC 9112 §6.3: Content-Length = 1*DIGIT


class BadRequest(Exception):
    """A request body of the wrong shape."""


def route(method: str, pattern: str):
    compiled = re.compile(f"^{pattern}$")

    def register(fn):
        _ROUTES.append((method, compiled, fn))
        return fn

    return register


class ApiHandler(BaseHTTPRequestHandler):
    server_version = "foglet"
    protocol_version = "HTTP/1.1"

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, fmt, *args):  # quiet by default; engine logs decisions
        pass

    @property
    def engine(self) -> Engine:
        return self.server.engine  # type: ignore[attr-defined]

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, status: int, error: str, detail: str) -> None:
        """Answer a body that Content-Length does not frame, and close the
        connection: what follows in the stream cannot be told from the next
        request."""
        self.close_connection = True
        self._send(status, {"error": error, "detail": detail})

    def _read_body(self) -> Optional[bytes]:
        """The request body as its Content-Length frames it; b"" without one.
        A body framed any other way is not read: the request is refused and
        None is returned."""
        if "Transfer-Encoding" in self.headers:
            self._refuse(411, "length_required",
                         "Transfer-Encoding is not supported; send Content-Length")
            return None
        lengths = {v.strip(" \t") for v in self.headers.get_all("Content-Length", ())}
        if not lengths:
            return b""
        value = lengths.pop()
        if lengths or not _DIGITS.fullmatch(value):
            self._refuse(400, "bad_length", "Content-Length must be one decimal number")
            return None
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            self._refuse(413, "too_large", f"body over {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(int(digits))

    def _read_json(self) -> dict:
        """The body as a JSON object; an empty body reads as {}."""
        doc = json.loads(self._body) if self._body else {}
        if not isinstance(doc, dict):
            raise BadRequest("body must be a JSON object")
        return doc

    def _dispatch(self, method: str) -> None:
        self._body = self._read_body()
        if self._body is None:
            return
        for m, pattern, fn in _ROUTES:
            if m != method:
                continue
            match = pattern.match(self.path)
            if match:
                try:
                    status, payload = fn(self, **match.groupdict())
                except json.JSONDecodeError as exc:
                    status, payload = 400, {"error": "bad_json", "detail": str(exc)}
                except BadRequest as exc:
                    status, payload = 400, {"error": "bad_request", "detail": str(exc)}
                except ValidationError as exc:
                    status, payload = 400, {
                        "error": "validation", "field": exc.field, "reason": exc.reason,
                    }
                except ReferenceError_ as exc:
                    status, payload = 422, {
                        "error": "unknown_reference", "field": exc.field, "reason": exc.reason,
                    }
                except (EngineError, TopologyError) as exc:
                    status, payload = 400, {"error": "engine", "detail": str(exc)}
                except Exception as exc:
                    log.exception("%s %s failed", method, self.path)
                    status, payload = 500, {"error": "internal", "detail": str(exc)}
                self._send(status, payload)
                return
        self._send(404, {"error": "not_found", "path": self.path})

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    # -- endpoints -----------------------------------------------------------------

    @route("POST", r"/v1/requests")
    def post_request(self) -> Tuple[int, dict]:
        request_id = self.engine.submit(self._read_json())
        self.server.kick()  # type: ignore[attr-defined]
        return 202, {"id": request_id, "state": "queued"}

    @route("GET", r"/v1/requests")
    def list_requests(self) -> Tuple[int, list]:
        return 200, [
            self.engine.request_status(rid) for rid in self.engine.request_ids()
        ]

    @route("GET", r"/v1/requests/(?P<request_id>[^/]+)/explain")
    def explain_request(self, request_id: str) -> Tuple[int, dict]:
        record = self.engine.explain(request_id)
        if record is None:
            return 404, {"error": "not_found", "id": request_id}
        return 200, record

    @route("GET", r"/v1/requests/(?P<request_id>[^/]+)")
    def get_request(self, request_id: str) -> Tuple[int, dict]:
        status = self.engine.request_status(request_id)
        if status is None:
            return 404, {"error": "not_found", "id": request_id}
        return 200, status

    @route("GET", r"/v1/nodes")
    def get_nodes(self) -> Tuple[int, list]:
        return 200, self.engine.nodes()

    @route("GET", r"/v1/placements")
    def get_placements(self) -> Tuple[int, list]:
        return 200, self.engine.placements()

    @route("GET", r"/v1/links/(?P<link_id>[^/]+)/utilization")
    def link_utilization(self, link_id: str) -> Tuple[int, dict]:
        report = self.engine.report()
        try:
            link = report.link(link_id)
        except KeyError:
            return 404, {"error": "not_found", "link": link_id}
        return 200, link.to_dict()

    @route("POST", r"/v1/events")
    def post_event(self) -> Tuple[int, dict]:
        doc = self._read_json()
        link_id = doc.get("link")
        state = doc.get("state")
        if state not in ("up", "down"):
            return 400, {"error": "bad_request", "detail": "state must be up or down"}
        try:
            self.engine.set_link_state(str(link_id), state == "up")
        except TopologyError:
            return 404, {"error": "not_found", "link": link_id}
        return 200, {"link": link_id, "state": state}

    @route("POST", r"/v1/advance")
    def post_advance(self) -> Tuple[int, dict]:
        seconds = self._read_json().get("seconds")
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) \
                or not 0 < seconds < math.inf:  # NaN fails both comparisons
            return 400, {"error": "bad_request", "detail": "seconds must be positive"}
        self.engine.advance(seconds)
        return 200, {"clock_s": float(self.engine.clock_s)}

    @route("GET", r"/v1/report")
    def get_report(self) -> Tuple[int, dict]:
        return 200, self.engine.report().to_dict()


class ApiServer(ThreadingHTTPServer):
    """Threaded HTTP server plus the single queue-draining worker."""

    daemon_threads = True

    def __init__(self, engine: Engine, address: Tuple[str, int] = ("127.0.0.1", 0)):
        super().__init__(address, ApiHandler)
        self.engine = engine
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._worker = threading.Thread(target=self._drain_loop, daemon=True)
        self._worker.start()

    def kick(self) -> None:
        self._wake.set()

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=0.5)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                self.engine.process_pending()
            except Exception:
                # One failed pass must not stop the worker: later submissions
                # would stay queued forever.
                log.exception("queue worker: process_pending failed")

    @property
    def port(self) -> int:
        return self.server_address[1]

    def shutdown(self) -> None:
        self._stop.set()
        self._wake.set()
        super().shutdown()
