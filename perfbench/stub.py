"""Loopback stand-in for the chat and rewrite providers.

One HTTP server on 127.0.0.1 serves ``POST /<role>`` for each role it has a
handler for. Every request waits a fixed latency for its role, and at most
MAX_CONCURRENT requests are served at once, like a rate-limited
provider. Requests whose fingerprint is in ``fail_once`` get a 503 on
their first attempt. The stub counts attempts, request characters and
status codes per role; :meth:`reset` starts a fresh count and fault set
before each run of the program.
"""
from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

MAX_CONCURRENT = 2  # requests served at once, as by a rate-limited provider


def fingerprint(request: dict) -> str:
    """SHA-256 of the canonical JSON form, as the providers' wire contract defines it."""
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class StubProvider:
    def __init__(
        self,
        handlers: dict[str, Callable[[dict], dict]],
        latency_s: dict[str, float] | None = None,
        fail_once: set[str] | frozenset[str] = frozenset(),
    ):
        self.handlers = handlers
        self.latency_s = latency_s or {}
        self.fail_once = set(fail_once)
        self._slots = threading.BoundedSemaphore(MAX_CONCURRENT)
        self._lock = threading.Lock()
        self._failed: set[str] = set()
        self.counts: Counter = Counter()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def _handler_class(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body go out in two writes; without TCP_NODELAY the
            # second waits on the client's delayed ACK, about 40 ms a request.
            disable_nagle_algorithm = True

            def do_POST(self):  # noqa: N802 - http.server naming
                role = self.path.strip("/")
                body = self.rfile.read(int(self.headers.get("Content-Length", 0))).decode("utf-8")
                status, payload = stub._serve(role, body)
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args):  # noqa: A002 - silence per-request logging
                pass

        return Handler

    def _serve(self, role: str, body: str) -> tuple[int, dict]:
        handler = self.handlers.get(role)
        if handler is None:
            return self._count(role, body, 404), {"error": f"no role {role!r}"}
        request = json.loads(body)
        fp = fingerprint(request)
        with self._slots:
            time.sleep(self.latency_s.get(role, 0.0))
            with self._lock:
                inject = fp in self.fail_once and fp not in self._failed
                self._failed.add(fp)
            if inject:
                return self._count(role, body, 503), {"error": "injected 503"}
            try:
                response = handler(request)
            except Exception as exc:  # reported to the client and counted as a 500
                return self._count(role, body, 500), {"error": f"{type(exc).__name__}: {exc}"}
        return self._count(role, body, 200), response

    def _count(self, role: str, body: str, status: int) -> int:
        with self._lock:
            self.counts[f"{role}.attempts"] += 1
            self.counts[f"{role}.chars"] += len(body)
            self.counts[f"{role}.status_{status}"] += 1
        return status

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def endpoint(self, role: str) -> str:
        return f"{self.base_url}/{role}"

    def reset(self) -> None:
        with self._lock:
            self._failed.clear()
            self.counts = Counter()

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)

    def __enter__(self) -> StubProvider:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
