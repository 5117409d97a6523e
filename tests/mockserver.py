"""HTTP moderation server for backend tests: records request
timestamps/headers/bodies and serves scripted responses.

``MockModerationServer`` runs in the test's own process.
``SubprocessModerationServer`` runs the default-plan server in a child
process, so its receipt stamps do not wait on the test's client threads;
run as a script, this module is that child.
"""

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockModerationServer:
    """Serves POST/GET with a per-request response plan.

    ``plan(index, body_bytes) -> (status, payload)`` where payload is a
    dict (sent as JSON) or raw bytes. Default: always 200 with label "ok".
    """

    def __init__(self, plan=None):
        self.plan = plan or (lambda i, body: (200, {"result": {"label": "ok", "score": 0.5}}))
        self.requests = []  # (monotonic_time, path, headers dict, body bytes)
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def _serve(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length) if length else b""
                with outer._lock:
                    index = len(outer.requests)
                    outer.requests.append(
                        (time.monotonic(), self.path, dict(self.headers), body)
                    )
                status, payload = outer.plan(index, body)
                blob = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            do_POST = _serve
            do_GET = _serve
            do_PUT = _serve

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def reset(self):
        """Forget recorded requests (plan indices restart as well)."""
        with self._lock:
            self.requests.clear()

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}/moderate"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        return False


class SubprocessModerationServer:
    """The default-plan server in its own process. ``stamps`` holds the
    receipt times (``time.monotonic`` in the child) of every request since
    the last ``reset``, once the ``with`` block has ended."""

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.url = self._proc.stdout.readline().strip()
        self.stamps = None
        return self

    def reset(self):
        """Forget the requests received so far."""
        self._proc.stdin.write("reset\n")
        self._proc.stdin.flush()
        self._proc.stdout.readline()  # the child acknowledges each reset

    def __exit__(self, exc_type, *exc):
        # closing the child's standard input stops it
        out, _ = self._proc.communicate(timeout=30)
        if exc_type is None:
            self.stamps = json.loads(out)
        return False


def _serve_until_stdin_closes() -> None:
    """Child side: print the URL, answer each ``reset`` line, and print
    the receipt stamps as JSON when standard input closes."""
    with MockModerationServer() as server:
        print(server.url, flush=True)
        for _ in sys.stdin:
            server.reset()
            print("ok", flush=True)
        with server._lock:
            stamps = [when for when, *_ in server.requests]
    json.dump(stamps, sys.stdout)


if __name__ == "__main__":
    _serve_until_stdin_closes()
