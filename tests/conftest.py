import hashlib
import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import acceptance_report

FIXTURES = Path(__file__).parent / "fixtures"


def child_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH, for a
    test that runs deo in a child interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def stable_unit_vector(text: str, dim: int) -> np.ndarray:
    """Text -> deterministic unit vector, independent of call order."""
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


class MockApi:
    """Tiny in-process server speaking the chat and embeddings wire shapes.

    chat_script queues response strings (the default is a valid
    decomposition); fail_statuses queues HTTP error codes, one per request
    (None lets that request through), and fail_headers are sent with each
    of those failures. embed_vector(text, dim) makes each embedding. Every
    request is recorded as (path, payload).
    """

    def __init__(self):
        self.requests: list[tuple[str, dict]] = []
        self.chat_script: list[str] = []
        self.chat_default = '{"positives": ["alpha"], "negatives": ["beta"]}'
        self.embed_dim = 6
        self.fail_statuses: list[int | None] = []
        self.fail_headers: dict[str, str] = {}
        self.embed_vector = stable_unit_vector
        self._lock = threading.Lock()
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def request_count(self, path: str | None = None) -> int:
        with self._lock:
            if path is None:
                return len(self.requests)
            return sum(1 for p, _ in self.requests if p == path)

    def _handler_class(self):
        api = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _send(self, status: int, body: bytes, headers=()):
                self.send_response(status)
                for name, value in headers:
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with api._lock:
                    api.requests.append((self.path, payload))
                    fail = api.fail_statuses.pop(0) if api.fail_statuses else None
                if fail is not None:
                    self._send(fail, b'{"error": "simulated failure"}',
                               api.fail_headers.items())
                    return
                if self.path == "/v1/chat/completions":
                    with api._lock:
                        text = api.chat_script.pop(0) if api.chat_script else api.chat_default
                    body = {"choices": [{"message": {"content": text}}]}
                elif self.path == "/v1/embeddings":
                    body = {
                        "data": [
                            {"embedding": api.embed_vector(t, api.embed_dim).tolist()}
                            for t in payload["input"]
                        ]
                    }
                else:
                    self._send(404, b'{"error": "no such route"}')
                    return
                self._send(200, json.dumps(body).encode("utf-8"))

        return Handler

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock_api():
    api = MockApi()
    yield api
    api.close()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
