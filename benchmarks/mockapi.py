"""In-process mock of an OpenAI-compatible chat and embeddings endpoint.

It serves the generated inputs: chat returns each query's generated
decomposition and embeddings return the generated vectors, so an online run
must produce exactly what an offline run on the same vectors produces.
Every response fragment is JSON-encoded once at start-up, because encoding
per request would cost the server seconds of CPU and compete with the client
for the interpreter lock. One thread serves all requests, one connection at
a time (HTTP/1.0, so each request opens its own connection).
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

import gen

CHAT_ROUTE = "/v1/chat/completions"
EMBED_ROUTE = "/v1/embeddings"
QUERY_PREFIX = "Query: "


def encode_vector(vec: np.ndarray) -> bytes:
    """JSON item for one float32 vector; repr round-trips float32 exactly."""
    values = ",".join(repr(float(x)) for x in np.asarray(vec, dtype=np.float32))
    return b'{"embedding":[' + values.encode("ascii") + b"]}"


def encode_chat(positives, negatives) -> bytes:
    content = json.dumps({"positives": list(positives), "negatives": list(negatives)})
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")


def responses_for(data_dir: str) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """Pre-encoded (embedding by text, chat reply by query text) for one
    generated input set."""
    ids, corpus = gen.read_vectors(data_dir, "corpus")
    vectors = {gen.doc_text(doc_id): encode_vector(row) for doc_id, row in zip(ids, corpus)}
    del corpus
    q_keys, q_rows = gen.read_vectors(data_dir, "qstore")
    by_key = dict(zip(q_keys, q_rows))
    chats = {}
    with open(os.path.join(data_dir, "cache.jsonl"), "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            vectors[row["query"]] = encode_vector(by_key[row["query_id"]])
            for text in row["positives"] + row["negatives"]:
                vectors[text] = encode_vector(by_key[text])
            chats[row["query"]] = encode_chat(row["positives"], row["negatives"])
    return vectors, chats


class RouteStats:
    """Requests, bytes in and out, and handler seconds for one route."""

    def __init__(self):
        self.requests = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.serve_s = 0.0


class MockEndpoint:
    """Serves pre-encoded embeddings by text and decompositions by query text.

    Use as a context manager; the serving thread stops and is joined on
    exit. Unknown texts get HTTP 400, which the clients do not retry.
    """

    def __init__(self, vectors: dict[str, bytes], decompositions: dict[str, bytes]):
        self._vectors = vectors
        self._chats = decompositions
        self.stats = {CHAT_ROUTE: RouteStats(), EMBED_ROUTE: RouteStats()}
        self._server = HTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="mock-endpoint", daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockEndpoint":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def reset(self) -> None:
        for route in self.stats:
            self.stats[route] = RouteStats()

    def total(self, field: str):
        return sum(getattr(s, field) for s in self.stats.values())

    def _respond(self, path: str, body: bytes) -> tuple[int, bytes]:
        if path == EMBED_ROUTE:
            try:
                items = [self._vectors[text] for text in json.loads(body)["input"]]
            except (KeyError, TypeError, ValueError):
                return 400, b'{"error":"unknown text"}'
            return 200, b'{"data":[' + b",".join(items) + b"]}"
        if path == CHAT_ROUTE:
            try:
                prompt = json.loads(body)["messages"][-1]["content"]
                query = prompt.rsplit("\n", 1)[-1]
                if not query.startswith(QUERY_PREFIX):
                    raise KeyError(query)
                return 200, self._chats[query[len(QUERY_PREFIX):]]
            except (KeyError, IndexError, TypeError, ValueError):
                return 400, b'{"error":"unknown query"}'
        return 404, b'{"error":"no such route"}'

    def _handler_class(self):
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                started = time.perf_counter()
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                status, payload = endpoint._respond(self.path, body)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                stats = endpoint.stats.get(self.path)
                if stats is not None:
                    stats.requests += 1
                    stats.bytes_in += len(body)
                    stats.bytes_out += len(payload)
                    stats.serve_s += time.perf_counter() - started

        return Handler
