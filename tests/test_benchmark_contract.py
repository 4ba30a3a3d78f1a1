"""The deo names that benchmarks/ calls or counts, checked through the
benchmark's own modules: a store written by gen.write_store loads through
load_store, a generated corpus indexes from its stored norms, and
spans.instrument records both client methods under the span
names the benchmark's checks count."""

import importlib.util
from pathlib import Path

import numpy as np

from deo import clients
from deo.clients import ChatClient, ClientConfig, EmbeddingClient
from deo.index import FlatIndex
from deo.store import load_store

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_store_loads_with_the_same_ids_and_bits(tmp_path):
    gen = benchmark_module("gen")
    ids = [gen.query_id(i) for i in range(5)] + ["", "ü-doc"]
    matrix = np.random.default_rng(3).normal(size=(len(ids), 6)).astype(np.float32)
    gen.write_store(str(tmp_path), "corpus", ids, matrix)
    store = load_store(tmp_path / "corpus.bin")
    assert store.ids == ids
    assert store.dim == 6
    assert store.matrix.tobytes() == matrix.tobytes()
    assert gen.read_vectors(tmp_path, "corpus")[0] == ids


def test_generated_corpus_loads_with_stored_norms_and_id_rank(tmp_path):
    # the benchmark indexes its corpus from the norms and id rank a v3 store
    # carries, not from a recomputation
    gen = benchmark_module("gen")
    gen.generate(str(tmp_path), seed=5, docs=40, dim=8, queries=4)
    store = load_store(tmp_path / "corpus.bin")
    assert store.model == gen.MODEL
    assert store._norms is not None and store._id_rank is not None
    index = FlatIndex.from_store(store)
    assert index._norms is store._norms and index._id_rank is store._id_rank
    assert index._norms.tobytes() == FlatIndex.build(zip(store.ids, store.matrix))._norms.tobytes()


def test_client_methods_are_recorded_under_their_span_names(monkeypatch):
    spans = benchmark_module("spans")

    def post(cfg, path, payload, sleep):
        if path == "/v1/embeddings":
            return {"data": [{"embedding": [1.0, 0.0]} for _ in payload["input"]]}
        return {"choices": [{"message": {"content": "reply"}}]}

    monkeypatch.setattr(clients, "_post_with_retries", post)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        cfg = ClientConfig(base_url="http://127.0.0.1:9")
        assert ChatClient(cfg).complete("hi") == "reply"
        assert EmbeddingClient(cfg).embed(["a", "b"]) == [[1.0, 0.0], [1.0, 0.0]]
    finally:
        restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("clients.ChatClient.complete") == 1
    assert names.count("clients.EmbeddingClient.embed") == 1
    assert tracer.counters["clients.EmbeddingClient.embed.texts"] == 2
    assert not hasattr(ChatClient.complete, "__wrapped__")  # restored
