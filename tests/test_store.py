import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deo.cli import main
from deo.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    EmptyInputError,
    FormatError,
)
from deo.index import FlatIndex
from deo.store import (
    EmbeddingStore,
    embed_texts,
    ingest_corpus,
    load_store,
    save_store,
)


class CountingEmbedder:
    """Stub endpoint: deterministic vectors, records every batch."""

    def __init__(self, dim=4):
        self.dim = dim
        self.batches = []

    def embed(self, texts):
        self.batches.append(list(texts))
        out = []
        for text in texts:
            rng = np.random.default_rng(abs(hash(text)) % (2**32))
            out.append(rng.normal(size=self.dim).tolist())
        return out


def random_store(rng, n=10, dim=6, model="m"):
    store = EmbeddingStore(dim=dim, model=model)
    for i in range(n):
        store.add(f"id{i:03d}", rng.normal(size=dim))
    return store


def test_add_and_get_roundtrip_float32():
    store = EmbeddingStore(dim=3)
    store.add("a", [0.1, 0.2, 0.3])
    got = store.get("a")
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array([0.1, 0.2, 0.3], dtype=np.float32).astype(np.float64))


def test_matrix_is_one_contiguous_array(tmp_path):
    rng = np.random.default_rng(7)
    store = random_store(rng, n=11, dim=5)
    save_store(store, tmp_path / "s.bin", fmt="binary")
    for candidate in (store, load_store(tmp_path / "s.bin")):
        matrix = candidate.matrix
        assert matrix.shape == (11, 5)
        assert matrix.dtype == np.float32 and matrix.flags.c_contiguous
        assert not matrix.flags.writeable
        for i, record_id in enumerate(candidate.ids):
            assert np.array_equal(matrix[i].astype(np.float64), candidate.get(record_id))
    loaded = load_store(tmp_path / "s.bin")
    loaded.add("extra", np.ones(5))
    assert loaded.matrix.shape == (12, 5)
    assert np.array_equal(loaded.get("extra"), np.ones(5))
    assert np.array_equal(loaded.matrix[:11], store.matrix)


def test_add_validates():
    store = EmbeddingStore(dim=2)
    store.add("a", [1.0, 2.0])
    with pytest.raises(DuplicateIdError):
        store.add("a", [1.0, 2.0])
    with pytest.raises(FormatError):
        store.add("b", [1.0, 2.0, 3.0])
    with pytest.raises(KeyError):
        store.get("missing")


def test_jsonl_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    store = random_store(rng, n=7, dim=5, model="enc-1")
    path = tmp_path / "s.jsonl"
    store.save_jsonl(path)
    loaded = EmbeddingStore.load_jsonl(path)
    assert loaded.ids == store.ids
    assert loaded.dim == 5
    assert loaded.model == "enc-1"
    for record_id in store.ids:
        assert np.array_equal(loaded.get(record_id), store.get(record_id))


def test_jsonl_header_first_line(tmp_path):
    store = EmbeddingStore(dim=2, model="enc")
    path = tmp_path / "empty.jsonl"
    store.save_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    header = json.loads(lines[0])
    assert header == {"format": "deo-emb", "version": 1, "dim": 2, "model": "enc"}
    assert len(EmbeddingStore.load_jsonl(path)) == 0


def test_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    store = random_store(rng, n=20, dim=8)
    path = tmp_path / "s.bin"
    store.save_binary(path)
    loaded = EmbeddingStore.load_binary(path)
    assert loaded.ids == store.ids
    for record_id in store.ids:
        a = store.get(record_id).astype(np.float32)
        b = loaded.get(record_id).astype(np.float32)
        assert a.tobytes() == b.tobytes()


def test_binary_roundtrip_unicode_ids(tmp_path):
    store = EmbeddingStore(dim=2)
    store.add("docuëment/1", [1.0, 2.0])
    path = tmp_path / "u.bin"
    store.save_binary(path)
    assert EmbeddingStore.load_binary(path).ids == ["docuëment/1"]


def test_jsonl_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"format":"deo-emb","version":1,"dim":3,"model":""}\n'
        '{"id":"a","vector":[1.0,2.0]}\n'
    )
    with pytest.raises(FormatError, match="bad.jsonl:2"):
        EmbeddingStore.load_jsonl(path)

    noheader = tmp_path / "noheader.jsonl"
    noheader.write_text('{"id":"a","vector":[1.0]}\n')
    with pytest.raises(FormatError, match="noheader.jsonl:1"):
        EmbeddingStore.load_jsonl(noheader)

    dupe = tmp_path / "dupe.jsonl"
    dupe.write_text(
        '{"format":"deo-emb","version":1,"dim":1,"model":""}\n'
        '{"id":"a","vector":[1.0]}\n'
        '{"id":"a","vector":[2.0]}\n'
    )
    with pytest.raises(FormatError, match="dupe.jsonl:3"):
        EmbeddingStore.load_jsonl(dupe)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(FormatError):
        EmbeddingStore.load_jsonl(empty)

    badversion = tmp_path / "v9.jsonl"
    badversion.write_text('{"format":"deo-emb","version":9,"dim":1,"model":""}\n')
    with pytest.raises(FormatError, match="version"):
        EmbeddingStore.load_jsonl(badversion)


def test_binary_rejects_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTDEOEM" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        EmbeddingStore.load_binary(bad)

    store = EmbeddingStore(dim=4)
    store.add("a", [1.0, 2.0, 3.0, 4.0])
    good = tmp_path / "good.bin"
    store.save_binary(good)
    data = good.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[:-5])
    with pytest.raises(FormatError, match="truncated"):
        EmbeddingStore.load_binary(truncated)
    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(data + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        EmbeddingStore.load_binary(trailing)


def test_binary_duplicate_id_names_the_record(tmp_path):
    store = EmbeddingStore(dim=2)
    store.add("ab", [1.0, 2.0])
    store.add("cd", [3.0, 4.0])
    path = tmp_path / "dup.bin"
    store.save_binary(path)
    path.write_bytes(path.read_bytes().replace(b"cd", b"ab"))
    with pytest.raises(FormatError, match="dup.bin: duplicate id 'ab' in record 1"):
        EmbeddingStore.load_binary(path)


@st.composite
def binary_stores(draw):
    """Stores of 0-6 records with dim 1-5, ids of multi-byte UTF-8 (empty
    included) and arbitrary float32 components, NaN payloads included."""
    dim = draw(st.integers(1, 5))
    ids = draw(st.lists(st.text(max_size=6), max_size=6, unique=True))
    store = EmbeddingStore(dim=dim)
    for record_id in ids:
        bits = draw(st.lists(st.integers(0, 2**32 - 1), min_size=dim, max_size=dim))
        store.add(record_id, np.array(bits, dtype=np.uint32).view(np.float32))
    return store


@settings(derandomize=True, deadline=None, max_examples=60)
@given(binary_stores())
@example(EmbeddingStore(dim=1))
def test_binary_roundtrip_property(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("rt") / "s.bin"
    store.save_binary(path)
    loaded = load_store(path)
    assert (loaded.dim, loaded.ids) == (store.dim, store.ids)
    assert loaded.matrix.dtype == np.float32 and loaded.matrix.shape == (len(store), store.dim)
    assert loaded.matrix.tobytes() == store.matrix.tobytes()


def test_binary_truncated_at_every_length_is_a_format_error(tmp_path):
    store = EmbeddingStore(dim=3)
    for i, record_id in enumerate(["a", "ü-doc", "", "文書"]):
        store.add(record_id, [i, -i, 0.5])
    good = tmp_path / "good.bin"
    store.save_binary(good)
    data = good.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(FormatError, match="magic|truncated"):
            EmbeddingStore.load_binary(cut)


def test_binary_count_beyond_the_file_is_not_allocated(tmp_path):
    store = EmbeddingStore(dim=4)
    store.add("a", [1.0, 2.0, 3.0, 4.0])
    good = tmp_path / "good.bin"
    store.save_binary(good)
    lying = tmp_path / "lying.bin"
    data = bytearray(good.read_bytes())
    data[12:20] = struct.pack("<Q", 2**40)
    lying.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated record 1 at offset 39"):
            EmbeddingStore.load_binary(lying)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_binary_bad_utf8_id_names_record_and_offset(tmp_path, capsys):
    store = EmbeddingStore(dim=1)
    store.add("ok", [1.0])
    store.add("xy", [2.0])
    path = tmp_path / "badid.bin"
    store.save_binary(path)
    data = path.read_bytes()
    at = data.index(b"xy")
    path.write_bytes(data[:at] + b"\xff\xfe" + data[at + 2:])
    with pytest.raises(FormatError, match=f"badid.bin: id of record 1 at offset {at} is not valid UTF-8"):
        EmbeddingStore.load_binary(path)
    assert main(["index", "--store", str(path)]) == 1
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "FormatError" and "record 1" in diag["message"]


def test_load_store_sniffs_format(tmp_path):
    rng = np.random.default_rng(2)
    store = random_store(rng, n=3, dim=2)
    jsonl_path = tmp_path / "s.jsonl"
    bin_path = tmp_path / "s.bin"
    save_store(store, jsonl_path, fmt="jsonl")
    save_store(store, bin_path, fmt="binary")
    assert load_store(jsonl_path).ids == store.ids
    assert load_store(bin_path).ids == store.ids
    with pytest.raises(ValueError):
        save_store(store, tmp_path / "x", fmt="xml")


def test_text_and_binary_stores_search_identically(tmp_path):
    rng = np.random.default_rng(3)
    store = random_store(rng, n=40, dim=6)
    jsonl_path = tmp_path / "s.jsonl"
    bin_path = tmp_path / "s.bin"
    store.save_jsonl(jsonl_path)
    store.save_binary(bin_path)
    stores = load_store(jsonl_path), load_store(bin_path)
    index_a, index_b = (FlatIndex.from_matrix(s.ids, s.matrix) for s in stores)
    for _ in range(5):
        q = rng.normal(size=6)
        ra, rb = index_a.search(q, 10), index_b.search(q, 10)
        assert ra.doc_ids == rb.doc_ids
        assert ra.scores == rb.scores


def test_embed_texts_batching_and_order():
    embedder = CountingEmbedder()
    texts = [f"text {i}" for i in range(130)]
    vectors = embed_texts(embedder.embed, texts, batch_size=64)
    assert len(embedder.batches) == 3
    assert [len(b) for b in embedder.batches] == [64, 64, 2]
    assert len(vectors) == 130
    # order preserved: re-embedding one text matches its batch output
    again = embedder.embed(["text 7"])[0]
    assert np.allclose(vectors[7], again)


def test_embed_texts_validation():
    embedder = CountingEmbedder()
    with pytest.raises(EmptyInputError):
        embed_texts(embedder.embed, [])
    with pytest.raises(ValueError):
        embed_texts(embedder.embed, ["a"], batch_size=0)
    with pytest.raises(FormatError, match="shape"):
        embed_texts(lambda texts: [5.0], ["a"])


def test_embed_texts_dimension_consistency():
    class Flaky:
        def __init__(self):
            self.calls = 0

        def embed(self, texts):
            self.calls += 1
            dim = 4 if self.calls == 1 else 5
            return [[0.0] * dim for _ in texts]

    with pytest.raises(DimensionMismatchError):
        embed_texts(Flaky().embed, ["a", "b"], batch_size=1)


def test_ingest_corpus_happy_path(tmp_path):
    embedder = CountingEmbedder(dim=3)
    texts = {"d1": "one", "d2": "two", "d3": "three"}
    out = tmp_path / "corpus.jsonl"
    report, store = ingest_corpus(texts, embedder.embed, out, batch_size=2)
    assert (report.total, report.embedded, report.reused) == (3, 3, 0)
    assert report.dim == 3
    assert report.elapsed_seconds >= 0.0
    assert load_store(out).ids == ["d1", "d2", "d3"]
    assert store.ids == ["d1", "d2", "d3"]


def test_ingest_corpus_resume_skips_existing(tmp_path):
    out = tmp_path / "corpus.jsonl"
    first = CountingEmbedder(dim=3)
    ingest_corpus({"d1": "one", "d2": "two"}, first.embed, out)

    second = CountingEmbedder(dim=3)
    texts = {"d1": "one", "d2": "two", "d3": "three"}
    report, _ = ingest_corpus(texts, second.embed, out, resume=True)
    assert (report.embedded, report.reused) == (1, 2)
    assert [t for batch in second.batches for t in batch] == ["three"]

    # idempotence: a third resumed run embeds nothing
    third = CountingEmbedder(dim=3)
    report, _ = ingest_corpus(texts, third.embed, out, resume=True)
    assert report.embedded == 0
    assert third.batches == []


def test_ingest_corpus_without_resume_reembeds(tmp_path):
    out = tmp_path / "corpus.jsonl"
    first = CountingEmbedder(dim=3)
    ingest_corpus({"d1": "one"}, first.embed, out)
    second = CountingEmbedder(dim=3)
    report, _ = ingest_corpus({"d1": "one"}, second.embed, out)
    assert report.embedded == 1


def test_ingest_corpus_embedder_count_mismatch(tmp_path):
    def broken(texts):
        return [[0.0, 0.0]]  # always one vector

    with pytest.raises(FormatError):
        ingest_corpus({"a": "x", "b": "y"}, broken, tmp_path / "s.jsonl", batch_size=2)


def test_ingest_corpus_dimension_change_mid_stream(tmp_path):
    batches = iter([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]])
    with pytest.raises(DimensionMismatchError, match="dimension 3 after 2"):
        ingest_corpus({"a": "x", "b": "y"}, lambda texts: next(batches),
                      tmp_path / "s.jsonl", batch_size=1)
    assert not (tmp_path / "s.jsonl").exists()
