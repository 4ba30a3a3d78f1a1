import hashlib
import json
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deo import index as index_module
from deo import store as store_module
from deo import vecmath
from deo.cli import main
from deo.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    EmptyInputError,
    FormatError,
)
from deo.index import FlatIndex
from deo.ioutil import SHALLOW_TEXT, read_id, read_jsonl
from deo.store import (
    EmbeddingStore,
    embed_texts,
    ingest_corpus,
    load_store,
    save_store,
)
from deo.vecmath import raw_row_norms
from store_v1 import save_binary_v1
from store_v2 import V2_IDS_START, save_binary_v2, v2_bytes


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
    loaded = load_store(path)
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
    assert load_store(path).ids == ["docuëment/1"]


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
    with pytest.raises(FormatError) as info:
        load_store(bad)
    assert str(info.value) == f"{bad}:1: invalid JSON (Expecting value)"

    store = EmbeddingStore(dim=4)
    store.add("a", [1.0, 2.0, 3.0, 4.0])
    good = tmp_path / "good.bin"
    save_binary_v1(store, good)
    data = good.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[:-5])
    with pytest.raises(FormatError, match="truncated"):
        load_store(truncated)
    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(data + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_store(trailing)


def test_binary_duplicate_id_names_the_record(tmp_path):
    store = EmbeddingStore(dim=2)
    store.add("ab", [1.0, 2.0])
    store.add("cd", [3.0, 4.0])
    path = tmp_path / "dup.bin"
    save_binary_v1(store, path)
    path.write_bytes(path.read_bytes().replace(b"cd", b"ab"))
    with pytest.raises(FormatError, match="dup.bin: duplicate id 'ab' in record 1"):
        load_store(path)


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


FLT_MAX = float(np.finfo(np.float32).max)
SPECIAL_FLOAT32 = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, FLT_MAX, -FLT_MAX,
                   float("inf"), float("-inf"), float("nan")]


@st.composite
def jsonl_stores(draw):
    """Stores of 0-6 records with dim 1-8, ids of multi-byte UTF-8, empty and
    lone surrogates, and float32 components mixing -0.0, subnormals,
    +-FLT_MAX, +-inf and NaN with arbitrary bit patterns."""
    dim = draw(st.integers(1, 8))
    ids = draw(st.lists(st.text(st.characters(exclude_categories=()), max_size=6),
                        max_size=6, unique=True))
    component = st.one_of(
        st.sampled_from(SPECIAL_FLOAT32),
        st.integers(0, 2**32 - 1).map(lambda b: float(np.array(b, dtype=np.uint32).view(np.float32))),
    )
    store = EmbeddingStore(dim=dim)
    for record_id in ids:
        store.add(record_id, draw(st.lists(component, min_size=dim, max_size=dim)))
    return store


def same_float32(a, b) -> bool:
    """Bit equality of two float32 arrays, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(jsonl_stores())
@example(EmbeddingStore(dim=1))
def test_jsonl_roundtrip_property(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("rt") / "s.jsonl"
    store.save_jsonl(path)
    loaded = load_store(path)
    assert (loaded.dim, loaded.ids) == (store.dim, store.ids)
    assert loaded.matrix.dtype == np.float32 and same_float32(loaded.matrix, store.matrix)
    # every line also reads back through the stdlib alone
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == len(store)
    for line, record_id, row in zip(lines, store.ids, store.matrix):
        obj = json.loads(line)
        assert obj["id"] == record_id and same_float32(obj["vector"], row)


def oracle_load_jsonl(path) -> EmbeddingStore:
    """The line-by-line reference reader: every line through
    ioutil.read_jsonl, every row through EmbeddingStore.add. load_jsonl
    must give its store or its exception, on every input."""
    rows = read_jsonl(path)
    try:
        lineno, header = next(rows)
    except StopIteration:
        raise FormatError(f"{path}: empty embedding file") from None
    if not isinstance(header, dict) or header.get("format") != "deo-emb":
        raise FormatError(f"{path}:{lineno}: missing 'deo-emb' header")
    if header.get("version") != 1:
        raise FormatError(f"{path}:{lineno}: unsupported version {header.get('version')!r}")
    dim = header.get("dim")
    if not isinstance(dim, int) or dim <= 0:
        raise FormatError(f"{path}:{lineno}: header dim must be a positive integer")
    store = EmbeddingStore(dim=dim, model=str(header.get("model", "")))
    for lineno, obj in rows:
        if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
            raise FormatError(f"{path}:{lineno}: expected 'id' and 'vector' fields")
        vector = obj["vector"]
        if not isinstance(vector, list) or len(vector) != dim:
            raise FormatError(
                f"{path}:{lineno}: vector length {len(vector) if isinstance(vector, list) else '?'}"
                f" does not match header dim {dim}"
            )
        try:
            row = np.asarray(vector)
        except ValueError:  # ragged nesting
            row = None
        if row is None or row.ndim != 1 or row.dtype.kind not in "iuf":
            raise FormatError(f"{path}:{lineno}: vector components must be numbers")
        try:
            store.add(read_id(obj["id"], path, lineno), row)
        except DuplicateIdError:
            raise FormatError(f"{path}:{lineno}: duplicate id {obj['id']!r}") from None
    return store


WIDE = [2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**25]
# components a store may hold, and ones that fail it
NUMBERS = ([str(v) for w in WIDE[:5] for v in (w, -w)]
           + ["1e300", "-1e300", "1e400", "NaN", "Infinity", "-Infinity", "true", "false",
              "-0", "1E5", "3.4028235e+38", "4.9e-325"])
NOT_NUMBERS = [str(v) for w in WIDE[5:] for v in (w, -w)] + ["null", '"1.5"', "[1.5]", "[]", "{}"]
# one-of draws each branch alike, so repeats weight the plain cases
COMPONENTS = st.one_of(
    *[st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)] * 6,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**60, 2**60).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(NUMBERS),
    st.sampled_from(NUMBERS),
    st.sampled_from(NOT_NUMBERS),
)
IDS = st.one_of(
    *[st.text(st.characters(exclude_categories=()), max_size=4).map(json.dumps)] * 6,
    st.integers(-10**25, 10**25).map(str),
    st.sampled_from(['"a"', '"b"', '"\\u00e9"', '"\\ud800"', "1", "12345678901234567890123",
                     "-98765432109876543210", "true", "null", "1.5", '["a"]']),
)
RECORDS = ['{"id":%s,"vector":%s}'] * 12 + [
    '{"vector":%s,"id":%s}', '{"id":%s,"vector":%s,"x":1e999}', '{"id":%s,"vector":[%s]}',
    '{"id":%s}', '[%s,%s]', '{"id":%s,"vector":%s',
]
BLANKS = st.sampled_from([""] * 6 + [" ", "\t", "\x0c", "\x85", "　"])


@st.composite
def hostile_jsonl(draw) -> bytes:
    """A store file of a valid header and 0-6 records, plain or hostile:
    wide, special and non-numeric components, wrong lengths, nesting, odd
    and duplicate ids, garbage, blank and whitespace lines, and any mix of
    line ends."""
    dim = draw(st.integers(1, 3))
    lines = [json.dumps({"format": "deo-emb", "version": 1, "dim": dim, "model": draw(st.text(max_size=3))})]
    for _ in range(draw(st.integers(0, 6))):
        count = draw(st.sampled_from([dim] * 12 + [dim - 1, dim + 1]))
        vector = "[%s]" % ",".join(draw(st.lists(COMPONENTS, min_size=count, max_size=count)))
        record = draw(st.sampled_from(RECORDS))
        fields = (draw(IDS), vector)[: record.count("%s")]
        if record.startswith('{"vector"'):
            fields = fields[::-1]
        lines.append(draw(BLANKS) + record % fields + draw(BLANKS))
        lines.extend(draw(st.lists(BLANKS, max_size=1)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def outcome(load, path):
    """What a loader makes of path: its store's fields and matrix bytes, or
    its exception's type and message."""
    try:
        store = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return store.dim, store.model, store.ids, store.matrix.dtype, store.matrix.tobytes()


HEADER_2 = b'{"format":"deo-emb","version":1,"dim":2,"model":"m"}\n'


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hostile_jsonl())
@example(HEADER_2 + b'{"id":"a","vector":[1,-2]}\n{"id":"b","vector":[16777217,9007199254740993]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[9223372036854775808,1]}\n{"id":"b","vector":[-9223372036854775809,1]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[18446744073709551616,1.5]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[-18446744073709551616,100000000000000000000000000]}\n')
@example(HEADER_2 + b'{"id":12345678901234567890123,"vector":[1,2]}\n{"id":"12345678901234567890123","vector":[1,2]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[true,false]}\n{"id":"b","vector":[true,1]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[true,2.5]}\n{"id":"b","vector":[false,true]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[NaN,Infinity]}\n{"id":"b","vector":[-Infinity,1e400]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1e300,-1e300]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[9007199791611905,1]}\n{"id":"b","vector":[9007199791611905,0.5]}\n')
@example(b'{"format":"deo-emb","version":1,"dim":1}' + b"".join(b'\n{"id":%d,"vector":[0]}' % i for i in range(10)))
@example(HEADER_2 + b'{"id":"a","vector":["1.5",2]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[[1.5],[2]]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1.5,[2]]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1.5]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1.5,2,3]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1,2]}\n{"id":"a","vector":[3,4]}\n')
@example(HEADER_2 + b'{"id":1,"vector":[1,2]}\n{"id":"1","vector":[3,4]}\n')
@example(HEADER_2 + b'\n   \n{"id":"a","vector":[1,2]}\n\t\x0c\n\n{"id":"b","vector":[3,4]}\n\n')
@example(b'{"format":"deo-emb","version":1,"dim":2}\r\n{"id":"a","vector":[1,2]}\r\n{"id":"b","vector":[3,4]}\r\n')
@example(b'{"format":"deo-emb","version":1,"dim":2}\r{"id":"a","vector":[1,2]}\r{"id":"a","vector":[3]}\r')
@example(HEADER_2 + b'{"id":"a","vector":[18446744073709551616,1]}\n{"id":"b","vector":[1]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1,2]}\n{"id":"a","vector":[1,2]}\n{"id":"c","vector":[1]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1,2]}\n{"id":"b","vector":[1,2]\n{"id":"c","vector":[1]}\n')
@example(HEADER_2 + b'{"id":"a","vector":[1,2]}\n{"id":"b","vector":[\xff]}\n')
def test_jsonl_reader_matches_the_line_by_line_oracle(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("diff") / "s.jsonl"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # float32 overflow to inf
        assert outcome(load_store, path) == outcome(oracle_load_jsonl, path)


def test_jsonl_reader_takes_a_line_past_the_depth_guard_like_the_oracle(tmp_path):
    # a record over SHALLOW_TEXT characters takes the exact path whole
    vector = [float(x) for x in np.random.default_rng(9).normal(size=2000)]
    path = tmp_path / "long.jsonl"
    path.write_text('{"format":"deo-emb","version":1,"dim":2000}\n'
                    + json.dumps({"id": 7, "vector": vector}) + "\n"
                    + json.dumps({"id": "b", "vector": vector}) + "\n")
    assert len(path.read_text().splitlines()[1]) > SHALLOW_TEXT
    assert outcome(load_store, path) == outcome(oracle_load_jsonl, path)
    assert load_store(path).ids == ["7", "b"]


def short_file_message(path, n):
    """What load_store reports for a file holding the first n < 8 bytes of a
    binary store: too short for a magic, it is read as JSONL."""
    return f"{path}: empty embedding file" if n == 0 else f"{path}:1: invalid JSON (Expecting value)"


def test_binary_truncated_at_every_length_is_a_format_error(tmp_path):
    store = EmbeddingStore(dim=3)
    for i, record_id in enumerate(["a", "ü-doc", "", "文書"]):
        store.add(record_id, [i, -i, 0.5])
    good = tmp_path / "good.bin"
    save_binary_v1(store, good)
    data = good.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(FormatError, match="truncated" if n >= 8 else None) as info:
            load_store(cut)
        if n < 8:
            assert str(info.value) == short_file_message(cut, n)


def test_binary_count_beyond_the_file_is_not_allocated(tmp_path):
    store = EmbeddingStore(dim=4)
    store.add("a", [1.0, 2.0, 3.0, 4.0])
    good = tmp_path / "good.bin"
    save_binary_v1(store, good)
    lying = tmp_path / "lying.bin"
    data = bytearray(good.read_bytes())
    data[12:20] = struct.pack("<Q", 2**40)
    lying.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated record 1 at offset 39"):
            load_store(lying)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_binary_bad_utf8_id_names_record_and_offset(tmp_path, capsys):
    store = EmbeddingStore(dim=1)
    store.add("ok", [1.0])
    store.add("xy", [2.0])
    path = tmp_path / "badid.bin"
    save_binary_v1(store, path)
    data = path.read_bytes()
    at = data.index(b"xy")
    path.write_bytes(data[:at] + b"\xff\xfe" + data[at + 2:])
    with pytest.raises(FormatError, match=f"badid.bin: id of record 1 at offset {at} is not valid UTF-8"):
        load_store(path)
    assert main(["index", "--store", str(path)]) == 1
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "FormatError" and "record 1" in diag["message"]


# -- binary v2 ---------------------------------------------------------------

def test_unknown_binary_store_version_is_named(tmp_path):
    path = tmp_path / "v4.bin"
    path.write_bytes(b"DEOEMB4\x00" + bytes(56))
    with pytest.raises(FormatError, match=r"v4.bin: unsupported binary store version b'4\\x00'"):
        load_store(path)


def test_cli_names_an_unknown_binary_store_version(tmp_path, capsys):
    path = tmp_path / "v9.bin"
    path.write_bytes(b"DEOEMB9\x00" + bytes(56))
    assert main(["index", "--store", str(path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    diag = json.loads(line)
    assert diag["error"] == "FormatError"
    assert "v9.bin: unsupported binary store version" in diag["message"]


def test_committed_v1_store_loads_like_the_jsonl_fixture(fixtures_dir):
    path = fixtures_dir / "corpus.v1.bin"
    assert path.read_bytes().startswith(b"DEOEMB1\x00")
    v1, text = load_store(path), load_store(fixtures_dir / "corpus.emb.jsonl")
    assert (v1.dim, v1.ids) == (text.dim, text.ids)
    assert v1.matrix.tobytes() == text.matrix.tobytes()


def test_committed_v2_store_loads_like_the_jsonl_fixture(fixtures_dir):
    path = fixtures_dir / "corpus.v2.bin"
    assert path.read_bytes().startswith(b"DEOEMB2\x00")
    v2, text = load_store(path), load_store(fixtures_dir / "corpus.emb.jsonl")
    assert (v2.dim, v2.ids, v2.model) == (text.dim, text.ids, "")
    assert v2.matrix.tobytes() == text.matrix.tobytes()
    assert v2._norms is None and v2._id_rank is None


def test_binary_v2_truncated_at_every_length_or_trailing_gives_both_sizes(tmp_path):
    store = EmbeddingStore(dim=3)
    for i, record_id in enumerate(["a", "ü-doc", "", "文書"]):
        store.add(record_id, [i, -i, 0.5])
    good = tmp_path / "good.bin"
    save_binary_v2(store, good)
    data = good.read_bytes()
    # the 36-byte ids block ends at offset 64, so the matrix needs no padding
    assert data.startswith(b"DEOEMB2\x00") and len(data) == 64 + 4 * 3 * 4
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        if n < V2_IDS_START:
            expected = f"cut.bin: truncated header: {n} bytes, expected at least 28"
        else:
            expected = f"cut.bin: truncated: {n} bytes, header implies {len(data)}"
        with pytest.raises(FormatError, match=expected if n >= 8 else None) as info:
            load_store(cut)
        if n < 8:
            assert str(info.value) == short_file_message(cut, n)
    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(data + b"\x00\x00")
    with pytest.raises(FormatError, match=f"trail.bin: 2 trailing bytes: {len(data) + 2} bytes, "
                                          f"header implies {len(data)}"):
        load_store(trailing)


@pytest.mark.parametrize("field", [slice(12, 20), slice(20, 28)], ids=["count", "ids_length"])
def test_binary_v2_header_beyond_the_file_is_not_allocated(tmp_path, field):
    store = EmbeddingStore(dim=4)
    store.add("a", [1.0, 2.0, 3.0, 4.0])
    good = tmp_path / "good.bin"
    save_binary_v2(store, good)
    data = bytearray(good.read_bytes())
    data[field] = struct.pack("<Q", 2**40)
    lying = tmp_path / "lying.bin"
    lying.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"lying.bin: truncated: {len(data)} bytes, header implies"):
            load_store(lying)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("count, ids_block, padding, message", [
    (2, b'["a","b"]', b"\x00" * 26 + b"\x01", "nonzero padding after the ids block"),
    (2, b'{"a":"b"}', None, "ids block is not a JSON array of 2 strings"),
    (2, b'["a"]', None, "ids block is not a JSON array of 2 strings"),
    (2, b'["a","b","c"]', None, "ids block is not a JSON array of 2 strings"),
    (2, b'["a",1]', None, "ids block is not a JSON array of 2 strings"),
    (2, b'["a",["b"]]', None, "ids block is not a JSON array of 2 strings"),
    (2, b'["a","b"', None, "ids block is not a JSON array of 2 strings"),
    (1, b'["\xff"]', None, "ids block is not a JSON array of 1 strings"),
    (0, b"", None, "ids block is not a JSON array of 0 strings"),
    (3, b'["ab","cd","ab"]', None, "duplicate id 'ab' in record 2"),
], ids=["padding", "object", "short", "long", "number", "nested", "bad-json", "bad-utf8",
        "empty", "duplicate"])
def test_binary_v2_bad_ids_block_names_the_file(tmp_path, count, ids_block, padding, message):
    path = tmp_path / "ids.bin"
    path.write_bytes(v2_bytes(2, count, ids_block, padding))
    with pytest.raises(FormatError, match=f"ids.bin: {message}"):
        load_store(path)


def test_binary_v2_zero_dim_names_the_file(tmp_path):
    path = tmp_path / "dim0.bin"
    path.write_bytes(v2_bytes(0, 1, b'["a"]'))
    with pytest.raises(FormatError, match="dim0.bin: header dim must be positive"):
        load_store(path)


def test_binary_save_rejects_ids_that_are_not_strings(tmp_path):
    store = EmbeddingStore(dim=1)
    store.add(5, [1.0])
    with pytest.raises(FormatError, match="ids must all be strings"):
        store.save_binary(tmp_path / "int.bin")
    assert not (tmp_path / "int.bin").exists()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(jsonl_stores())
@example(EmbeddingStore(dim=1))
def test_binary_v2_roundtrip_property(tmp_path_factory, store):
    base = tmp_path_factory.mktemp("v2")
    save_binary_v2(store, base / "a.bin")
    save_binary_v2(store, base / "b.bin")
    data = (base / "a.bin").read_bytes()
    assert data.startswith(b"DEOEMB2\x00") and data == (base / "b.bin").read_bytes()
    loaded = load_store(base / "a.bin")
    assert (loaded.dim, loaded.ids) == (store.dim, store.ids)
    assert loaded.matrix.dtype == np.float32 and loaded.matrix.shape == (len(store), store.dim)
    assert loaded.matrix.tobytes() == store.matrix.tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(binary_stores())
@example(EmbeddingStore(dim=1))
def test_binary_v1_and_v2_load_identically(tmp_path_factory, store):
    base = tmp_path_factory.mktemp("v1v2")
    save_binary_v1(store, base / "v1.bin")
    save_binary_v2(store, base / "v2.bin")
    v1, v2 = load_store(base / "v1.bin"), load_store(base / "v2.bin")
    assert (v1.dim, v1.ids) == (v2.dim, v2.ids) == (store.dim, store.ids)
    assert v1.matrix.tobytes() == v2.matrix.tobytes() == store.matrix.tobytes()


def test_index_on_a_v2_store_shares_its_read_only_mapping(tmp_path):
    path = tmp_path / "s.bin"
    save_binary_v2(random_store(np.random.default_rng(4), n=12, dim=5), path)
    store = load_store(path)
    index = FlatIndex.from_store(store)
    assert np.shares_memory(index._matrix, store.matrix)
    with pytest.raises(ValueError, match="read-only"):
        index._matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        store.matrix[0, 0] = 1.0


def test_saving_over_a_mapped_store_leaves_a_live_index_unchanged(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "s.bin"
    save_store(random_store(rng, n=30, dim=6), path, fmt="binary")
    store = load_store(path)
    index = FlatIndex.from_store(store)
    queries = rng.normal(size=(4, 6))
    before = [index.search(q, 10) for q in queries]
    replacement = random_store(rng, n=30, dim=6)
    save_store(replacement, path, fmt="binary")
    assert load_store(path).matrix.tobytes() == replacement.matrix.tobytes()
    for q, old in zip(queries, before):
        new = index.search(q, 10)
        assert (new.doc_ids, new.scores) == (old.doc_ids, old.scores)


def test_add_on_a_v2_store_copies_instead_of_writing_the_file(tmp_path):
    path = tmp_path / "s.bin"
    original = random_store(np.random.default_rng(6), n=3, dim=4)
    save_binary_v2(original, path)
    data = path.read_bytes()
    store = load_store(path)
    mapped = store.matrix
    store.add("new", np.full(4, 7.0))
    assert not np.shares_memory(store.matrix, mapped)
    assert np.array_equal(store.get("new"), np.full(4, 7.0))
    assert store.matrix[:3].tobytes() == original.matrix.tobytes()
    assert path.read_bytes() == data


# -- binary v3 ---------------------------------------------------------------


def v3_layout(data):
    """(dim, count, [(start, end) of the ids, matrix, norms and id rank])
    of a v3 file, as its header implies them."""
    dim, count, ids_len = struct.unpack("<IQQ", data[8:28])
    blocks, end = [(28, 28 + ids_len)], 28 + ids_len
    for nbytes in (4 * dim * count, 8 * count, 8 * count):
        start = end + -end % 64
        end = start + nbytes
        blocks.append((start, end))
    return dim, count, blocks


def test_binary_v3_layout_carries_model_norms_and_id_rank(tmp_path):
    store = EmbeddingStore(dim=3, model="enc-x")
    for record_id, row in [("b", [3.0, 4.0, 0.0]), ("ü", [1.0, 0.0, 0.0]), ("a", [0.0, 0.0, 2.0])]:
        store.add(record_id, row)
    path = tmp_path / "s.bin"
    store.save_binary(path)
    data = path.read_bytes()
    assert data.startswith(b"DEOEMB3\x00")
    dim, count, blocks = v3_layout(data)
    assert (dim, count) == (3, 3) and blocks[-1][1] == len(data)
    assert all(start % 64 == 0 for start, _ in blocks[1:])
    assert json.loads(data[slice(*blocks[0])]) == {"model": "enc-x", "ids": ["b", "ü", "a"]}
    assert not any(data[blocks[0][1]:blocks[1][0]] + data[blocks[1][1]:blocks[2][0]]
                   + data[blocks[2][1]:blocks[3][0]])
    assert np.frombuffer(data[slice(*blocks[2])], "<f8").tolist() == [5.0, 1.0, 2.0]
    assert np.frombuffer(data[slice(*blocks[3])], "<i8").tolist() == [1, 2, 0]
    loaded = load_store(path)
    assert (loaded.model, loaded.ids) == ("enc-x", ["b", "ü", "a"])
    assert loaded._norms.tolist() == [5.0, 1.0, 2.0] and loaded._id_rank.tolist() == [1, 2, 0]
    assert not loaded._norms.flags.writeable and not loaded._id_rank.flags.writeable


def test_binary_keeps_the_model_and_v1_v2_load_without_one(tmp_path):
    store = random_store(np.random.default_rng(12), n=4, dim=3, model="enc-x")
    store.save_jsonl(tmp_path / "s.jsonl")
    store.save_binary(tmp_path / "s.bin")
    save_binary_v1(store, tmp_path / "s.v1.bin")
    save_binary_v2(store, tmp_path / "s.v2.bin")
    models = {name: load_store(tmp_path / name).model
              for name in ("s.jsonl", "s.bin", "s.v1.bin", "s.v2.bin")}
    assert models == {"s.jsonl": "enc-x", "s.bin": "enc-x", "s.v1.bin": "", "s.v2.bin": ""}


def test_ingest_resume_keeps_the_model_of_a_binary_store(tmp_path):
    out = tmp_path / "corpus.bin"
    ingest_corpus({"d1": "one"}, CountingEmbedder(dim=3).embed, out, fmt="binary", model="enc-x")
    _, store = ingest_corpus({"d1": "one", "d2": "two"}, CountingEmbedder(dim=3).embed, out,
                             fmt="binary", resume=True)
    assert store.model == load_store(out).model == "enc-x"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(jsonl_stores())
@example(EmbeddingStore(dim=1))
def test_binary_v3_roundtrip_property(tmp_path_factory, store):
    store.model = "m"
    base = tmp_path_factory.mktemp("v3")
    save_store(store, base / "a.bin", fmt="binary")
    save_store(store, base / "b.bin", fmt="binary")
    data = (base / "a.bin").read_bytes()
    assert data.startswith(b"DEOEMB3\x00") and data == (base / "b.bin").read_bytes()
    loaded = load_store(base / "a.bin")
    assert (loaded.dim, loaded.ids, loaded.model) == (store.dim, store.ids, "m")
    assert loaded.matrix.tobytes() == store.matrix.tobytes()
    # the raw norms, NaN and inf included, and the id order
    assert loaded._norms.tobytes() == raw_row_norms(store.matrix).tobytes()
    assert sorted(store.ids) == [store.ids[i] for i in np.argsort(loaded._id_rank)]


def test_binary_v3_truncated_at_every_length_or_trailing_gives_both_sizes(tmp_path):
    store = EmbeddingStore(dim=3, model="enc")
    for i, record_id in enumerate(["a", "ü-doc", "", "文書"]):
        store.add(record_id, [i, -i, 0.5])
    good = tmp_path / "good.bin"
    store.save_binary(good)
    data = good.read_bytes()
    assert v3_layout(data)[2][-1][1] == len(data)
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        if n < 28:
            expected = f"cut.bin: truncated header: {n} bytes, expected at least 28"
        else:
            expected = f"cut.bin: truncated: {n} bytes, header implies {len(data)}"
        with pytest.raises(FormatError, match=expected if n >= 8 else None) as info:
            load_store(cut)
        if n < 8:
            assert str(info.value) == short_file_message(cut, n)
    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(data + b"\x00")
    with pytest.raises(FormatError, match=f"trail.bin: 1 trailing bytes: {len(data) + 1} bytes, "
                                          f"header implies {len(data)}"):
        load_store(trailing)


def patched_v3(tmp_path, patch):
    """A valid v3 file of 5 rows of dim 3 (ids e0..e4 saved in reverse
    order) with patch(data, blocks) applied to its bytes."""
    store = EmbeddingStore(dim=3, model="enc")
    for i in range(5):
        store.add(f"e{4 - i}", [1.0 + i, -2.0, 0.5])
    path = tmp_path / "patched.bin"
    store.save_binary(path)
    data = bytearray(path.read_bytes())
    patch(data, v3_layout(data)[2])
    path.write_bytes(bytes(data))
    return path


def set_rank(values):
    def patch(data, blocks):
        data[slice(*blocks[3])] = np.array(values, dtype="<i8").tobytes()
    return patch


@pytest.mark.parametrize("values", [[4, 3, 2, 1, 1], [4, 3, 2, 1, 5], [4, 3, 2, 1, -1],
                                    [0, 0, 0, 0, 0], [2**62, 3, 2, 1, 0]],
                         ids=["repeat", "too-big", "negative", "constant", "huge"])
def test_binary_v3_id_rank_that_is_no_permutation_names_the_file(tmp_path, values):
    with pytest.raises(FormatError,
                       match="patched.bin: id rank block is not a permutation of the 5 rows"):
        load_store(patched_v3(tmp_path, set_rank(values)))


def test_binary_v3_any_permutation_loads_as_stored(tmp_path):
    # the id rank is trusted as the norms are: only its shape is checked
    assert load_store(patched_v3(tmp_path, set_rank([0, 1, 2, 3, 4])))._id_rank.tolist() == [
        0, 1, 2, 3, 4]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_binary_v3_nan_or_inf_under_a_finite_norm_names_the_file(tmp_path, value):
    def patch(data, blocks):
        start = blocks[1][0] + 4 * (3 * 3 + 1)  # record 3, component 1
        data[start : start + 4] = np.array([value], dtype="<f4").tobytes()

    # the check runs once, where the norms are first used: a store only read
    # by id never scans its matrix
    store = load_store(patched_v3(tmp_path, patch))
    assert np.isnan(store.get("e1")[1]) or np.isinf(store.get("e1")[1])
    for _ in range(2):
        with pytest.raises(FormatError, match="patched.bin: record 3 has a NaN or Inf component "
                                              "but a finite stored norm"):
            FlatIndex.from_store(store)


@pytest.mark.parametrize("patch, message", [
    (lambda data, blocks: data.__setitem__(slice(*blocks[0]), b'["e4","e3","e2","e1","e0"]'
                                           .ljust(blocks[0][1] - blocks[0][0])),
     "ids block is not a JSON object of a model string and ids"),
    (lambda data, blocks: data.__setitem__(blocks[2][0] - 1, 1),
     "nonzero padding after the matrix or the norms"),
    (lambda data, blocks: data.__setitem__(blocks[3][0] - 1, 1),
     "nonzero padding after the matrix or the norms"),
], ids=["v2-ids-block", "matrix-padding", "norms-padding"])
def test_binary_v3_bad_blocks_name_the_file(tmp_path, patch, message):
    with pytest.raises(FormatError, match=f"patched.bin: {message}"):
        load_store(patched_v3(tmp_path, patch))


def test_binary_v3_load_and_index_allocate_nothing_the_size_of_the_matrix(tmp_path):
    # the finiteness check sums rows instead of testing every component
    n, d = 1024, 1024
    store = random_store(np.random.default_rng(18), n=n, dim=d)
    path = tmp_path / "s.bin"
    store.save_binary(path)
    tracemalloc.start()
    try:
        index = FlatIndex.from_store(load_store(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d // 4
    assert index._matrix.tobytes() == store.matrix.tobytes()


def test_binary_v3_row_whose_float32_sum_overflows_indexes_like_v2(tmp_path):
    # such a row passes the finiteness screen, and its norm, above
    # FLOAT32_SCREEN_MAX_NORM, still makes the index screen in float64
    rng = np.random.default_rng(13)
    store = random_store(rng, n=30, dim=3)
    big = float(np.finfo(np.float32).max)
    store.add("big", np.full(3, big))
    store.add("mixed", [big, -big, 1.0])
    store.save_binary(tmp_path / "s.bin")
    save_binary_v2(store, tmp_path / "s.v2.bin")
    v3, v2 = (FlatIndex.from_store(load_store(tmp_path / name)) for name in ("s.bin", "s.v2.bin"))
    assert v3._matrix.dtype == v2._matrix.dtype == np.float64
    queries = np.concatenate([rng.normal(size=(5, 3)), np.ones((1, 3))])
    for k in (1, 5, 32):
        assert ([(r.doc_ids, r.scores) for r in v3.search_many(queries, k)]
                == [(r.doc_ids, r.scores) for r in v2.search_many(queries, k)])
    assert v3.search(np.ones(3), 1).doc_ids == ("big",)


def test_binary_v3_norms_are_mapped_not_recomputed(tmp_path):
    # a finite norm is trusted as written; only its class is checked again
    def patch(data, blocks):
        data[slice(*blocks[2])] = np.array([2.0, 3.0, 4.0, 5.0, 0.0], dtype="<f8").tobytes()

    store = load_store(patched_v3(tmp_path, patch))
    assert store._norms.tolist() == [2.0, 3.0, 4.0, 5.0, 0.0]
    with pytest.raises(Exception, match="doc 'e0' has norm 0 and cannot be normalized"):
        FlatIndex.from_store(store)


BAD_ROWS = {"zero": [0.0, 0.0, 0.0], "tiny": [1e-45, 0.0, 0.0], "nan": [1.0, np.nan, 0.0],
            "inf": [np.inf, 1.0, 0.0], "neg-inf": [0.0, 0.0, -np.inf]}


@pytest.mark.parametrize("first", sorted(BAD_ROWS))
def test_bad_rows_save_to_v3_and_raise_at_from_store_as_on_v2(tmp_path, first):
    # two bad rows of different kinds: the first in row order decides
    store = EmbeddingStore(dim=3)
    for i in range(6):
        store.add(f"d{i}", [1.0, float(i), 2.0])
    store.add("bad-1", BAD_ROWS[first])
    store.add("d6", [0.5, 0.5, 0.5])
    store.add("bad-2", BAD_ROWS["zero" if first != "zero" else "nan"])
    store.save_binary(tmp_path / "s.bin")
    save_binary_v2(store, tmp_path / "s.v2.bin")
    errors = []
    for candidate in (store, load_store(tmp_path / "s.v2.bin"), load_store(tmp_path / "s.bin")):
        with pytest.raises(Exception) as info:
            FlatIndex.from_store(candidate)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == errors[2]
    assert "doc 'bad-1'" in errors[0][1]


def test_index_on_a_v3_store_shares_its_read_only_mapping(tmp_path):
    path = tmp_path / "s.bin"
    save_store(random_store(np.random.default_rng(4), n=12, dim=5), path, fmt="binary")
    store = load_store(path)
    index = FlatIndex.from_store(store)
    assert np.shares_memory(index._matrix, store.matrix)
    assert index._norms is store._norms and index._id_rank is store._id_rank
    for array in (index._norms, index._id_rank):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_from_store_on_a_v3_store_computes_no_norm_and_no_id_order(tmp_path):
    path = tmp_path / "s.bin"
    save_store(random_store(np.random.default_rng(14), n=40, dim=6), path, fmt="binary")
    save_binary_v2(load_store(path), tmp_path / "s.v2.bin")
    expected = FlatIndex.from_store(load_store(path))

    def fail(*args, **kwargs):
        raise AssertionError("recomputed")

    patches = [mock.patch.object(module, name, fail) for module, name in [
        (index_module, "raw_row_norms"), (index_module, "row_norms"), (index_module, "id_rank"),
        (vecmath, "raw_row_norms"), (vecmath, "row_norms"), (store_module, "id_rank")]]
    for patch in patches:
        patch.start()
    try:
        index = FlatIndex.from_store(load_store(path))
        with pytest.raises(AssertionError, match="recomputed"):
            FlatIndex.from_store(load_store(tmp_path / "s.v2.bin"))
    finally:
        for patch in patches:
            patch.stop()
    assert index._norms.tobytes() == expected._norms.tobytes()
    queries = np.random.default_rng(15).normal(size=(4, 6))
    assert ([(r.doc_ids, r.scores) for r in index.search_many(queries, 10)]
            == [(r.doc_ids, r.scores) for r in expected.search_many(queries, 10)])


def test_add_after_a_v3_load_indexes_like_build(tmp_path):
    rng = np.random.default_rng(16)
    path = tmp_path / "s.bin"
    save_store(random_store(rng, n=20, dim=5), path, fmt="binary")
    store = load_store(path)
    assert store._norms is not None
    for i, row in enumerate(rng.normal(size=(3, 5))):
        store.add(f"added{i}", row)
    assert store._norms is None and store._id_rank is None
    grown, built = FlatIndex.from_store(store), FlatIndex.build(zip(store.ids, store.matrix))
    assert grown._norms.tobytes() == built._norms.tobytes()
    assert np.array_equal(grown._id_rank, built._id_rank)
    queries = np.concatenate([rng.normal(size=(4, 5)), store.matrix[-3:]])
    for k in (1, 10, 23):
        assert ([(r.doc_ids, r.scores) for r in grown.search_many(queries, k)]
                == [(r.doc_ids, r.scores) for r in built.search_many(queries, k)])


def test_add_after_a_jsonl_load_indexes_like_build_and_keeps_earlier_views(tmp_path):
    # the JSONL reader fills a matrix with rows to spare, which add() then
    # writes into; a view taken before must neither grow nor change
    rng = np.random.default_rng(17)
    path = tmp_path / "s.jsonl"
    save_store(random_store(rng, n=20, dim=5), path)
    store = load_store(path)
    before = store.matrix
    kept = before.copy()
    for i, row in enumerate(rng.normal(size=(3, 5))):
        store.add(f"added{i}", row)
    assert before.shape == (20, 5) and not before.flags.writeable
    assert before.tobytes() == kept.tobytes() == store.matrix[:20].tobytes()
    grown, built = FlatIndex.from_store(store), FlatIndex.build(zip(store.ids, store.matrix))
    assert grown._norms.tobytes() == built._norms.tobytes()
    assert np.array_equal(grown._id_rank, built._id_rank)
    queries = np.concatenate([rng.normal(size=(4, 5)), store.matrix[-3:]])
    for k in (1, 10, 23):
        assert ([(r.doc_ids, r.scores) for r in grown.search_many(queries, k)]
                == [(r.doc_ids, r.scores) for r in built.search_many(queries, k)])


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
    index_a, index_b = (FlatIndex.from_store(s) for s in stores)
    for _ in range(5):
        q = rng.normal(size=6)
        ra, rb = index_a.search(q, 10), index_b.search(q, 10)
        assert ra.doc_ids == rb.doc_ids
        assert ra.scores == rb.scores


def test_every_loader_gives_the_id_map_an_index_shares(tmp_path):
    # from_store trusts the loaded store's id -> row map, so each loader's
    # must match its id list
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(40, 6))
    vectors[rng.integers(0, 40, size=10)] = vectors[rng.integers(0, 40, size=10)]  # ties
    store = EmbeddingStore(dim=6)
    for i, row in zip(rng.permutation(40), vectors):
        store.add(f"d{i:02d}", row)
    store.save_jsonl(tmp_path / "s.jsonl")
    save_binary_v1(store, tmp_path / "s.v1.bin")
    save_binary_v2(store, tmp_path / "s.v2.bin")
    store.save_binary(tmp_path / "s.bin")
    queries = np.concatenate([rng.normal(size=(5, 6)), vectors[:5]])

    def rankings(index):
        return [(r.doc_ids, r.scores) for k in (1, 5, 40) for r in index.search_many(queries, k)]

    expected = rankings(FlatIndex.from_store(store))
    for name in ("s.jsonl", "s.v1.bin", "s.v2.bin", "s.bin"):
        loaded = load_store(tmp_path / name)
        assert loaded._ids == store._ids
        assert loaded._index == {record_id: i for i, record_id in enumerate(loaded._ids)}
        index = FlatIndex.from_store(loaded)
        assert index._positions is loaded._index
        assert rankings(index) == expected


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


@pytest.mark.parametrize("vector", [["0.5", "0.25"], [None, 0.5], [True, False]],
                         ids=["strings", "null", "booleans"])
def test_embed_texts_rejects_components_that_are_not_numbers(vector):
    # the rule the JSONL store reader applies: numpy must read the vector as numbers
    with pytest.raises(FormatError, match="not numbers"):
        embed_texts(lambda texts: [vector], ["a"])


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


# -- v3 mirrors of JSONL stores ----------------------------------------------


def write_jsonl(path, dim, model, records) -> None:
    """A JSONL store of (id, row) records as any writer may lay it out: an
    integer id stays a JSON integer, NaN and inf rows keep json's tokens."""
    lines = [json.dumps({"format": "deo-emb", "version": 1, "dim": dim, "model": model})]
    lines += [json.dumps({"id": record_id, "vector": [float(x) for x in row]})
              for record_id, row in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parsed_only():
    """load_store with its mirror ignored: the JSONL as it parses."""
    return mock.patch.object(store_module, "_load_mirror", return_value=None)


def index_outcome(store):
    """(norm bits, search results) of the index built from store, or the
    error's type and message."""
    try:
        index = FlatIndex.from_store(store)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc), str(exc)
    query = np.ones(index.dim)
    return index._norms.tobytes(), index.search_many([query, -query], k=3)


def assert_same_store(mirrored, parsed) -> None:
    assert (mirrored.dim, mirrored.model, mirrored.ids) == (parsed.dim, parsed.model, parsed.ids)
    assert mirrored.matrix.tobytes() == parsed.matrix.tobytes()
    assert mirrored.stored_norms().tobytes() == raw_row_norms(parsed.matrix).tobytes()
    assert np.array_equal(mirrored._id_rank, store_module.id_rank(parsed.ids))
    assert index_outcome(mirrored) == index_outcome(parsed)


@st.composite
def mirrored_jsonl(draw):
    """(dim, model, records) with ids of lone surrogates and integers and
    rows of arbitrary float32 bits, NaN payloads and zero rows included."""
    store = draw(jsonl_stores())
    ints = draw(st.lists(st.integers(-2**70, 2**70), max_size=3, unique=True))
    records = list(zip(store.ids, store.matrix))
    records += [(i, np.arange(1, store.dim + 1, dtype=np.float32) * (i % 3 - 1))
                for i in ints if str(i) not in store]
    draw(st.randoms()).shuffle(records)
    return store.dim, draw(st.text(max_size=4)), records


@settings(derandomize=True, deadline=None, max_examples=100)
@given(mirrored_jsonl())
@example((2, "m", [("\ud800", np.ones(2)), (7, np.ones(2))]))
@example((2, "", [("a", np.array([np.nan, 1.0])), ("b", np.ones(2))]))
@example((2, "", [("a", np.ones(2)), ("b", np.zeros(2))]))
def test_a_mirror_loads_what_the_jsonl_parses_to(tmp_path_factory, case):
    dim, model, records = case
    path = tmp_path_factory.mktemp("mirror") / "s.jsonl"
    write_jsonl(path, dim, model, records)
    # the store as ingest held it, NaN payloads and all, ids as text
    held = EmbeddingStore(dim=dim, model=model)
    for record_id, row in records:
        held.add(str(record_id), row)
    store_module.save_mirror(held, path)
    with parsed_only():
        parsed = load_store(path)
    with mock.patch.object(EmbeddingStore, "load_jsonl", side_effect=AssertionError("parsed")):
        mirrored = load_store(path)
    assert mirrored._unchecked == str(path)  # what a deferred check would name
    assert_same_store(mirrored, parsed)
    assert "s.jsonl.v3" not in str(index_outcome(mirrored))


def ingested_jsonl(tmp_path, n=6, dim=3):
    embedder = CountingEmbedder(dim=dim)
    path = tmp_path / "corpus.jsonl"
    ingest_corpus({f"d{i}": f"text {i}" for i in range(n)}, embedder.embed, path, model="m")
    return path


def test_ingest_writes_a_v3_mirror_that_records_the_jsonl_digest(tmp_path):
    path = ingested_jsonl(tmp_path)
    mirror = tmp_path / "corpus.jsonl.v3"
    assert store_module.mirror_path(path) == str(mirror)
    data = mirror.read_bytes()
    (ids_start, ids_end) = v3_layout(data)[2][0]
    meta = json.loads(data[ids_start:ids_end])
    assert meta["source_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    # the mirror is a v3 store in its own right, too
    mirrored = load_store(path)
    assert load_store(mirror).ids == mirrored.ids
    with parsed_only():
        assert_same_store(mirrored, load_store(path))


def test_ingest_resume_rewrites_the_jsonl_and_its_mirror(tmp_path):
    path = ingested_jsonl(tmp_path, n=3)
    embedder = CountingEmbedder(dim=3)
    ingest_corpus({f"d{i}": f"text {i}" for i in range(5)}, embedder.embed, path, resume=True)
    with mock.patch.object(EmbeddingStore, "load_jsonl", side_effect=AssertionError("parsed")):
        mirrored = load_store(path)
    assert mirrored.ids == [f"d{i}" for i in range(5)]
    with parsed_only():
        assert_same_store(mirrored, load_store(path))


def test_ingest_as_binary_writes_no_mirror(tmp_path):
    embedder = CountingEmbedder(dim=3)
    ingest_corpus({"d1": "one"}, embedder.embed, tmp_path / "s.bin", fmt="binary")
    assert [p.name for p in tmp_path.iterdir()] == ["s.bin"]


def test_ingest_survives_a_mirror_it_cannot_write(tmp_path, caplog):
    path = ingested_jsonl(tmp_path, n=3)
    stale = (tmp_path / "corpus.jsonl.v3").read_bytes()
    embedder = CountingEmbedder(dim=3)
    with mock.patch.object(EmbeddingStore, "save_binary", side_effect=OSError(36, "File name too long")):
        report, _ = ingest_corpus({"d7": "seven"}, embedder.embed, path)
    assert report.total == 1
    warnings_logged = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings_logged) == 1 and "File name too long" in warnings_logged[0].getMessage()
    # the stale mirror is left, and ignored by its digest
    assert (tmp_path / "corpus.jsonl.v3").read_bytes() == stale
    assert load_store(path).ids == ["d7"] and load_store(path).stored_norms() is None


def test_cli_ingest_output_and_exit_code_hold_when_the_mirror_fails(tmp_path, mock_api, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n')
    cfg = tmp_path / "tool.cfg"
    cfg.write_text(f"embed_base_url = {mock_api.base_url}\nembed_model = e\n")
    argv = ["ingest", "--config", str(cfg), "--docs", str(docs), "--out", str(tmp_path / "s.jsonl")]
    assert main(argv) == 0
    expected = capsys.readouterr().out.split(", dim")[0]
    with mock.patch.object(EmbeddingStore, "save_binary", side_effect=PermissionError(13, "denied")):
        assert main(argv) == 0
    assert capsys.readouterr().out.split(", dim")[0] == expected


def fallback_cases():
    def flip_byte(path):
        data = bytearray(path.read_bytes())
        data[data.rindex(b"]") - 1] ^= 1  # the last digit of the last row
        path.write_bytes(bytes(data))

    def append_line(path):
        with open(path, "a") as fh:
            fh.write('{"id":"late","vector":[1,2,3]}\n')

    def truncate_mirror(path):
        mirror = tmp_mirror(path)
        mirror.write_bytes(mirror.read_bytes()[:-1])

    def garbage_mirror(path):
        tmp_mirror(path).write_bytes(bytes(range(256)) * 8)

    def mirror_without_digest(path):
        with parsed_only():
            load_store(path).save_binary(tmp_mirror(path))

    def no_mirror(path):
        tmp_mirror(path).unlink()

    def mirror_is_a_directory(path):
        no_mirror(path)
        tmp_mirror(path).mkdir()

    return [flip_byte, append_line, truncate_mirror, garbage_mirror, mirror_without_digest,
            no_mirror, mirror_is_a_directory]


def tmp_mirror(path):
    return path.with_name(path.name + ".v3")


@pytest.mark.parametrize("spoil", fallback_cases(), ids=lambda f: f.__name__)
def test_a_mirror_that_does_not_match_is_ignored_and_the_jsonl_parsed(tmp_path, spoil):
    path = ingested_jsonl(tmp_path)
    spoil(path)
    with mock.patch.object(EmbeddingStore, "load_jsonl", wraps=EmbeddingStore.load_jsonl) as parse:
        loaded = load_store(path)
    assert parse.call_count == 1 and loaded.stored_norms() is None
    oracle = oracle_load_jsonl(path)
    assert (loaded.model, loaded.ids, loaded.matrix.tobytes()) == \
        (oracle.model, oracle.ids, oracle.matrix.tobytes())


def snapshot(directory):
    return {p.name: (p.stat().st_mtime_ns, p.read_bytes() if p.is_file() else None)
            for p in directory.iterdir()}


@pytest.mark.parametrize("spoil", [None, *fallback_cases()],
                         ids=lambda f: f.__name__ if f else "valid")
def test_load_store_creates_changes_and_deletes_no_file(tmp_path, spoil):
    path = ingested_jsonl(tmp_path)
    if spoil:
        spoil(path)
    before = snapshot(tmp_path)
    FlatIndex.from_store(load_store(path))
    assert snapshot(tmp_path) == before


def test_a_binary_store_ignores_a_file_at_its_mirror_path(tmp_path):
    rng = np.random.default_rng(5)
    store = random_store(rng, n=4, dim=3)
    store.save_binary(tmp_path / "s.bin")
    random_store(rng, n=2, dim=3).save_binary(tmp_path / "s.bin.v3")
    assert load_store(tmp_path / "s.bin").matrix.tobytes() == store.matrix.tobytes()


def test_a_bad_line_under_a_stale_mirror_names_the_jsonl_line(tmp_path):
    path = ingested_jsonl(tmp_path)
    with open(path, "a") as fh:
        fh.write('{"id":"late","vector":[1,2]}\n')
    with pytest.raises(FormatError, match=r"corpus\.jsonl:8: vector length 2"):
        load_store(path)
