import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deo.decomposer import DecompositionCache
from deo.errors import EmptyInputError, FormatError
from deo.ioutil import load_texts_jsonl, loads
from deo.store import load_store

from conftest import child_env

# every character, lone surrogates included
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(ANY_TEXT, children, max_size=4),
    max_leaves=16,
)

# number tokens beyond what json.dumps writes: long integers and mantissas,
# leading-zero fractions, wide exponents
NUMBER_TOKENS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,40})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,5})?", fullmatch=True
)


def same_json(a, b) -> bool:
    """Equality that tells int from float and -0.0 from 0.0, and NaN == NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[key], b[key]) for key in a)
    return a == b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(JSON_VALUES, st.booleans())
@example(2**64, True)
@example(-(2**63) - 1, True)
@example(10**40, True)
@example({"id": "\ud800", "v": [float("nan"), float("inf"), -0.0]}, True)
def test_loads_equals_json_loads(value, ensure_ascii):
    text = json.dumps(value, allow_nan=True, ensure_ascii=ensure_ascii)
    assert same_json(loads(text), json.loads(text))
    if ensure_ascii:  # response bodies arrive as bytes
        assert same_json(loads(text.encode()), json.loads(text))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(NUMBER_TOKENS)
@example("12345678901234567890123")
@example("-9223372036854775809")
@example("18446744073709551616")
@example("1e400")
@example("[1,-12345678901234567890]")
def test_loads_reads_numbers_like_json_loads(token):
    assert same_json(loads(token), json.loads(token))


@pytest.mark.parametrize("text, lineno, message", [
    ('{"id": "q0", "text": "ok"}\n{"id": "a", "text": tru}\n', 2, "invalid JSON (Expecting value)"),
    ('{"id": "q0", "text": "ok"}\n{"id": "a", "text": "b"\n', 2,
     "invalid JSON (Expecting ',' delimiter)"),
    ('\ufeff{"id": "q0", "text": "ok"}\n', 1,
     "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ('{"id": "q0", "text": "ok"}\n{"id": "q1", "text": "a", "text": 5}\n', 2,
     "'id' must be a string or an integer and 'text' a string"),
    ('{"id": "q0", "text": "ok"}\n{"id": "q1", "text": NaN}\n', 2,
     "'id' must be a string or an integer and 'text' a string"),
    ('{"id": "q0", "text": "ok"}\n{"id": "q1", "text": "a"} x\n', 2, "invalid JSON (Extra data)"),
    ('{"id": "q0", "text": "ok"}\n{"id": "q1", "text": "a\x01"}\n', 2,
     "invalid JSON (Invalid control character at)"),
])
def test_read_jsonl_diagnostics_are_the_stdlibs(tmp_path, text, lineno, message):
    path = tmp_path / "queries.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_texts_jsonl(path)
    assert str(info.value) == f"{path}:{lineno}: {message}"


def test_read_jsonl_keeps_wide_integers_and_lone_surrogates(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"id": 123456789012345678901234567890, "text": "a"}\n'
                    '{"id": "\\ud800", "text": "b"}\n'
                    '{"id": -9223372036854775809, "text": "c"}\n'
                    '{"id": "q", "text": "a", "text": "d"}\n')
    assert load_texts_jsonl(path) == {"123456789012345678901234567890": "a", "\ud800": "b",
                                      "-9223372036854775809": "c", "q": "d"}


@pytest.mark.parametrize("text", [
    json.dumps([[i] for i in range(12_000)]),  # over 20 kB with over 10,000 '['
    "[[12345678901234567890123]]",
    '{"a": [-12345678901234567890], "b": {"c": [[18446744073709551616]]}}',
])
def test_loads_reads_bracket_heavy_texts_like_json_loads(text):
    assert same_json(loads(text), json.loads(text))


def test_loads_nested_too_deep_for_the_stdlib_is_a_decode_error():
    with pytest.raises(json.JSONDecodeError, match="nesting too deep"):
        loads("[" * 15_000 + "]" * 15_000)


def test_a_line_nested_past_orjsons_stack_is_a_data_error(tmp_path):
    # orjson 3.8 overflowed the C stack on this line and killed the
    # interpreter, so the command runs in a child process
    depth = 1_000_000
    queries = tmp_path / "q.jsonl"
    queries.write_text('{"id": ' + "[" * depth + "]" * depth + ', "text": "x"}\n')
    result = subprocess.run(
        [sys.executable, "-m", "deo", "decompose", "--queries", str(queries),
         "--cache", str(tmp_path / "cache.jsonl")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (result.returncode, result.stdout) == (1, "")
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {"error": "FormatError",
                                "message": f"{queries}:1: invalid JSON (nesting too deep)"}


def test_a_store_record_nested_past_orjsons_stack_is_a_data_error(tmp_path):
    # the store reader parses records with orjson itself, so it must keep
    # long lines away from it as loads does
    depth = 1_000_000
    store = tmp_path / "s.jsonl"
    store.write_text('{"format":"deo-emb","version":1,"dim":1}\n'
                     '{"id": "a", "vector": [' + "[" * depth + "]" * depth + "]}\n")
    result = subprocess.run(
        [sys.executable, "-m", "deo", "index", "--store", str(store)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (result.returncode, result.stdout) == (1, "")
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {"error": "FormatError",
                                "message": f"{store}:2: invalid JSON (nesting too deep)"}


# -- one id rule for every JSONL reader ----------------------------------------

# reader -> (a valid first line, raw JSON id -> a record line with that id,
# path -> the ids the reader reads from the file)
ID_READERS = {
    "texts": ('{"id": "q0", "text": "ok"}', lambda raw: '{"id": %s, "text": "a"}' % raw,
              lambda path: list(load_texts_jsonl(path))),
    "store": ('{"format": "deo-emb", "version": 1, "dim": 1}',
              lambda raw: '{"id": %s, "vector": [1.0]}' % raw,
              lambda path: load_store(path).ids),
    "cache": ('{"query_id": "q0", "query": "ok", "positives": [], "negatives": []}',
              lambda raw: '{"query_id": %s, "query": %s, "positives": [], "negatives": []}'
              % (raw, json.dumps(raw)),
              lambda path: [e.query_id for e in DecompositionCache(path).entries()]),
}


@pytest.mark.parametrize("reader", sorted(ID_READERS))
@pytest.mark.parametrize("raw", ["null", '["a"]', "1.5", "true"])
def test_every_reader_rejects_an_id_that_is_not_a_string_or_an_integer(tmp_path, reader, raw):
    first, record, read = ID_READERS[reader]
    path = tmp_path / "records.jsonl"
    path.write_text(first + "\n" + record(raw) + "\n")
    field = "query_id" if reader == "cache" else "id"
    with pytest.raises(FormatError) as info:
        read(path)
    assert str(info.value) == f"{path}:2: {field!r} must be a string or an integer"


@pytest.mark.parametrize("reader", sorted(ID_READERS))
def test_every_reader_keeps_an_integer_id_exact(tmp_path, reader):
    first, record, read = ID_READERS[reader]
    path = tmp_path / "records.jsonl"
    path.write_text(first + "\n" + record("123456789012345678901234567890") + "\n"
                    + record("-7") + "\n")
    assert read(path)[-2:] == ["123456789012345678901234567890", "-7"]


@pytest.mark.parametrize("line", [
    '{"query": null, "positives": [], "negatives": []}',
    '{"query": 5, "positives": [], "negatives": []}',
    '{"query": "a", "model": null, "positives": [], "negatives": []}',
    '{"query": "a", "model": ["m"], "positives": [], "negatives": []}',
])
def test_cache_query_and_model_must_be_strings(tmp_path, line):
    path = tmp_path / "cache.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(FormatError) as info:
        DecompositionCache(path)
    assert str(info.value) == f"{path}:1: 'query' and 'model' must be strings"


@pytest.mark.parametrize("text", ["", "\n\n", "  \n"])
def test_texts_file_without_records_is_empty_input(tmp_path, text):
    path = tmp_path / "queries.jsonl"
    path.write_text(text)
    with pytest.raises(EmptyInputError) as info:
        load_texts_jsonl(path)
    assert str(info.value) == f"{path}: no records"
