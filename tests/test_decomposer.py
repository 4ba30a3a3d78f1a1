import json
import time

import pytest

from deo.clients import ChatClient, ClientConfig
from deo.decomposer import (
    MAX_OBJECT_STARTS,
    DecomposedQuery,
    DecompositionCache,
    build_decomposition_prompt,
    decompose,
    decompose_many,
    parse_decomposition_response,
)
from deo.errors import EmptyInputError, FormatError, ParseError, TransportError

VALID = '{"positives": ["solar panels", "renewables"], "negatives": ["coal plants"]}'


def make_client(api, **kwargs):
    cfg = ClientConfig(base_url=api.base_url, api_key_env="DEO_TEST_KEY",
                       max_retries=kwargs.pop("max_retries", 1), backoff_base=0.0)
    return ChatClient(cfg, model=kwargs.pop("model", "test-model"),
                      sleep=lambda s: None, **kwargs)


# -- prompt ---------------------------------------------------------------


def test_prompt_rejects_empty_query():
    with pytest.raises(EmptyInputError):
        build_decomposition_prompt("")
    with pytest.raises(EmptyInputError):
        build_decomposition_prompt("   ")


def test_prompt_contains_query_exactly_once():
    query = "maglev trains excluding anything about ticket prices"
    prompt = build_decomposition_prompt(query)
    assert prompt.count(query) == 1
    assert prompt.rstrip().endswith(query)


def test_prompt_worked_example():
    # the embedded few-shot pair guides the expected completion
    prompt = build_decomposition_prompt("any query")
    assert "cultural significance and role of Bayreuth as a cultural hub" in prompt
    assert "specific examples of photomontage artworks" in prompt
    assert '"positives"' in prompt and '"negatives"' in prompt


# -- parsing --------------------------------------------------------------


def test_parse_well_formed():
    positives, negatives = parse_decomposition_response('{"positives":["a"],"negatives":["b"]}')
    assert positives == ("a",)
    assert negatives == ("b",)


def test_parse_tolerates_fences_and_prose():
    text = (
        "Sure! Here is the decomposition you asked for:\n"
        "```json\n"
        '{"positives": ["a", "b"], "negatives": ["c"]}\n'
        "```\n"
        "Let me know if you need anything else."
    )
    assert parse_decomposition_response(text) == (("a", "b"), ("c",))


def test_parse_skips_leading_non_object_braces():
    text = 'weird {not json} then {"positives": ["a"], "negatives": []}'
    assert parse_decomposition_response(text) == (("a",), ())


def test_parse_dedupes_strips_and_truncates():
    payload = {
        "positives": ["a", " a ", "", "b", "a", "c", "d", "e", "f", "g", "h", "i"],
        "negatives": ["  ", "x"],
    }
    positives, negatives = parse_decomposition_response(json.dumps(payload))
    assert positives == ("a", "b", "c", "d", "e", "f", "g", "h")  # capped at 8
    assert negatives == ("x",)


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse_decomposition_response("no json here")
    with pytest.raises(ParseError):
        parse_decomposition_response('{"wrong": 1}')
    with pytest.raises(ParseError):
        parse_decomposition_response('{"positives": [], "negatives": []}')
    with pytest.raises(ParseError):
        parse_decomposition_response('{"positives": "a", "negatives": []}')
    with pytest.raises(ParseError):
        parse_decomposition_response('{"positives": [1], "negatives": []}')


def test_parse_idempotent_on_serialized_output():
    positives, negatives = parse_decomposition_response(VALID)
    rendered = json.dumps({"positives": list(positives), "negatives": list(negatives)})
    assert parse_decomposition_response(rendered) == (positives, negatives)


# a reply nested past the stdlib's recursion limit
TOO_DEEP = '{"positives": ' + "[" * 3000


def test_parse_reply_nested_too_deep_is_a_parse_error():
    with pytest.raises(ParseError, match="no JSON object found"):
        parse_decomposition_response(TOO_DEEP)


def test_parse_a_megabyte_of_braces_fails_in_linear_time():
    started = time.perf_counter()
    with pytest.raises(ParseError, match="no JSON object found"):
        parse_decomposition_response("{" * 10**6)
    assert time.perf_counter() - started < 1.0


def test_parse_tries_the_first_max_object_starts_braces_only():
    garbage = "{ " * (MAX_OBJECT_STARTS - 1)
    assert parse_decomposition_response(garbage + VALID)[1] == ("coal plants",)
    with pytest.raises(ParseError, match="no JSON object found"):
        parse_decomposition_response("{ " + garbage + VALID)


class ScriptedChat:
    """Stub chat client: returns one reply for every prompt, counts calls."""

    model = "scripted"

    def __init__(self, reply):
        self.reply, self.prompts = reply, []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return self.reply


def test_decompose_falls_back_to_identity_on_a_reply_nested_too_deep():
    client = ScriptedChat(TOO_DEEP)
    result = decompose("find cats not dogs", client, query_id="q1")
    assert (result.positives, result.negatives) == (("find cats not dogs",), ())
    assert result.model == "scripted" and len(client.prompts) == 2


# -- decompose over the wire ----------------------------------------------


def test_decompose_happy_path(mock_api):
    mock_api.chat_script = [VALID]
    result = decompose("solar farms not coal", make_client(mock_api), query_id="q1")
    assert result.positives == ("solar panels", "renewables")
    assert result.negatives == ("coal plants",)
    assert result.model == "test-model"
    assert mock_api.request_count("/v1/chat/completions") == 1


def test_decompose_retry_then_success_appends_reminder(mock_api):
    mock_api.chat_script = ["utter garbage", VALID]
    result = decompose("some query", make_client(mock_api))
    assert result.positives == ("solar panels", "renewables")
    assert mock_api.request_count("/v1/chat/completions") == 2
    second_prompt = mock_api.requests[1][1]["messages"][-1]["content"]
    assert "Reminder" in second_prompt


def test_decompose_fallback_after_two_failures(mock_api):
    mock_api.chat_script = ["garbage one", "garbage two"]
    result = decompose("find cats not dogs", make_client(mock_api))
    assert result.positives == ("find cats not dogs",)
    assert result.negatives == ()
    assert mock_api.request_count("/v1/chat/completions") == 2
    assert "Reminder" in mock_api.requests[1][1]["messages"][-1]["content"]


def test_decompose_transport_error_after_retries(mock_api):
    mock_api.fail_statuses = [500, 500]
    with pytest.raises(TransportError):
        decompose("q", make_client(mock_api, max_retries=1))


def test_decompose_sends_model_and_temperature(mock_api):
    mock_api.chat_script = [VALID]
    client = make_client(mock_api)
    decompose("q", client)
    payload = mock_api.requests[0][1]
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.1
    assert payload["messages"][0]["role"] == "user"


def test_decompose_never_empty_both_sides(mock_api):
    # even a degenerate response leaves positives non-empty via fallback
    mock_api.chat_script = ['{"positives": [], "negatives": []}'] * 2
    result = decompose("the query", make_client(mock_api))
    assert len(result.positives) >= 1


# -- cache ----------------------------------------------------------------


def entry(query="q text", model="m1", qid="q1"):
    return DecomposedQuery(
        query_id=qid, original=query, positives=("p1", "p2"), negatives=("n1",),
        model=model,
    )


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = DecompositionCache(path)
    assert len(cache) == 0
    cache.put(entry())
    reloaded = DecompositionCache(path)
    got = reloaded.get("q text", "m1")
    assert got is not None
    assert got.positives == ("p1", "p2")
    assert got.negatives == ("n1",)
    assert got.query_id == "q1"


def test_cache_file_format(tmp_path):
    path = tmp_path / "cache.jsonl"
    DecompositionCache(path).put(entry())
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == {"query_id", "query", "positives", "negatives", "model"}


def test_cache_lookup_any_model(tmp_path):
    cache = DecompositionCache(tmp_path / "c.jsonl")
    cache.put(entry(model="exotic"))
    assert cache.get("q text", "other") is None
    assert cache.lookup("q text") is not None


def test_cache_lookup_prefers_the_entry_made_under_no_model(tmp_path):
    cache = DecompositionCache(tmp_path / "c.jsonl")
    cache.put(entry(model="exotic", qid="q1"))
    cache.put(entry(model="", qid="q2"))
    assert cache.lookup("q text").query_id == "q2"


def test_cache_keeps_first_seen_order(tmp_path):
    # a key seen again replaces its entry in place: flush, entries() and the
    # any-model lookup all follow the order keys first appeared in
    path = tmp_path / "c.jsonl"
    rows = [entry("a", "m1"), entry("b", "m1"), entry("a", "m2"), entry("a", "m1", qid="q9")]
    path.write_text("".join(json.dumps(row.to_cache_obj()) + "\n" for row in rows))
    cache = DecompositionCache(path)
    assert [(e.original, e.model, e.query_id) for e in cache.entries()] == [
        ("a", "m1", "q9"), ("b", "m1", "q1"), ("a", "m2", "q1")]
    assert cache.lookup("a").model == "m1"
    cache.put(entry("b", "m1", qid="q7"), flush=False)
    cache.put(entry("c", "m1"))
    assert [json.loads(line)["query_id"] for line in path.read_text().splitlines()] == [
        "q9", "q7", "q1", "q1"]


def test_cache_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"nope": true}\n')
    with pytest.raises(FormatError):
        DecompositionCache(path)


def test_decompose_many_uses_cache(tmp_path, mock_api):
    cache = DecompositionCache(tmp_path / "c.jsonl")
    client = make_client(mock_api)
    pairs = [("q1", "first query"), ("q2", "second query")]

    first = decompose_many(pairs, client, cache=cache)
    assert len(first) == 2
    assert mock_api.request_count("/v1/chat/completions") == 2

    # same queries again: served from cache, zero new calls
    second = decompose_many(pairs, client, cache=cache)
    assert mock_api.request_count("/v1/chat/completions") == 2
    assert [d.positives for d in second] == [d.positives for d in first]


def test_decompose_many_dedupes_in_flight(mock_api):
    client = make_client(mock_api)
    pairs = [("q1", "same text"), ("q2", "same text"), ("q3", "same text")]
    results = decompose_many(pairs, client, cache=None)
    assert mock_api.request_count("/v1/chat/completions") == 1
    assert [r.query_id for r in results] == ["q1", "q2", "q3"]


def test_decompose_many_validates_concurrency(mock_api):
    with pytest.raises(ValueError):
        decompose_many([], make_client(mock_api), concurrency=0)


def test_decompose_many_caches_work_done_before_a_failure(tmp_path, mock_api):
    # the third chat request fails: the first two decompositions were paid
    # for and stay cached, and no further request is sent
    mock_api.fail_statuses = [None, None, 404]
    path = tmp_path / "c.jsonl"
    pairs = [(f"q{i}", f"query {i}") for i in range(5)]
    with pytest.raises(TransportError, match="404"):
        decompose_many(pairs, make_client(mock_api, max_retries=0),
                       cache=DecompositionCache(path), concurrency=1)
    assert mock_api.request_count("/v1/chat/completions") == 3
    assert [e.original for e in DecompositionCache(path).entries()] == ["query 0", "query 1"]
