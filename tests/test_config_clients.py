import json
import math

import pytest

from deo.benchmark import BenchmarkConfig
from deo.cli import _endpoints
from deo.clients import ChatClient, ClientConfig, EmbeddingClient, _post_with_retries
from deo.config import OPTIMIZER_KEYS, ToolConfig, parse_flat_config
from deo.errors import ConfigError, EmptyInputError, TransportError
from deo.optimizer import OptimizationConfig


# -- flat config parser ----------------------------------------------------


def test_parse_flat_config_basics():
    text = (
        "# leading comment\n"
        "a = 1\n"
        "\n"
        "b = hello world  # trailing comment\n"
        "c=no-spaces\n"
    )
    assert parse_flat_config(text) == {"a": "1", "b": "hello world", "c": "no-spaces"}


def test_parse_flat_config_errors():
    with pytest.raises(ConfigError, match=":1"):
        parse_flat_config("not an assignment")
    with pytest.raises(ConfigError, match="empty key"):
        parse_flat_config("= value")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_config("a = 1\na = 2")


# -- tool config -----------------------------------------------------------


def test_tool_config_defaults():
    cfg = ToolConfig()
    assert cfg.chat_model == "gpt-4.1-nano"
    assert cfg.temperature == 0.1
    assert cfg.optimizer.steps == 20
    assert cfg.optimizer.learning_rate == 0.05
    assert cfg.max_subqueries == 8
    assert cfg.batch_size == 64
    assert cfg.concurrency == 4
    opt = cfg.optimizer
    assert (opt.lambda_p, opt.lambda_n, opt.lambda_o) == (1.0, 1.0, 0.2)


def test_tool_config_from_file_and_types(tmp_path):
    path = tmp_path / "deo.cfg"
    path.write_text(
        "chat_model = local-llm\n"
        "steps = 7\n"
        "learning_rate = 0.1\n"
        "normalize_inputs = false\n"
    )
    cfg = ToolConfig.from_file(path)
    assert cfg.chat_model == "local-llm"
    assert cfg.optimizer.steps == 7
    assert cfg.optimizer.learning_rate == 0.1
    assert cfg.optimizer.normalize_inputs is False


def test_tool_config_rejects_unknown_and_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        ToolConfig.from_mapping({"nope": "1"})
    with pytest.raises(ConfigError, match="invalid value"):
        ToolConfig.from_mapping({"steps": "many"})
    with pytest.raises(ConfigError):
        ToolConfig.from_mapping({"normalize_inputs": "maybe"})
    with pytest.raises(ConfigError, match="steps must be >= 0"):
        ToolConfig.from_mapping({"steps": "-1"})
    with pytest.raises(ConfigError, match="unknown config key 'optimizer'"):
        ToolConfig.from_mapping({"optimizer": "x"})


@pytest.mark.parametrize("key, value", [
    ("max_retries", "-1"),
    ("max_subqueries", "0"),
    ("batch_size", "0"),
    ("concurrency", "0"),
    ("timeout", "0"),
    ("timeout", "-2.5"),
    ("temperature", "nan"),
    ("temperature", "inf"),
    ("temperature", "-0.5"),
])
def test_tool_config_rejects_values_that_break_later(key, value):
    with pytest.raises(ConfigError, match=f"<config>: {key} must be"):
        ToolConfig.from_mapping({key: value})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(OPTIMIZER_KEYS))
def test_non_finite_optimizer_values_name_the_key(key, value):
    # a NaN weight or learning rate would make every Adam step a no-op
    bench_keys = {"corpus_store": "c", "queries": "q", "qrels": "r"}
    for build in (lambda: ToolConfig.from_mapping({key: value}),
                  lambda: BenchmarkConfig.from_mapping({**bench_keys, key: value})):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value).startswith("<config>: ") and key in str(info.value)


def test_tool_config_presets():
    cfg = ToolConfig(optimizer=OptimizationConfig(lambda_o=0.5, steps=3))
    assert cfg.with_preset("text").optimizer == OptimizationConfig(lambda_o=0.2, steps=3)
    assert cfg.with_preset("multimodal").optimizer.lambda_o == 1.0
    with pytest.raises(ConfigError):
        cfg.with_preset("audio")


def test_tool_config_projections():
    cfg = ToolConfig.from_mapping(
        {"steps": "3", "lambda_n": "0.5", "timeout": "5.0", "max_retries": "1"}
    )
    assert (cfg.optimizer.steps, cfg.optimizer.lambda_n) == (3, 0.5)
    endpoints = _endpoints(cfg)
    cc = endpoints["chat_client"].cfg
    assert (cc.timeout, cc.max_retries) == (5.0, 1)
    assert endpoints["embed_client"].cfg.base_url == cfg.embed_base_url


# -- http clients ----------------------------------------------------------


def make_cfg(api, retries=1):
    return ClientConfig(base_url=api.base_url, api_key_env="DEO_TEST_KEY",
                        max_retries=retries, backoff_base=0.0)


def test_api_key_env_indirection(monkeypatch):
    cfg = ClientConfig(api_key_env="DEO_TEST_KEY")
    monkeypatch.delenv("DEO_TEST_KEY", raising=False)
    assert "Authorization" not in cfg.headers()
    monkeypatch.setenv("DEO_TEST_KEY", "sk-secret")
    assert cfg.headers()["Authorization"] == "Bearer sk-secret"


def test_chat_complete_roundtrip(mock_api):
    mock_api.chat_script = ["the reply"]
    client = ChatClient(make_cfg(mock_api), model="m", temperature=0.3, sleep=lambda s: None)
    assert client.complete("hi") == "the reply"
    path, payload = mock_api.requests[0]
    assert path == "/v1/chat/completions"
    assert payload["temperature"] == 0.3
    assert payload["messages"] == [{"role": "user", "content": "hi"}]


def test_embed_roundtrip(mock_api):
    client = EmbeddingClient(make_cfg(mock_api), model="e", sleep=lambda s: None)
    vectors = client.embed(["a", "b"])
    assert len(vectors) == 2
    assert len(vectors[0]) == mock_api.embed_dim
    # same text always embeds identically through the mock
    assert client.embed(["a"])[0] == vectors[0]


def test_embed_rejects_empty_batch(mock_api):
    client = EmbeddingClient(make_cfg(mock_api))
    with pytest.raises(EmptyInputError):
        client.embed([])
    assert mock_api.request_count() == 0


def test_retry_on_retryable_then_success(mock_api):
    mock_api.fail_statuses = [429, 503]
    slept = []
    data = _post_with_retries(make_cfg(mock_api, retries=3), "/v1/embeddings",
                              {"model": "e", "input": ["x"]}, sleep=slept.append)
    assert len(data["data"]) == 1
    assert mock_api.request_count() == 3
    # exponential backoff doubles each retry
    assert slept == [0.0, 0.0] or slept[1] == slept[0] * 2


def test_backoff_schedule(mock_api):
    mock_api.fail_statuses = [500, 500]
    cfg = ClientConfig(base_url=mock_api.base_url, api_key_env="K",
                       max_retries=2, backoff_base=0.5)
    slept = []
    _post_with_retries(cfg, "/v1/embeddings", {"model": "e", "input": ["x"]},
                       sleep=slept.append)
    assert slept == [0.5, 1.0]


@pytest.mark.parametrize("status, retry_after, slept", [
    (429, "3", [3.0]),                              # longer than the backoff
    (503, "0.1", [0.5]),                            # shorter: the backoff
    (429, "1000", [5.0]),                           # capped at the timeout
    (503, "Wed, 21 Oct 2026 07:28:00 GMT", [0.5]),  # not a number: the backoff
    (500, "3", [0.5]),                              # only 429 and 503 carry it
])
def test_retry_after_sets_the_wait(mock_api, status, retry_after, slept):
    mock_api.fail_statuses = [status]
    mock_api.fail_headers = {"Retry-After": retry_after}
    cfg = ClientConfig(base_url=mock_api.base_url, api_key_env="K",
                       max_retries=1, backoff_base=0.5, timeout=5.0)
    waits = []
    assert len(EmbeddingClient(cfg, sleep=waits.append).embed(["x"])) == 1
    assert waits == slept


def test_non_retryable_fails_fast(mock_api):
    mock_api.fail_statuses = [404]
    with pytest.raises(TransportError, match="404"):
        _post_with_retries(make_cfg(mock_api, retries=3), "/v1/embeddings",
                           {"model": "e", "input": ["x"]}, sleep=lambda s: None)
    assert mock_api.request_count() == 1


def test_gives_up_after_max_retries(mock_api):
    mock_api.fail_statuses = [500, 500, 500]
    with pytest.raises(TransportError, match="giving up"):
        _post_with_retries(make_cfg(mock_api, retries=2), "/v1/embeddings",
                           {"model": "e", "input": ["x"]}, sleep=lambda s: None)
    assert mock_api.request_count() == 3


def test_connection_error_is_transport_error():
    cfg = ClientConfig(base_url="http://127.0.0.1:9", api_key_env="K",
                       max_retries=0, backoff_base=0.0)
    with pytest.raises(TransportError):
        _post_with_retries(cfg, "/v1/embeddings", {"input": ["x"]}, sleep=lambda s: None)


class StubResponse:
    def __init__(self, body):
        self.status_code = 200
        self.text = "stub"
        self._body = body
        self.content = json.dumps(body).encode()

    def json(self):
        return self._body


def test_malformed_chat_body(monkeypatch):
    monkeypatch.setattr("deo.clients.requests.post",
                        lambda *a, **k: StubResponse({"choices": []}))
    client = ChatClient(ClientConfig(max_retries=0), sleep=lambda s: None)
    with pytest.raises(TransportError, match="choices"):
        client.complete("x")


def test_embed_count_mismatch(monkeypatch):
    monkeypatch.setattr("deo.clients.requests.post",
                        lambda *a, **k: StubResponse({"data": [{"embedding": [0.0]}]}))
    client = EmbeddingClient(ClientConfig(max_retries=0), sleep=lambda s: None)
    with pytest.raises(TransportError, match="1 vectors for 2"):
        client.embed(["a", "b"])


def test_nan_in_a_200_body_still_parses(monkeypatch):
    monkeypatch.setattr("deo.clients.requests.post",
                        lambda *a, **k: StubResponse({"data": [{"embedding": [float("nan"), 1.0]}]}))
    client = EmbeddingClient(ClientConfig(max_retries=0), sleep=lambda s: None)
    [vector] = client.embed(["a"])
    assert math.isnan(vector[0]) and vector[1] == 1.0


def test_non_json_200_body_is_transport_error(monkeypatch):
    response = StubResponse(None)
    response.content = b"<html>upstream proxy page</html>"
    monkeypatch.setattr("deo.clients.requests.post", lambda *a, **k: response)
    client = EmbeddingClient(ClientConfig(max_retries=0), sleep=lambda s: None)
    with pytest.raises(TransportError, match="non-JSON 200 response"):
        client.embed(["a"])


def test_too_deeply_nested_200_body_is_transport_error(monkeypatch):
    response = StubResponse(None)
    response.content = b"[" * 15_000 + b"]" * 15_000
    monkeypatch.setattr("deo.clients.requests.post", lambda *a, **k: response)
    client = EmbeddingClient(ClientConfig(max_retries=0), sleep=lambda s: None)
    with pytest.raises(TransportError, match="non-JSON 200 response .*nesting too deep"):
        client.embed(["a"])
