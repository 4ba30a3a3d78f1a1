"""HTTP clients for chat-completion and embedding endpoints.

Both speak the common OpenAI-compatible JSON shapes, so any conforming
server (hosted or local) works. Transient failures (429, 5xx, connection
errors) are retried with exponential backoff, or after the server's
Retry-After on 429 and 503 when that is longer; anything that survives the
retries surfaces as TransportError.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass

import requests

from .errors import EmptyInputError, TransportError
from .ioutil import loads

logger = logging.getLogger(__name__)

RETRYABLE_STATUS = {429, 500, 502, 503, 504}


@dataclass(frozen=True)
class ClientConfig:
    """Connection settings shared by both clients.

    api_key_env names the environment variable holding the key; the key
    itself never appears in config files or logs.
    """

    base_url: str = "https://api.openai.com"
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 0.5

    def headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers


def _post_with_retries(cfg: ClientConfig, path: str, payload: dict, sleep=time.sleep) -> dict:
    url = cfg.base_url.rstrip("/") + path
    last_error = ""
    for attempt in range(cfg.max_retries + 1):
        asked = 0.0  # seconds the server's Retry-After asks for
        try:
            response = requests.post(
                url, json=payload, headers=cfg.headers(), timeout=cfg.timeout
            )
        except requests.RequestException as exc:
            last_error = f"connection error: {exc}"
        else:
            if response.status_code == 200:
                try:
                    return loads(response.content)
                except ValueError as exc:
                    raise TransportError(f"{url}: non-JSON 200 response ({exc})") from exc
            last_error = f"HTTP {response.status_code}"
            if response.status_code not in RETRYABLE_STATUS:
                raise TransportError(f"{url}: {last_error}: {response.text[:200]}")
            if response.status_code in (429, 503):
                try:
                    asked = min(float(response.headers.get("Retry-After", "")), cfg.timeout)
                except ValueError:  # absent, or an HTTP date
                    pass
        if attempt < cfg.max_retries:
            delay = max(cfg.backoff_base * (2.0**attempt), asked)
            logger.warning("%s failed (%s); retry %d/%d in %.1fs",
                           url, last_error, attempt + 1, cfg.max_retries, delay)
            sleep(delay)
    raise TransportError(f"{url}: giving up after {cfg.max_retries + 1} attempts ({last_error})")


class ChatClient:
    """Minimal chat-completions caller: one prompt in, one string out."""

    def __init__(self, cfg: ClientConfig, model: str = "gpt-4.1-nano",
                 temperature: float = 0.1, sleep=time.sleep):
        self.cfg = cfg
        self.model = model
        self.temperature = temperature
        self._sleep = sleep

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        data = _post_with_retries(self.cfg, "/v1/chat/completions", payload, self._sleep)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("chat response missing choices[0].message.content") from exc
        if not isinstance(content, str):
            raise TransportError("chat response content is not a string")
        return content


class EmbeddingClient:
    """Batch embedding caller returning one vector per input text."""

    def __init__(self, cfg: ClientConfig, model: str = "text-embedding-3-small",
                 sleep=time.sleep):
        self.cfg = cfg
        self.model = model
        self._sleep = sleep

    def embed(self, texts: list[str]) -> list[list[float]]:
        if not texts:
            raise EmptyInputError("embed requires at least one text")
        payload = {"model": self.model, "input": list(texts)}
        data = _post_with_retries(self.cfg, "/v1/embeddings", payload, self._sleep)
        try:
            items = data["data"]
            vectors = [item["embedding"] for item in items]
        except (KeyError, TypeError) as exc:
            raise TransportError("embeddings response missing data[].embedding") from exc
        if len(vectors) != len(texts):
            raise TransportError(
                f"embeddings response has {len(vectors)} vectors for {len(texts)} inputs"
            )
        return vectors
