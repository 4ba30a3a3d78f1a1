"""Query decomposition: raw query -> positive and negative sub-queries.

A chat model does the semantic work; this module owns the prompt, strict
response parsing with repair, an identity fallback so retrieval always gets
an answer, and a JSONL cache so sweeps hit the network once per query.
"""

from __future__ import annotations

import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .errors import EmptyInputError, FormatError, ParseError
from .ioutil import atomic_write_bytes, read_id, read_jsonl

DEFAULT_MAX_SUBQUERIES = 8

_EXAMPLE_QUERY = (
    "What are the characteristics and influences of the cultural center Bayreuth "
    "(excluding its identity as Bayreuth) and the art form Photomontage "
    "(excluding examples of photomontage)?"
)
_EXAMPLE_RESPONSE = {
    "positives": [
        "cultural significance and role of Bayreuth as a cultural hub",
        "historical and social influences of Bayreuth on regional culture",
        "architectural and infrastructural features of Bayreuth's cultural institutions",
    ],
    "negatives": [
        "specific examples of photomontage artworks",
        "biographical details of artists involved in photomontage",
        "specific events or exhibitions featuring photomontage",
        "any mention of Bayreuth's identity or geographic location",
    ],
}

_FORMAT_REMINDER = (
    "Reminder: respond with exactly one JSON object of the form "
    '{"positives": ["..."], "negatives": ["..."]} and no other text.'
)


@dataclass(frozen=True)
class DecomposedQuery:
    """Structured decomposition of one query, with call provenance."""

    query_id: str
    original: str
    positives: tuple[str, ...]
    negatives: tuple[str, ...]
    model: str = ""

    def to_cache_obj(self) -> dict:
        return {
            "query_id": self.query_id,
            "query": self.original,
            "positives": list(self.positives),
            "negatives": list(self.negatives),
            "model": self.model,
        }


def build_decomposition_prompt(query: str) -> str:
    """Deterministic instruction prompt with one worked example.

    The raw query appears verbatim exactly once, on the final line.
    """
    if not query or not query.strip():
        raise EmptyInputError("cannot decompose an empty query")
    example = json.dumps(_EXAMPLE_RESPONSE, indent=2)
    return (
        "You split document-search queries into positive and negative sub-queries.\n"
        "\n"
        "Steps:\n"
        "1. Identify what the query asks to find. Expand that inclusion intent\n"
        "   into several specific positive sub-queries that elaborate it.\n"
        "2. Identify anything the query asks to exclude, avoid, or not mention.\n"
        "   Expand that exclusion intent into specific negative sub-queries.\n"
        "   If the query excludes nothing, return an empty negatives list.\n"
        "3. Respond with a single JSON object of the form\n"
        '   {"positives": ["..."], "negatives": ["..."]} and nothing else:\n'
        "   no prose, no code fences.\n"
        "\n"
        f"Example query: {_EXAMPLE_QUERY}\n"
        "Example response:\n"
        f"{example}\n"
        "\n"
        f"Query: {query}"
    )


def _clean_list(items, max_subqueries: int) -> tuple[str, ...]:
    seen: set[str] = set()
    cleaned: list[str] = []
    for item in items:
        if not isinstance(item, str):
            raise ParseError(f"sub-query is not a string: {item!r}")
        text = item.strip()
        if not text or text in seen:
            continue
        seen.add(text)
        cleaned.append(text)
        if len(cleaned) == max_subqueries:
            break
    return tuple(cleaned)


def _first_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    for pos, char in enumerate(text):
        if char != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, pos)
        except (json.JSONDecodeError, RecursionError):  # nested too deep is no parse either
            continue
        if isinstance(obj, dict):
            return obj
    raise ParseError("no JSON object found in response")


def parse_decomposition_response(
    text: str, max_subqueries: int = DEFAULT_MAX_SUBQUERIES
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Extract (positives, negatives) from a model response.

    Tolerates surrounding prose and Markdown fences by scanning for the
    first parseable JSON object. Duplicates and blank entries are dropped
    (order preserved) and each list is truncated to max_subqueries. Raises
    ParseError when no object parses, the shape is wrong, or both lists are
    empty after cleaning.
    """
    obj = _first_json_object(text)
    if "positives" not in obj or "negatives" not in obj:
        raise ParseError("JSON object lacks 'positives'/'negatives' keys")
    positives_raw = obj["positives"]
    negatives_raw = obj["negatives"]
    if not isinstance(positives_raw, list) or not isinstance(negatives_raw, list):
        raise ParseError("'positives' and 'negatives' must be JSON arrays")
    positives = _clean_list(positives_raw, max_subqueries)
    negatives = _clean_list(negatives_raw, max_subqueries)
    if not positives and not negatives:
        raise ParseError("decomposition is empty after cleaning")
    return positives, negatives


def decompose(
    query: str,
    client,
    query_id: str = "",
    max_subqueries: int = DEFAULT_MAX_SUBQUERIES,
) -> DecomposedQuery:
    """Decompose one query through a chat client.

    On a malformed response, retries once with an appended format reminder;
    a second parse failure yields the identity fallback (positives = the
    query itself, no negatives), so only transport problems raise.
    """
    prompt = build_decomposition_prompt(query)
    for attempt_prompt in (prompt, prompt + "\n\n" + _FORMAT_REMINDER):
        response = client.complete(attempt_prompt)
        try:
            positives, negatives = parse_decomposition_response(response, max_subqueries)
            break
        except ParseError:
            continue
    else:
        # identity fallback keeps the pipeline running on garbage output
        positives, negatives = (query,), ()
    return DecomposedQuery(
        query_id=query_id,
        original=query,
        positives=positives,
        negatives=negatives,
        model=getattr(client, "model", ""),
    )


class DecompositionCache:
    """JSONL-backed cache keyed by (query text, model).

    Covers one temperature per file by convention; the file schema carries
    query and model only. Entries keep the order their keys first appeared
    in (a later line or put for a key replaces the entry in place). Writes
    rewrite the whole file atomically, so a crashed run never leaves a
    truncated cache.
    """

    def __init__(self, path):
        self.path = path
        self._entries: dict[tuple[str, str], DecomposedQuery] = {}
        try:
            rows = list(read_jsonl(path))
        except FileNotFoundError:
            rows = []
        for lineno, obj in rows:
            if not isinstance(obj, dict) or "query" not in obj:
                raise FormatError(f"{path}:{lineno}: bad cache line")
            positives, negatives = obj.get("positives", []), obj.get("negatives", [])
            for texts in (positives, negatives):
                if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                    raise FormatError(
                        f"{path}:{lineno}: 'positives' and 'negatives' must be lists of strings"
                    )
            query, model = obj["query"], obj.get("model", "")
            if not isinstance(query, str) or not isinstance(model, str):
                raise FormatError(f"{path}:{lineno}: 'query' and 'model' must be strings")
            entry = DecomposedQuery(
                query_id=read_id(obj.get("query_id", ""), path, lineno, "query_id"),
                original=query,
                positives=tuple(positives),
                negatives=tuple(negatives),
                model=model,
            )
            self._entries[(entry.original, entry.model)] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query: str, model: str) -> DecomposedQuery | None:
        return self._entries.get((query, model))

    def lookup(self, query: str) -> DecomposedQuery | None:
        """The query's entry made under no model, else its first cached
        entry under any model."""
        exact = self._entries.get((query, ""))
        if exact is not None:
            return exact
        return next((entry for (text, _), entry in self._entries.items() if text == query), None)

    def put(self, entry: DecomposedQuery, flush: bool = True) -> None:
        self._entries[(entry.original, entry.model)] = entry
        if flush:
            self.flush()

    def flush(self) -> None:
        buf = io.StringIO()
        for entry in self._entries.values():
            buf.write(json.dumps(entry.to_cache_obj(), ensure_ascii=False))
            buf.write("\n")
        atomic_write_bytes(self.path, buf.getvalue().encode("utf-8"))

    def entries(self) -> list[DecomposedQuery]:
        return list(self._entries.values())


def decompose_many(
    queries,
    client,
    cache: DecompositionCache | None = None,
    max_subqueries: int = DEFAULT_MAX_SUBQUERIES,
    concurrency: int = 4,
) -> list[DecomposedQuery]:
    """Decompose (query_id, text) pairs, reusing the cache.

    Cache misses run through a bounded thread pool; each distinct (text,
    model) pair triggers at most one network call. Results come back in
    input order and the cache is flushed once at the end. After a failure
    no further call starts; the decompositions already made are cached, then
    the first failure in input order is raised.
    """
    if concurrency <= 0:
        raise ValueError("concurrency must be positive")
    pairs = list(queries)
    model = getattr(client, "model", "")
    results: dict[int, DecomposedQuery] = {}
    misses: dict[str, list[int]] = {}
    for i, (query_id, text) in enumerate(pairs):
        cached = cache.get(text, model) if cache is not None else None
        if cached is not None:
            results[i] = cached
        else:
            misses.setdefault(text, []).append(i)

    if misses:
        ordered_texts = list(misses)
        failed = threading.Event()  # set by the first failure; later work is skipped

        def work(text: str) -> DecomposedQuery | None:
            if failed.is_set():
                return None
            try:
                return decompose(text, client, query_id=pairs[misses[text][0]][0],
                                 max_subqueries=max_subqueries)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            futures = [pool.submit(work, text) for text in ordered_texts]
        for text, future in zip(ordered_texts, futures):
            entry = future.result() if future.exception() is None else None
            if entry is not None:
                for i in misses[text]:
                    results[i] = replace(entry, query_id=pairs[i][0])
                if cache is not None:
                    cache.put(results[misses[text][0]], flush=False)
        if cache is not None:
            cache.flush()
        for future in futures:
            if future.exception() is not None:
                raise future.exception()
    return [results[i] for i in range(len(pairs))]
