"""Benchmark execution: baseline vs optimized retrieval vs fusion ablations.

A benchmark is one declarative config naming a corpus store, queries, qrels,
a decomposition cache, optimizer settings, and the systems to compare. The
harness is deterministic offline: given cached decompositions and stores it
produces bit-identical reports. Sweeps rerun the same benchmark across a
grid of loss weights and step counts.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import index as index_module
from . import metrics as metrics_module
from .analysis import TrajectoryExport, export_trajectory
from .config import OPTIMIZER_KEYS, accepts_optimizer_keywords, build_config, read_config
from .decomposer import (
    DEFAULT_MAX_SUBQUERIES,
    DecomposedQuery,
    DecompositionCache,
    decompose_many,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    FormatError,
    MissingDecompositionError,
    MissingEmbeddingError,
    ZeroVectorError,
)
from .index import FlatIndex, RankedList, rrf_fuse, write_trec_run
from .ioutil import atomic_write_text, load_texts_jsonl
from .metrics import Qrels, load_qrels, mean_over_queries
from .optimizer import (
    DecompositionEmbeddings,
    OptimizationConfig,
    optimize_many,
    optimize_query_embedding,
)
from .store import embed_texts, load_store
from .vecmath import pca_fit, row_norms

KNOWN_SYSTEMS = ("baseline", "deo", "avg_only", "rrf_only")
RRF_K = 60.0
# What a query that cannot be ranked raises: from gathering its vectors (a
# missing decomposition or embedding, a NaN or Inf component, another
# dimension) or from row_norms (also a zero or overflowing norm).
QUERY_ERRORS = (MissingDecompositionError, MissingEmbeddingError, DimensionMismatchError,
                ValueError, ZeroVectorError)


# Each metric kind and the deo.metrics function that scores a ranking at a
# cutoff, by name: it is looked up at each use, so a rebound one (a tracer's
# wrapper) is the one called.
METRICS = {"ndcg": "ndcg_at_k", "map": "average_precision_at_k", "recall": "recall_at_k"}


def parse_metric_spec(spec: str) -> tuple[str, int]:
    """'ndcg@10' -> ('ndcg', 10); kinds: those of METRICS."""
    name, sep, cutoff = spec.partition("@")
    if not sep:
        raise ConfigError(f"metric {spec!r} lacks an @cutoff")
    name = name.strip().lower()
    if name not in METRICS:
        raise ConfigError(f"unknown metric kind {name!r}")
    try:
        k = int(cutoff)
    except ValueError:
        raise ConfigError(f"metric {spec!r} has a non-integer cutoff") from None
    if k <= 0:
        raise ConfigError(f"metric {spec!r} cutoff must be positive")
    return name, k


def report_timestamp() -> str:
    """UTC ISO-8601 timestamp; SOURCE_DATE_EPOCH pins it for golden files."""
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    seconds = int(pinned) if pinned else int(time.time())
    return datetime.fromtimestamp(seconds, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@accepts_optimizer_keywords
@dataclass(frozen=True)
class BenchmarkConfig:
    """Declarative benchmark description; paths are absolute after loading."""

    corpus_store: str = field(metadata={"path": True})
    queries: str = field(metadata={"path": True})
    qrels: str = field(metadata={"path": True})
    query_store: str = field(default="", metadata={"path": True})
    cache: str = field(default="", metadata={"path": True})
    systems: tuple[str, ...] = ("baseline", "deo")
    metrics: tuple[str, ...] = ("ndcg@10", "map@100")
    depth: int = 0
    offline: bool = True
    run_dir: str = field(default="", metadata={"path": True})
    report_json: str = field(default="", metadata={"path": True})
    report_csv: str = field(default="", metadata={"path": True})
    model: str = ""
    optimizer: OptimizationConfig = field(default_factory=OptimizationConfig)
    config_hash: str = ""

    def __post_init__(self) -> None:
        for key in ("systems", "metrics"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must name at least one entry")
        for system in self.systems:
            if system not in KNOWN_SYSTEMS:
                raise ConfigError(
                    f"unknown system {system!r} (expected one of {', '.join(KNOWN_SYSTEMS)})"
                )
        for spec in self.metrics:
            parse_metric_spec(spec)
        if self.depth < 0:
            raise ValueError("depth must be >= 0")

    @property
    def search_depth(self) -> int:
        if self.depth > 0:
            return self.depth
        return max(parse_metric_spec(spec)[1] for spec in self.metrics)

    @classmethod
    def from_file(cls, path) -> "BenchmarkConfig":
        return cls.from_mapping(*read_config(path), path=os.fspath(path))

    @classmethod
    def from_mapping(
        cls, mapping: dict[str, str], base_dir: str = ".", config_hash: str = "", path: str = "<config>"
    ) -> "BenchmarkConfig":
        return build_config(cls, mapping, path, base_dir, "benchmark", config_hash=config_hash)


class QueryPipeline:
    """The query side of DEO that every command shares, from query text to
    ranked list: a query's decomposition, the embeddings of the query and
    its sub-queries, then the vectors each system searches with.

    Paths name the query embedding store and the decomposition cache ("" for
    none). A client of None keeps the run offline for that endpoint. `model`
    selects cache entries; empty means the chat client's model.
    """

    def __init__(self, query_store: str = "", cache: str = "", chat_client=None,
                 embed_client=None, model: str = "",
                 max_subqueries: int = DEFAULT_MAX_SUBQUERIES, batch_size: int = 64,
                 concurrency: int = 4):
        client_model = getattr(chat_client, "model", "")
        if chat_client is not None and model and model != client_model:
            # fresh decompositions are cached under the client's model, so
            # lookups under `model` would miss them on every run
            raise ConfigError(
                f"model {model!r} differs from the chat client's model {client_model!r}; "
                "decompositions made online could never be found in the cache"
            )
        self.store = load_store(query_store) if query_store else None
        self.embed_client = embed_client
        self.cache = DecompositionCache(cache) if cache else None
        self.chat_client = chat_client
        self.model = model or client_model
        self.max_subqueries = max_subqueries
        self.batch_size = batch_size
        self.concurrency = concurrency
        self._decompositions: dict[str, DecomposedQuery] = {}
        self._embedded: dict[str, np.ndarray] = {}  # texts embedded online

    def _store_key(self, text: str, record_id: str | None = None) -> str | None:
        """The query-store id holding the vector of record_id, else of text.
        An ad-hoc query is its own id, so it is read by text alone."""
        if self.store is not None:
            for key in (record_id, text):
                if key is not None and key in self.store:
                    return key
        return None

    def _prefetch(self, queries, subqueries: bool = True) -> None:
        """Fetch what resolving the (query_id, text) pairs will read and the
        store, cache and memos lack, many per request: decompositions (when
        `subqueries`) through decompose_many at `concurrency`, then the query
        and sub-query embeddings, once per text, in batches of `batch_size`.
        A blank query text raises EmptyInputError before anything is looked
        up or requested. Offline it fetches nothing; a query it cannot
        resolve fails later, in turn."""
        for query_id, text in queries:
            if not text.strip():
                raise EmptyInputError(f"query {query_id!r} is empty")
        if subqueries and self.chat_client is not None:
            todo = [pair for pair in queries if pair[0] not in self._decompositions]
            entries = decompose_many(todo, self.chat_client, self.cache, self.max_subqueries,
                                     self.concurrency)
            self._decompositions.update(zip((query_id for query_id, _ in todo), entries))
        if self.embed_client is None:
            return
        texts = []
        for query_id, text in queries:
            if self._store_key(text, query_id) is None:
                texts.append(text)
            if subqueries:
                try:
                    entry = self.decomposition(query_id, text)
                except MissingDecompositionError:
                    continue
                texts += [t for t in (*entry.positives, *entry.negatives)
                          if self._store_key(t) is None]
        misses = [text for text in dict.fromkeys(texts) if text not in self._embedded]
        if misses:
            vectors = embed_texts(self.embed_client.embed, misses, self.batch_size)
            self._embedded.update(zip(misses, vectors))

    def _vector(self, text: str, record_id: str | None = None) -> np.ndarray:
        """The embedding of record_id, else of text, from the query store;
        else the one _prefetch fetched for text; else MissingEmbeddingError.
        A vector with a NaN or Inf component raises ValueError."""
        key = self._store_key(text, record_id)
        if key is not None:
            vector = self.store.get(key)
        elif text in self._embedded:
            vector = self._embedded[text]
        else:
            raise MissingEmbeddingError(f"no embedding available for {record_id or text!r}")
        if not np.isfinite(vector).all():
            raise ValueError(f"the embedding of {record_id or text!r} has NaN or Inf components")
        return vector

    def decomposition(self, query_id: str, text: str) -> DecomposedQuery:
        """The query's decomposition, memoized by query id.

        Cache rule: the (text, model) entry if there is one; else, when the
        chat endpoint may be called, the fresh one _prefetch made and cached;
        else (offline) the first cached entry for the text under any model
        (DecompositionCache.lookup); else MissingDecompositionError.
        """
        entry = self._decompositions.get(query_id)
        if entry is None and self.cache is not None:
            entry = self.cache.get(text, self.model)
            if entry is None and self.chat_client is None:
                entry = self.cache.lookup(text)
        if entry is None:
            raise MissingDecompositionError(
                f"query {query_id!r} has no cached decomposition and the run is offline"
            )
        self._decompositions[query_id] = entry
        return entry

    def embeddings(self, query_id: str, text: str) -> DecompositionEmbeddings:
        """The query's decomposition, embedded: the optimizer's input."""
        self._prefetch([(query_id, text)])
        rows, counts, _, error = self._gather([(query_id, text)], subqueries=True)
        if error is not None:
            raise error
        return DecompositionEmbeddings(rows, counts[0][0])

    def _gather(self, block, subqueries: bool):
        """A block of (query_id, text) pairs' raw embeddings as one (n, d)
        matrix, query after query in the DecompositionEmbeddings layout: its
        own vector, then (with `subqueries`) its K positive and M negative
        vectors. Returns the matrix, each query's (K, M), each row's (query
        id, sub-query text or None) and None. When a query cannot be resolved
        (no decomposition or embedding, a NaN or Inf component, or another
        dimension than the block's first vector), it returns those of the
        queries before it and that query's error.
        """
        rows: list[np.ndarray] = []
        counts: list[tuple[int, int]] = []
        names: list[tuple[str, str | None]] = []
        try:
            for query_id, text in block:
                entry = self.decomposition(query_id, text) if subqueries else None
                subs = (*entry.positives, *entry.negatives) if entry else ()
                found = [self._vector(text, query_id), *map(self._vector, subs)]
                dim = (rows or found)[0].shape[0]
                for vector in found:
                    if vector.shape[0] != dim:
                        raise DimensionMismatchError(f"query {query_id!r} has a vector of "
                                                     f"dimension {vector.shape[0]}, expected {dim}")
                rows += found
                counts.append((len(entry.positives), len(entry.negatives)) if entry else (0, 0))
                names += [(query_id, None), *((query_id, sub) for sub in subs)]
        except QUERY_ERRORS as exc:
            return np.array(rows), counts, names, exc
        return np.array(rows), counts, names, None

    def _search_rows(self, system: str, gathered, optimizer: OptimizationConfig,
                     dim: int):
        """The rows `system` searches for a block that _gather returned as
        `gathered`, and for each query how many sub-query rankings it fuses
        (0: its one ranking stands). baseline searches with the query
        vectors, deo with the optimized ones (one optimize_many call),
        avg_only with the mean of each query's rows; rrf_only with every
        sub-query vector, or the query vector when there are none.

        The search rows are checked as search_many checks them against an
        index of dimension `dim`, so this raises what ranking the block alone
        raises first: for the queries gathered before the first one that
        could not be, a bad deo input row, then another dimension than the
        index's, then a bad search row, named by its _gather name; else the
        gathering's error.
        """
        rows, counts, names, error = gathered
        if not counts:
            raise error

        def describe(i: int) -> str:
            query_id, sub = names[i]
            return f"query {query_id!r}" + ("" if sub is None else f" sub-query {sub!r}")

        sizes = np.array([1 + n_pos + n_neg for n_pos, n_neg in counts])
        starts = np.cumsum(sizes) - sizes
        fused = np.zeros(len(sizes), dtype=int)
        source = starts  # the gathered row each search row is named by
        if system == "deo":
            searched = optimize_many(rows, counts, optimizer, describe)[:, -1]
        elif system == "avg_only":
            searched = np.array([rows[s : s + n].mean(axis=0) for s, n in zip(starts, sizes)])
        elif system == "rrf_only":
            fused = sizes - 1
            keep = np.ones(len(rows), dtype=bool)
            keep[starts[fused > 0]] = False
            source = np.flatnonzero(keep)
            searched = rows[keep]
        else:
            searched = rows[starts]
        if searched.shape[1] != dim:
            # _gather gives a block one dimension, that of its first vector
            raise DimensionMismatchError(f"query {names[0][0]!r} has dimension "
                                         f"{searched.shape[1]}, the index {dim}")
        row_norms(searched, lambda j: describe(source[j]))
        if error is not None:
            raise error
        return searched, fused

    def rank(self, index: FlatIndex, systems, queries, k: int,
             optimizer: OptimizationConfig):
        """Yield (system, query_id, RankedList) for each (query_id, text)
        pair of `queries` as each of `systems` ranks it: block by block, and
        within a block system by system, query by query.

        Online, the misses of all the queries are fetched first (_prefetch),
        sub-queries included when a system other than baseline reads them.
        Each block of index.SEARCH_BLOCK queries is gathered into one matrix
        (_gather), each system builds its search rows from it in system
        order (_search_rows), and one search_many call ranks every system's
        rows.

        What is raised is what ranking the systems one after another over all
        the queries raises first: the first bad query of the first system
        that has one. Such an error comes from gathering or from row_norms,
        never from the search, so a block whose rows fail is not searched.
        When a system fails, nothing more is searched or yielded; the systems
        before it are still gathered and checked through the remaining
        blocks, and the first of them that fails raises instead.
        """
        systems = list(systems)
        for system in systems:
            if system not in KNOWN_SYSTEMS:
                raise ConfigError(f"unknown system {system!r}")
        if k <= 0:
            raise ValueError("k must be positive")
        queries = list(queries)
        subqueries = any(system != "baseline" for system in systems)
        self._prefetch(queries, subqueries=subqueries)
        failure = None
        for start in range(0, len(queries), index_module.SEARCH_BLOCK):
            block = queries[start : start + index_module.SEARCH_BLOCK]
            full = own = self._gather(block, subqueries)
            if subqueries and full[-1] is not None and "baseline" in systems:
                # baseline reads no sub-query, so their errors must not stop it
                own = self._gather(block, subqueries=False)
            batches = []
            for position, system in enumerate(systems):
                try:
                    batches.append(self._search_rows(
                        system, own if system == "baseline" else full, optimizer, index.dim))
                except QUERY_ERRORS as exc:
                    if position == 0:
                        raise
                    # only the systems before it can still fail first
                    failure, systems = exc, systems[:position]
                    break
            if failure is not None:
                continue
            lists = iter(index.search_many(np.concatenate([rows for rows, _ in batches]), k=k))
            for system, (_, fused) in zip(systems, batches):
                for (query_id, _), n_fused in zip(block, fused):
                    ranking = (rrf_fuse([next(lists) for _ in range(n_fused)], k=k, k_rrf=RRF_K)
                               if n_fused else next(lists))
                    yield system, query_id, ranking
        if failure is not None:
            raise failure


@dataclass(frozen=True)
class MetricReport:
    """Aggregate and per-query metric values for each evaluated system."""

    metadata: dict
    aggregates: dict
    per_query: dict

    def to_json(self) -> str:
        obj = {"metadata": self.metadata, "aggregates": self.aggregates,
               "per_query": self.per_query}
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["system", "query_id", "metric", "value"])
        systems = self.metadata["systems"]
        metric_names = self.metadata["metrics"]
        for system in systems:
            for query_id in sorted(next(iter(self.per_query[system].values()), {})):
                for metric in metric_names:
                    writer.writerow(
                        [system, query_id, metric, repr(self.per_query[system][metric][query_id])]
                    )
            for metric in metric_names:
                writer.writerow([system, "ALL", metric, repr(self.aggregates[system][metric])])
        return buf.getvalue()


class _BenchmarkRunner:
    """Holds loaded data so sweeps can rerun without reloading stores."""

    def __init__(self, cfg: BenchmarkConfig, chat_client=None, embed_client=None, **options):
        self.cfg = cfg
        self.corpus = load_store(cfg.corpus_store)
        self.index = FlatIndex.from_store(self.corpus)
        self.queries = load_texts_jsonl(cfg.queries)
        self.qrels: Qrels = load_qrels(cfg.qrels)
        self._check_qrels()
        online = not cfg.offline
        self.pipeline = QueryPipeline(
            cfg.query_store, cfg.cache,
            chat_client if online else None, embed_client if online else None,
            model=cfg.model, **options,
        )

    def _check_qrels(self) -> None:
        for query_id, judgments in self.qrels.items():
            for doc_id, rel in judgments.items():
                if rel > 0 and doc_id not in self.index:
                    raise FormatError(
                        f"qrels references doc {doc_id!r} (query {query_id!r}) "
                        "that is not in the corpus store"
                    )

    def run(self) -> MetricReport:
        cfg = self.cfg
        depth = cfg.search_depth
        query_ids = sorted(self.queries)
        flagged = [
            qid for qid in query_ids
            if not any(rel > 0 for rel in self.qrels.get(qid, {}).values())
        ]
        unjudged = set(flagged)
        scored_ids = [qid for qid in query_ids if qid not in unjudged]

        per_query: dict = {}
        aggregates: dict = {}
        rankings_by_system: dict[str, dict[str, RankedList]] = {
            system: {} for system in cfg.systems}
        for system, qid, ranking in self.pipeline.rank(
                self.index, cfg.systems, [(qid, self.queries[qid]) for qid in query_ids],
                depth, cfg.optimizer):
            rankings_by_system[system][qid] = ranking
        for system, rankings in rankings_by_system.items():
            per_query[system] = {}
            aggregates[system] = {}
            for metric in cfg.metrics:
                kind, k = parse_metric_spec(metric)
                score = getattr(metrics_module, METRICS[kind])
                values = {qid: score(rankings[qid], self.qrels.get(qid, {}), k)
                          for qid in query_ids}
                per_query[system][metric] = values
                aggregates[system][metric] = mean_over_queries(
                    {qid: values[qid] for qid in scored_ids})

        if cfg.run_dir:
            os.makedirs(cfg.run_dir, exist_ok=True)
            for system, rankings in rankings_by_system.items():
                write_trec_run(
                    os.path.join(cfg.run_dir, f"{system}.run"), rankings, run_tag=system
                )

        metadata = {
            "config_hash": cfg.config_hash,
            "timestamp": report_timestamp(),
            "corpus_model": self.corpus.model,
            "chat_model": cfg.model,
            "systems": list(cfg.systems),
            "metrics": list(cfg.metrics),
            "depth": depth,
            "optimizer": {key: getattr(cfg.optimizer, key) for key in OPTIMIZER_KEYS},
            "queries_without_relevant": flagged,
        }
        return MetricReport(metadata=metadata, aggregates=aggregates, per_query=per_query)


def run_benchmark(cfg: BenchmarkConfig, chat_client=None, embed_client=None,
                  **options) -> MetricReport:
    """Evaluate every configured system and return the metric report.

    Writes TREC run files when cfg.run_dir is set; report files are the
    caller's job (the CLI handles them), keeping this function pure apart
    from runs. `options` are QueryPipeline's online limits: max_subqueries,
    batch_size and concurrency.
    """
    return _BenchmarkRunner(cfg, chat_client, embed_client, **options).run()


def trajectory(cfg: BenchmarkConfig, query_id: str, chat_client=None,
               embed_client=None, **options) -> TrajectoryExport:
    """Optimize one benchmark query and export its path, projected onto the
    corpus's first two principal components."""
    runner = _BenchmarkRunner(cfg, chat_client, embed_client, **options)
    if query_id not in runner.queries:
        raise KeyError(f"query id {query_id!r} not in {cfg.queries}")
    inputs = runner.pipeline.embeddings(query_id, runner.queries[query_id])
    _, trace = optimize_query_embedding(inputs, cfg.optimizer)
    basis = pca_fit(runner.index.unit_vectors(), n_components=2)
    return export_trajectory(trace, runner.index, runner.qrels.get(query_id, {}), basis)


@accepts_optimizer_keywords
@dataclass(frozen=True)
class SweepConfig(BenchmarkConfig):
    """A benchmark and a grid over it: loss-weight triples (lambda_o,
    lambda_p, lambda_n) and step counts. An empty axis holds the benchmark's
    own value; every grid point is checked here, so a bad one fails at load."""

    lambdas: tuple[tuple[float, float, float], ...] = ()
    steps_list: tuple[int, ...] = ()
    sweep_csv: str = field(default="", metadata={"path": True})

    def __post_init__(self) -> None:
        super().__post_init__()
        opt = self.optimizer
        object.__setattr__(self, "lambdas",
                           self.lambdas or ((opt.lambda_o, opt.lambda_p, opt.lambda_n),))
        object.__setattr__(self, "steps_list", self.steps_list or (opt.steps,))
        self.grid()

    def grid(self) -> list[OptimizationConfig]:
        """The optimizer config of each grid point, lambda triples outer,
        steps inner."""
        return [
            replace(self.optimizer, lambda_o=lambda_o, lambda_p=lambda_p,
                    lambda_n=lambda_n, steps=steps)
            for lambda_o, lambda_p, lambda_n in self.lambdas
            for steps in self.steps_list
        ]


def sweep(cfg: SweepConfig, chat_client=None, embed_client=None,
          **options) -> tuple[list[MetricReport], str]:
    """Run the benchmark once per grid point.

    Returns the reports (grid order: lambda triples outer, steps inner) and
    a CSV whose rows are lambda_o, lambda_p, lambda_n, steps, then the
    optimized system's aggregate for each configured metric.
    """
    if "deo" not in cfg.systems:
        raise ConfigError("sweep requires the 'deo' system in the benchmark config")
    runner = _BenchmarkRunner(cfg, chat_client, embed_client, **options)
    reports: list[MetricReport] = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda_o", "lambda_p", "lambda_n", "steps", *cfg.metrics])
    for optimizer in cfg.grid():
        runner.cfg = replace(cfg, optimizer=optimizer, run_dir="")
        report = runner.run()
        reports.append(report)
        writer.writerow([
            repr(optimizer.lambda_o),
            repr(optimizer.lambda_p),
            repr(optimizer.lambda_n),
            optimizer.steps,
            *(repr(report.aggregates["deo"][m]) for m in cfg.metrics),
        ])
    csv_text = buf.getvalue()
    if cfg.sweep_csv:
        atomic_write_text(cfg.sweep_csv, csv_text)
    return reports, csv_text
