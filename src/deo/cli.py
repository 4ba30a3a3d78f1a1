"""Command-line entry point wiring the pipeline together.

Subcommands: decompose, ingest, index, search, optimize, eval, sweep,
trajectory. Exit codes: 0 success, 1 data error, 2 usage error, 3 transport
error. Failures print one JSON diagnostic line to stderr so scripts can
parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from . import analysis, benchmark
from .config import ToolConfig
from .decomposer import DecompositionCache, decompose_many
from .errors import DeoError, TransportError
from .index import FlatIndex, trec_lines
from .ioutil import atomic_write_text, load_texts_jsonl
from .optimizer import PRESETS, OptimizationConfig, optimize_query_embedding
from .store import ingest_corpus, load_store

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


def _fail(exc: BaseException, code: int) -> int:
    # str() of a KeyError quotes its one argument as a dict key; print it as given
    message = str(exc.args[0]) if isinstance(exc, KeyError) and len(exc.args) == 1 else str(exc)
    line = json.dumps({"error": type(exc).__name__, "message": message})
    print(line, file=sys.stderr)
    return code


def _tool_config(path, preset=None) -> ToolConfig:
    cfg = ToolConfig.from_file(path) if path else ToolConfig()
    return cfg.with_preset(preset) if preset else cfg


def _with_steps(optimizer: OptimizationConfig, steps: int | None) -> OptimizationConfig:
    return optimizer if steps is None else replace(optimizer, steps=steps)


def _endpoints(cfg: ToolConfig) -> dict:
    """QueryPipeline's online keywords from a tool config: both clients, the
    decomposition limit and the batching. Only online commands call this, so
    only they import the HTTP stack."""
    from .clients import ChatClient, ClientConfig, EmbeddingClient

    shared = {"timeout": cfg.timeout, "max_retries": cfg.max_retries}
    chat = ClientConfig(base_url=cfg.chat_base_url, api_key_env=cfg.chat_api_key_env, **shared)
    embed = ClientConfig(base_url=cfg.embed_base_url, api_key_env=cfg.embed_api_key_env, **shared)
    return {"chat_client": ChatClient(chat, model=cfg.chat_model, temperature=cfg.temperature),
            "embed_client": EmbeddingClient(embed, model=cfg.embed_model),
            "max_subqueries": cfg.max_subqueries, "batch_size": cfg.batch_size,
            "concurrency": cfg.concurrency}


def _pipeline(args, cfg: ToolConfig) -> benchmark.QueryPipeline:
    return benchmark.QueryPipeline(args.query_store or "", args.cache or "", model=cfg.chat_model,
                                   **({} if args.offline else _endpoints(cfg)))


def cmd_decompose(args) -> int:
    cfg = _tool_config(args.config)
    queries = load_texts_jsonl(args.queries)
    cache = DecompositionCache(args.cache)
    before = len(cache)
    results = decompose_many(
        list(queries.items()),
        _endpoints(cfg)["chat_client"],
        cache=cache,
        max_subqueries=cfg.max_subqueries,
        concurrency=cfg.concurrency,
    )
    fresh = len(cache) - before
    print(f"decomposed {len(results)} queries ({fresh} new, "
          f"{len(results) - fresh} cached) -> {args.cache}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = _tool_config(args.config)
    texts = load_texts_jsonl(args.docs)
    embed = _endpoints(cfg)["embed_client"].embed
    started = time.monotonic()
    report, _ = ingest_corpus(
        texts,
        embed,
        args.out,
        batch_size=cfg.batch_size,
        fmt=args.format,
        model=cfg.embed_model,
        resume=args.resume,
    )
    print(f"ingested {report.total} docs ({report.embedded} embedded, "
          f"{report.reused} reused), dim {report.dim}, "
          f"{time.monotonic() - started:.2f}s -> {args.out}")
    return EXIT_OK


def cmd_index(args) -> int:
    index = FlatIndex.from_store(load_store(args.store))
    print(f"index ok: {len(index)} docs, dim {index.dim}")
    return EXIT_OK


def cmd_search(args) -> int:
    cfg = _tool_config(args.config, args.preset)
    index = FlatIndex.from_store(load_store(args.store))
    pipeline = _pipeline(args, cfg)
    optimizer = _with_steps(cfg.optimizer, args.steps)

    # ad-hoc text is its own id, so the query store is read by text; it prints as q1
    adhoc = args.query is not None
    queries = {args.query: args.query} if adhoc else load_texts_jsonl(args.queries)

    system = "deo" if args.deo else "baseline"
    run_tag = args.run_tag or system
    rankings = pipeline.rank(index, [system], sorted(queries.items()), args.k, optimizer)
    for _, query_id, ranking in rankings:
        print(trec_lines("q1" if adhoc else query_id, ranking, run_tag), end="")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _tool_config(args.config, args.preset)
    opt_cfg = _with_steps(cfg.optimizer, args.steps)
    pipeline = _pipeline(args, cfg)
    inputs = pipeline.embeddings(args.query, args.query)
    entry = pipeline.decomposition(args.query, args.query)
    final, trace = optimize_query_embedding(inputs, opt_cfg)

    doc = {
        "query": args.query,
        "positives": list(entry.positives),
        "negatives": list(entry.negatives),
        "steps": opt_cfg.steps,
        "final_loss": float(trace.losses[-1]),
        "embedding": [float(x) for x in final],
    }
    if args.out:
        atomic_write_text(args.out + ".embedding.json",
                          json.dumps(doc, indent=2, sort_keys=True) + "\n")
        lines = ["step,loss"]
        lines += [f"{i},{float(loss)!r}" for i, loss in enumerate(trace.losses)]
        atomic_write_text(args.out + ".trace.csv", "\n".join(lines) + "\n")
        print(f"optimized in {opt_cfg.steps} steps, final loss "
              f"{float(trace.losses[-1]):.6f} -> {args.out}.embedding.json")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _benchmark_endpoints(args, offline: bool) -> dict:
    """Keyword arguments for run_benchmark, sweep and trajectory: an online
    benchmark's endpoints from --tool-config, which offline is never read."""
    return {} if offline else _endpoints(_tool_config(args.tool_config))


def cmd_eval(args) -> int:
    cfg = benchmark.BenchmarkConfig.from_file(args.config)
    if args.offline:
        cfg = replace(cfg, offline=True)
    if args.run_dir:
        cfg = replace(cfg, run_dir=args.run_dir)
    report = benchmark.run_benchmark(cfg, **_benchmark_endpoints(args, cfg.offline))

    report_json = args.report_json or cfg.report_json
    report_csv = args.report_csv or cfg.report_csv
    if report_json:
        atomic_write_text(report_json, report.to_json())
    if report_csv:
        atomic_write_text(report_csv, report.to_csv())
    for system in report.metadata["systems"]:
        for metric in report.metadata["metrics"]:
            print(f"{system} {metric} {report.aggregates[system][metric]:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = benchmark.SweepConfig.from_file(args.config)
    if args.out:
        cfg = replace(cfg, out_csv=args.out)
    reports, csv_text = benchmark.sweep(cfg, **_benchmark_endpoints(args, cfg.base.offline))
    if cfg.out_csv:
        print(f"swept {len(reports)} grid points -> {cfg.out_csv}")
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_trajectory(args) -> int:
    cfg = benchmark.BenchmarkConfig.from_file(args.config)
    cfg = replace(cfg, optimizer=_with_steps(cfg.optimizer, args.steps))
    export = benchmark.trajectory(cfg, args.query_id,
                                  **_benchmark_endpoints(args, cfg.offline))
    analysis.write_trajectory(export, args.out_prefix)
    print(f"gold rank {export.baseline_rank} -> {export.final_rank}; "
          f"wrote {args.out_prefix}.csv/.json/.svg")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deo",
        description="Negation-aware retrieval via direct query-embedding optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, preset: bool = True) -> None:
        p.add_argument("--config", help="flat key = value tool config file")
        if preset:
            p.add_argument("--preset", choices=tuple(PRESETS), help="loss-weight preset")

    p = sub.add_parser("decompose", help="queries file -> decomposition cache")
    common(p, preset=False)
    p.add_argument("--queries", required=True, help="JSONL {id, text} queries file")
    p.add_argument("--cache", required=True, help="output decomposition cache (JSONL)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ingest", help="docs file -> embedding store")
    common(p, preset=False)
    p.add_argument("--docs", required=True, help="JSONL {id, text} documents file")
    p.add_argument("--out", required=True, help="output embedding store path")
    p.add_argument("--format", choices=("jsonl", "binary"), default="jsonl")
    p.add_argument("--resume", action="store_true",
                   help="reuse records already present in --out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="validate a store builds a searchable index")
    p.add_argument("--store", required=True, help="embedding store path")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="query a corpus store, optionally with DEO")
    common(p)
    p.add_argument("--store", required=True, help="corpus embedding store")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="free-text query")
    group.add_argument("--queries", help="JSONL {id, text} queries file")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--deo", action="store_true",
                   help="decompose and optimize before searching")
    p.add_argument("--offline", action="store_true", help="never touch the network")
    p.add_argument("--query-store", help="embedding store for query/sub-query texts")
    p.add_argument("--cache", help="decomposition cache (JSONL)")
    p.add_argument("--steps", type=int, default=None, help="override optimizer steps")
    p.add_argument("--run-tag", default="", help="tag for TREC output lines")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("optimize", help="optimize one query embedding")
    common(p)
    p.add_argument("--query", required=True)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--query-store", help="embedding store for query/sub-query texts")
    p.add_argument("--cache", help="decomposition cache (JSONL)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", help="output prefix for .embedding.json/.trace.csv")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eval", help="run a benchmark config")
    p.add_argument("--config", required=True, help="benchmark config file")
    p.add_argument("--tool-config", help="endpoint settings for online benchmarks")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--report-json", default="")
    p.add_argument("--report-csv", default="")
    p.add_argument("--run-dir", default="")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a weight/step grid")
    p.add_argument("--config", required=True, help="sweep config file")
    p.add_argument("--tool-config", help="endpoint settings for online benchmarks")
    p.add_argument("--out", default="", help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trajectory", help="export one query's optimization path")
    p.add_argument("--config", required=True, help="benchmark config file")
    p.add_argument("--tool-config", help="endpoint settings for online benchmarks")
    p.add_argument("--query-id", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TransportError as exc:
        return _fail(exc, EXIT_TRANSPORT)
    except (DeoError, OSError, KeyError, ValueError) as exc:
        return _fail(exc, EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
