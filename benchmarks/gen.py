"""Seeded synthetic negation corpora for the benchmark.

This generalizes the planted-negation study of acceptance criterion 06 to
any shape (docs n, dimension d, queries, K positive and M negative
sub-queries). For every query two random unit directions are drawn: p_hat
(what the query wants) and n_hat (what it excludes). The corpus gets a gold
doc near p_hat and three distractors near n_hat, the last of which is an
exact copy of the first so that ties (broken by ascending doc id) occur in
every ranking. The query itself sits between the two directions, closer to
n_hat, so plain search ranks the distractors first and DEO has to pull the
gold doc up. Background docs are random unit vectors.

Everything derives from the seed; the same (seed, shape) always gives
byte-identical files. Files written into the output directory:

    corpus.bin     binary embedding store, written by deo's save_store
    qstore.bin     query store: query ids, query texts (for ad-hoc search)
                   and sub-query texts -> vectors, also by save_store
    {corpus,qstore}.ids.npy, {corpus,qstore}.vectors.npy
                   the same ids and float32 vectors as numpy arrays, read by
                   the oracle and the mock endpoint
    queries.jsonl  {"id", "text"} per query
    qrels.txt      TREC qrels, one gold doc per query
    cache.jsonl    decomposition cache (model "synthetic")
    docs.jsonl     {"id", "text"} per doc, the input of `deo ingest`
    meta.json      shape and seed; written last, so it marks a complete set

Run as a script to generate one set (deo is imported from src/):
    python3 benchmarks/gen.py OUT_DIR --seed 1 --docs 20000 --dim 384 --queries 120
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

VERSION = 3  # bump when the files change for a given (seed, shape)
MODEL = "synthetic"
DISTRACTORS = 3
CHUNK_ROWS = 8192

GOLD_SIGMA = 0.15
SUBQUERY_SIGMA = 0.6
QUERY_SIGMA = 0.1
QUERY_MIX = (0.55, 0.835)  # weights of p_hat and n_hat in the query


def query_id(qi: int) -> str:
    return f"q{qi:05d}"


def query_text(qi: int) -> str:
    return f"synthetic query {qi:05d}"


def doc_text(doc_id: str) -> str:
    return f"document {doc_id}"


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _noisy(rng, centers: np.ndarray, sigma: float) -> np.ndarray:
    d = centers.shape[1]
    return _unit_rows(centers + sigma * rng.normal(size=centers.shape) / np.sqrt(d))


def write_store(out_dir: str, name: str, ids: list[str], matrix: np.ndarray) -> None:
    """Write `name`.bin with deo's own binary writer, and the same ids and
    float32 rows as `name`.ids.npy and `name`.vectors.npy for the checks and
    the mock, which must not depend on deo's store format."""
    from deo.store import EmbeddingStore, save_store

    rows = np.asarray(matrix, dtype=np.float32)
    store = EmbeddingStore(dim=rows.shape[1], model=MODEL)
    for record_id, row in zip(ids, rows):
        store.add(record_id, row)
    save_store(store, os.path.join(out_dir, f"{name}.bin"), fmt="binary")
    np.save(os.path.join(out_dir, f"{name}.ids.npy"), np.array(ids))
    np.save(os.path.join(out_dir, f"{name}.vectors.npy"), rows)


def read_vectors(data_dir, name: str) -> tuple[list[str], np.ndarray]:
    """(ids, float32 matrix) of one store, as write_store saved them."""
    ids = np.load(os.path.join(data_dir, f"{name}.ids.npy")).tolist()
    return ids, np.load(os.path.join(data_dir, f"{name}.vectors.npy"))


def _write_jsonl(path: str, rows) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    os.replace(tmp, path)


def generate(out_dir: str, seed: int, docs: int, dim: int, queries: int,
             k_pos: int = 4, m_neg: int = 4) -> dict:
    """Write one complete input set into out_dir and return its metadata."""
    planted = queries * (1 + DISTRACTORS)
    if docs < planted:
        raise ValueError(f"{docs} docs cannot hold {planted} planted docs")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)

    p_hat = _unit_rows(rng.normal(size=(queries, dim)))
    n_hat = _unit_rows(rng.normal(size=(queries, dim)))
    gold = _noisy(rng, p_hat, GOLD_SIGMA)
    distractors = [_noisy(rng, n_hat, GOLD_SIGMA) for _ in range(DISTRACTORS - 1)]
    distractors.append(distractors[0])  # exact copy: a planted tie
    query_vecs = _noisy(rng, QUERY_MIX[0] * p_hat + QUERY_MIX[1] * n_hat, QUERY_SIGMA)
    positives = [_noisy(rng, p_hat, SUBQUERY_SIGMA) for _ in range(k_pos)]
    negatives = [_noisy(rng, n_hat, SUBQUERY_SIGMA) for _ in range(m_neg)]

    ids: list[str] = []
    blocks: list[np.ndarray] = []
    for qi in range(queries):
        ids.append(f"g{qi:07d}")
        ids.extend(f"x{qi:06d}{j}" for j in range(DISTRACTORS))
        blocks.append(np.stack([gold[qi], *(dist[qi] for dist in distractors)]))
    background = docs - planted
    ids.extend(f"b{bi:07d}" for bi in range(background))
    for start in range(0, background, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, background - start)
        blocks.append(_unit_rows(rng.normal(size=(rows, dim))).astype(np.float32))
    corpus = np.concatenate(blocks).astype(np.float32)
    write_store(out_dir, "corpus", ids, corpus)
    _write_jsonl(os.path.join(out_dir, "docs.jsonl"),
                 ({"id": doc_id, "text": doc_text(doc_id)} for doc_id in ids))
    del blocks, corpus

    q_ids: list[str] = []
    q_rows: list[np.ndarray] = []
    query_rows = []
    cache_rows = []
    qrels_lines = []
    for qi in range(queries):
        qid = query_id(qi)
        pos_texts = [f"{qid} pos {j}" for j in range(k_pos)]
        neg_texts = [f"{qid} neg {j}" for j in range(m_neg)]
        q_ids.extend((qid, query_text(qi)))
        q_rows.extend((query_vecs[qi], query_vecs[qi]))
        q_ids.extend(pos_texts)
        q_rows.extend(p[qi] for p in positives)
        q_ids.extend(neg_texts)
        q_rows.extend(n[qi] for n in negatives)
        query_rows.append({"id": qid, "text": query_text(qi)})
        cache_rows.append({"query_id": qid, "query": query_text(qi), "positives": pos_texts,
                           "negatives": neg_texts, "model": MODEL})
        qrels_lines.append(f"{qid} 0 g{qi:07d} 1\n")
    write_store(out_dir, "qstore", q_ids, np.stack(q_rows))
    _write_jsonl(os.path.join(out_dir, "queries.jsonl"), query_rows)
    _write_jsonl(os.path.join(out_dir, "cache.jsonl"), cache_rows)
    with open(os.path.join(out_dir, "qrels.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(qrels_lines)

    meta = {"seed": seed, "docs": docs, "dim": dim, "queries": queries,
            "k_pos": k_pos, "m_neg": m_neg, "model": MODEL}
    _write_jsonl(os.path.join(out_dir, "meta.json"), [meta])
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--k-pos", type=int, default=4)
    parser.add_argument("--m-neg", type=int, default=4)
    args = parser.parse_args(argv)
    generate(args.out_dir, args.seed, args.docs, args.dim, args.queries,
             args.k_pos, args.m_neg)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    raise SystemExit(main())
