"""Self-checks of the benchmark harness; run.py runs them before measuring.

    python3 benchmarks/selfcheck.py

Each check returns (name, passed, detail):
  generator  the generator is deterministic per seed and differs across seeds
  oracle     the ranking oracle accepts a correct ranking and flags a swapped
             pair and a reversed tie
  selftime   self time and span coverage on a hand-built nested span set
  mock       on a run without retries, mock request counts equal client
             call counts
"""

from __future__ import annotations

import filecmp
import io
import math
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import checks
import gen
import mockapi
import spans

TINY = {"docs": 64, "dim": 8, "queries": 4, "k_pos": 2, "m_neg": 2}


def check_generator(workdir: Path):
    names = ("corpus.bin", "qstore.bin", "corpus.ids.npy", "corpus.vectors.npy",
             "qstore.ids.npy", "qstore.vectors.npy", "queries.jsonl", "qrels.txt",
             "cache.jsonl", "docs.jsonl", "meta.json")
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate(str(workdir / sub), seed, **TINY)
    _, mismatch, errors = filecmp.cmpfiles(workdir / "a", workdir / "b", names, shallow=False)
    if mismatch or errors:
        return False, f"same seed, different files: {mismatch + errors}"
    if filecmp.cmp(workdir / "a" / "corpus.bin", workdir / "c" / "corpus.bin", shallow=False):
        return False, "different seeds gave the same corpus"
    return True, ""


def check_oracle(_workdir: Path):
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(200, 16)).astype(np.float32)
    matrix[150] = matrix[20]  # exact tie: ids d020 and d150
    ids = [f"d{i:03d}" for i in range(200)]
    oracle = checks.Oracle(ids, matrix)
    scores = oracle.scores(matrix[20:21].astype(np.float64))[0]
    ranking = [(doc_id, float(scores[oracle.position[doc_id]]))
               for doc_id in oracle.top_k(scores, 10)]
    if ranking[0][0] != "d020" or ranking[1][0] != "d150":
        return False, f"tie not broken by ascending id: {ranking[:2]}"
    if checks.ranking_errors(ranking, scores, oracle, 10):
        return False, "correct ranking flagged"
    swapped = ranking[:4] + [ranking[5], ranking[4]] + ranking[6:]
    if not checks.ranking_errors(swapped, scores, oracle, 10):
        return False, "swapped pair not flagged"
    reversed_tie = [ranking[1], ranking[0]] + ranking[2:]
    if not checks.ranking_errors(reversed_tie, scores, oracle, 10):
        return False, "reversed tie not flagged"
    return True, ""


def check_selftime(_workdir: Path):
    # [name, start, end, parent, root]; E and F overlap, as pool threads do
    span_set = [
        ["root", 0.0, 10.0, None, 0],
        ["A", 1.0, 5.0, 0, 0],
        ["B", 2.0, 3.0, 1, 0],
        ["D", 6.0, 9.0, 0, 0],
        ["E", 6.5, 8.0, 3, 0],
        ["F", 7.0, 8.5, 3, 0],
    ]
    want = [3.0, 3.0, 1.0, 1.0, 1.5, 1.5]
    got = spans.self_times(span_set)
    if not all(math.isclose(g, x, abs_tol=1e-12) for g, x in zip(got, want)):
        return False, f"self times {got}, expected {want}"
    share = spans.layer_share(span_set, 10.0)
    if not math.isclose(share, 0.7, abs_tol=1e-12):
        return False, f"non-root coverage {share}, expected 0.7"
    table = spans.layer_table(span_set + [["B", 3.5, 4.0, 1, 0]])
    if not math.isclose(table["A"]["self_s"], 2.5) or table["B"]["calls"] != 2:
        return False, f"aggregation wrong: {table}"
    return True, ""


def check_mock(workdir: Path):
    from deo.cli import main as deo_main

    data = workdir / "a"
    vectors, chats = mockapi.responses_for(str(data))
    tracer = spans.Tracer()
    with mockapi.MockEndpoint(vectors, chats) as mock:
        tool = workdir / "tool.cfg"
        tool.write_text(f"chat_base_url = {mock.base_url}\nembed_base_url = {mock.base_url}\n"
                        "chat_model = synthetic\nbatch_size = 16\nconcurrency = 2\n")
        restore = spans.instrument(tracer)
        try:
            with redirect_stdout(io.StringIO()):
                with tracer.root("cli.ingest"):
                    ingest = deo_main(["ingest", "--config", str(tool), "--docs",
                                       str(data / "docs.jsonl"), "--out",
                                       str(workdir / "s.jsonl")])
                with tracer.root("cli.decompose"):
                    decompose = deo_main(["decompose", "--config", str(tool), "--queries",
                                          str(data / "queries.jsonl"), "--cache",
                                          str(workdir / "c.jsonl")])
        finally:
            restore()
        embeds = sum(1 for s in tracer.spans if s[0] == "clients.EmbeddingClient.embed")
        chat_calls = sum(1 for s in tracer.spans if s[0] == "clients.ChatClient.complete")
        got = (mock.stats[mockapi.EMBED_ROUTE].requests, mock.stats[mockapi.CHAT_ROUTE].requests)
    if ingest != 0 or decompose != 0:
        return False, f"exit codes {ingest}, {decompose}"
    want_embeds = math.ceil(TINY["docs"] / 16)
    if got != (embeds, chat_calls) or embeds != want_embeds or chat_calls != TINY["queries"]:
        return False, (f"mock saw {got}, clients made ({embeds}, {chat_calls}), "
                       f"expected ({want_embeds}, {TINY['queries']})")
    return True, ""


def run_all(workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results = []
    for check in (check_generator, check_oracle, check_selftime, check_mock):
        name = check.__name__[len("check_"):]
        try:
            ok, detail = check(workdir)
        except Exception as exc:  # report, then let the run fail
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    shutil.rmtree(workdir, ignore_errors=True)
    return results


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workdir = Path(__file__).resolve().parent.parent / ".bench_out" / "selfcheck"
    outcome = run_all(workdir)
    for check_name, passed, why in outcome:
        print(f"{check_name}: {'ok' if passed else 'FAILED ' + why}")
    sys.exit(0 if all(passed for _, passed, _ in outcome) else 1)
