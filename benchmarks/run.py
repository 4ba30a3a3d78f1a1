"""Benchmark of the deo CLI on seeded synthetic negation corpora.

    python3 benchmarks/run.py --workload eval-20k --seed 1 --seconds 40 --trace 0

One run is one fresh process and one workload, held on one CPU. It generates
(or reuses) the seeded inputs under .bench_data/, then drives the real CLI
entry point `deo.cli.main` in-process as a single closed-loop client. A round
is the workload's pass of commands, then PROBES probes, each an ad-hoc
`deo search --deo --query` call, one `deo index` (the set-up) and one more
`deo eval` like the pass's. After one untimed warm-up round it repeats
rounds for about --seconds (at least MIN_ROUNDS). It checks every output,
prints one line per metric and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 the run measures untraced as usual, then wraps the public
functions of the deo modules (see spans.py), repeats one round traced, and
reports per-layer metrics, writing the spans and a per-layer self-time table
under .bench_out/.

Workloads (K = M = 4 sub-queries per query, d = 384, 110 queries):
  eval-20k     20k-doc binary store; pass = eval over all four systems on 20
               queries, then search --deo over all 110
  online-cold  1k docs served by an in-process mock endpoint; pass = cold
               ingest (JSONL), decompose all queries, online eval on 20, then
               online search on all 110, every store and cache removed first

End-to-end metrics (every workload; see end_to_end for the estimators):
  setup_s                wall time of `deo index` on the corpus store (median)
  eval_qps               eval queries / wall time of `deo eval`
  search_first_result_s  call of an ad-hoc `deo search --deo --query` to its
                         first output line
  search_query_ms_p50    median gap between successive queries' output in
                         `deo search --queries` (109 gaps)
  search_query_ms_p90    90th percentile of those gaps (11 lie beyond it)
  session_s              wall time of the pass, summed over its commands
  peak_rss_mb            ru_maxrss of this process after measuring

Exit code 2 and no result when the deo sources cannot be imported.
"""

from __future__ import annotations

import os
import sys

# The whole run, endpoint thread included, stays on one CPU: a request to the
# in-process endpoint hands control between threads several times, and on a
# shared virtual machine a hand-over to a thread on another, idle vCPU can
# take milliseconds at times, which made search latency swing up to twice
# its usual value. BLAS threads and decompose concurrency follow the CPU count.
CPUS = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPUS[-1]})
NPROC = len(os.sched_getaffinity(0))
# BLAS threads at or below the core count; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA_ROOT = ROOT / ".bench_data"
OUT_ROOT = ROOT / ".bench_out"
MIN_ROUNDS = 2
MAX_CACHED_SETS = 6
RUN_BUDGET_S = 110.0  # measuring stops here; tracing and checks fit in the rest of 180 s
SEARCH_K = 10
EVAL_DEPTH = 100  # ranking depth of every eval system, written into bench.cfg
NDCG_FLOOR = 0.05  # deo must beat baseline by this much (criterion 06)
DIM = 384
QUERIES = 110  # generated; decompose and search --deo cover all of them
EVAL_QUERIES = 20  # the first ones, for eval
PROBES = 2  # per round: an ad-hoc single-query search, `deo index`, one more `deo eval`


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    online: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("eval-20k", 20_000, online=False),
        Workload("online-cold", 1_000, online=True),
    )
}
SYSTEMS = ("baseline", "deo", "avg_only", "rrf_only")


@dataclass
class Command:
    """One CLI invocation: exit code, wall time and timestamped stdout lines."""

    kind: str
    code: int
    start: float
    wall: float
    lines: list[tuple[float, str]]


class LineRecorder(io.TextIOBase):
    """stdout stand-in that stamps each completed line with perf_counter."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self._partial += text
        if "\n" in self._partial:
            *complete, self._partial = self._partial.split("\n")
            self.lines.extend((now, line) for line in complete)
        return len(text)


def run_cli(main, kind: str, argv: list[str], tracer=None) -> Command:
    """Call deo.cli.main(argv) in-process, inside a root span when traced."""
    out, err = LineRecorder(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = main(argv)
            else:
                with tracer.root(f"cli.{kind}"):
                    code = main(argv)
        except Exception:  # a crash is a failed command, not a harness crash
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - start
    if code != 0:
        print(f"command failed ({code}): deo {' '.join(argv)}\n{err.getvalue()}",
              file=sys.stderr)
    return Command(kind, code, start, wall, out.lines)


# -- inputs ---------------------------------------------------------------


def ensure_data(w: Workload, seed: int) -> Path:
    """Generate the seeded input set once and reuse it; keep a few sets."""
    import gen

    data = DATA_ROOT / f"{w.name}-v{gen.VERSION}-n{w.docs}-d{DIM}-q{QUERIES}-s{seed}"
    if (data / "meta.json").exists():
        os.utime(data)
        return data
    if data.exists():
        shutil.rmtree(data)
    if DATA_ROOT.exists():
        kept = sorted(DATA_ROOT.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
        for old in kept[MAX_CACHED_SETS - 1:]:
            shutil.rmtree(old, ignore_errors=True)
    # a child process, so generation memory never shows in peak_rss_mb
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), str(data), "--seed", str(seed),
         "--docs", str(w.docs), "--dim", str(DIM), "--queries", str(QUERIES)],
        check=True, timeout=300,
    )
    return data


def write_lines(path: Path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@dataclass
class Plan:
    """Paths and argv lists for one workload run."""

    data: Path
    work: Path
    corpus: str = ""
    pass_commands: list[tuple[str, list[str]]] = field(default_factory=list)
    adhoc_commands: list[tuple[str, list[str]]] = field(default_factory=list)  # (query id, argv)
    reference: list[str] = field(default_factory=list)

    @property
    def report(self) -> Path:
        return self.work / "report.json"

    @property
    def runs(self) -> Path:
        return self.work / "runs"


def make_plan(w: Workload, data: Path, work: Path, base_url: str = "") -> Plan:
    import gen

    d = {name: str(data / name) for name in
         ("corpus.bin", "qstore.bin", "queries.jsonl", "qrels.txt", "cache.jsonl", "docs.jsonl")}
    with open(d["queries.jsonl"], "r", encoding="utf-8") as fh:
        query_lines = [line.rstrip("\n") for line in fh if line.strip()]
    eval_queries = write_lines(work / "eval_queries.jsonl", query_lines[:EVAL_QUERIES])
    plan = Plan(data, work)
    bench = [f"queries = {eval_queries}", f"qrels = {d['qrels.txt']}",
             f"systems = {', '.join(SYSTEMS)}", f"depth = {EVAL_DEPTH}", "model = synthetic"]
    offline = bench + [f"corpus_store = {d['corpus.bin']}", f"query_store = {d['qstore.bin']}",
                       f"cache = {d['cache.jsonl']}", "offline = true"]
    eval_args = ["--report-json", str(plan.report), "--run-dir", str(plan.runs)]
    if w.online:
        plan.corpus = str(work / "corpus.jsonl")
        cache = str(work / "cache.jsonl")
        tool = write_lines(work / "tool.cfg", [
            f"chat_base_url = {base_url}", f"embed_base_url = {base_url}",
            "chat_model = synthetic", "embed_model = synthetic", f"concurrency = {NPROC}"])
        cfg = write_lines(work / "bench.cfg", bench + [
            f"corpus_store = {plan.corpus}", f"cache = {cache}", "offline = false"])
        search = ["search", "--config", tool, "--store", plan.corpus, "--deo",
                  "--cache", cache, "--k", str(SEARCH_K)]
        plan.pass_commands = [
            ("ingest", ["ingest", "--config", tool, "--docs", d["docs.jsonl"],
                        "--out", plan.corpus]),
            ("decompose", ["decompose", "--config", tool, "--queries", d["queries.jsonl"],
                           "--cache", cache]),
            ("eval", ["eval", "--config", cfg, "--tool-config", tool, *eval_args]),
        ]
        plan.reference = ["eval", "--config", write_lines(work / "reference.cfg", offline),
                          "--offline", "--report-json", str(work / "reference.json"),
                          "--run-dir", str(work / "reference_runs")]
    else:
        plan.corpus = d["corpus.bin"]
        search = ["search", "--store", plan.corpus, "--deo", "--query-store", d["qstore.bin"],
                  "--cache", d["cache.jsonl"], "--offline", "--k", str(SEARCH_K)]
        plan.pass_commands = [
            ("eval", ["eval", "--config", write_lines(work / "bench.cfg", offline), *eval_args]),
        ]
    plan.pass_commands.append(("search", [*search, "--queries", d["queries.jsonl"]]))
    # ad-hoc queries spread over the searched set, the same ones every round
    for i in range(PROBES):
        qi = (i + 1) * QUERIES // (PROBES + 1)
        plan.adhoc_commands.append((gen.query_id(qi), [*search, "--query", gen.query_text(qi)]))
    return plan


# -- measuring ------------------------------------------------------------


@dataclass
class Round:
    """One pass of the workload's commands, then the probes: each an ad-hoc
    search, one `deo index` (set-up) and one more `deo eval` of the pass's
    eval set."""

    commands: list[Command]
    adhoc: list[Command]
    setups: list[Command]
    evals: list[Command]
    digest: str
    eval_digests: list[str]  # of the pass's eval, then of each probe's

    @property
    def wall(self) -> float:
        """Wall time of the pass; probes excluded."""
        return sum(c.wall for c in self.commands)

    def command(self, kind: str) -> Command:
        return next(c for c in self.commands if c.kind == kind)

    def samples(self, kind: str) -> list[float]:
        """Wall times of the pass command `kind` and of its probe repeats."""
        return [self.command(kind).wall] + [c.wall for c in self.evals if c.kind == kind]

    @property
    def all_commands(self) -> list[Command]:
        return [*self.commands, *self.adhoc, *self.setups, *self.evals]


def eval_digest(plan: Plan) -> str:
    """sha256 over the eval run files of every system."""
    h = hashlib.sha256()
    for system in SYSTEMS:
        path = plan.runs / f"{system}.run"
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def rankings_digest(plan: Plan, search: Command) -> str:
    """sha256 over every ranking a pass produced: eval run files, then the
    output of the search."""
    h = hashlib.sha256(eval_digest(plan).encode("ascii"))
    for _, line in search.lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def run_round(main, plan: Plan, tracer=None, probes: int = PROBES) -> Round:
    for stale in (plan.report, plan.work / "corpus.jsonl", plan.work / "cache.jsonl"):
        if stale.exists():
            stale.unlink()
    shutil.rmtree(plan.runs, ignore_errors=True)
    commands = [run_cli(main, kind, argv, tracer) for kind, argv in plan.pass_commands]
    digest = rankings_digest(plan, commands[-1])
    digests = [eval_digest(plan)]
    eval_argv = dict(plan.pass_commands)["eval"]
    adhoc, setups, evals = [], [], []
    for _, argv in plan.adhoc_commands[:probes]:
        adhoc.append(run_cli(main, "search", argv, tracer))
        setups.append(run_cli(main, "index", ["index", "--store", plan.corpus], tracer))
        evals.append(run_cli(main, "eval", eval_argv, tracer))
        digests.append(eval_digest(plan))
    return Round(commands, adhoc, setups, evals, digest, digests)


def measure(main, plan: Plan, seconds: float, started: float) -> list[Round]:
    """One warm-up round, then rounds for about `seconds`; returns all
    rounds, the warm-up first.

    The warm-up round is not timed: the first commands in a process pay for
    heap growth and first-use code paths, up to 1.7 times the steady cost,
    and in-process that would fall on whichever command happens to run
    first. A new round starts while at least half of it is expected to end
    within `seconds` (or fewer than MIN_ROUNDS ran), so a run measures for
    `seconds` give or take half a round. Searches, set-ups and evals are
    timed a few times per round rather than in a block, so that every metric
    samples the whole run.
    """
    rounds = [run_round(main, plan, probes=1)]
    begin = time.perf_counter()
    while True:
        rounds.append(run_round(main, plan))
        now = time.perf_counter()
        mean = (now - begin) / (len(rounds) - 1)
        if now - started + mean > RUN_BUDGET_S:
            break
        if len(rounds) > MIN_ROUNDS and now - begin + mean / 2 > seconds:
            break
    return rounds


def query_gaps(search: Command) -> tuple[float, list[float]]:
    """(seconds to the first output line, gaps in seconds between the first
    lines of successive queries)."""
    firsts: list[float] = []
    seen: set[str] = set()
    for stamp, line in search.lines:
        qid = line.split(" ", 1)[0]
        if qid not in seen:
            seen.add(qid)
            firsts.append(stamp)
    if not firsts:
        return float("nan"), []
    return firsts[0] - search.start, [b - a for a, b in zip(firsts, firsts[1:])]


def slow_side(values) -> float:
    """90th percentile of a run's samples (nan when there are none)."""
    finite = sorted(v for v in values if math.isfinite(v))
    if len(finite) < 2:
        return finite[0] if finite else math.nan
    return statistics.quantiles(finite, n=10, method="inclusive")[8]


def end_to_end(rounds: list[Round], rss_mb: float) -> dict:
    """Each time is the 90th percentile of the run's samples: per command
    over the pass and its probe repeats, over all ad-hoc probes, and per
    query over the rounds' searches, whose median and 90th percentile are
    then taken over the queries. Set-up alone is the median of its samples.

    The host's speed switches between two levels up to 1.8 times apart, in
    spells of one to tens of seconds, and the share of fast time in a run
    changes from run to run. A run's minimum or median flips between the
    levels with that share; the 90th percentile lies in the slow level
    unless nearly the whole run was fast, which was the rarest case in
    repeated runs. Both levels scale with the program's own work, so a
    change to the program moves the percentile as it moves the median."""
    kinds = [c.kind for c in rounds[0].commands]

    def command_s(kind: str) -> float:
        return slow_side(wall for r in rounds for wall in r.samples(kind))

    round_gaps = [query_gaps(r.command("search"))[1] for r in rounds]
    gaps_ms = ([1000.0 * slow_side(g) for g in zip(*round_gaps)]
               if all(len(g) == QUERIES - 1 for g in round_gaps) else [])

    def gap_ms(decile: int) -> float:
        if len(gaps_ms) < 2:
            return math.nan
        return statistics.quantiles(gaps_ms, n=10, method="inclusive")[decile - 1]

    return {
        "setup_s": (statistics.median(c.wall for r in rounds for c in r.setups), "s"),
        "eval_qps": (EVAL_QUERIES / command_s("eval"), "1/s"),
        "search_first_result_s": (
            slow_side(query_gaps(c)[0] for r in rounds for c in r.adhoc), "s"),
        "search_query_ms_p50": (gap_ms(5), "ms"),
        "search_query_ms_p90": (gap_ms(9), "ms"),
        "session_s": (sum(command_s(kind) for kind in kinds), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


# -- tracing --------------------------------------------------------------


def traced_round(main, plan: Plan, mock):
    """One traced round; returns (tracer, round, wall seconds of the round)."""
    import spans

    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    if mock is not None:
        mock.reset()
    try:
        begin = time.perf_counter()
        traced = run_round(main, plan, tracer)
        wall = time.perf_counter() - begin
    finally:
        restore()
    return tracer, traced, wall


def per_layer(tracer, wall: float, overhead_s: float, mock) -> tuple[dict, dict]:
    import spans

    table = spans.layer_table(tracer.spans)
    counters = tracer.counters

    def self_s(name):
        return (table.get(name, {}).get("self_s", 0.0), "s")

    def calls(name):
        return (table.get(name, {}).get("calls", 0), "count")

    def counter(key, unit="count"):
        return (counters.get(key, 0), unit)

    names = [s[0] for s in tracer.spans]
    endpoint_calls = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == "clients.EmbeddingClient.embed" and parent is not None
        and names[parent] == "benchmark.EmbeddingResolver.resolve")
    client_calls = (table.get("clients.EmbeddingClient.embed", {}).get("calls", 0)
                    + table.get("clients.ChatClient.complete", {}).get("calls", 0))
    requests = mock.total("requests") if mock is not None else 0
    metrics = {
        "cli.index.s": self_s("cli.index"),
        "cli.eval.s": self_s("cli.eval"),
        "cli.search.s": self_s("cli.search"),
        "store.load_store.s": self_s("store.load_store"),
        "store.load_store.bytes": counter("store.load_store.bytes", "bytes"),
        "store.save_store.calls": calls("store.save_store"),
        "store.save_store.bytes": counter("store.save_store.bytes", "bytes"),
        "index.FlatIndex.build.s": self_s("index.FlatIndex.build"),
        "vecmath.l2_normalize.calls": counter("vecmath.l2_normalize.calls"),
        "index.FlatIndex.search.calls": calls("index.FlatIndex.search"),
        "index.FlatIndex.search.s": self_s("index.FlatIndex.search"),
        "index.rrf_fuse.s": self_s("index.rrf_fuse"),
        "optimizer.optimize_query_embedding.calls": calls("optimizer.optimize_query_embedding"),
        "optimizer.optimize_query_embedding.s": self_s("optimizer.optimize_query_embedding"),
        "benchmark.EmbeddingResolver.resolve.calls": calls("benchmark.EmbeddingResolver.resolve"),
        "benchmark.EmbeddingResolver.resolve.s": self_s("benchmark.EmbeddingResolver.resolve"),
        "benchmark.EmbeddingResolver.resolve.endpoint_calls": (endpoint_calls, "count"),
        "benchmark.run_benchmark.s": self_s("benchmark.run_benchmark"),
        "metrics.ndcg_at_k.s": self_s("metrics.ndcg_at_k"),
        "metrics.average_precision_at_k.s": self_s("metrics.average_precision_at_k"),
        "metrics.load_qrels.s": self_s("metrics.load_qrels"),
        "decomposer.decompose.calls": calls("decomposer.decompose"),
        "decomposer.DecompositionCache.lookup.calls": calls("decomposer.DecompositionCache.lookup"),
        "decomposer.DecompositionCache.flush.calls": calls("decomposer.DecompositionCache.flush"),
        "decomposer.DecompositionCache.flush.bytes":
            counter("decomposer.DecompositionCache.flush.bytes", "bytes"),
        "clients.EmbeddingClient.embed.calls": calls("clients.EmbeddingClient.embed"),
        "clients.EmbeddingClient.embed.texts": counter("clients.EmbeddingClient.embed.texts"),
        "clients.ChatClient.complete.calls": calls("clients.ChatClient.complete"),
        "clients.retries": (requests - client_calls, "count"),
        "ioutil.atomic_write_bytes.calls": calls("ioutil.atomic_write_bytes"),
        "ioutil.atomic_write_bytes.bytes": counter("ioutil.atomic_write_bytes.bytes", "bytes"),
        "ioutil.atomic_write_bytes.s": self_s("ioutil.atomic_write_bytes"),
        "mock.requests": (requests, "count"),
        "mock.bytes": ((mock.total("bytes_in") + mock.total("bytes_out")) if mock else 0, "bytes"),
        "trace.layer_share": (spans.layer_share(tracer.spans, wall), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return metrics, table


def write_table(path: Path, table: dict, counters: dict, mock, wall: float, share: float) -> str:
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"# traced wall {wall:.4f} s, non-root spans cover {share:.1%}",
             "layer\tcalls\tself_s\ttotal_s"]
    lines += [f"{name}\t{row['calls']}\t{row['self_s']:.6f}\t{row['total_s']:.6f}"
              for name, row in rows]
    lines += [f"{key}\t{value}\t\t" for key, value in sorted(counters.items())]
    if mock is not None:
        for route, stats in sorted(mock.stats.items()):
            lines.append(f"mock{route}\t{stats.requests}\t{stats.serve_s:.6f}\t"
                         f"\t# bytes in {stats.bytes_in}, out {stats.bytes_out}")
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    return text


# -- checks ---------------------------------------------------------------


class Verdict:
    """Operation outcomes (one query x system ranking or one command) and
    run-level problems."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def fail(self, key, why: str) -> None:
        if key not in self.failed_ops:
            self.failed_ops.add(key)
            if len(self.failed_ops) <= 20:
                print(f"check failed: {key}: {why}", file=sys.stderr)

    def problem(self, why: str) -> None:
        self.problems.append(why)
        print(f"check failed: {why}", file=sys.stderr)


def check_commands(verdict: Verdict, label: str, commands: list[Command]) -> None:
    verdict.ops(len(commands))
    for i, c in enumerate(commands):
        if c.code != 0:
            verdict.fail((label, c.kind, i), f"exit code {c.code}")


def check_rankings(verdict: Verdict, plan: Plan, rounds: list[Round]) -> None:
    import checks
    import gen
    import numpy as np

    last = rounds[-1]
    for i, r in enumerate(rounds):
        verdict.ops(EVAL_QUERIES * len(SYSTEMS) * len(r.eval_digests) + QUERIES + len(r.adhoc))
        if r.digest != last.digest:
            verdict.fail(("round", i), "rankings differ from the last round")
        for j, digest in enumerate(r.eval_digests[1:]):
            if digest != r.eval_digests[0]:
                verdict.fail(("round", i, "probe eval", j), "eval rankings differ from the pass's")

    runs = {}
    for system in SYSTEMS:
        try:
            runs[system] = checks.read_trec(str(plan.runs / f"{system}.run"))
        except (OSError, ValueError) as exc:
            verdict.problem(f"{system}.run unreadable: {exc}")
            runs[system] = {}
    try:
        searched = checks.parse_trec(line for _, line in last.command("search").lines)
    except ValueError as exc:
        verdict.problem(f"search output unreadable: {exc}")
        searched = {}

    with open(plan.work / "eval_queries.jsonl", "r", encoding="utf-8") as fh:
        eval_ids = [json.loads(line)["id"] for line in fh]
    search_ids = [gen.query_id(qi) for qi in range(QUERIES)]

    ids, corpus = gen.read_vectors(plan.data, "corpus")
    oracle = checks.Oracle(ids, corpus)
    del corpus
    q_keys, q_rows = gen.read_vectors(plan.data, "qstore")
    q_pos = {key: i for i, key in enumerate(q_keys)}
    scores = oracle.scores(np.stack([q_rows[q_pos[qid]] for qid in eval_ids]))
    for row, qid in enumerate(eval_ids):
        errors = checks.ranking_errors(runs["baseline"].get(qid, []), scores[row], oracle,
                                        EVAL_DEPTH)
        if errors:
            verdict.fail(("baseline", qid), "; ".join(errors[:3]))
        for system in ("avg_only", "rrf_only"):
            ranking = runs[system].get(qid, [])
            if len(ranking) != EVAL_DEPTH or len({d for d, _ in ranking}) != EVAL_DEPTH:
                verdict.fail((system, qid), "malformed ranking")
        deo = runs["deo"].get(qid, [])
        if len(deo) != EVAL_DEPTH or deo[:SEARCH_K] != searched.get(qid):
            verdict.fail(("deo", qid), "eval deo ranking differs from search --deo")
    for qid in search_ids:
        got = searched.get(qid, [])
        if len(got) != SEARCH_K or len({d for d, _ in got}) != SEARCH_K:
            verdict.fail(("search", qid), "malformed search output")
    for i, r in enumerate(rounds):
        for (qid, _), command in zip(plan.adhoc_commands, r.adhoc):
            try:
                adhoc = list(checks.parse_trec(line for _, line in command.lines).values())
            except ValueError:
                adhoc = []
            if adhoc != [searched.get(qid)]:
                verdict.fail(("adhoc", i, qid), "ad-hoc search differs from search --queries")

    try:
        with open(plan.report, "r", encoding="utf-8") as fh:
            agg = json.load(fh)["aggregates"]
        gap = agg["deo"]["ndcg@10"] - agg["baseline"]["ndcg@10"]
        print(f"ndcg@10 baseline {agg['baseline']['ndcg@10']:.4f} deo {agg['deo']['ndcg@10']:.4f}")
        if gap < NDCG_FLOOR:
            verdict.problem(f"deo beats baseline nDCG@10 by {gap:.4f} < {NDCG_FLOOR}")
    except (OSError, KeyError, ValueError) as exc:
        verdict.problem(f"report unreadable: {exc}")


def check_online(verdict: Verdict, main, plan: Plan) -> None:
    """Online results must equal an offline eval on the same vectors, and the
    ingested store and decomposition cache must hold the generated data."""
    import checks
    import gen
    import numpy as np

    ref = run_cli(main, "eval", plan.reference)
    check_commands(verdict, "reference", [ref])

    def splits(path):
        with open(path, "r", encoding="utf-8") as fh:
            return {r["query"]: (r["positives"], r["negatives"]) for r in map(json.loads, fh)}

    try:
        for system in SYSTEMS:
            online = checks.read_trec(str(plan.runs / f"{system}.run"))
            offline = checks.read_trec(str(plan.work / "reference_runs" / f"{system}.run"))
            for qid in sorted(set(online) | set(offline)):
                if online.get(qid) != offline.get(qid):
                    verdict.fail((system, qid), "online ranking differs from the offline eval")
        with open(plan.report, "rb") as on, open(plan.work / "reference.json", "rb") as off:
            if json.load(on)["aggregates"] != json.load(off)["aggregates"]:
                verdict.problem("online eval aggregates differ from the offline eval")

        ids, corpus = gen.read_vectors(plan.data, "corpus")
        with open(plan.corpus, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh][1:]
        got = np.array([row["vector"] for row in rows], dtype=np.float32)
        if [row["id"] for row in rows] != ids or not np.array_equal(got, corpus):
            verdict.problem("ingested store differs from the generated vectors")

        if splits(plan.work / "cache.jsonl") != splits(plan.data / "cache.jsonl"):
            verdict.problem("decomposition cache differs from the generated decompositions")
    except (OSError, KeyError, ValueError) as exc:
        verdict.problem(f"online outputs unreadable: {exc}")


# -- main -----------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_lib = "unknown"
    return {"nproc": len(CPUS), "pinned_cpu": CPUS[-1], "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_lib, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "decompose_concurrency": NPROC, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="deo CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deo" / "cli.py").is_file():
        print(f"no deo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from deo.cli import main as deo_main
    except ImportError as exc:
        print(f"cannot import deo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import mockapi
    import selfcheck

    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    run_name = f"{w.name}-s{args.seed}-trace{args.trace}"
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    work = OUT_ROOT / f"work-{run_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    verdict = Verdict()
    for name, ok, detail in selfcheck.run_all(work / "selfcheck"):
        print(f"selfcheck {name}: {'ok' if ok else 'FAILED ' + detail}")
        if not ok:
            verdict.problem(f"selfcheck {name}: {detail}")

    data = ensure_data(w, args.seed)
    with ExitStack() as stack:
        mock = None
        if w.online:
            mock = stack.enter_context(mockapi.MockEndpoint(*mockapi.responses_for(str(data))))
        plan = make_plan(w, data, work, mock.base_url if mock else "")

        warmup, *rounds = measure(deo_main, plan, args.seconds, started)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = end_to_end(rounds, rss_mb)
        requests_untraced = mock.total("requests") if mock else 0

        for i, r in enumerate([warmup, *rounds]):
            check_commands(verdict, f"round{i}", r.all_commands)
        check_rankings(verdict, plan, [warmup, *rounds])
        if w.online:
            check_online(verdict, deo_main, plan)

        metrics = e2e
        result_extra: dict = {}
        if args.trace:
            tracer, traced, wall = traced_round(deo_main, plan, mock)
            check_commands(verdict, "traced", traced.all_commands)
            if traced.digest != rounds[-1].digest:
                verdict.problem("traced rankings differ from the untraced ones")
            overhead = traced.wall - statistics.median(r.wall for r in rounds)
            metrics, table = per_layer(tracer, wall, overhead, mock)
            if mock is not None and metrics["clients.retries"][0] != 0:
                verdict.problem("mock requests differ from client calls on a run "
                                "without retries")
            span_path = OUT_ROOT / f"{run_name}-spans.jsonl"
            tracer.write(str(span_path))
            table_text = write_table(OUT_ROOT / f"{run_name}-layers.tsv", table,
                                     tracer.counters, mock, wall,
                                     metrics["trace.layer_share"][0])
            print(table_text, end="")
            print(f"spans -> {span_path}")
            result_extra["untraced_e2e"] = {k: v for k, (v, _) in e2e.items()}

    failed = len(verdict.failed_ops)
    correct = failed == 0 and not verdict.problems
    gaps = sum(len(query_gaps(r.command("search"))[1]) for r in rounds)
    print(f"rounds {len(rounds)}, search gaps {gaps}")
    if w.online:
        ingest = statistics.median(r.command("ingest").wall for r in rounds)
        online = statistics.median(sum(c.wall for c in r.commands[:3]) for r in rounds)
        print(f"ingest_docs_per_s {w.docs / ingest:.1f} docs/s")
        print(f"online_s {online:.4f} s (ingest + decompose + eval)")
        print(f"endpoint_requests {requests_untraced / (len(rounds) + 1):g} per round")
    print(f"failed_ops_ratio {failed / max(verdict.attempted, 1):.6f} "
          f"({failed} of {verdict.attempted})")
    print(f"rankings_digest {rounds[-1].digest}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")

    # a metric that could not be measured is null, and the run is not correct
    values = {name: value if math.isfinite(value) else None
              for name, (value, _) in metrics.items()}
    correct = correct and None not in values.values()
    result = {"correct": correct, "attempted": verdict.attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, (_, unit) in metrics.items()}}
    per_round = [{c.kind: c.wall for c in r.commands}
                 | {"index": [c.wall for c in r.setups],
                    "probe_eval": [c.wall for c in r.evals],
                    "adhoc_first": [query_gaps(c)[0] for c in r.adhoc],
                    "search_gaps": query_gaps(r.command("search"))[1]}
                 for r in rounds]
    record = dict(result, env=env, workload=w.name, seed=args.seed, trace=args.trace,
                  digest=rounds[-1].digest, problems=verdict.problems,
                  rounds=per_round, **result_extra)
    (OUT_ROOT / f"{run_name}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
