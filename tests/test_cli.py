import json
import subprocess
import sys

import numpy as np
import pytest

from deo import index
from deo.cli import main
from deo.config import parse_flat_config
from deo.store import EmbeddingStore, load_store, save_store

from conftest import child_env, stable_unit_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_queries(path, rows):
    with open(path, "w") as fh:
        for qid, text in rows:
            fh.write(json.dumps({"id": qid, "text": text}) + "\n")


# -- exit codes and diagnostics ---------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["index"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("decompose", "ingest", "index", "search", "optimize",
                 "eval", "sweep", "trajectory"):
        assert name in out


@pytest.mark.parametrize("argv", [
    ["index", "--store", "X"],
    ["index", "--store", "X", "--config", "tool.cfg"],
    ["ingest", "--docs", "X", "--out", "X"],
    ["decompose", "--queries", "X", "--cache", "X"],
])
def test_options_that_change_nothing_are_usage_errors(argv, capsys):
    # index reads no tool config; ingest and decompose read no loss weights
    extra = [] if "--config" in argv else ["--preset", "text"]
    assert main(argv + extra) == 2


def test_data_error_prints_json_line(capsys):
    code, out, err = run_cli(capsys, "index", "--store", "/no/such/file.jsonl")
    assert code == 1
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "FileNotFoundError"
    assert "/no/such/file.jsonl" in diag["message"]


def test_transport_error_exits_three(tmp_path, capsys):
    cfg = tmp_path / "tool.cfg"
    cfg.write_text("chat_base_url = http://127.0.0.1:9\nmax_retries = 0\n")
    write_queries(tmp_path / "q.jsonl", [("q1", "anything")])
    code, out, err = run_cli(
        capsys, "decompose", "--config", str(cfg),
        "--queries", str(tmp_path / "q.jsonl"),
        "--cache", str(tmp_path / "cache.jsonl"),
    )
    assert code == 3
    assert json.loads(err.strip())["error"] == "TransportError"


def test_offline_cache_miss_is_data_error(fixtures_dir, tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("")
    code, out, err = run_cli(
        capsys, "search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
        "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
        "--queries", str(fixtures_dir / "queries.jsonl"),
        "--cache", str(tmp_path / "empty.jsonl"),
        "--deo", "--offline",
    )
    assert code == 1
    assert json.loads(err.strip())["error"] == "MissingDecompositionError"


@pytest.mark.parametrize("key, value, message", [
    ("steps", "abc", "key 'steps' has invalid value 'abc'"),
    ("depth", "ten", "key 'depth' has invalid value 'ten'"),
    ("steps", "-1", "steps must be >= 0"),
    ("depth", "-1", "depth must be >= 0"),
    ("systems", "baseline, bm25", "unknown system 'bm25'"),
    ("metrics", "bleu@4", "unknown metric kind 'bleu'"),
    ("systems", "", "systems must name at least one entry"),
    ("metrics", "", "metrics must name at least one entry"),
    ("lambda_p", "nan", "lambda_p = nan"),
    ("lambda_o", "inf", "lambda_o = inf"),
    ("learning_rate", "nan", "learning_rate must be positive and finite"),
])
def test_eval_bad_config_value_names_file_and_key(fixtures_dir, tmp_path, capsys,
                                                   key, value, message):
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg, fixtures_dir, **{key: value})
    code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 1
    diag = json.loads(err.strip())
    assert diag["error"] == "ConfigError"
    assert str(cfg) in diag["message"] and message in diag["message"]


# -- index / search -----------------------------------------------------------


def test_index_ok(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "index", "--store",
                           str(fixtures_dir / "corpus.emb.jsonl"))
    assert code == 0
    assert out.strip() == "index ok: 20 docs, dim 8"


@pytest.mark.parametrize("fields, message", [
    ('"version":1,"dim":true', "header dim must be a positive integer"),
    ('"version":1,"dim":4.0', "header dim must be a positive integer"),
    ('"version":true,"dim":4', "unsupported version True"),
    ('"version":1.0,"dim":4', "unsupported version 1.0"),
])
def test_index_names_a_header_field_that_is_no_json_integer(tmp_path, capsys, fields, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"format":"deo-emb",%s}\n{"id":"a","vector":[1,0,0,0]}\n' % fields)
    code, out, err = run_cli(capsys, "index", "--store", str(path))
    assert (code, out) == (1, "")
    assert err == json.dumps({"error": "FormatError", "message": f"{path}:1: {message}"}) + "\n"


@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
def test_index_on_a_store_without_records_is_empty_input(tmp_path, capsys, fmt):
    path = tmp_path / "corpus.store"
    save_store(EmbeddingStore(dim=4), path, fmt=fmt)
    code, out, err = run_cli(capsys, "index", "--store", str(path))
    assert (code, out) == (1, "")
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": "EmptyInputError",
                                "message": "cannot build an index from zero documents"}


@pytest.mark.parametrize("bad, error", [
    ([0.0, 0.0, 0.0, 0.0], "ZeroVectorError"),
    ([float("nan"), 0.0, 1.0, 0.0], "ValueError"),
])
def test_index_names_the_bad_doc(tmp_path, capsys, bad, error):
    store = EmbeddingStore(dim=4)
    store.add("fine", [1.0, 0.0, 0.0, 0.0])
    store.add("broken", bad)
    store.add("also-fine", [0.0, 1.0, 0.0, 0.0])
    save_store(store, tmp_path / "corpus.bin", fmt="binary")
    code, out, err = run_cli(capsys, "index", "--store", str(tmp_path / "corpus.bin"))
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    diag = json.loads(line)
    assert diag["error"] == error
    assert "'broken'" in diag["message"]


@pytest.mark.parametrize("vector", [[1.0, "x"], [[1.0, 2.0], 3.0], [[1.0, 2.0], [3.0, 4.0]]])
def test_index_names_the_line_of_a_bad_vector_component(tmp_path, capsys, vector):
    path = tmp_path / "corpus.emb.jsonl"
    path.write_text('{"format": "deo-emb", "version": 1, "dim": 2}\n'
                    + json.dumps({"id": "a", "vector": vector}) + "\n")
    code, out, err = run_cli(capsys, "index", "--store", str(path))
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    diag = json.loads(line)
    assert diag["error"] == "FormatError"
    assert f"{path}:2:" in diag["message"]


@pytest.mark.parametrize("raw", ["null", '["a"]', "1.5", "true"])
def test_index_rejects_a_store_id_that_is_not_a_string_or_an_integer(tmp_path, capsys, raw):
    path = tmp_path / "corpus.emb.jsonl"
    path.write_text('{"format": "deo-emb", "version": 1, "dim": 1}\n'
                    '{"id": %s, "vector": [1.0]}\n' % raw)
    code, out, err = run_cli(capsys, "index", "--store", str(path))
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": "FormatError",
                                "message": f"{path}:2: 'id' must be a string or an integer"}


@pytest.mark.parametrize("record", [
    {"id": "q1", "text": ["a"]},
    {"id": "q1", "text": 5},
    {"id": True, "text": "a"},
    {"id": 1.5, "text": "a"},
    {"id": ["q1"], "text": "a"},
])
def test_search_rejects_a_query_line_that_is_not_id_and_text(fixtures_dir, tmp_path, capsys,
                                                              record):
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"id": "q0", "text": "fine"}) + "\n" + json.dumps(record) + "\n")
    code, out, err = run_cli(capsys, "search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
                             "--queries", str(queries), "--offline")
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    diag = json.loads(line)
    assert diag["error"] == "FormatError"
    assert f"{queries}:2:" in diag["message"]


def test_integer_query_ids_are_read_as_strings(fixtures_dir, tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    text = json.loads((fixtures_dir / "queries.jsonl").read_text().splitlines()[0])["text"]
    queries.write_text(json.dumps({"id": 7, "text": text}) + "\n")
    code, out, err = run_cli(capsys, "search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
                             "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
                             "--queries", str(queries), "--offline", "--k", "1")
    assert code == 0, err
    assert out.split()[0] == "7"


def test_search_baseline_trec_output(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
        "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
        "--queries", str(fixtures_dir / "queries.jsonl"),
        "--offline", "--k", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15  # 5 queries x k=3
    qids = [line.split()[0] for line in lines]
    assert qids == sorted(qids)
    first = lines[0].split()
    assert (first[0], first[1], first[3], first[5]) == ("q1", "Q0", "1", "baseline")
    ranks = [int(line.split()[3]) for line in lines[:3]]
    assert ranks == [1, 2, 3]
    scores = [float(line.split()[4]) for line in lines[:3]]
    assert scores == sorted(scores, reverse=True)


def search_deo_argv(fixtures_dir, cache):
    return ["search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
            "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
            "--queries", str(fixtures_dir / "queries.jsonl"),
            "--cache", str(cache), "--deo", "--offline", "--k", "20"]


def test_search_deo_matches_golden_run(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, *search_deo_argv(fixtures_dir, fixtures_dir / "cache.jsonl"))
    assert code == 0
    # eval's deo run, every query: search and eval share one query pipeline
    assert out == (fixtures_dir / "golden" / "runs" / "deo.run").read_text()


@pytest.mark.parametrize("block", [1, 2, index.SEARCH_BLOCK])
def test_outputs_do_not_depend_on_search_block(fixtures_dir, tmp_path, monkeypatch, capsys,
                                               block):
    # search prints a block of queries at a time and eval ranks its queries
    # in blocks, all four systems with one search_many call per block:
    # neither output may change with the block size
    monkeypatch.setattr(index, "SEARCH_BLOCK", block)
    calls = []
    search_many = index.FlatIndex.search_many
    monkeypatch.setattr(index.FlatIndex, "search_many",
                        lambda self, queries, k: calls.append(len(queries))
                        or search_many(self, queries, k))
    blocks = -(-5 // block)  # the fixtures hold 5 queries
    golden = fixtures_dir / "golden" / "runs"
    code, out, _ = run_cli(capsys, *search_deo_argv(fixtures_dir, fixtures_dir / "cache.jsonl"))
    assert code == 0
    assert out == (golden / "deo.run").read_text()
    assert len(calls) == blocks and sum(calls) == 5
    calls.clear()
    code, _, _ = run_cli(capsys, "eval", "--config", str(fixtures_dir / "bench.cfg"),
                         "--run-dir", str(tmp_path / "runs"))
    assert code == 0
    for run in ("baseline", "deo", "avg_only", "rrf_only"):
        assert (tmp_path / "runs" / f"{run}.run").read_bytes() == (golden / f"{run}.run").read_bytes()
    # rrf_only searches each sub-query, or the query when it has none
    entries = [json.loads(line) for line in (fixtures_dir / "cache.jsonl").read_text().splitlines()]
    rrf_rows = sum(max(1, len(e["positives"]) + len(e["negatives"])) for e in entries)
    assert len(calls) == blocks and sum(calls) == 3 * 5 + rrf_rows


def test_search_keeps_earlier_blocks_when_a_later_query_fails(fixtures_dir, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.setattr(index, "SEARCH_BLOCK", 2)
    cache = tmp_path / "cache.jsonl"
    rows = (fixtures_dir / "cache.jsonl").read_text().splitlines()
    cache.write_text("".join(row + "\n" for row in rows if json.loads(row)["query_id"] != "q3"))
    code, out, err = run_cli(capsys, *search_deo_argv(fixtures_dir, cache))
    assert code == 1
    golden = (fixtures_dir / "golden" / "runs" / "deo.run").read_text().splitlines(keepends=True)
    assert out == "".join(line for line in golden if line.split()[0] in ("q1", "q2"))
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "MissingDecompositionError"


@pytest.mark.parametrize("positives", [5, "abc"])
def test_search_rejects_malformed_cache_line(fixtures_dir, tmp_path, capsys, positives):
    cache = tmp_path / "cache.jsonl"
    rows = (fixtures_dir / "cache.jsonl").read_text().splitlines()
    bad = dict(json.loads(rows[1]), positives=positives)
    cache.write_text("".join(row + "\n" for row in [rows[0], json.dumps(bad), *rows[2:]]))
    code, out, err = run_cli(capsys, *search_deo_argv(fixtures_dir, cache))
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    diag = json.loads(line)
    assert diag["error"] == "FormatError"
    assert f"{cache}:2:" in diag["message"] and "lists of strings" in diag["message"]


def test_search_single_query_resolves_by_text(fixtures_dir, capsys):
    text = "solar power adoption, excluding anything about nuclear energy"
    code, out, _ = run_cli(
        capsys, "search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
        "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
        "--query", text, "--offline", "--k", "5", "--run-tag", "adhoc",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].endswith(" adhoc")


def test_search_adhoc_query_is_its_own_id(fixtures_dir, tmp_path, capsys):
    # the ad-hoc text is the query's id, so a missing decomposition names
    # the text; its ranking still prints as q1
    text = "solar power adoption, excluding anything about nuclear energy"
    (tmp_path / "empty.jsonl").write_text("")
    search = ["search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
              "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
              "--query", text, "--offline", "--k", "3"]
    code, out, err = run_cli(capsys, *search, "--deo", "--cache", str(tmp_path / "empty.jsonl"))
    assert code == 1
    diag = json.loads(err.strip())
    assert diag["error"] == "MissingDecompositionError" and repr(text) in diag["message"]
    code, out, err = run_cli(capsys, *search)
    assert code == 0, err
    assert [line.split()[0] for line in out.splitlines()] == ["q1"] * 3


# every offline command, run in one fresh interpreter; it then reports whether
# requests was imported, and how the package's lazy client exports behave
OFFLINE_IMPORT_PROBE = """
import json, sys
from deo.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
offline = "requests" in sys.modules
import deo
from deo import ChatClient, ClientConfig, EmbeddingClient
try:
    deo.NoSuchName
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
names = [cls.__module__ + "." + cls.__name__ for cls in (ChatClient, ClientConfig, EmbeddingClient)]
print(json.dumps([codes, offline, names, unknown]))
"""


def test_offline_commands_never_import_requests(fixtures_dir, tmp_path):
    tool, bench = str(fixtures_dir / "tool.cfg"), str(fixtures_dir / "bench.cfg")
    stores = ["--query-store", str(fixtures_dir / "queries.emb.jsonl"),
              "--cache", str(fixtures_dir / "cache.jsonl")]
    commands = [
        ["index", "--store", str(fixtures_dir / "corpus.emb.jsonl")],
        ["search", "--offline", "--deo", "--config", tool, "--store",
         str(fixtures_dir / "corpus.emb.jsonl"), "--queries", str(fixtures_dir / "queries.jsonl"),
         *stores],
        ["optimize", "--offline", "--config", tool, "--query",
         "wind farm technology but not offshore installations", *stores],
        ["eval", "--config", bench, "--report-json", str(tmp_path / "report.json"),
         "--run-dir", str(tmp_path / "runs")],
        ["sweep", "--config", str(fixtures_dir / "sweep.cfg"), "--out", str(tmp_path / "sweep.csv")],
        ["trajectory", "--config", bench, "--query-id", "q1",
         "--out-prefix", str(tmp_path / "traj")],
    ]
    result = subprocess.run([sys.executable, "-c", OFFLINE_IMPORT_PROBE, json.dumps(commands)],
                            capture_output=True, text=True, env=child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    codes, offline, names, unknown = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert offline is False
    assert names == ["deo.clients.ChatClient", "deo.clients.ClientConfig",
                     "deo.clients.EmbeddingClient"]
    assert unknown == "module 'deo' has no attribute 'NoSuchName'"


# -- optimize -----------------------------------------------------------------


def test_optimize_zero_steps_passthrough(fixtures_dir, tmp_path, capsys):
    # normalize_inputs=false in tool.cfg, so zero steps must return the
    # stored embedding bit for bit
    text = "solar power adoption, excluding anything about nuclear energy"
    prefix = str(tmp_path / "opt")
    code, out, _ = run_cli(
        capsys, "optimize", "--config", str(fixtures_dir / "tool.cfg"),
        "--query", text,
        "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
        "--cache", str(fixtures_dir / "cache.jsonl"),
        "--offline", "--steps", "0", "--out", prefix,
    )
    assert code == 0
    doc = json.loads((tmp_path / "opt.embedding.json").read_text())
    stored = load_store(fixtures_dir / "queries.emb.jsonl").get(text)
    assert doc["embedding"] == [float(x) for x in stored]
    assert doc["steps"] == 0
    assert doc["positives"] == ["benefits and adoption of solar power",
                                "residential and utility solar installations"]
    trace_lines = (tmp_path / "opt.trace.csv").read_text().splitlines()
    assert trace_lines[0] == "step,loss"
    assert len(trace_lines) == 2


def test_optimize_stdout_document(fixtures_dir, capsys):
    text = "hydroelectric dams without their environmental impact"
    code, out, _ = run_cli(
        capsys, "optimize", "--config", str(fixtures_dir / "tool.cfg"),
        "--query", text,
        "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
        "--cache", str(fixtures_dir / "cache.jsonl"),
        "--offline",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 20
    assert len(doc["embedding"]) == 8
    assert doc["negatives"] == ["environmental impact of dams"]
    assert np.isfinite(doc["final_loss"])


# -- eval / sweep / trajectory match committed goldens ------------------------


def test_eval_reproduces_goldens(fixtures_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    code, out, _ = run_cli(
        capsys, "eval", "--config", str(fixtures_dir / "bench.cfg"),
        "--report-json", str(tmp_path / "report.json"),
        "--report-csv", str(tmp_path / "report.csv"),
        "--run-dir", str(tmp_path / "runs"),
    )
    assert code == 0
    golden = fixtures_dir / "golden"
    assert (tmp_path / "report.json").read_bytes() == (golden / "report.json").read_bytes()
    assert (tmp_path / "report.csv").read_bytes() == (golden / "report.csv").read_bytes()
    for run in ("baseline", "deo", "avg_only", "rrf_only"):
        assert ((tmp_path / "runs" / f"{run}.run").read_bytes()
                == (golden / "runs" / f"{run}.run").read_bytes())
    # stdout gives one aggregate line per system x metric
    assert len(out.splitlines()) == 12
    assert "deo ndcg@10 1.0000" in out


def test_sweep_reproduces_golden(fixtures_dir, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(fixtures_dir / "sweep.cfg"),
        "--out", str(tmp_path / "sweep.csv"),
    )
    assert code == 0
    assert "4 grid points" in out
    assert ((tmp_path / "sweep.csv").read_bytes()
            == (fixtures_dir / "golden" / "sweep.csv").read_bytes())


def test_sweep_without_out_prints_csv(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--config", str(fixtures_dir / "sweep.cfg"))
    assert code == 0
    assert out == (fixtures_dir / "golden" / "sweep.csv").read_text()


@pytest.mark.parametrize("key, value, message", [
    ("steps_list", "0, 20, -1", "steps must be >= 0"),
    ("lambdas", "0.2:1:1; -1:1:1", "lambda weights must be non-negative"),
])
def test_sweep_bad_grid_value_fails_before_running(fixtures_dir, tmp_path, capsys,
                                                   key, value, message):
    cfg = tmp_path / "sweep.cfg"
    write_bench_cfg(cfg, fixtures_dir, **{key: value})
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert out == ""
    diag = json.loads(err.strip())
    assert diag["error"] == "ConfigError"
    assert str(cfg) in diag["message"] and message in diag["message"]


def test_trajectory_reproduces_goldens(fixtures_dir, tmp_path, capsys):
    prefix = str(tmp_path / "traj_q1")
    code, out, _ = run_cli(
        capsys, "trajectory", "--config", str(fixtures_dir / "bench.cfg"),
        "--query-id", "q1", "--out-prefix", prefix,
    )
    assert code == 0
    assert "gold rank 2 -> 1" in out
    golden = fixtures_dir / "golden"
    for ext in (".csv", ".json", ".svg"):
        assert ((tmp_path / ("traj_q1" + ext)).read_bytes()
                == (golden / ("traj_q1" + ext)).read_bytes())


def test_trajectory_unknown_query_id(fixtures_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "trajectory", "--config", str(fixtures_dir / "bench.cfg"),
        "--query-id", "q99", "--out-prefix", str(tmp_path / "x"),
    )
    assert code == 1
    assert "q99" in json.loads(err.strip())["message"]


def test_key_error_line_carries_its_message_unquoted(fixtures_dir, tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "trajectory", "--config", str(fixtures_dir / "bench.cfg"),
        "--query-id", "nope", "--out-prefix", str(tmp_path / "x"),
    )
    assert (code, out) == (1, "")
    message = f"query id 'nope' not in {fixtures_dir / 'queries.jsonl'}"
    assert err == json.dumps({"error": "KeyError", "message": message}) + "\n"


# -- decomposition cache rule ------------------------------------------------


def write_bench_cfg(path, fixtures_dir, **overrides):
    # the committed bench.cfg, with absolute paths and the given keys replaced
    keys = parse_flat_config((fixtures_dir / "bench.cfg").read_text())
    for key in ("corpus_store", "queries", "qrels", "query_store", "cache"):
        keys[key] = str(fixtures_dir / keys[key])
    keys.update(overrides)
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))


def test_offline_eval_falls_back_to_any_models_entry(fixtures_dir, tmp_path, capsys):
    # the cache holds only fixture-llm entries; offline, they are reused
    write_bench_cfg(tmp_path / "bench.cfg", fixtures_dir, model="other")
    code, _, err = run_cli(capsys, "eval", "--config", str(tmp_path / "bench.cfg"),
                           "--run-dir", str(tmp_path / "runs"))
    assert code == 0, err
    for run in ("baseline", "deo", "avg_only", "rrf_only"):
        assert ((tmp_path / "runs" / f"{run}.run").read_bytes()
                == (fixtures_dir / "golden" / "runs" / f"{run}.run").read_bytes())


def test_online_search_ignores_other_models_entries(fixtures_dir, tmp_path, mock_api, capsys):
    mock_api.embed_dim = 8
    cfg = write_tool_cfg(tmp_path, mock_api)
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes((fixtures_dir / "cache.jsonl").read_bytes())
    code, out, err = run_cli(
        capsys, "search", "--config", str(cfg),
        "--store", str(fixtures_dir / "corpus.emb.jsonl"),
        "--queries", str(fixtures_dir / "queries.jsonl"),
        "--cache", str(cache), "--deo", "--k", "3",
    )
    assert code == 0, err
    assert len(out.splitlines()) == 15
    # one chat request per query, each result cached under the client's model
    assert mock_api.request_count("/v1/chat/completions") == 5
    models = [json.loads(line)["model"] for line in cache.read_text().splitlines()]
    assert models == ["fixture-llm"] * 5 + ["mock-llm"] * 5


@pytest.mark.parametrize("chat_model, positive", [
    ("fixture-llm", "nuclear reactor design"),       # the exact (text, model) entry
    ("unknown-llm", "onshore wind farm technology"),  # offline: the first entry
])
def test_cache_rule_picks_entry_by_model(fixtures_dir, tmp_path, capsys, chat_model, positive):
    text = "nuclear reactor designs"
    cache = tmp_path / "cache.jsonl"
    rows = [("other-llm", "onshore wind farm technology"),
            ("fixture-llm", "nuclear reactor design"),
            ("third-llm", "geothermal heating systems")]
    cache.write_text("".join(
        json.dumps({"query_id": "q4", "query": text, "positives": [p],
                    "negatives": [], "model": model}) + "\n" for model, p in rows))
    cfg = tmp_path / "tool.cfg"
    cfg.write_text(f"chat_model = {chat_model}\n")
    code, out, err = run_cli(
        capsys, "optimize", "--config", str(cfg), "--query", text,
        "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
        "--cache", str(cache), "--offline",
    )
    assert code == 0, err
    assert json.loads(out)["positives"] == [positive]


def write_online_bench_cfg(path, fixtures_dir):
    # no query_store: every query and sub-query embedding must come from
    # the endpoint named in --tool-config
    path.write_text(
        f"corpus_store = {fixtures_dir / 'corpus.emb.jsonl'}\n"
        f"queries = {fixtures_dir / 'queries.jsonl'}\n"
        f"qrels = {fixtures_dir / 'qrels.txt'}\n"
        f"cache = {fixtures_dir / 'cache.jsonl'}\n"
        "systems = baseline, deo\n"
        "metrics = ndcg@10\n"
        "offline = false\n"
        "model = fixture-llm\n"
    )


def test_eval_online_uses_tool_config_endpoints(fixtures_dir, tmp_path, mock_api, capsys):
    mock_api.embed_dim = 8
    write_online_bench_cfg(tmp_path / "bench.cfg", fixtures_dir)
    tool = tmp_path / "tool.cfg"
    tool.write_text(f"embed_base_url = {mock_api.base_url}\n"
                    f"chat_base_url = {mock_api.base_url}\n"
                    "chat_model = fixture-llm\n")  # the benchmark's model
    code, out, _ = run_cli(
        capsys, "eval", "--config", str(tmp_path / "bench.cfg"),
        "--tool-config", str(tool),
    )
    assert code == 0
    assert mock_api.request_count("/v1/embeddings") > 0
    assert mock_api.request_count("/v1/chat/completions") == 0  # cache hits
    assert "baseline ndcg@10" in out and "deo ndcg@10" in out


def test_trajectory_online_uses_tool_config_endpoints(fixtures_dir, tmp_path, mock_api, capsys):
    mock_api.embed_dim = 8
    write_online_bench_cfg(tmp_path / "bench.cfg", fixtures_dir)
    tool = tmp_path / "tool.cfg"
    tool.write_text(f"embed_base_url = {mock_api.base_url}\n"
                    f"chat_base_url = {mock_api.base_url}\n"
                    "chat_model = fixture-llm\n")  # the benchmark's model
    code, out, _ = run_cli(
        capsys, "trajectory", "--config", str(tmp_path / "bench.cfg"),
        "--tool-config", str(tool),
        "--query-id", "q1", "--out-prefix", str(tmp_path / "traj"),
    )
    assert code == 0
    assert mock_api.request_count("/v1/embeddings") > 0
    for ext in (".csv", ".json", ".svg"):
        assert (tmp_path / ("traj" + ext)).exists()


def write_online_eval_cfg(path, fixtures_dir, cache, model):
    path.write_text(
        f"corpus_store = {fixtures_dir / 'corpus.emb.jsonl'}\n"
        f"queries = {fixtures_dir / 'queries.jsonl'}\n"
        f"qrels = {fixtures_dir / 'qrels.txt'}\n"
        f"cache = {cache}\n"
        "systems = baseline, deo\n"
        "metrics = ndcg@10\n"
        "offline = false\n"
        f"model = {model}\n"
    )


def test_online_eval_honours_tool_config_max_subqueries(fixtures_dir, tmp_path, mock_api,
                                                        capsys):
    mock_api.embed_dim = 8
    mock_api.chat_default = '{"positives": ["p one", "p two", "p three"], "negatives": ["n"]}'
    cache = tmp_path / "cache.jsonl"
    write_online_eval_cfg(tmp_path / "bench.cfg", fixtures_dir, cache, "mock-llm")
    tool = write_tool_cfg(tmp_path, mock_api, extra="max_subqueries = 1\n")
    code, _, err = run_cli(capsys, "eval", "--config", str(tmp_path / "bench.cfg"),
                           "--tool-config", str(tool))
    assert code == 0, err
    rows = [json.loads(line) for line in cache.read_text().splitlines()]
    assert len(rows) == 5
    assert all(row["positives"] == ["p one"] for row in rows)


def test_online_eval_rejects_model_other_than_chat_model(fixtures_dir, tmp_path, mock_api,
                                                         capsys):
    # entries would be cached under m1 and looked up under other, so every
    # run would pay for every query again
    mock_api.embed_dim = 8
    write_online_eval_cfg(tmp_path / "bench.cfg", fixtures_dir, tmp_path / "cache.jsonl",
                          "other")
    tool = tmp_path / "tool.cfg"
    tool.write_text(f"chat_base_url = {mock_api.base_url}\n"
                    f"embed_base_url = {mock_api.base_url}\n"
                    "chat_model = m1\n")
    for _ in range(2):
        code, out, err = run_cli(capsys, "eval", "--config", str(tmp_path / "bench.cfg"),
                                 "--tool-config", str(tool))
        assert code == 1
        (line,) = err.strip().splitlines()
        diag = json.loads(line)
        assert diag["error"] == "ConfigError"
        assert "'other'" in diag["message"] and "'m1'" in diag["message"]
    assert mock_api.request_count() == 0


def test_offline_flag_keeps_an_online_benchmark_offline(fixtures_dir, tmp_path, mock_api,
                                                       capsys):
    write_bench_cfg(tmp_path / "bench.cfg", fixtures_dir, offline="false")
    tool = tmp_path / "tool.cfg"
    tool.write_text(f"chat_base_url = {mock_api.base_url}\n"
                    f"embed_base_url = {mock_api.base_url}\n")
    code, _, err = run_cli(capsys, "eval", "--config", str(tmp_path / "bench.cfg"),
                           "--tool-config", str(tool), "--offline",
                           "--run-dir", str(tmp_path / "runs"))
    assert code == 0, err
    assert mock_api.request_count() == 0
    for run in ("baseline", "deo", "avg_only", "rrf_only"):
        assert ((tmp_path / "runs" / f"{run}.run").read_bytes()
                == (fixtures_dir / "golden" / "runs" / f"{run}.run").read_bytes())


# -- decompose / ingest over the mock endpoint --------------------------------


def write_tool_cfg(tmp_path, api, extra=""):
    cfg = tmp_path / "tool.cfg"
    cfg.write_text(
        f"chat_base_url = {api.base_url}\n"
        f"embed_base_url = {api.base_url}\n"
        "chat_model = mock-llm\n"
        "embed_model = mock-emb\n"
        "max_retries = 0\n"
        + extra
    )
    return cfg


def test_bad_tool_config_value_fails_before_any_request(tmp_path, mock_api, capsys):
    cfg = tmp_path / "tool.cfg"
    cfg.write_text(f"chat_base_url = {mock_api.base_url}\nmax_retries = -1\n")
    write_queries(tmp_path / "q.jsonl", [("q1", "first")])
    code, _, err = run_cli(capsys, "decompose", "--config", str(cfg),
                           "--queries", str(tmp_path / "q.jsonl"),
                           "--cache", str(tmp_path / "cache.jsonl"))
    assert code == 1
    diag = json.loads(err.strip())
    assert diag["error"] == "ConfigError"
    assert str(cfg) in diag["message"] and "max_retries must be >= 0" in diag["message"]
    assert mock_api.request_count() == 0


def test_decompose_populates_cache(tmp_path, mock_api, capsys):
    cfg = write_tool_cfg(tmp_path, mock_api)
    write_queries(tmp_path / "q.jsonl", [("q1", "first"), ("q2", "second")])
    cache = tmp_path / "cache.jsonl"

    code, out, _ = run_cli(capsys, "decompose", "--config", str(cfg),
                           "--queries", str(tmp_path / "q.jsonl"),
                           "--cache", str(cache))
    assert code == 0
    assert "decomposed 2 queries (2 new, 0 cached)" in out
    assert mock_api.request_count("/v1/chat/completions") == 2
    rows = [json.loads(l) for l in cache.read_text().splitlines()]
    assert {r["query_id"] for r in rows} == {"q1", "q2"}
    assert all(r["model"] == "mock-llm" for r in rows)

    # rerun hits the cache and never talks to the endpoint
    code, out, _ = run_cli(capsys, "decompose", "--config", str(cfg),
                           "--queries", str(tmp_path / "q.jsonl"),
                           "--cache", str(cache))
    assert code == 0
    assert "(0 new, 2 cached)" in out
    assert mock_api.request_count("/v1/chat/completions") == 2


def test_ingest_and_resume(tmp_path, mock_api, capsys):
    cfg = write_tool_cfg(tmp_path, mock_api, extra="batch_size = 2\n")
    write_queries(tmp_path / "docs.jsonl",
                  [("d1", "one"), ("d2", "two"), ("d3", "three")])
    out_path = tmp_path / "corpus.emb.jsonl"

    code, out, _ = run_cli(capsys, "ingest", "--config", str(cfg),
                           "--docs", str(tmp_path / "docs.jsonl"),
                           "--out", str(out_path))
    assert code == 0
    assert "ingested 3 docs (3 embedded, 0 reused)" in out
    # batch_size=2 splits three docs into two requests
    assert mock_api.request_count("/v1/embeddings") == 2
    store = load_store(out_path)
    assert sorted(store.ids) == ["d1", "d2", "d3"]
    assert store.dim == mock_api.embed_dim
    assert store.model == "mock-emb"

    code, out, _ = run_cli(capsys, "ingest", "--config", str(cfg),
                           "--docs", str(tmp_path / "docs.jsonl"),
                           "--out", str(out_path), "--resume")
    assert code == 0
    assert "(0 embedded, 3 reused)" in out
    assert mock_api.request_count("/v1/embeddings") == 2


def test_ingest_binary_format(tmp_path, mock_api, capsys):
    cfg = write_tool_cfg(tmp_path, mock_api)
    write_queries(tmp_path / "docs.jsonl", [("d1", "one")])
    out_path = tmp_path / "corpus.emb.bin"
    code, _, _ = run_cli(capsys, "ingest", "--config", str(cfg),
                         "--docs", str(tmp_path / "docs.jsonl"),
                         "--out", str(out_path), "--format", "binary")
    assert code == 0
    assert out_path.read_bytes().startswith(b"DEOEMB3\x00")
    assert load_store(out_path).ids == ["d1"]


def test_ingest_resume_binary_onto_its_own_output(tmp_path, mock_api, capsys):
    """The resumed store is read from a mapping of the file it then replaces."""
    cfg = write_tool_cfg(tmp_path, mock_api)
    docs = tmp_path / "docs.jsonl"
    out_path = tmp_path / "corpus.emb.bin"
    ingest = ("ingest", "--config", str(cfg), "--docs", str(docs),
              "--out", str(out_path), "--format", "binary")
    write_queries(docs, [("d1", "one"), ("d2", "two")])
    assert run_cli(capsys, *ingest)[0] == 0
    first = load_store(out_path)
    write_queries(docs, [("d1", "one"), ("d2", "two"), ("d3", "three")])
    code, out, _ = run_cli(capsys, *ingest, "--resume")
    assert code == 0
    assert "(1 embedded, 2 reused)" in out
    resumed = load_store(out_path)
    assert resumed.ids == ["d1", "d2", "d3"]
    assert resumed.matrix[:2].tobytes() == first.matrix.tobytes()
    assert np.array_equal(resumed.get("d3"), stable_unit_vector("three", mock_api.embed_dim)
                          .astype(np.float32).astype(np.float64))


def test_preset_flag_changes_optimizer(fixtures_dir, capsys):
    text = "nuclear reactor designs"
    outs = {}
    for preset in ("text", "multimodal"):
        code, out, _ = run_cli(
            capsys, "optimize", "--preset", preset, "--query", text,
            "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
            "--cache", str(fixtures_dir / "cache.jsonl"),
            "--offline",
        )
        assert code == 0
        outs[preset] = json.loads(out)["embedding"]
    assert outs["text"] != outs["multimodal"]


# -- batched online resolution ------------------------------------------------


def float32_unit_vector(text, dim):
    # stores keep float32, so the endpoint serves float32 values too: the
    # online and offline runs then search with the very same numbers
    return stable_unit_vector(text, dim).astype(np.float32).astype(np.float64)


def fixture_texts(fixtures_dir):
    """Query texts in id order, then the distinct sub-query texts that are
    not query texts, in cache order."""
    rows = [json.loads(line) for line in (fixtures_dir / "queries.jsonl").read_text().splitlines()]
    query_texts = [row["text"] for row in sorted(rows, key=lambda row: row["id"])]
    subs = []
    for line in (fixtures_dir / "cache.jsonl").read_text().splitlines():
        row = json.loads(line)
        subs += [t for t in row["positives"] + row["negatives"]
                 if t not in query_texts and t not in subs]
    return query_texts, subs


def online_eval(capsys, fixtures_dir, tmp_path, api, batch_size):
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg, fixtures_dir, query_store="", offline="false",
                    cache=str(tmp_path / "cache.jsonl"), run_dir=str(tmp_path / "runs"))
    (tmp_path / "cache.jsonl").write_bytes((fixtures_dir / "cache.jsonl").read_bytes())
    tool = write_tool_cfg(tmp_path, api, extra=f"batch_size = {batch_size}\n")
    tool.write_text(tool.read_text().replace("mock-llm", "fixture-llm"))
    return run_cli(capsys, "eval", "--config", str(cfg), "--tool-config", str(tool))


@pytest.mark.parametrize("batch_size", [1, 3, 64])
def test_online_eval_fetches_misses_in_batches(fixtures_dir, tmp_path, mock_api, capsys,
                                               batch_size):
    # one fetch serves all four systems: each query's text, then its
    # sub-query texts, in query id order, each distinct text once; the full
    # cache needs no chat
    mock_api.embed_dim = 8
    code, _, err = online_eval(capsys, fixtures_dir, tmp_path, mock_api, batch_size)
    assert code == 0, err
    query_texts, subs = fixture_texts(fixtures_dir)
    entries = {json.loads(line)["query"]: json.loads(line)
               for line in (fixtures_dir / "cache.jsonl").read_text().splitlines()}
    texts = list(dict.fromkeys(t for text in query_texts for t in (
        text, *entries[text]["positives"], *entries[text]["negatives"])))
    assert sorted(texts) == sorted(query_texts + subs)

    sent = [payload["input"] for path, payload in mock_api.requests if path == "/v1/embeddings"]
    assert sent == [texts[i : i + batch_size] for i in range(0, len(texts), batch_size)]
    assert len(sent) == -(-len(texts) // batch_size)
    assert mock_api.request_count("/v1/chat/completions") == 0


@pytest.mark.parametrize("batch_size", [1, 2, 64])
def test_online_eval_equals_offline_eval(fixtures_dir, tmp_path, mock_api, capsys, batch_size):
    mock_api.embed_dim = 8
    mock_api.embed_vector = float32_unit_vector
    query_texts, subs = fixture_texts(fixtures_dir)
    qstore = EmbeddingStore(dim=8)
    for text in query_texts + subs:
        qstore.add(text, float32_unit_vector(text, 8))
    qstore.save_jsonl(tmp_path / "qstore.emb.jsonl")
    offline = tmp_path / "offline"
    offline.mkdir()
    write_bench_cfg(offline / "bench.cfg", fixtures_dir,
                    query_store=str(tmp_path / "qstore.emb.jsonl"), run_dir=str(offline / "runs"))
    code, _, err = run_cli(capsys, "eval", "--config", str(offline / "bench.cfg"))
    assert code == 0, err

    code, _, err = online_eval(capsys, fixtures_dir, tmp_path, mock_api, batch_size)
    assert code == 0, err
    for run in ("baseline", "deo", "avg_only", "rrf_only"):
        assert ((tmp_path / "runs" / f"{run}.run").read_bytes()
                == (offline / "runs" / f"{run}.run").read_bytes())


@pytest.mark.parametrize("deo", [False, True])
def test_adhoc_search_rejects_a_query_vector_whose_norm_overflows(
        deo, fixtures_dir, tmp_path, mock_api, capsys):
    mock_api.embed_dim = 8
    mock_api.embed_vector = lambda text, dim: np.full(dim, 1e200)
    tool = write_tool_cfg(tmp_path, mock_api)
    tool.write_text(tool.read_text().replace("mock-llm", "fixture-llm"))
    query_texts, _ = fixture_texts(fixtures_dir)
    code, out, err = run_cli(capsys, "search", "--config", str(tool), *(["--deo"] if deo else []),
                             "--store", str(fixtures_dir / "corpus.emb.jsonl"),
                             "--cache", str(fixtures_dir / "cache.jsonl"),
                             "--query", query_texts[0], "--k", "3")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["search", "--deo", "--k", "0"],
    ["search", "--k", "-3"],
    ["search", "--deo", "--steps", "-1"],
    ["optimize", "--steps", "-1"],
])
def test_bad_k_or_steps_fails_before_any_request(fixtures_dir, tmp_path, mock_api, capsys, argv):
    tool = write_tool_cfg(tmp_path, mock_api)
    command, *options = argv
    store = ["--store", str(fixtures_dir / "corpus.emb.jsonl")] if command == "search" else []
    code, out, err = run_cli(capsys, command, "--config", str(tool), *store,
                             "--query", "a query", *options)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "ValueError"
    assert mock_api.request_count() == 0


def test_adhoc_search_makes_one_embedding_request(fixtures_dir, tmp_path, mock_api, capsys):
    mock_api.embed_dim = 8
    tool = write_tool_cfg(tmp_path, mock_api)
    tool.write_text(tool.read_text().replace("mock-llm", "fixture-llm"))
    query_texts, _ = fixture_texts(fixtures_dir)
    code, out, err = run_cli(capsys, "search", "--config", str(tool), "--deo",
                             "--store", str(fixtures_dir / "corpus.emb.jsonl"),
                             "--cache", str(fixtures_dir / "cache.jsonl"),
                             "--query", query_texts[0], "--k", "3")
    assert code == 0, err
    assert len(out.splitlines()) == 3
    ((path, payload),) = mock_api.requests
    assert path == "/v1/embeddings"
    row = json.loads((fixtures_dir / "cache.jsonl").read_text().splitlines()[0])
    assert payload["input"] == [query_texts[0], *row["positives"], *row["negatives"]]


# -- empty input ----------------------------------------------------------------


def empty_input_argv(command, fixtures_dir, tmp_path, tool, empty):
    """argv running `command` on the empty file `empty` (a blank query text
    for the ad-hoc search cases) with the mock endpoints of `tool`."""
    corpus = str(fixtures_dir / "corpus.emb.jsonl")
    if command == "eval":
        bench = tmp_path / "bench.cfg"
        write_online_bench_cfg(bench, fixtures_dir)
        bench.write_text(bench.read_text().replace(str(fixtures_dir / "queries.jsonl"),
                                                   str(empty)))
        return ["eval", "--config", str(bench), "--tool-config", str(tool)]
    return {
        "search": ["search", "--config", str(tool), "--store", corpus,
                   "--queries", str(empty), "--deo"],
        "search-blank-query": ["search", "--config", str(tool), "--store", corpus,
                               "--query", "   ", "--deo"],
        "search-blank-query-offline": ["search", "--store", corpus, "--query", " \t ",
                                       "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
                                       "--offline"],
        "optimize-blank-query": ["optimize", "--config", str(tool), "--query", "  "],
        "decompose": ["decompose", "--config", str(tool), "--queries", str(empty),
                      "--cache", str(tmp_path / "cache.jsonl")],
        "ingest-resume": ["ingest", "--config", str(tool), "--docs", str(empty),
                          "--out", str(tmp_path / "store.jsonl"), "--resume"],
    }[command]


@pytest.mark.parametrize("command", ["search", "search-blank-query", "search-blank-query-offline",
                                     "optimize-blank-query", "eval", "decompose", "ingest-resume"])
def test_empty_input_fails_before_any_request(fixtures_dir, tmp_path, mock_api, capsys, command):
    tool = write_tool_cfg(tmp_path, mock_api)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    store = tmp_path / "store.jsonl"
    save_store(load_store(fixtures_dir / "corpus.emb.jsonl"), store)
    before = store.read_bytes()
    code, out, err = run_cli(capsys, *empty_input_argv(command, fixtures_dir, tmp_path, tool,
                                                       empty))
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    diag = json.loads(line)
    assert diag["error"] == "EmptyInputError"
    assert (str(empty) if "blank" not in command else "is empty") in diag["message"]
    assert mock_api.request_count() == 0
    assert store.read_bytes() == before
    assert not (tmp_path / "cache.jsonl").exists()


def test_a_blank_query_in_a_queries_file_is_named(fixtures_dir, tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    write_queries(queries, [("q1", "fine"), ("q2", " ")])
    code, out, err = run_cli(capsys, "search", "--store", str(fixtures_dir / "corpus.emb.jsonl"),
                             "--query-store", str(fixtures_dir / "queries.emb.jsonl"),
                             "--queries", str(queries), "--offline")
    assert code == 1
    assert out == ""
    assert json.loads(err.strip()) == {"error": "EmptyInputError", "message": "query 'q2' is empty"}
