import contextlib
import hashlib
import importlib.resources
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fasttog.cli import _engine_config, build_parser, main
from fasttog.detect import DETECTOR_KINDS
from fasttog.engine import EngineConfig

from helpers import bridged_triangles, clique_path, never_answer_script, star

REPO = Path(__file__).resolve().parents[1]
US_GEO = REPO / "demos" / "data" / "us_geo.tsv"


def triangles_file(tmp_path):
    path = tmp_path / "triangles.tsv"
    path.write_text(bridged_triangles().dump(), encoding="utf-8")
    return path


def path_fixture(tmp_path):
    kg, start, target = clique_path(n_cliques=3, clique_size=4, seed=0)
    path = tmp_path / "path.tsv"
    path.write_text(kg.dump(), encoding="utf-8")
    return path, start, target


def script_file(tmp_path, lines, name="script.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_ingest_prints_canonical_dump(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_text("b\tr\tc\na\tr\tb\na\tr\tb\n", encoding="utf-8")
    assert main(["ingest", str(raw)]) == 0
    out = capsys.readouterr().out
    assert out == "a\tr\tb\nb\tr\tc\n"


def test_ingest_missing_file_is_data_error(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.tsv")]) == 2


def test_ingest_names_the_line_that_is_not_utf8(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    raw.write_bytes(b"a\tr\tb\n\xff\tr\tc\n")
    assert main(["ingest", str(raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: invalid UTF-8 byte 0xff\n"


def test_ingest_warns_of_duplicates_once(tmp_path):
    # in a child process: pytest's logging plugin would swallow the store's
    # warning, which reaches stderr through logging's last-resort handler
    raw = tmp_path / "raw.tsv"
    raw.write_text("a\tr\tb\na\tr\tb\n", encoding="utf-8")
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [str(REPO / "src")] + [os.path.abspath(p) for p in inherited if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-m", "fasttog.cli", "ingest", str(raw)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "a\tr\tb\n"
    assert done.stderr.splitlines() == ["collapsed 1 duplicate triple(s)"]


def test_detect_on_a_file_of_comments_is_a_data_error(tmp_path, capsys):
    graph = tmp_path / "comments.tsv"
    graph.write_text("# no triple\n# at all\n", encoding="utf-8")
    assert main(["detect", "--graph", str(graph)]) == 2
    assert capsys.readouterr().err == "error: subgraph is empty\n"


def test_detect_triangles(tmp_path, capsys):
    graph = triangles_file(tmp_path)
    code = main(
        ["detect", "--graph", str(graph), "--detector", "louvain", "--max-community-size", "4"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split("\t")[1] == "a,b,c"
    assert lines[1].split("\t")[1] == "d,e,f"
    assert lines[0].split("\t")[2] == "2.500000"


# SHA-1 of `fasttog detect --graph demos/data/us_geo.tsv` for each detector
# and size bound, pinned so that a faster detector must print the same dump
DETECT_DUMP_SHA1 = {
    ("louvain", 2): "53c9ea5b0452c55c78abe95ff9847f135330d3b3",
    ("louvain", 4): "1ff5d2ac92cc474ebfc64e37abd77ca83d678a4e",
    ("girvan_newman", 2): "cab45bee22706a15e4116279e3882f4cf06ee588",
    ("girvan_newman", 4): "8ae965f529c6c90e8c9daf8fb1123bc4b174a070",
    ("hierarchical", 2): "623934b424aa777fcad5bfad5f24be560a719480",
    ("hierarchical", 4): "9a0e7076abfc3907c7d995412abb719b50a03229",
    ("spectral", 2): "98df8056d51d9d97292e0295e795c637e2ccedd8",
    ("spectral", 4): "51dfc5868d8e0481cd5180cfa81c06102e12cff6",
    ("random", 2): "337f17b5372a9c191a4b034bd1facefd8d95a166",
    ("random", 4): "215b07d400042ce43d4565beef91480c48a8cca9",
}


@pytest.mark.parametrize("kind, bound", sorted(DETECT_DUMP_SHA1))
def test_detect_dump_matches_pinned_sha1(kind, bound, capsys):
    argv = ["detect", "--graph", str(US_GEO), "--detector", kind, "--max-community-size", str(bound)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == DETECT_DUMP_SHA1[kind, bound]


def test_run_requires_graph():
    assert main(["run", "--question", "q?"]) == 1


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["detect", "--graph", "x", "--bogus-flag"]) == 1


def test_run_answers_with_mock(tmp_path, capsys):
    graph, start, target = path_fixture(tmp_path)
    script = script_file(tmp_path, ["A", "Unknown", "A", "A", f"Answer: {target}"])
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            "--graph", str(graph),
            "--question", "where does the path end?",
            "--start-entity", start,
            "--width", "1",
            "--max-depth", "3",
            "--mock-script", str(script),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"answer: {target}" in out
    assert "degraded: False" in out
    assert (out_dir / "run.trace.jsonl").exists()
    assert (out_dir / "run.dot").exists()


def test_run_script_exhaustion_is_provider_error(tmp_path, capsys):
    graph, start, _ = path_fixture(tmp_path)
    script = script_file(tmp_path, ["A"])
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            "--graph", str(graph),
            "--question", "q?",
            "--start-entity", start,
            "--width", "1",
            "--mock-script", str(script),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 3
    assert capsys.readouterr().err == "provider error: script exhausted after 1 replies\n"
    # the partial trace of the failed run is kept, as eval --trace-dir keeps it
    last = (out_dir / "run.trace.jsonl").read_text(encoding="utf-8").splitlines()[-1]
    assert json.loads(last) == {"event": "aborted", "error": "script exhausted after 1 replies"}
    assert (out_dir / "run.dot").exists()


PARITY_QUESTION = "What is the climate of the state containing the Pennsylvania Convention Center?"
# the first script answers at depth 2 under every flag of the grid below
PARITY_SCRIPTS = {
    "answers": ["A", "Unknown", "A", "A", "Unknown", "A", "A", "A", "Answer: Humid Subtropical"],
    "runs_out": ["A"],
}


@pytest.mark.parametrize("script_kind", sorted(PARITY_SCRIPTS))
@pytest.mark.parametrize("width", ["1", "2"])
@pytest.mark.parametrize("mode", ["t2t", "g2t"])
@pytest.mark.parametrize("detector", DETECTOR_KINDS)
def test_run_trace_equals_one_record_eval_trace(tmp_path, capsys, detector, mode, width, script_kind):
    script = script_file(tmp_path, PARITY_SCRIPTS[script_kind])
    flags = [
        "--graph", str(US_GEO),
        "--detector", detector,
        "--mode", mode,
        "--width", width,
        "--max-depth", "3",
        "--mock-script", str(script),
    ]
    if mode == "g2t":
        flags += ["--g2t-script", str(script_file(tmp_path, ["fluent facts"] * 50, name="g2t.txt"))]
    start = "Pennsylvania Convention Center"
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--question", PARITY_QUESTION, "--start-entity", start, "--out-dir", str(out_dir)]
        + flags
    )
    assert code == (0 if script_kind == "answers" else 3)
    data = tmp_path / "data.jsonl"
    row = {"id": "q", "question": PARITY_QUESTION, "answers": ["x"], "start_entities": [start]}
    data.write_text(json.dumps(row) + "\n", encoding="utf-8")
    trace_dir = tmp_path / "traces"
    assert main(["eval", "--data", str(data), "--trace-dir", str(trace_dir)] + flags) == 0
    run_trace = (out_dir / "run.trace.jsonl").read_bytes()
    assert run_trace == (trace_dir / "q.trace.jsonl").read_bytes()


def test_eval_writes_report(tmp_path, capsys):
    graph, start, target = path_fixture(tmp_path)
    data = tmp_path / "data.jsonl"
    rows = [
        {"id": "q1", "question": "q?", "answers": [target], "start_entities": [start]},
        {"id": "q2", "question": "q?", "answers": ["zzz"], "start_entities": [start]},
    ]
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    script = script_file(tmp_path, ["A", f"Answer: {target}"])
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--graph", str(graph),
            "--data", str(data),
            "--width", "1",
            "--max-depth", "2",
            "--mock-script", str(script),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["n"] == 2
    assert report["hit_at_1"] == 0.5
    table = capsys.readouterr().out
    assert "hit@1=0.5000" in table


def test_eval_g2t_with_endpoint_builds_backend(tmp_path, monkeypatch):
    from fasttog.gateway import ChatEndpoint, load_template

    from test_gateway import fake_reply, ok_payload

    graph, start, target = path_fixture(tmp_path)
    data = tmp_path / "data.jsonl"
    rows = [
        {"id": f"q{i}", "question": "q?", "answers": [target], "start_entities": [start]}
        for i in range(4)
    ]
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    script = script_file(tmp_path, ["A", f"Answer: {target}"])
    g2t_preamble = load_template("g2t")[0]
    posted = []
    built = []
    endpoint_init = ChatEndpoint.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        endpoint_init(self, *args, **kwargs)

    def fake_post(self, body, headers):
        posted.append(json.loads(body)["messages"][0]["content"])
        return fake_reply(200, ok_payload("fluent facts"))

    monkeypatch.setattr("fasttog.gateway.ChatEndpoint.__init__", counted_init)
    monkeypatch.setattr("fasttog.gateway.ChatEndpoint._post", fake_post)
    trace_dir = tmp_path / "traces"
    code = main(
        [
            "eval",
            "--graph", str(graph),
            "--data", str(data),
            "--width", "1",
            "--max-depth", "2",
            "--mode", "g2t",
            "--mock-script", str(script),
            "--endpoint", "http://x",
            "--model", "m",
            "--parallelism", "2",
            "--trace-dir", str(trace_dir),
        ]
    )
    assert code == 0
    # the scripted gateway answers retrieval; only g2t rewrites go to the endpoint
    assert posted and set(posted) == {g2t_preamble}
    # one endpoint serves every record's rewrites, one connection per worker thread
    assert len(built) == 1
    events = [
        json.loads(line)
        for path in trace_dir.iterdir()
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    assert events and not [e for e in events if e["event"] == "g2t_fallback"]


def test_trace_subcommand_renders_dot(tmp_path, capsys):
    graph, start, target = path_fixture(tmp_path)
    script = script_file(tmp_path, ["A", "Unknown", "A", "A", f"Answer: {target}"])
    out_dir = tmp_path / "out"
    main(
        [
            "run",
            "--graph", str(graph),
            "--question", "q?",
            "--start-entity", start,
            "--width", "1",
            "--max-depth", "3",
            "--mock-script", str(script),
            "--out-dir", str(out_dir),
        ]
    )
    capsys.readouterr()
    code = main(["trace", str(out_dir / "run.trace.jsonl")])
    assert code == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")


def test_eval_never_answer_counts(tmp_path, capsys):
    graph, start, _ = path_fixture(tmp_path)
    data = tmp_path / "data.jsonl"
    data.write_text(
        json.dumps({"id": "q", "question": "?", "answers": ["x"], "start_entities": [start]})
        + "\n",
        encoding="utf-8",
    )
    script = script_file(tmp_path, never_answer_script(1, 2))
    report_path = tmp_path / "r.json"
    code = main(
        [
            "eval",
            "--graph", str(graph),
            "--data", str(data),
            "--width", "1",
            "--max-depth", "2",
            "--mock-script", str(script),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    # closed form 2WD + D + 2 plus one degrade call
    assert report["per_item"][0]["calls"] == 2 * 1 * 2 + 2 + 2 + 1
    assert report["degraded_fraction"] == 1.0


def test_eval_full_width_depth_worst_case(tmp_path):
    from helpers import clique_spider

    kg, hub = clique_spider(arms=3, arm_len=8, seed=1)
    graph = tmp_path / "spider.tsv"
    graph.write_text(kg.dump(), encoding="utf-8")
    data = tmp_path / "data.jsonl"
    data.write_text(
        json.dumps({"id": "w", "question": "?", "answers": ["x"], "start_entities": [hub]})
        + "\n",
        encoding="utf-8",
    )
    script = script_file(tmp_path, never_answer_script(3, 5))
    report_path = tmp_path / "r.json"
    code = main(
        [
            "eval",
            "--graph", str(graph),
            "--data", str(data),
            "--width", "3",
            "--max-depth", "5",
            "--seed", "4",
            "--mock-script", str(script),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    # 2*3*5 + 5 + 2 retrieval calls plus the single degrade call
    assert report["per_item"][0]["calls"] == 37 + 1


def test_bad_dataset_is_data_error(tmp_path):
    graph, start, _ = path_fixture(tmp_path)
    data = tmp_path / "bad.jsonl"
    data.write_text('{"id": "x", "question": "", "answers": ["y"]}\n', encoding="utf-8")
    script = script_file(tmp_path, ["A"])
    code = main(
        ["eval", "--graph", str(graph), "--data", str(data), "--mock-script", str(script)]
    )
    assert code == 2


def test_directory_paths_are_data_errors(tmp_path, capsys):
    graph, _, _ = path_fixture(tmp_path)
    script = script_file(tmp_path, ["A"])
    folder = str(tmp_path)
    for argv in (
        ["ingest", folder],
        ["ingest", str(graph), "--out", folder],
        ["trace", folder],
        ["run", "--graph", str(graph), "--question", "q?", "--mock-script", folder],
        ["eval", "--graph", str(graph), "--data", folder, "--mock-script", str(script)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_eval_endpoint_counts_each_record_own_calls(tmp_path, monkeypatch):
    from fasttog.gateway import PRUNING_TEMPERATURE

    from test_gateway import fake_reply, ok_payload

    graph, start, target = path_fixture(tmp_path)
    data = tmp_path / "data.jsonl"
    rows = [
        {"id": f"q{i}", "question": "q?", "answers": [target], "start_entities": [start]}
        for i in range(4)
    ]
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")

    def fake_post(self, body, headers):
        pruning = json.loads(body)["temperature"] == PRUNING_TEMPERATURE
        return fake_reply(200, ok_payload("A" if pruning else f"Answer: {target}"))

    monkeypatch.setattr("fasttog.gateway.ChatEndpoint._post", fake_post)
    report_path = tmp_path / "r.json"
    code = main(
        [
            "eval",
            "--graph", str(graph),
            "--data", str(data),
            "--width", "1",
            "--max-depth", "2",
            "--endpoint", "http://x",
            "--model", "m",
            "--parallelism", "2",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    # one shared endpoint, but each record reports its own pruning + reasoning call
    assert [it["calls"] for it in report["per_item"]] == [2, 2, 2, 2]
    assert report["avg_calls"] == 2.0


@pytest.mark.parametrize("parallelism", [2, 6])
def test_eval_posts_over_the_wire_one_connection_per_worker(tmp_path, monkeypatch, parallelism):
    # a loopback chat server answers every call; it holds the first posts until
    # `parallelism` of them are in flight at once, or gives up after a timeout
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from fasttog.gateway import load_template

    from test_gateway import ok_payload

    graph, start, target = path_fixture(tmp_path)
    data = tmp_path / "data.jsonl"
    rows = [
        {"id": f"q{i}", "question": "q?", "answers": [target], "start_entities": [start]}
        for i in range(12)
    ]
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    pruning = load_template("pruning")[0]
    lock = threading.Lock()
    peers, in_flight, peak = set(), [0], [0]
    barrier, met = threading.Barrier(parallelism, timeout=10), threading.Event()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def do_POST(self):
            messages = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["messages"]
            with lock:
                peers.add(self.client_address[1])
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            if not met.is_set():
                try:
                    barrier.wait()
                    met.set()
                except threading.BrokenBarrierError:
                    pass
            text = "A" if messages[0]["content"] == pruning else f"Answer: {target}"
            body = json.dumps(ok_payload(text)).encode("utf-8")
            with lock:
                in_flight[0] -= 1
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    class Server(ThreadingHTTPServer):
        daemon_threads = True
        request_queue_size = 16

    server = Server(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    report_path = tmp_path / "r.json"
    try:
        code = main(
            [
                "eval",
                "--graph", str(graph),
                "--data", str(data),
                "--width", "1",
                "--max-depth", "2",
                "--endpoint", f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
                "--model", "m",
                "--parallelism", str(parallelism),
                "--out", str(report_path),
            ]
        )
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    report = json.loads(report_path.read_text())
    items = [(it["correct"], it["depth"], it["calls"]) for it in report["per_item"]]
    assert items == [(True, 0, 2)] * 12
    # each worker thread keeps its one connection across records
    assert len(peers) <= parallelism
    # and nothing but the workers bounds the posts in flight
    assert peak[0] == parallelism


def test_eval_refuses_an_unsendable_endpoint_before_any_record(tmp_path, monkeypatch, capsys):
    graph, start, target = path_fixture(tmp_path)
    data = tmp_path / "data.jsonl"
    rows = [
        {"id": f"q{i}", "question": "q?", "answers": [target], "start_entities": [start]}
        for i in range(2)
    ]
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")

    def no_post(self, body, headers):
        raise AssertionError("no record may run")

    monkeypatch.setattr("fasttog.gateway.ChatEndpoint._post", no_post)
    report_path = tmp_path / "r.json"
    code = main(
        [
            "eval",
            "--graph", str(graph),
            "--data", str(data),
            "--endpoint", "http://127.0.0.1:9/a b",
            "--model", "m",
            "--out", str(report_path),
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("provider error: ") and captured.err.count("\n") == 1
    assert not report_path.exists()


def test_null_content_is_a_provider_error_not_a_traceback(tmp_path, monkeypatch, capsys):
    from test_gateway import fake_reply, ok_payload

    graph, start, target = path_fixture(tmp_path)
    monkeypatch.setattr(
        "fasttog.gateway.ChatEndpoint._post",
        lambda self, body, headers: fake_reply(200, ok_payload(None)),
    )
    endpoint = ["--endpoint", "http://x", "--model", "m"]
    code = main(
        ["run", "--graph", str(graph), "--question", "q?", "--start-entity", start, *endpoint]
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("provider error: malformed provider response")
    # eval reports a record's typed error in that record, as for any provider error
    data = tmp_path / "data.jsonl"
    row = {"id": "q0", "question": "q?", "answers": [target], "start_entities": [start]}
    data.write_text(json.dumps(row) + "\n", encoding="utf-8")
    report_path = tmp_path / "r.json"
    code = main(["eval", "--graph", str(graph), "--data", str(data), "--out", str(report_path), *endpoint])
    assert code == 0
    item = json.loads(report_path.read_text())["per_item"][0]
    assert item["error"].startswith("malformed provider response: content is NoneType")


def test_run_calls_line_counts_g2t_rewrites(tmp_path, capsys):
    graph, start, target = path_fixture(tmp_path)
    script = script_file(tmp_path, ["A", f"Answer: {target}"])
    rewrites = script_file(tmp_path, ["fluent facts"] * 20, name="g2t.txt")
    code = main(
        [
            "run",
            "--graph", str(graph),
            "--question", "q?",
            "--start-entity", start,
            "--width", "1",
            "--mode", "g2t",
            "--mock-script", str(script),
            "--g2t-script", str(rewrites),
        ]
    )
    assert code == 0
    calls_line = next(
        line for line in capsys.readouterr().out.splitlines() if line.startswith("calls: ")
    )
    calls = json.loads(calls_line[len("calls: "):])
    # two kept candidates, plus the start community, whose pruning-premise
    # text is reused as the chain start
    assert calls == {"baseline": 0, "g2t": 3, "pruning": 1, "reasoning": 1}


@pytest.mark.parametrize(
    "line, why",
    [
        ("[1, 2]", "an event must be a JSON object"),
        (
            json.dumps({"event": "coarse", "current_id": "c", "kept": [{"id": "x", "bridges": []}]}),
            "each kept entry needs a list of member labels",
        ),
        (
            json.dumps(
                {
                    "event": "coarse",
                    "current_id": "c",
                    "kept": [{"id": "x", "members": ["a"], "bridges": [["a"]]}],
                }
            ),
            "bridges must be lists of three labels",
        ),
        (json.dumps({"event": "coarse", "current_id": 7}), "current_id must be a string"),
        (json.dumps({"event": "coarse", "current": "a"}), "current must be a list of labels"),
        (json.dumps({"event": "coarse", "kept": {"id": "x"}}), "kept must be a list"),
        (json.dumps({"event": "coarse", "kept": [{"members": ["a"]}]}), "needs a string id"),
        (json.dumps({"event": "chain_grew"}), "a chain_grew event needs a string community id"),
        (json.dumps({"event": "headers", "chosen": [1]}), "chosen must be a list of ids"),
    ],
)
def test_malformed_trace_events_are_data_errors(tmp_path, capsys, line, why):
    good = json.dumps({"event": "headers", "depth": 0, "chosen": ["x"]})
    path = tmp_path / "bad.trace.jsonl"
    path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
    assert main(["trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: invalid trace line: ")
    assert why in err and "Traceback" not in err


@pytest.mark.parametrize(
    "body, named",
    [("Q={question} {foo}", "unknown field {foo}"), ("Q={question} {oops", "expected '}'")],
)
def test_bad_template_override_is_a_data_error_naming_the_file(tmp_path, capsys, body, named):
    graph, start, _ = path_fixture(tmp_path)
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "pruning.txt").write_text(f"PRE\n{body}\n", encoding="utf-8")
    script = script_file(tmp_path, ["A", "Answer: x"])
    code = main(
        [
            "run",
            "--graph", str(graph),
            "--question", "q?",
            "--start-entity", start,
            "--mock-script", str(script),
            "--templates", str(templates),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"template {templates / 'pruning.txt'}: " in err and named in err


NO_TEMPLATES = "templates_dir /nonexistent: cannot read pruning.txt (No such file or directory)"


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--width", "0", "width must be >= 1"),
        ("--parallelism", "0", "parallelism must be >= 1, got 0"),
        ("--parallelism", "-2", "parallelism must be >= 1, got -2"),
        ("--sample-n", "0", "sample_n must be >= 1, got 0"),
        ("--sample-n", "-1", "sample_n must be >= 1, got -1"),
        ("--r-max", "0", "r_max must be >= 1, got 0"),
        ("--rho", "0", "rho must be in (0, 1], got 0.0"),
        ("--rho", "1.5", "rho must be in (0, 1], got 1.5"),
        ("--coarse-top-k", "27", "coarse_top_k (default 2 * width) must be <= 26, got 27"),
        ("--width", "14", "coarse_top_k (default 2 * width) must be <= 26, got 28"),
        ("--templates", "/nonexistent", NO_TEMPLATES),
    ],
)
def test_bad_eval_counts_are_data_errors_on_one_line(
    tmp_path, capsys, monkeypatch, flag, value, named
):
    # with no script, the counts are checked before the unconfigured endpoint
    monkeypatch.delenv("FASTTOG_ENDPOINT", raising=False)
    monkeypatch.delenv("FASTTOG_MODEL", raising=False)
    graph, start, target = path_fixture(tmp_path)
    data = tmp_path / "data.jsonl"
    row = {"id": "q1", "question": "q?", "answers": [target], "start_entities": [start]}
    data.write_text(json.dumps(row) + "\n", encoding="utf-8")
    script = script_file(tmp_path, ["A", f"Answer: {target}"])
    traces = tmp_path / "traces"
    argv = ["eval", "--graph", str(graph), "--data", str(data), "--trace-dir", str(traces)]
    for backend in (["--mock-script", str(script)], []):
        assert main(argv + [flag, value] + backend) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {named}\n"
        assert not traces.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--width", "14"], "coarse_top_k (default 2 * width) must be <= 26, got 28"),
        (["--coarse-top-k", "27"], "coarse_top_k (default 2 * width) must be <= 26, got 27"),
        (["--r-max", "0"], "r_max must be >= 1, got 0"),
        (["--templates", "/nonexistent"], NO_TEMPLATES),
    ],
)
def test_run_rejects_bad_engine_values_before_any_call_or_file(tmp_path, capsys, flags, named):
    # on a 40-leaf star read from the hub, every leaf is a candidate under
    # bound 1: 28 or 27 kept options would need more than 26 letters. With no
    # --start-entity, a bad r_max is caught before the extraction call, which
    # would read "A" and fail to resolve it
    kg, hub, target = star(40)
    graph = tmp_path / "star.tsv"
    graph.write_text(kg.dump(), encoding="utf-8")
    script = script_file(tmp_path, ["A", f"Answer: {target}"])
    out_dir = tmp_path / "out"
    argv = ["run", "--graph", str(graph), "--question", "q?", "--max-community-size", "1"]
    argv += ["--mock-script", str(script), "--out-dir", str(out_dir)]
    if flags[0] != "--r-max":
        argv += ["--start-entity", hub]
    assert main(argv + flags) == 2
    assert capsys.readouterr() == ("", f"error: {named}\n")
    assert not out_dir.exists()


# a value other than the default for every EngineConfig field, by its flag
ENGINE_FLAGS = {
    "width": ("--width", 2),
    "max_depth": ("--max-depth", 4),
    "r_max": ("--r-max", 1),
    "max_community_size": ("--max-community-size", 6),
    "rho": ("--rho", 0.5),
    "mode": ("--mode", "g2t"),
    "detector": ("--detector", "hierarchical"),
    "coarse_top_k": ("--coarse-top-k", 3),
    "prune_mode": ("--prune-mode", "random"),
    "degrade_mode": ("--degrade", "cot"),
    "seed": ("--seed", 9),
    "templates_dir": ("--templates", str(importlib.resources.files("fasttog") / "templates")),
}


def test_run_and_eval_read_every_engine_flag_into_its_config_field():
    parser = build_parser()
    default = EngineConfig()
    changed = EngineConfig(**{name: value for name, (_, value) in ENGINE_FLAGS.items()})
    assert set(ENGINE_FLAGS) == set(vars(default))
    assert [name for name in ENGINE_FLAGS if getattr(changed, name) == getattr(default, name)] == []
    flags = [str(arg) for flag, value in ENGINE_FLAGS.values() for arg in (flag, value)]
    for argv in (["run", "--graph", "g", "--question", "q"], ["eval", "--graph", "g", "--data", "d"]):
        assert _engine_config(parser.parse_args(argv)) == default
        assert _engine_config(parser.parse_args(argv + flags)) == changed
    args = parser.parse_args(["detect", "--graph", "g"])
    assert (args.detector, args.max_community_size, args.seed) == (
        default.detector,
        default.max_community_size,
        default.seed,
    )


# script lines for the CLI reply net: mostly replies the prompts ask for
# (letters, a verdict), then a failure marker, "none", an out-of-range letter
# and free text
NET_REPLIES = ["A", "B", "A, B", "Unknown", "Answer: Unknown", "Answer: Humid Subtropical"]
NET_LINES = st.one_of(
    *[st.sampled_from(NET_REPLIES)] * 2,  # two branches of four: drawn most often
    st.sampled_from(["FAIL", "none", "Z"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    script=st.lists(NET_LINES, min_size=1, max_size=12),
    rewrites=st.none() | st.lists(NET_LINES, min_size=1, max_size=6),
    width=st.integers(1, 3),
    depth=st.integers(1, 3),
    detector=st.sampled_from(["louvain", "hierarchical", "random"]),
    start=st.none() | st.sampled_from(["Allentown", "Pennsylvania Convention Center"]),
    # with no start entity, the first reply names one; a blank line is skipped
    extracted=st.sampled_from(["Pennsylvania Convention Center", "Philadelphia", "Atlantis", ""]),
)
def test_every_drawn_cli_run_exits_0_2_or_3_with_one_error_line(
    script, rewrites, width, depth, detector, start, extracted
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["run", "--graph", str(US_GEO), "--question", PARITY_QUESTION]
        argv += ["--width", str(width), "--max-depth", str(depth), "--detector", detector]
        if start is None:
            script = [extracted, *script]
        else:
            argv += ["--start-entity", start]
        argv += ["--mock-script", str(script_file(tmp, script))]
        if rewrites is not None:
            argv += ["--mode", "g2t", "--g2t-script", str(script_file(tmp, rewrites, "g2t.txt"))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
