import json

import pytest

from fasttog import EngineConfig, ScriptedGateway, evaluate, exact_match, load_dataset
from fasttog.cli import main
from fasttog.errors import DataError, ProviderError

from helpers import clique_path, never_answer_script


def write_jsonl(tmp_path, rows, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def record(i, question="q?", answers=("alpha",), starts=None):
    row = {"id": f"r{i}", "question": question, "answers": list(answers)}
    if starts is not None:
        row["start_entities"] = list(starts)
    return row


# -- dataset loading -------------------------------------------------------------


def test_load_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_dataset(path) == []


def test_load_three_records_in_order(tmp_path):
    path = write_jsonl(tmp_path, [record(i) for i in range(3)])
    records = load_dataset(path)
    assert [r.id for r in records] == ["r0", "r1", "r2"]
    assert records[0].gold_answers == ("alpha",)


def test_sample_is_seed_deterministic(tmp_path):
    path = write_jsonl(tmp_path, [record(i) for i in range(10)])
    first = [r.id for r in load_dataset(path, sample_n=2, seed=7)]
    second = [r.id for r in load_dataset(path, sample_n=2, seed=7)]
    assert first == second
    assert len(first) == 2


def test_schema_violation_reports_index(tmp_path):
    for bad, why in [
        ({"id": "bad", "question": "", "answers": ["x"]}, "missing or empty 'question'"),
        (["q", ["x"]], "record must be a JSON object"),
        (record(1, starts=["a", 2]), "'start_entities' must be a list of strings"),
        ({**record(1), "start_entities": "a"}, "'start_entities' must be a list of strings"),
    ]:
        path = write_jsonl(tmp_path, [record(0), bad])
        with pytest.raises(DataError, match=why) as err:
            load_dataset(path)
        assert err.value.index == 1


def test_missing_answers_rejected(tmp_path):
    path = write_jsonl(tmp_path, [{"id": "a", "question": "q", "answers": []}])
    with pytest.raises(DataError):
        load_dataset(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "a"\n', encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(path)


# -- exact match ------------------------------------------------------------------


def test_exact_match_identity():
    assert exact_match("El Salvador", ["El Salvador"])


def test_exact_match_containment_after_normalization():
    assert exact_match("The answer is el salvador.", ["El Salvador"])


def test_exact_match_rejects_wrong_answer():
    assert not exact_match("Guatemala", ["El Salvador"])


def test_exact_match_any_gold():
    assert exact_match("Honduras", ["El Salvador", "Honduras"])


def test_exact_match_requires_golds():
    with pytest.raises(ValueError):
        exact_match("x", [])


# -- batch evaluation ---------------------------------------------------------------


def script_answering_at_depth(depth, answer):
    lines = ["A", "Unknown"] if depth > 0 else ["A", f"Answer: {answer}"]
    for d in range(1, depth + 1):
        lines.extend(["A", "A"])
        lines.append(f"Answer: {answer}" if d == depth else "Unknown")
    return lines


@pytest.fixture
def path_kg():
    return clique_path(n_cliques=6, clique_size=4, seed=0)


def run_eval(tmp_path, rows, scripts, parallelism=1, max_depth=5, trace_dir=None):
    kg, start, _target = clique_path(n_cliques=6, clique_size=4, seed=0)
    for row in rows:
        row.setdefault("start_entities", [start])
    data = load_dataset(write_jsonl(tmp_path, rows))
    config = EngineConfig(width=1, max_depth=max_depth, seed=1)

    def factory(record):
        return ScriptedGateway(list(scripts[record.id]))

    return evaluate(data, kg, config, factory, parallelism=parallelism, trace_dir=trace_dir)


def test_hit_at_one_fraction(tmp_path):
    rows = [record(i) for i in range(4)]
    scripts = {
        "r0": script_answering_at_depth(0, "alpha"),
        "r1": script_answering_at_depth(0, "alpha"),
        "r2": script_answering_at_depth(0, "alpha"),
        "r3": script_answering_at_depth(0, "beta"),
    }
    report = run_eval(tmp_path, rows, scripts)
    assert report.n == 4
    assert report.hit_at_1 == pytest.approx(0.75)
    assert report.degraded_fraction == 0.0


def test_avg_depth_over_answered_runs(tmp_path):
    rows = [record(i) for i in range(3)]
    scripts = {
        "r0": script_answering_at_depth(1, "alpha"),
        "r1": script_answering_at_depth(2, "alpha"),
        "r2": script_answering_at_depth(3, "alpha"),
    }
    report = run_eval(tmp_path, rows, scripts)
    assert report.avg_depth == pytest.approx(2.0)
    assert not report.avg_depth_all_degraded


def test_all_degraded_reports_max_depth_with_flag(tmp_path):
    rows = [record(i) for i in range(2)]
    scripts = {
        "r0": never_answer_script(1, 2, degrade_replies=("Answer: zz",)),
        "r1": never_answer_script(1, 2, degrade_replies=("Answer: zz",)),
    }
    report = run_eval(tmp_path, rows, scripts, max_depth=2)
    assert report.degraded_fraction == 1.0
    assert report.avg_depth == pytest.approx(2.0)
    assert report.avg_depth_all_degraded


def test_degraded_answer_can_still_score(tmp_path):
    rows = [record(0)]
    scripts = {"r0": never_answer_script(1, 2, degrade_replies=("Answer: alpha",))}
    report = run_eval(tmp_path, rows, scripts, max_depth=2)
    assert report.per_item[0]["correct"]
    assert report.per_item[0]["degraded"]


def test_record_failure_is_isolated(tmp_path):
    kg, start, _ = clique_path(n_cliques=6, clique_size=4, seed=0)
    rows = [record(0, starts=[start]), record(1, starts=["missing-node"])]
    data = load_dataset(write_jsonl(tmp_path, rows))
    config = EngineConfig(width=1, max_depth=2, seed=1)
    scripts = {
        "r0": script_answering_at_depth(0, "alpha"),
        "r1": ["A"],
    }

    def factory(rec):
        return ScriptedGateway(list(scripts[rec.id]))

    report = evaluate(data, kg, config, factory)
    assert report.n == 2
    assert report.per_item[0]["correct"]
    assert not report.per_item[1]["correct"]
    assert "error" in report.per_item[1]


class FailingGateway:
    """A provider that rejects every call."""

    def generate(self, req):
        raise ProviderError("HTTP 401: invalid api key")


def test_report_marks_records_whose_provider_failed(tmp_path):
    kg, start, _ = clique_path(n_cliques=6, clique_size=4, seed=0)
    data = load_dataset(write_jsonl(tmp_path, [record(i, starts=[start]) for i in range(2)]))
    config = EngineConfig(width=1, max_depth=5, seed=1)
    report = evaluate(data, kg, config, lambda rec: FailingGateway())
    assert [it["error"] for it in report.per_item] == ["HTTP 401: invalid api key"] * 2
    assert report.degraded_fraction == 0.0
    assert not report.avg_depth_all_degraded
    assert report.to_table().splitlines()[2:] == [
        "r0                       False    0      1      False  error: HTTP 401: invalid api key",
        "r1                       False    0      1      False  error: HTTP 401: invalid api key",
        "-" * 56,
        "n=2  hit@1=0.0000  avg_depth=0.00  avg_calls=1.00  degraded=0.00  errors=2",
    ]


def test_report_with_an_error_still_flags_all_degraded(tmp_path):
    kg, start, _ = clique_path(n_cliques=6, clique_size=4, seed=0)
    rows = [record(0, starts=[start]), record(1, starts=["missing-node"])]
    data = load_dataset(write_jsonl(tmp_path, rows))
    scripts = {"r0": never_answer_script(1, 2, degrade_replies=("Answer: zz",)), "r1": ["A"]}
    config = EngineConfig(width=1, max_depth=2, seed=1)
    report = evaluate(data, kg, config, lambda rec: ScriptedGateway(list(scripts[rec.id])))
    assert report.degraded_fraction == 0.5
    assert report.avg_depth_all_degraded
    summary = report.to_table().splitlines()[-1]
    assert summary.startswith("n=2  hit@1=0.0000  avg_depth=2.00 (all degraded)")
    assert summary.endswith("degraded=0.50  errors=1")


def test_parallelism_does_not_change_report(tmp_path):
    rows = [record(i) for i in range(6)]
    scripts = {
        f"r{i}": script_answering_at_depth(i % 3, "alpha" if i % 2 else "beta")
        for i in range(6)
    }
    sequential = run_eval(tmp_path, rows, scripts, parallelism=1)
    threaded = run_eval(tmp_path, rows, scripts, parallelism=8)
    assert sequential.to_json() == threaded.to_json()


def test_trace_dir_written(tmp_path):
    rows = [record(0)]
    scripts = {"r0": script_answering_at_depth(0, "alpha")}
    trace_dir = tmp_path / "traces"
    run_eval(tmp_path, rows, scripts, trace_dir=trace_dir)
    assert (trace_dir / "r0.trace.jsonl").exists()


def test_trace_dir_keeps_the_partial_trace_of_a_record_that_raised(tmp_path):
    # r1's script runs out at its first confirmation: its trace is still
    # written, and ends in the aborted event the run attached to the error
    rows = [record(0), record(1)]
    scripts = {"r0": script_answering_at_depth(0, "alpha"), "r1": ["A", "Unknown", "A"]}
    trace_dir = tmp_path / "traces"
    report = run_eval(tmp_path, rows, scripts, trace_dir=trace_dir)
    error = report.per_item[1]["error"]
    assert error == "script exhausted after 3 replies"
    assert report.per_item[1]["calls"] == 4
    lines = (trace_dir / "r1.trace.jsonl").read_text(encoding="utf-8").splitlines()
    events = [json.loads(line) for line in lines]
    assert events[0]["event"] == "start"
    assert events[-1] == {"event": "aborted", "error": error}
    assert [e["event"] for e in events].count("verdict") == 1
    assert (trace_dir / "r0.trace.jsonl").exists()


def test_ids_that_name_one_trace_file_raise_before_any_run(tmp_path):
    # "x/y" and "x_y" both sanitise to x_y.trace.jsonl
    rows = [record(0), dict(record(1), id="x/y"), dict(record(2), id="x_y")]
    made = []

    def factory(record):
        made.append(record.id)
        return ScriptedGateway(script_answering_at_depth(0, "alpha"))

    kg, start, _target = clique_path(n_cliques=6, clique_size=4, seed=0)
    for row in rows:
        row["start_entities"] = [start]
    data = load_dataset(write_jsonl(tmp_path, rows))
    trace_dir = tmp_path / "traces"
    with pytest.raises(DataError, match=r"record 2: id 'x_y' and record 1's id 'x/y'"):
        evaluate(data, kg, EngineConfig(width=1, max_depth=2), factory, trace_dir=trace_dir)
    assert made == [] and not trace_dir.exists()
    # through the CLI, a data error exits 2
    graph = tmp_path / "graph.tsv"
    graph.write_text(kg.dump(), encoding="utf-8")
    script = tmp_path / "script.txt"
    script.write_text("A\nAnswer: alpha\n", encoding="utf-8")
    argv = ["eval", "--graph", str(graph), "--data", str(tmp_path / "data.jsonl"),
            "--mock-script", str(script), "--trace-dir", str(trace_dir)]
    assert main(argv) == 2 and not trace_dir.exists()


def test_report_aggregates_match_items(tmp_path):
    rows = [record(i) for i in range(4)]
    scripts = {f"r{i}": script_answering_at_depth(i % 2, "alpha") for i in range(4)}
    report = run_eval(tmp_path, rows, scripts)
    assert report.hit_at_1 == pytest.approx(
        sum(1 for it in report.per_item if it["correct"]) / report.n
    )
    assert report.avg_calls == pytest.approx(
        sum(it["calls"] for it in report.per_item) / report.n
    )
