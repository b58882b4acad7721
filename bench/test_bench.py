"""Tests of the benchmark's own parts.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from fasttog import (  # noqa: E402
    CommunityText,
    KnowledgeGraph,
    build_pruning_prompt,
    build_reasoning_prompt,
    parse_choice,
    parse_verdict,
)
from fasttog.gateway import baseline_answer  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
from metrics import tail  # noqa: E402
from oracle import Meter, Oracle, OracleError, OracleGateway  # noqa: E402
from tracing import Hook, Hooks, Recorder  # noqa: E402
from workloads import Workload  # noqa: E402

SMALL = Workload("small", 60, 150, 12, ("near", "lane", "island"), "louvain", 1, "engine")


# -- generator determinism ------------------------------------------------------


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = gen.generate(SMALL, 7)
    assert gen.generate(SMALL, 7) == first
    assert gen.generate(SMALL, 8) != first


def test_generated_inputs_are_consistent(tmp_path):
    gen.write(SMALL, 3, tmp_path)
    kg = KnowledgeGraph.ingest(tmp_path / "graph.tsv")
    assert len(kg.triples) >= SMALL.triples
    questions = [json.loads(line) for line in (tmp_path / "questions.jsonl").open()]
    oracle = json.loads((tmp_path / "oracle.json").read_text())
    assert [q["kind"] for q in questions[:3]] == list(SMALL.kinds)
    for q in questions:
        start, target = q["start_entities"][0], q["answers"][0]
        assert start in kg.nodes and target in kg.nodes and q["wrong"] in kg.nodes
        assert q["wrong"] != target
        assert f"[{q['id']}]" in q["question"] and target not in q["question"]
        dist = oracle[q["id"]]["dist"]
        if q["kind"] == "island":
            assert dist == {}
        else:
            assert dist[target] == 0 and dist[start] == (1 if q["kind"] == "near" else 3)


# -- oracle reply parsing -------------------------------------------------------

QUESTIONS = {
    "q0001": {
        "target": "Synthetic Entity 000009",
        "wrong": "Synthetic Entity 000042",
        "dist": {"Synthetic Entity 000009": 0, "Synthetic Entity 000005": 1, "Synthetic Entity 000004": 2, "Synthetic Entity 000001": 3},
    }
}
QUESTION = "[q0001] Which entity do the facts linked to Synthetic Entity 000001 lead to?"


def text(body: str) -> CommunityText:
    return CommunityText("id", body, "t2t", True)


def test_pruning_reply_picks_nearest_options_and_parses_back():
    options = [
        text("Synthetic Entity 000100 synthetic relation 01 Synthetic Entity 000101, linked via: Synthetic Entity 000001 synthetic relation 02 Synthetic Entity 000100"),
        text("Synthetic Entity 000004 synthetic relation 03 Synthetic Entity 000005, linked via: Synthetic Entity 000001 synthetic relation 04 Synthetic Entity 000004"),
        text("Synthetic Entity 000200 synthetic relation 05 Synthetic Entity 000201"),
        text("Synthetic Entity 000004 synthetic relation 06 Synthetic Entity 000300"),
    ]
    oracle = Oracle(QUESTIONS)
    multi = build_pruning_prompt(QUESTION, [text("Synthetic Entity 000001")], options, 3)
    reply = oracle.reply(multi.system_preamble, multi.body)
    assert (reply.qid, reply.tag, reply.text) == ("q0001", "pruning", "B, D, A")
    assert parse_choice(reply.text, len(options), 3) == [1, 3, 0]

    single = build_pruning_prompt(QUESTION, [text("Synthetic Entity 000001")], options[2:], 1)
    assert parse_choice(oracle.reply(single.system_preamble, single.body).text, 2, 1) == [1]
    confirm = build_pruning_prompt(QUESTION, [text("Synthetic Entity 000001")], options[:1], 1)
    assert oracle.reply(confirm.system_preamble, confirm.body).text == "A"


def test_reasoning_reply_answers_only_once_the_target_is_in_the_context():
    oracle = Oracle(QUESTIONS)
    start = text("Synthetic Entity 000001")
    without = build_reasoning_prompt(QUESTION, [[text("Synthetic Entity 000004 synthetic relation 03 Synthetic Entity 000005")]], start)
    reply = oracle.reply(without.system_preamble, without.body)
    assert reply.tag == "reasoning" and parse_verdict(reply.text).kind == "unknown"
    with_target = build_reasoning_prompt(QUESTION, [[text("Synthetic Entity 000005 synthetic relation 07 Synthetic Entity 000009")]], start)
    verdict = parse_verdict(oracle.reply(with_target.system_preamble, with_target.body).text)
    assert (verdict.kind, verdict.text) == ("answer", "Synthetic Entity 000009")


def test_baseline_reply_is_the_planted_wrong_answer_and_calls_are_metered():
    meter = Meter()
    gateway = OracleGateway(Oracle(QUESTIONS), meter)
    verdict = baseline_answer(QUESTION, "io", gateway)
    assert (verdict.kind, verdict.text) == ("answer", "Synthetic Entity 000042")
    counts = meter.drain()["questions"]["q0001"]
    assert counts["baseline"] == 1 and counts["reply_chars"] == len("Answer: Synthetic Entity 000042")
    assert meter.drain()["questions"] == {}


def test_unattributable_prompts_are_refused():
    oracle = Oracle(QUESTIONS)
    bundle = build_reasoning_prompt("no id here", [[text("x")]], text("y"))
    with pytest.raises(OracleError):
        oracle.reply(bundle.system_preamble, bundle.body)
    with pytest.raises(OracleError):
        oracle.reply("You are someone else.", bundle.body)


# -- tail percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, value, percentile",
    [(20, 9, 50.0), (40, 29, 75.0), (100, 89, 90.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    values = list(range(n))[::-1]
    got, pct, count = tail(values)
    assert (got, count) == (value, n)
    assert pct == pytest.approx(percentile)
    assert sum(1 for v in values if v > got) == 10


@pytest.mark.parametrize("n", [3, 11, 19])
def test_tail_falls_back_to_the_median_below_twenty_samples(n):
    # the percentile with ten samples beyond would lie under the median
    values = [float(v) for v in range(n)][::-1]
    assert tail(values) == ((n - 1) / 2, 50.0, n)


# -- closed loop -----------------------------------------------------------------


class FakeEngine:
    def __init__(self):
        self.asked = []

    def run(self, question, start_entities=None):
        self.asked.append(question)


class EmptyProbe:
    def take(self):
        return []


def test_engine_pass_wraps_around_and_stops_after_max_cycles():
    engine = FakeEngine()
    questions = [{"question": f"q{i}", "start_entities": []} for i in range(4)]
    p = run.engine_pass(engine, questions, 3, float("inf"), EmptyProbe(), Meter(), max_cycles=2)
    assert engine.asked == ["q0", "q1", "q2", "q3", "q0", "q1"]
    assert p.asked == 6


# -- span self time and missing hook targets -------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_sum_back_to_the_root_span():
    clock = FakeClock()
    rec = Recorder(clock)

    def leaf(dt):
        clock.now += dt

    leaf_w = rec.wrap(leaf, "leaf")

    def middle():
        clock.now += 1.0
        leaf_w(2.0)
        leaf_w(0.5)

    middle_w = rec.wrap(middle, "middle")

    def root():
        clock.now += 4.0
        middle_w()
        leaf_w(0.25)

    rec.wrap(root, "root", qid_of=lambda a, k: "q0001")()
    s = rec.summary({"leaf"})
    assert s["root"].total_s == pytest.approx(7.75)
    assert s["root"].self_s == pytest.approx(4.0)
    assert s["middle"].self_s == pytest.approx(1.0)
    assert s["leaf"].calls == 3 and sorted(s["leaf"].durations) == [0.25, 0.5, 2.0]
    assert sum(t.self_s for t in s.values()) == pytest.approx(s["root"].total_s)
    assert s["leaf"].callers == {"middle": 2, "root": 1}
    assert s["leaf"].question_self_s == pytest.approx(2.75)


def test_missing_hook_targets_are_reported_absent_and_others_still_trace():
    import fasttog.engine

    original = fasttog.engine.detect
    rec = Recorder()
    hooks = Hooks(rec).install(
        [
            Hook("fasttog.engine:renamed_function", "gone"),
            Hook("fasttog.no_such_module:detect", "gone"),
            Hook("fasttog.engine:NoSuchClass.run", "gone"),
            Hook("fasttog.engine:detect", "detect"),
        ]
    )
    try:
        assert hooks.absent == [
            "fasttog.engine:renamed_function",
            "fasttog.no_such_module:detect",
            "fasttog.engine:NoSuchClass.run",
        ]
        assert fasttog.engine.detect is not original
    finally:
        hooks.remove()
    assert fasttog.engine.detect is original


def test_classmethod_hooks_keep_binding_and_restore():
    from fasttog import Community, Subgraph, Triple

    raw = Community.__dict__["from_members"]
    g = Subgraph.from_full_graph(KnowledgeGraph([Triple("a", "p", "b"), Triple("b", "p", "c")]))
    rec = Recorder()
    with Hooks(rec).install([Hook("fasttog.community:Community.from_members", "fm")]):
        assert Community.from_members(["a", "b"], g).sigma_in == 2
        assert rec.summary()["fm"].calls == 1
    assert Community.__dict__["from_members"] is raw


if __name__ == "__main__":
    sys.exit(pytest.main([os.path.abspath(__file__), "-q"]))
