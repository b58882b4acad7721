"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

import pytest

from fasttog import (
    Community,
    Engine,
    EngineConfig,
    KnowledgeGraph,
    Partition,
    ScriptedGateway,
    Triple,
    backtrack_to_size,
    detect_full,
    evaluate,
    load_dataset,
    modularity_community,
    modularity_global,
    parse_choice,
    parse_verdict,
    triple2text,
)
from fasttog.cli import main
from fasttog.detect import DETECTOR_KINDS
from fasttog.errors import ReplyParseError

from helpers import (
    OracleGateway,
    bridged_triangles,
    clique_path,
    clique_spider,
    eq1_direct,
    full_subgraph,
    gold_star,
    never_answer_script,
    random_graph,
    random_partition_sets,
)
from test_gateway import CHOICE_CASES, VERDICT_CASES


def report(number, description, ok):
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_01_modularity_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20240101)
    checked = 0
    worst = 0.0
    while checked < 200:
        kg = random_graph(rng.randint(3, 30), 0.3, rng)
        g = full_subgraph(kg)
        if g.m == 0:
            continue
        sets = random_partition_sets(g.nodes, rng)
        implementation = modularity_global(Partition.from_member_sets(sets, g), g)
        oracle = eq1_direct(g, sets)
        worst = max(worst, abs(implementation - oracle))
        checked += 1
    elapsed = time.monotonic() - started
    report(
        1,
        f"per-community sums vs direct double-sum on {checked} graphs "
        f"(worst drift {worst:.2e}, {elapsed:.2f}s)",
        worst < 1e-9 and elapsed < 5.0,
    )


def test_02_bridged_triangles_fixture():
    g = full_subgraph(bridged_triangles())
    t1 = Community.from_members({"a", "b", "c"}, g)
    t2 = Community.from_members({"d", "e", "f"}, g)
    q1 = modularity_community(t1, g)
    q2 = modularity_community(t2, g)
    p = Partition.from_member_sets([{"a", "b", "c"}, {"d", "e", "f"}], g)
    q_global = modularity_global(p, g)
    ok = (
        abs(q1 - 2.5) < 1e-9
        and abs(q2 - 2.5) < 1e-9
        and abs(q_global - 5 / 14) < 1e-9
    )
    report(2, f"triangle scores {q1}, {q2}; global {q_global:.9f} vs 5/14", ok)


def test_03_size_constraint_thousand_invocations():
    rng = random.Random(33)
    violations = 0
    backtrack_mismatches = 0
    invocations = 0
    for trial in range(50):
        kg = random_graph(rng.randint(4, 16), 0.3, rng)
        g = full_subgraph(kg)
        for kind in DETECTOR_KINDS:
            for m_max in (1, 2, 4, 8):
                outcome = detect_full(g, kind, m_max, seed=trial * 7 + m_max)
                invocations += 1
                if outcome.partition.max_size() > m_max:
                    violations += 1
                for comp in outcome.components:
                    replay = backtrack_to_size(comp.snapshots, m_max)
                    if sorted(c.sorted_members for c in replay.communities) != sorted(
                        c.sorted_members for c in comp.chosen.communities
                    ):
                        backtrack_mismatches += 1
    report(
        3,
        f"{invocations} detect invocations, {violations} size violations, "
        f"{backtrack_mismatches} backtrack mismatches",
        invocations == 1000 and violations == 0 and backtrack_mismatches == 0,
    )


@pytest.mark.parametrize("width,depth", [(3, 5), (1, 1), (2, 3)])
def test_04_call_accounting(width, depth):
    kg, hub = clique_spider(arms=max(width, 3), arm_len=depth + 3, seed=1)
    gateway = ScriptedGateway(never_answer_script(width, depth))
    engine = Engine(kg, gateway, EngineConfig(width=width, max_depth=depth, seed=4))
    _verdict, trace = engine.run("never answered", [hub])
    retrieval_total = trace.ledger["pruning"] + trace.ledger["reasoning"]
    expected = 2 * width * depth + depth + 2
    report(
        4,
        f"W={width} D={depth}: retrieval ledger {retrieval_total} vs closed form {expected} "
        f"(degrade calls excluded: baseline={trace.ledger['baseline']})",
        retrieval_total == expected and trace.degraded,
    )


def test_05_depth_reduction_with_larger_communities():
    depths = {1: [], 4: []}
    for seed in range(20):
        kg, start, target = clique_path(n_cliques=6, clique_size=4, seed=seed)
        for m_max in (1, 4):
            gateway = OracleGateway(kg, target)
            config = EngineConfig(
                width=1, max_depth=8, max_community_size=m_max, coarse_top_k=6, seed=seed
            )
            _verdict, trace = Engine(kg, gateway, config).run("path end?", [start])
            depths[m_max].append(trace.depth_reached)
    avg1 = sum(depths[1]) / len(depths[1])
    avg4 = sum(depths[4]) / len(depths[4])
    report(
        5,
        f"avg depth over 20 instances: size-4 bound {avg4:.2f} < size-1 bound {avg1:.2f}",
        avg4 < avg1,
    )


def test_06_coarse_beats_random_pruning():
    def success_depth(prune_mode, seed):
        kg, start, target = gold_star(n_decoys=7, seed=0)
        gateway = OracleGateway(kg, target)
        config = EngineConfig(
            width=1,
            max_depth=4,
            max_community_size=4,
            coarse_top_k=2,
            prune_mode=prune_mode,
            seed=seed,
        )
        verdict, trace = Engine(kg, gateway, config).run("inside the dense group?", [start])
        answered = verdict.kind == "answer" and verdict.text == target
        return trace.depth_reached if answered else 10**6

    wins = sum(
        1
        for seed in range(50)
        if success_depth("modularity", seed) <= success_depth("random", seed)
    )
    report(6, f"coarse <= random success depth in {wins}/50 seeded trials", wins >= 45)


def test_07_evaluation_determinism(tmp_path):
    kg, start, target = clique_path(n_cliques=6, clique_size=4, seed=0)
    graph_path = tmp_path / "graph.tsv"
    graph_path.write_text(kg.dump(), encoding="utf-8")
    rows = [
        {"id": "hit", "question": "q1", "answers": [target], "start_entities": [start]},
        {"id": "miss", "question": "q2", "answers": ["nothing"], "start_entities": [start]},
        {"id": "stall", "question": "q3", "answers": [target], "start_entities": [start]},
    ]
    data_path = tmp_path / "data.jsonl"
    data_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    scripts = {
        "hit": ["A", "Unknown", "A", "A", f"Answer: {target}"],
        "miss": ["A", "Unknown", "A", "A", "Answer: wrong thing"],
        "stall": never_answer_script(1, 2, degrade_replies=("Answer: degrade guess",)),
    }

    def run_once(out_dir):
        out_dir.mkdir()
        records = load_dataset(data_path)
        config = EngineConfig(width=1, max_depth=2, seed=11)
        rep = evaluate(
            records,
            KnowledgeGraph.ingest(graph_path),
            config,
            lambda rec: ScriptedGateway(list(scripts[rec.id])),
            trace_dir=out_dir,
        )
        traces = b"".join(
            (out_dir / f"{r['id']}.trace.jsonl").read_bytes() for r in rep.per_item
        )
        return rep.to_json().encode(), traces

    report_a, traces_a = run_once(tmp_path / "run_a")
    report_b, traces_b = run_once(tmp_path / "run_b")
    report(
        7,
        f"two identical eval runs: report bytes equal={report_a == report_b}, "
        f"trace bytes equal={traces_a == traces_b}",
        report_a == report_b and traces_a == traces_b,
    )


def test_08_t2t_byte_exactness():
    kg = KnowledgeGraph(
        [
            Triple("Philadelphia", "isCityOf", "Pennsylvania"),
            Triple("Pennsylvania", "climate", "Humid Subtropical"),
        ]
    )
    g = full_subgraph(kg)
    community = Community.from_members(kg.nodes, g)
    text = triple2text(community, [], g).text
    expected = "Philadelphia isCityOf Pennsylvania, Pennsylvania climate Humid Subtropical"
    report(8, f"serialized {text!r}", text == expected)


def test_09_parser_corpus():
    failures = 0
    for text, n, k, expected in CHOICE_CASES:
        try:
            got = parse_choice(text, n, k)
        except ReplyParseError:
            got = "error"
        want = "error" if expected is None else (None if expected == "none" else expected)
        if got != want:
            failures += 1
    for text, kind, answer in VERDICT_CASES:
        verdict = parse_verdict(text)
        if verdict.kind != kind or (kind == "answer" and verdict.text != answer):
            failures += 1
    total = len(CHOICE_CASES) + len(VERDICT_CASES)
    report(9, f"{total}-case parser corpus, {failures} failures", total >= 30 and failures == 0)


def test_10_end_to_end_smoke(tmp_path, capsys):
    kg, start, target = clique_path(n_cliques=3, clique_size=4, seed=0)
    assert len(kg.nodes) == 12
    raw_path = tmp_path / "raw.tsv"
    raw_path.write_text(kg.dump(), encoding="utf-8")
    graph_path = tmp_path / "graph.tsv"
    script_path = tmp_path / "script.txt"
    script_path.write_text(
        "\n".join(["A", "Unknown", "A", "A", f"Answer: {target}"]) + "\n",
        encoding="utf-8",
    )
    started = time.monotonic()
    assert main(["ingest", str(raw_path), "--out", str(graph_path)]) == 0
    code = main(
        [
            "run",
            "--graph", str(graph_path),
            "--question", "what closes the path?",
            "--start-entity", start,
            "--width", "1",
            "--max-depth", "3",
            "--mock-script", str(script_path),
        ]
    )
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    ok = (
        code == 0
        and f"answer: {target}" in out
        and "degraded: False" in out
        and elapsed < 1.0
    )
    report(10, f"ingest + run answered {target!r} in {elapsed:.3f}s", ok)
