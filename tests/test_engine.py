import hashlib
import random

import pytest

from fasttog import (
    Engine,
    EngineConfig,
    GenerationResponse,
    RunTrace,
    ScriptedGateway,
    trace_to_dot,
)
from fasttog.errors import ResolutionError

from helpers import (
    Counting,
    OracleGateway,
    bridged_triangles,
    clique_path,
    clique_spider,
    lane_in_background,
    never_answer_script,
)


def spider_engine(width, max_depth, script, seed=4, **cfg_kwargs):
    kg, hub = clique_spider(arms=max(width, 3), arm_len=max_depth + 3, seed=1)
    gw = ScriptedGateway(script)
    cfg = EngineConfig(width=width, max_depth=max_depth, seed=seed, **cfg_kwargs)
    return Engine(kg, gw, cfg), gw, hub


@pytest.mark.parametrize(
    "bad",
    [
        {"width": 0},
        {"max_depth": 0},
        {"max_community_size": 0},
        {"coarse_top_k": 0},
        {"coarse_top_k": -2},
        {"mode": "prose"},
        {"detector": "leiden"},
        {"prune_mode": "greedy"},
        {"degrade_mode": "guess"},
    ],
)
def test_engine_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        EngineConfig(**bad)


def test_engine_config_accepts_unset_or_positive_coarse_top_k():
    assert EngineConfig().resolved_coarse_top_k == 6
    assert EngineConfig(coarse_top_k=1).resolved_coarse_top_k == 1


def test_initial_phase_multi_choice_headers():
    eng, gw, hub = spider_engine(3, 1, ["A, B, C", "Unknown", *["A", "A"] * 3, "Unknown", "filler"])
    verdict, trace = eng.run("q?", [hub])
    headers = next(e for e in trace.events if e["event"] == "headers")
    assert len(headers["chosen"]) == 3
    assert len(set(headers["chosen"])) == 3


def test_width_one_uses_single_choice():
    eng, gw, hub = spider_engine(1, 1, ["B", "Answer: whatever"])
    verdict, trace = eng.run("q?", [hub])
    assert verdict.kind == "answer"
    assert trace.depth_reached == 0
    # single-choice prompt was parseable with a bare letter
    assert trace.ledger["pruning"] == 1 and trace.ledger["reasoning"] == 1


def test_none_at_initial_phase_degrades_immediately():
    eng, gw, hub = spider_engine(3, 5, ["None of the above", "Answer: fallback"])
    verdict, trace = eng.run("q?", [hub])
    assert trace.degraded
    assert trace.depth_reached == 0
    # no reasoning call over empty context; only the degrade baseline call
    assert trace.ledger["reasoning"] == 0
    assert trace.ledger["baseline"] == 1
    assert verdict.text == "fallback"


def test_answer_at_depth_two():
    script = ["A", "Unknown", "A", "A", "Unknown", "A", "A", "Answer: done"]
    eng, gw, hub = spider_engine(1, 5, script)
    verdict, trace = eng.run("q?", [hub])
    assert verdict.text == "done"
    assert trace.depth_reached == 2
    assert not trace.degraded


def test_chain_discontinuation_keeps_other_chains():
    script = ["A, B, C", "Unknown"]
    script += ["A", "A", "None", "A", "A", "Unknown"]  # chain 1 bows out
    script += ["A", "A", "A", "A", "Unknown"]  # only chains 0 and 2 step
    script += ["degrade"]
    eng, gw, hub = spider_engine(3, 2, script)
    verdict, trace = eng.run("q?", [hub])
    stopped = [(e["chain"], e["reason"]) for e in trace.events if e["event"] == "chain_stopped"]
    assert (1, "none_selected") in stopped
    grew = [(e["chain"], e["depth"]) for e in trace.events if e["event"] == "chain_grew"]
    assert (0, 1) in grew and (2, 1) in grew
    assert (1, 1) not in grew
    assert (0, 2) in grew and (2, 2) in grew


def test_not_confirmed_stops_chain():
    # the iteration still closes with its reasoning call after the stop
    script = ["A", "Unknown", "A", "None", "Unknown", "fallback reply"]
    eng, gw, hub = spider_engine(1, 3, script)
    verdict, trace = eng.run("q?", [hub])
    stopped = [e for e in trace.events if e["event"] == "chain_stopped"]
    assert stopped and stopped[0]["reason"] == "not_confirmed"
    assert trace.degraded
    # dead chains skip the remaining iterations entirely
    assert trace.depth_reached == 1
    assert trace.ledger["baseline"] == 1


@pytest.mark.parametrize("width,depth", [(1, 1), (2, 3)])
def test_call_accounting_closed_form(width, depth):
    eng, gw, hub = spider_engine(width, depth, never_answer_script(width, depth))
    verdict, trace = eng.run("q?", [hub])
    expected = 2 * width * depth + depth + 2
    assert trace.ledger["pruning"] + trace.ledger["reasoning"] == expected
    assert trace.degraded
    assert trace.ledger["baseline"] == 1


def test_chain_adjacency_invariant():
    kg, start, target = clique_path(n_cliques=5, seed=3)
    gw = OracleGateway(kg, target)
    eng = Engine(kg, gw, EngineConfig(width=1, max_depth=6, coarse_top_k=6, seed=3))
    verdict, trace = eng.run("q?", [start])
    chainset = None  # reconstruct adjacency from trace bridges instead
    grew = [e for e in trace.events if e["event"] == "chain_grew"]
    assert grew, "chain never grew"
    # bridge endpoints recorded in coarse events connect consecutive hops
    for ev in trace.events:
        if ev["event"] != "coarse" or not ev["kept"]:
            continue
        current = set(ev["current"])
        for cand in ev["kept"]:
            members = set(cand["members"])
            for s, _p, o in cand["bridges"]:
                assert (s in current and o in members) or (
                    o in current and s in members
                ) or (s in members and o in current) or (s in current and o in current and members & {s, o})


def test_history_soundness_no_repeats():
    eng, gw, hub = spider_engine(3, 4, never_answer_script(3, 4))
    verdict, trace = eng.run("q?", [hub])
    seen = []
    for ev in trace.events:
        if ev["event"] == "headers":
            seen.extend(ev["chosen"])
        elif ev["event"] == "chain_grew":
            seen.append(ev["community"])
    assert len(seen) == len(set(seen))


def test_run_trace_deterministic():
    def one_run():
        eng, gw, hub = spider_engine(2, 3, never_answer_script(2, 3), seed=9)
        _, trace = eng.run("same question", [hub])
        return trace.to_jsonl()

    assert one_run() == one_run()


def test_unresolvable_start_entity():
    eng, gw, hub = spider_engine(1, 1, ["A", "Unknown", "A", "A", "Unknown", "x"])
    with pytest.raises(ResolutionError):
        eng.run("q?", ["not-a-node"])


def test_fatal_error_carries_partial_trace():
    eng, gw, hub = spider_engine(1, 3, ["A", "Unknown", "A"])  # script runs dry mid-step
    with pytest.raises(Exception) as err:
        eng.run("q?", [hub])
    partial = getattr(err.value, "partial_trace", None)
    assert partial is not None
    assert partial.events[-1]["event"] == "aborted"
    assert partial.ledger["pruning"] >= 1


def test_run_total_never_exceeds_worst_case_bound():
    # chains that stall early must only ever lower the retrieval call count
    stall_scripts = [
        ["None of the above", "fallback"],
        ["A", "Unknown", "None", "Unknown", "fallback"],
        ["A", "Unknown", "A", "None", "Unknown", "fallback"],
        ["A", "Unknown", "A", "A", "Unknown", "A", "None", "Unknown", "fallback"],
    ]
    bound = 2 * 1 * 3 + 3 + 2
    for script in stall_scripts:
        eng, gw, hub = spider_engine(1, 3, script)
        _, trace = eng.run("q?", [hub])
        total = trace.ledger["pruning"] + trace.ledger["reasoning"]
        assert total <= bound, script


def test_depth_monotone_in_size_bound():
    # average retrieval depth never increases as the community bound grows
    averages = {}
    for m_max in (1, 2, 4):
        depths = []
        for seed in range(10):
            kg, start, target = clique_path(n_cliques=6, clique_size=4, seed=seed)
            gw = OracleGateway(kg, target)
            cfg = EngineConfig(
                width=1, max_depth=8, max_community_size=m_max, coarse_top_k=6, seed=seed
            )
            _v, trace = Engine(kg, gw, cfg).run("q", [start])
            depths.append(trace.depth_reached)
        averages[m_max] = sum(depths) / len(depths)
    assert averages[1] >= averages[2] >= averages[4]
    assert averages[1] > averages[4]


def test_degrade_cot_sc_samples_ledger():
    script = ["None of the above", "vote a", "vote b", "vote a", "vote a", "vote c"]
    eng, gw, hub = spider_engine(1, 2, script, degrade_mode="cot_sc")
    verdict, trace = eng.run("q?", [hub])
    assert trace.degraded
    assert trace.ledger["baseline"] == 5
    assert verdict.text == "vote a"


def test_extraction_path_resolves_start():
    kg, hub = clique_spider(arms=3, arm_len=3, seed=1)
    script = [hub, "A", "Answer: fine"]
    gw = ScriptedGateway(script)
    eng = Engine(kg, gw, EngineConfig(width=1, max_depth=2, seed=0))
    verdict, trace = eng.run("q?", None)
    started = next(e for e in trace.events if e["event"] == "start_entity")
    assert started["label"] == hub
    assert started["source"] == "extracted"
    assert verdict.text == "fine"


def test_extraction_unresolvable_entity():
    kg, hub = clique_spider(arms=3, arm_len=3, seed=1)
    gw = ScriptedGateway(["definitely not in graph"])
    eng = Engine(kg, gw, EngineConfig(width=1, max_depth=2, seed=0))
    with pytest.raises(ResolutionError):
        eng.run("q?", None)


def test_fewer_candidates_than_width():
    # one arm only: the initial selection cannot return 3 distinct headers
    kg, hub = clique_spider(arms=1, arm_len=4, seed=2)
    script = ["A", "Unknown", "A", "A", "Unknown", "degrade"]
    gw = ScriptedGateway(script)
    eng = Engine(kg, gw, EngineConfig(width=3, max_depth=1, seed=0))
    verdict, trace = eng.run("q?", [hub])
    headers = next(e for e in trace.events if e["event"] == "headers")
    assert len(headers["chosen"]) < 3


def test_dot_rendering_highlights_choices():
    script = ["A", "Unknown", "A", "A", "Answer: done"]
    eng, gw, hub = spider_engine(1, 2, script)
    verdict, trace = eng.run("q?", [hub])
    dot = trace_to_dot(trace.events)
    assert dot.startswith("digraph")
    assert "lightblue" in dot  # chosen path highlighted
    assert "->" in dot


def test_runs_sharing_a_gateway_report_their_own_calls():
    # each run replays the same script; the retried FAIL still counts once
    eng, gw, hub = spider_engine(1, 1, (["FAIL"] + never_answer_script(1, 1)) * 2)
    _, first = eng.run("q?", [hub])
    _, second = eng.run("q?", [hub])
    expected = {"pruning": 3, "reasoning": 2, "baseline": 1, "g2t": 0}
    assert first.ledger == second.ledger == expected
    assert second.events[-1]["ledger"] == expected


def test_gateway_with_only_generate_runs():
    kg, hub = clique_spider(arms=3, arm_len=3, seed=1)
    replies = iter(["A", "Answer: ok"])

    class Bare:
        def generate(self, req):
            return GenerationResponse(next(replies), 0, "bare", 0)

    verdict, trace = Engine(kg, Bare(), EngineConfig(width=1, max_depth=1)).run("q?", [hub])
    assert verdict.text == "ok"
    assert trace.ledger == {"pruning": 1, "reasoning": 1, "baseline": 0, "g2t": 0}


def test_local_search_walks_to_opposite_triangle():
    # the search seeded at one triangle, scripted to take option A, must
    # surface the opposite triangle as the chosen community
    kg = bridged_triangles()
    gw = ScriptedGateway(["A"])
    eng = Engine(kg, gw, EngineConfig(width=1, max_depth=1, r_max=2, seed=0))
    eng._seed_counter = 0
    eng._rng = random.Random(0)
    eng._gateway = gw
    outcome, _current, _premise = eng._local_community_search(
        "q?", frozenset({"a", "b", "c"}), set(), 1, None, RunTrace(), 0, None
    )
    assert not outcome.none_selected
    assert outcome.chosen[0].community.sorted_members == ("d", "e", "f")
    assert outcome.chosen[0].bridge_edges[0] == ("c", "bridge", "d")


def test_g2t_mode_without_backend_falls_back_with_trace_flag():
    eng, gw, hub = spider_engine(1, 1, ["A", "Unknown", "A", "A", "Answer: ok"], mode="g2t")
    verdict, trace = eng.run("q?", [hub])
    assert verdict.text == "ok"
    fallbacks = [e for e in trace.events if e["event"] == "g2t_fallback"]
    assert fallbacks, "fallback must be visible in the trace"
    assert trace.ledger["g2t"] == 0


def test_g2t_mode_with_backend_rewrites():
    kg, hub = clique_spider(arms=3, arm_len=3, seed=1)
    gw = ScriptedGateway(["A", "Unknown", "A", "A", "Answer: ok"])
    backend = Counting(ScriptedGateway(["a fluent retelling of the facts"] * 40))
    cfg = EngineConfig(width=1, max_depth=1, seed=4, mode="g2t")
    eng = Engine(kg, gw, cfg, g2t_backend=backend)
    verdict, trace = eng.run("q?", [hub])
    assert verdict.text == "ok"
    # every rewrite the backend served is counted in the run's own ledger
    assert trace.ledger["g2t"] == backend.ledger.counts()["g2t"] > 0
    assert not [e for e in trace.events if e["event"] == "g2t_fallback"]
    # rewritten text flows into the prompts
    assert trace.ledger["pruning"] >= 1


# SHA-1 over the traces of the runs below, pinned before detection stopped
# louvain early and scored communities lazily: both may change how much work a
# run does, never a byte of what it traces. Each lane graph has 324 nodes; the
# runs mix answers at depths 2-6 with degraded walks, and many chosen louvain
# states lie on a later aggregation level.
ENGINE_TRACE_DIGEST = "c80cd2edec0b7f612a8e52c81c09307f82967ffb"


def test_engine_traces_match_pinned_digest():
    digest = hashlib.sha1()
    for seed in range(6):
        kg, start, target = lane_in_background(seed=seed)
        for detector in ("louvain", "hierarchical"):
            for bound in (4, 8):
                cfg = EngineConfig(
                    width=2,
                    max_depth=6,
                    r_max=2,
                    max_community_size=bound,
                    detector=detector,
                    seed=seed,
                )
                engine = Engine(kg, OracleGateway(kg, target), cfg)
                _, trace = engine.run("Which entity does the lane lead to?", [start])
                digest.update(trace.to_jsonl().encode())
    assert digest.hexdigest() == ENGINE_TRACE_DIGEST
