import hashlib
import importlib.resources
import itertools
import random
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from fasttog import (
    Engine,
    EngineConfig,
    GenerationResponse,
    KnowledgeGraph,
    ScriptedGateway,
    Triple,
    trace_to_dot,
)
from fasttog.detect import DETECTOR_KINDS
from fasttog.engine import PRUNE_MODES
from fasttog.errors import FastToGError, ResolutionError
from fasttog.gateway import BASELINE_MODES
from fasttog.verbalize import MODES

from helpers import (
    Counting,
    OracleGateway,
    bridged_triangles,
    clique_path,
    clique_spider,
    gold_star,
    lane_in_background,
    never_answer_script,
    pruning_options,
    random_graph,
    star,
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


# in range for each EngineConfig field; 27-30 kept options are in range for
# every check but the config's one that each option needs a letter
FIELD_VALUES = {
    "width": st.integers(1, 16),
    "max_depth": st.integers(1, 3),
    "r_max": st.integers(1, 2),
    "max_community_size": st.integers(1, 8),
    "rho": st.floats(0.05, 1.0),
    "mode": st.sampled_from(MODES),
    "detector": st.sampled_from(DETECTOR_KINDS),
    "coarse_top_k": st.none() | st.integers(1, 30),
    "prune_mode": st.sampled_from(PRUNE_MODES),
    "degrade_mode": st.sampled_from(BASELINE_MODES),
    "seed": st.integers(-(2**40), 2**40),
    "templates_dir": st.sampled_from(
        [None, str(importlib.resources.files("fasttog").joinpath("templates"))]
    ),
}
# out of range or unknown: each makes the config raise ValueError when built.
# Any seed is valid
BAD_VALUES = {
    "width": st.integers(-3, 0),
    "max_depth": st.integers(-3, 0),
    "r_max": st.integers(-3, 0),
    "max_community_size": st.integers(-3, 0),
    "rho": st.sampled_from([0.0, -0.5, 1.5, float("nan"), float("inf")]),
    "mode": st.just("prose"),
    "detector": st.just("leiden"),
    "coarse_top_k": st.integers(-3, 0) | st.integers(27, 60),
    "prune_mode": st.just("greedy"),
    "degrade_mode": st.just("guess"),
    "templates_dir": st.just("/nonexistent"),
}
NET_GRAPHS = {"lane": lane_in_background(n_background=60), "star": star(30)}


def test_the_config_net_draws_every_field():
    assert set(FIELD_VALUES) == {f.name for f in fields(EngineConfig)}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    graph=st.sampled_from(sorted(NET_GRAPHS)),
    values=st.fixed_dictionaries(FIELD_VALUES),
    # one field in three out of range or unknown
    bad=st.sampled_from([None] * 20 + sorted(BAD_VALUES)).flatmap(
        lambda name: st.tuples(st.just(name), BAD_VALUES[name]) if name else st.none()
    ),
)
@example(graph="star", values={**asdict(EngineConfig()), "max_community_size": 1, "width": 14}, bad=None)
def test_every_drawn_config_is_rejected_or_runs_to_a_verdict_or_typed_error(graph, values, bad):
    if bad is not None:
        values = {**values, bad[0]: bad[1]}
        with pytest.raises(ValueError):
            EngineConfig(**values)
        return
    try:
        cfg = EngineConfig(**values)
    except ValueError:  # the only in-range rejection: more kept options than letters
        top_k = values["coarse_top_k"] or 2 * values["width"]
        assert top_k > 26
        return
    kg, start, target = NET_GRAPHS[graph]
    try:
        verdict, trace = Engine(kg, OracleGateway(kg, target), cfg).run("Which entity?", [start])
    except FastToGError:
        return
    assert verdict.kind in ("answer", "unknown") and trace.events[-1]["event"] == "final"


# replies a parser could misread: blank, out-of-range or lower-case letters,
# "none", punctuation, a bare "Answer:", very long text, and some it reads
ODD_REPLIES = st.one_of(
    st.sampled_from(
        ["", " ", "  \n", "\t\n ", "Z", "Y, Z", "A, Q", "none", "None", "a", "b, c", "Answer:"]
        + ["Answer:  ", "A", "A, B", "B", "Unknown", "Answer: c5m3"]
    ),
    st.text(string.punctuation + " \n", max_size=12),
    st.integers(200, 2000).map(lambda n: "long " * n),
)


# what a drawn ``None`` stands for, so that runs also get past their first call
PLAIN_REPLIES = {"pruning": "A", "g2t": "A plain rewrite."}


class DrawnReplies:
    """Gives the drawn replies in turn, whatever the call; keeps each pruning prompt."""

    def __init__(self, replies):
        self._replies = itertools.cycle(replies)
        self.pruning_bodies = []

    def generate(self, req):
        if req.tag == "pruning":
            self.pruning_bodies.append(req.prompt.body)
        reply = next(self._replies)
        if reply is None:
            reply = PLAIN_REPLIES.get(req.tag, "Unknown")
        return GenerationResponse(reply, 0, "drawn", 0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    graph=st.sampled_from(sorted(NET_GRAPHS)),
    replies=st.lists(st.none() | ODD_REPLIES, min_size=1, max_size=8),
    rewrites=st.lists(st.none() | ODD_REPLIES, min_size=1, max_size=4),
    width=st.integers(1, 3),
    bound=st.integers(1, 4),
)
@example(graph="star", replies=[None], rewrites=["  \n"], width=1, bound=1)
def test_every_drawn_reply_ends_in_a_verdict_or_typed_error_with_no_blank_option(
    graph, replies, rewrites, width, bound
):
    kg, start, _ = NET_GRAPHS[graph]
    gateway = DrawnReplies(replies)
    cfg = EngineConfig(width=width, max_depth=2, max_community_size=bound, mode="g2t")
    engine = Engine(kg, gateway, cfg, g2t_backend=DrawnReplies(rewrites))
    try:
        verdict, trace = engine.run("Which entity?", [start])
    except FastToGError:
        pass
    else:
        assert verdict.kind in ("answer", "unknown") and trace.events[-1]["event"] == "final"
    for body in gateway.pruning_bodies:
        assert all(text.strip() for text in pruning_options(body))


def drawn_graph(spec):
    """(graph, start, target) for a drawn ``(kind, size, seed)``."""
    kind, size, seed = spec
    if kind == "lane":
        return lane_in_background(n_background=size, seed=seed)
    if kind == "star":
        return star(size)
    kg = random_graph(size, 0.15, random.Random(seed))
    labels = sorted(kg.nodes)
    return kg, labels[0], labels[-1]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    graph=st.tuples(st.just("lane"), st.integers(30, 120), st.integers(0, 3))
    | st.tuples(st.just("star"), st.integers(3, 30), st.just(0))
    | st.tuples(st.just("random"), st.integers(4, 30), st.integers(0, 2**16)),
    detector=st.sampled_from(DETECTOR_KINDS),
    bound=st.integers(1, 6),
    width=st.integers(1, 3),
    depth=st.integers(1, 4),
    r_max=st.integers(1, 3),
    rho=st.sampled_from([1.0, 0.7]),
    prune_mode=st.sampled_from(PRUNE_MODES),
    mode=st.sampled_from(MODES),
    coarse_top_k=st.sampled_from([None, 1, 2, 5]),
    seed=st.integers(0, 2**32),
)
def test_every_drawn_run_keeps_the_trace_invariants(
    graph, detector, bound, width, depth, r_max, rho, prune_mode, mode, coarse_top_k, seed
):
    # read from the trace alone: partitions, coarse and fine pruning, history,
    # the closed-form call bounds and a rerun's bytes
    kg, start, target = drawn_graph(graph)
    cfg = EngineConfig(
        width=width,
        max_depth=depth,
        r_max=r_max,
        rho=rho,
        max_community_size=bound,
        detector=detector,
        prune_mode=prune_mode,
        mode=mode,
        coarse_top_k=coarse_top_k,
        seed=seed,
    )
    rewrites = Counting(ScriptedGateway(["A plain rewrite of the facts."] * 400))
    engine = Engine(kg, OracleGateway(kg, target), cfg, g2t_backend=rewrites)
    _, trace = engine.run("Which entity?", [start])
    top_k = cfg.resolved_coarse_top_k
    kept = {}
    for ev in trace.events:
        kind = ev["event"]
        if kind == "subgraph":
            nodes = ev["nodes"]
        elif kind == "partition":
            members = [v for block in ev["communities"] for v in block]
            assert len(members) == len(set(members)) == nodes
            assert max(map(len, ev["communities"])) <= bound
        elif kind == "coarse":
            assert len(ev["kept"]) <= top_k
            if prune_mode == "modularity":
                keys = [(-c["modularity"], c["id"]) for c in ev["kept"]]
                assert keys == sorted(keys)
            kept[ev["chain"], ev["depth"]] = {c["id"] for c in ev["kept"]}
        elif kind == "fine":
            assert set(ev["chosen"]) <= kept[ev["chain"], ev["depth"]]
    headers = next(ev["chosen"] for ev in trace.events if ev["event"] == "headers")
    chosen = headers + [ev["community"] for ev in trace.events if ev["event"] == "chain_grew"]
    assert len(chosen) == len(set(chosen))
    calls = trace.ledger["pruning"] + trace.ledger["reasoning"]
    most = 2 * width * depth + depth + 2
    stopped = any(ev["event"] == "chain_stopped" for ev in trace.events)
    if trace.degraded and len(headers) == width and not stopped:
        assert calls == most
    assert calls <= most
    assert trace.ledger["g2t"] == rewrites.ledger.counts()["g2t"] <= 1 + top_k * (1 + width * depth)
    assert engine.run("Which entity?", [start])[1].to_jsonl() == trace.to_jsonl()


def test_a_run_seeds_only_the_generators_it_draws_from(monkeypatch):
    seeded = []

    class Seeded(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    for module in ("fasttog.engine", "fasttog.kg"):
        monkeypatch.setattr(importlib.import_module(module), "random", SimpleNamespace(Random=Seeded))
    kg, start, target = gold_star(n_decoys=7, seed=0)
    for prune_mode in ("modularity", "random"):
        for rho in (1.0, 0.5):
            cfg = EngineConfig(
                width=1, max_depth=4, r_max=2, rho=rho, coarse_top_k=2, prune_mode=prune_mode, seed=3
            )
            seeded.clear()
            _, trace = Engine(kg, OracleGateway(kg, target), cfg).run("q?", [start])
            # at rho == 1 extraction keeps every node it finds and draws nothing
            extractions = sum(ev["event"] == "subgraph" for ev in trace.events)
            assert len([s for s in seeded if s != cfg.seed ^ 0x9E3779B9]) == (
                0 if rho == 1.0 else extractions
            )
            # only random pruning draws from the run's generator, seeded once
            assert seeded.count(cfg.seed ^ 0x9E3779B9) == (prune_mode == "random")


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
    # header pick, reasoning, depth-1 selection, and the confirmation that raised
    assert partial.ledger == {"pruning": 3, "reasoning": 1, "baseline": 0, "g2t": 0}


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


def test_threads_sharing_an_engine_trace_and_count_their_own_runs():
    # one engine, four threads at once: each run must trace and count exactly
    # as a run on its own; the 1 ms replies make the threads interleave
    kg, start, target = lane_in_background(n_background=60, seed=1)

    class Slow(OracleGateway):
        def generate(self, req):
            time.sleep(0.001)
            return super().generate(req)

    eng = Engine(kg, Slow(kg, target), EngineConfig(width=2, max_depth=4, seed=1))
    _, alone = eng.run("q?", [start])
    together = threading.Barrier(4)

    def run(_):
        together.wait()
        return eng.run("q?", [start])[1]

    with ThreadPoolExecutor(max_workers=4) as pool:
        traces = list(pool.map(run, range(4)))
    assert alone.ledger["pruning"] > 4
    for trace in traces:
        assert trace.to_jsonl() == alone.to_jsonl()
        assert trace.ledger == alone.ledger


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
    # started at c, the run takes triangle a-b-c as its header (option B);
    # the search seeded at that triangle, scripted to take option A, must
    # surface the opposite triangle as the chosen community
    kg = bridged_triangles()
    gw = ScriptedGateway(["B", "Unknown", "A", "A", "Answer: done"])
    eng = Engine(kg, gw, EngineConfig(width=1, max_depth=1, r_max=2, seed=0))
    _, trace = eng.run("q?", ["c"])
    coarse, fine = (
        next(e for e in trace.events if e["event"] == kind and e["depth"] == 1)
        for kind in ("coarse", "fine")
    )
    assert coarse["current"] == ["a", "b", "c"]
    assert not fine["none_selected"]
    chosen = next(c for c in coarse["kept"] if c["id"] == fine["chosen"][0])
    assert chosen["members"] == ["d", "e", "f"]
    assert chosen["bridges"][0] == ["c", "bridge", "d"]


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


def lane_traces(graph_of=lambda kg: kg):
    """The traces of the runs the digest below pins, each engine run on
    ``graph_of(lane graph)``; the oracle reads the lane graph alone."""
    traces = []
    for seed in range(6):
        kg, start, target = lane_in_background(seed=seed)
        graph = graph_of(kg)
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
                engine = Engine(graph, OracleGateway(kg, target), cfg)
                _, trace = engine.run("Which entity does the lane lead to?", [start])
                traces.append(trace.to_jsonl())
    return traces


def test_engine_traces_match_pinned_digest():
    digest = hashlib.sha1()
    for text in lane_traces():
        digest.update(text.encode())
    assert digest.hexdigest() == ENGINE_TRACE_DIGEST


def filler_triples(labels, n_labels=20_000, n_triples=60_000):
    """Random triples that touch none of ``labels``. Each filler label sorts
    just after one of ``labels``, so ids and label order interleave with
    theirs. No duplicate and no self-loop."""
    rng = random.Random(0)
    anchors = sorted(labels)
    filler = [f"{anchors[i % len(anchors)]}~{i}" for i in range(n_labels)]
    pairs = set()
    while len(pairs) < n_triples:
        pairs.add(tuple(rng.sample(filler, 2)))
    # "fill" sorts among the lane's predicates, so it shifts their ids too
    return [Triple(a, "fill", b) for a, b in sorted(pairs)]


def test_a_walk_traces_the_same_in_a_graph_a_hundred_times_larger():
    # locality: a run reads only its walk's neighbourhood, so a disjoint filler
    # that renumbers every entity and outweighs the lane changes no byte.
    # Every lane graph has the same labels, so one filler serves all six
    filler = filler_triples(lane_in_background()[0].nodes)

    def joined(kg):
        big = KnowledgeGraph([*kg.triples, *filler])
        assert big.duplicate_count == big.self_loop_count == 0
        assert len(big) > 60 * len(kg)
        return big

    assert lane_traces(joined) == lane_traces()


def test_a_louvain_walk_builds_no_label_adjacency_or_subgraph_triples(monkeypatch):
    # the louvain runs of the pinned digest above. A walk's local search reads
    # the subgraph's local-index lists and only the rows of the nodes it
    # bridges from or verbalizes: no subgraph builds its full triple tuple
    import fasttog.engine

    built = []
    extract = fasttog.engine.extract_subgraph

    def keep(*args):
        g = extract(*args)
        built.append(g)
        return g

    monkeypatch.setattr(fasttog.engine, "extract_subgraph", keep)
    for seed in range(6):
        kg, start, target = lane_in_background(seed=seed)
        for bound in (4, 8):
            cfg = EngineConfig(
                width=2,
                max_depth=6,
                r_max=2,
                max_community_size=bound,
                detector="louvain",
                seed=seed,
            )
            engine = Engine(kg, OracleGateway(kg, target), cfg)
            engine.run("Which entity does the lane lead to?", [start])
    assert len(built) > 12
    for g in built:
        assert "triples" not in vars(g)
    g = built[-1]
    assert len(g.intra_triples(g.nodes)) == len(g.triples)  # the views still work
