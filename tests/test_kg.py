import hashlib
import random
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fasttog import (
    Engine,
    EngineConfig,
    KnowledgeGraph,
    NotFoundError,
    ScriptedGateway,
    Subgraph,
    Triple,
    TripleFormatError,
)
from fasttog.kg import SamplerConfig, extract_subgraph

from fasttog.detect import connected_components

from helpers import (
    ReferenceStore,
    bridged_triangles,
    clique_path,
    label_adj,
    mixed_extractions,
    multigraph,
    multigraph_triples,
    never_answer_script,
    reference_adj,
    reference_between,
    reference_components,
    reference_hops,
    reference_parse,
    reference_triples,
    structural_edges,
    tricky_triples,
)


def write(tmp_path, text, name="graph.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_empty_file(tmp_path):
    kg = KnowledgeGraph.ingest(write(tmp_path, ""))
    assert len(kg.nodes) == 0
    assert len(kg.triples) == 0


def test_ingest_single_line(tmp_path):
    kg = KnowledgeGraph.ingest(write(tmp_path, "Philadelphia\tisCityOf\tPennsylvania\n"))
    assert len(kg.nodes) == 2
    assert len(kg.triples) == 1
    assert kg.triples[0] == Triple("Philadelphia", "isCityOf", "Pennsylvania")


def test_ingest_collapses_duplicates(tmp_path):
    text = "a\tr\tb\na\tr\tb\n"
    kg = KnowledgeGraph.ingest(write(tmp_path, text))
    assert len(kg.triples) == 1
    assert kg.duplicate_count == 1


def test_ingest_malformed_line_reports_line_number(tmp_path):
    text = "a\tr\tb\nbroken line without tabs\n"
    with pytest.raises(TripleFormatError) as err:
        KnowledgeGraph.ingest(write(tmp_path, text))
    assert err.value.line_number == 2
    with pytest.raises(TripleFormatError, match="empty field") as err:
        KnowledgeGraph.ingest(write(tmp_path, "# c\na\tr\tb\na\t\tb\n"))
    assert err.value.line_number == 3


def test_ingest_names_the_line_of_a_bad_line_in_a_later_batch(tmp_path, monkeypatch):
    monkeypatch.setattr("fasttog.kg._BATCH", 2)
    text = "a\tr\tb\n# c\nc\tr\td\nbad\n"
    with pytest.raises(TripleFormatError) as err:
        KnowledgeGraph.ingest(write(tmp_path, text))
    assert str(err.value) == "line 4: expected 3 tab-separated fields, got 1"


def test_ingest_fails_on_the_first_of_two_bad_lines_whose_fields_add_up(tmp_path, monkeypatch):
    # 2 fields then 4: six in all, as two good lines would have
    monkeypatch.setattr("fasttog.kg._BATCH", 4)
    text = "a\tr\tb\nc\td\ne\tf\tg\th\ni\tr\tj\n"
    with pytest.raises(TripleFormatError) as err:
        KnowledgeGraph.ingest(write(tmp_path, text))
    assert str(err.value) == "line 2: expected 3 tab-separated fields, got 2"


def test_a_row_without_three_fields_raises_value_error():
    good = Triple("a", "r", "b")
    for rows in ([("a", "r")], [good, ("a", "r", "b", "c")], [good, ("a", "r"), ("a", "r", "b", "c")]):
        with pytest.raises(ValueError):
            KnowledgeGraph(rows)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"a\tr\tb\n\xff\tr\tc\n", "line 2: invalid UTF-8 byte 0xff"),
        # CRLF and lone CR each end a line; a sequence cut at the end
        (b"a\tr\tb\r\nc\tr\td\re\tr\t\xc3", "line 3: invalid UTF-8 byte 0xc3"),
        # past the decoder's first chunk; an encoded surrogate is not UTF-8
        (b"a\tr\tb\n" * 5000 + b"# \xed\xa0\x80\n", "line 5001: invalid UTF-8 byte 0xed"),
    ],
    ids=["lf", "crlf-cr-cut", "past-first-chunk"],
)
def test_ingest_names_the_first_line_that_is_not_utf8(tmp_path, data, message):
    path = tmp_path / "graph.tsv"
    path.write_bytes(data)
    with pytest.raises(TripleFormatError) as err:
        KnowledgeGraph.ingest(path)
    assert str(err.value) == message
    assert err.value.line_number == int(message.split()[1][:-1])


def test_ingest_reports_a_bad_line_before_an_undecodable_one(tmp_path):
    # the decoder fails on the chunk that holds both lines, before the
    # first one is split
    path = tmp_path / "graph.tsv"
    path.write_bytes(b"a\tr\tb\na\tb\n\xff\tr\tc\n")
    with pytest.raises(TripleFormatError) as err:
        KnowledgeGraph.ingest(path)
    assert str(err.value) == "line 2: expected 3 tab-separated fields, got 2"


# NUL, and whitespace that str.splitlines() would split on but a text file
# reader does not
_LABEL = st.text(
    st.sampled_from(["a", "b", "#", " ", "\x00", "\x0b", "\x85", "\u2028", "é", "日"]), max_size=3
)
_LINE = st.one_of(
    st.tuples(_LABEL, _LABEL, _LABEL).map("\t".join),  # may hold an empty field
    st.tuples(_LABEL.filter(bool), _LABEL.filter(bool), _LABEL.filter(bool)).map("\t".join),
    st.lists(_LABEL, min_size=1, max_size=5).map("\t".join),
    st.sampled_from(["", " ", "\t", " \t ", "\x0b", "\u3000", "# a comment", "#\tr\tb"]),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    lines=st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    final_newline=st.booleans(),
    batch=st.integers(2, 4),
)
def test_batch_reader_matches_the_line_reader(tmp_path_factory, lines, final_newline, batch):
    text = "".join(line + end for line, end in lines)
    if lines and not final_newline:
        text = text[: -len(lines[-1][1])]
    data = text.encode("utf-8")
    path = tmp_path_factory.mktemp("reader") / "graph.tsv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fasttog.kg._BATCH", batch)
        try:
            triples = reference_parse(data)
        except TripleFormatError as want:
            with pytest.raises(TripleFormatError) as err:
                KnowledgeGraph.ingest(path)
            assert (err.value.line_number, str(err.value)) == (want.line_number, str(want))
            return
        kg = KnowledgeGraph.ingest(path)
    want = ReferenceStore(triples)
    assert kg.dump() == want.dump()
    assert kg.duplicate_count == want.duplicate_count
    assert kg.self_loop_count == want.self_loop_count
    assert kg._predicates == sorted({t.predicate for t in triples})


def test_ingest_skips_comments_and_blanks(tmp_path):
    text = "# comment\n\na\tr\tb\n"
    kg = KnowledgeGraph.ingest(write(tmp_path, text))
    assert len(kg.triples) == 1


def test_ingest_flags_self_loops(tmp_path):
    kg = KnowledgeGraph.ingest(write(tmp_path, "a\tloop\ta\na\tr\tb\n"))
    assert kg.self_loop_count == 1
    # self-loops carry no structural weight
    assert kg.structural_neighbors("a") == frozenset({"b"})


def test_dump_round_trip(tmp_path):
    text = "b\tr\tc\na\tr\tb\nz\tq\ta\n"
    kg = KnowledgeGraph.ingest(write(tmp_path, text))
    dumped = kg.dump()
    assert dumped == "a\tr\tb\nb\tr\tc\nz\tq\ta\n"
    kg2 = KnowledgeGraph.ingest(write(tmp_path, dumped, name="round.tsv"))
    assert kg2.dump() == dumped


def test_neighbors_star_center():
    kg = KnowledgeGraph([Triple("hub", "spoke", x) for x in ("a", "b", "c")])
    entries = kg.neighbors("hub")
    assert entries == [("spoke", "a", "out"), ("spoke", "b", "out"), ("spoke", "c", "out")]


def test_neighbors_both_directions_sorted():
    kg = KnowledgeGraph([Triple("x", "in_rel", "v"), Triple("v", "out_rel", "y")])
    entries = kg.neighbors("v")
    assert entries == [("in_rel", "x", "in"), ("out_rel", "y", "out")]


def test_neighbors_unknown_node():
    kg = KnowledgeGraph([Triple("a", "r", "b")])
    with pytest.raises(NotFoundError):
        kg.neighbors("missing")


def test_only_string_labels_are_in_the_graph():
    kg = KnowledgeGraph([Triple("a", "r", "b"), Triple("5", "r", "None")])
    # labels are found by bisection; anything that is not a string is absent
    for label in (5, None, ["a"], ("a",), b"a", 5.0):
        assert label not in kg
    for label in ("", "0", "a ", "c", "\uffff"):
        assert label not in kg
    assert all(label in kg for label in ("5", "None", "a", "b"))
    with pytest.raises(NotFoundError):
        kg.neighbors(["a"])
    with pytest.raises(NotFoundError):
        extract_subgraph(kg, [5], SamplerConfig())


def test_extract_rho_one_is_full_ball():
    kg = bridged_triangles()
    g = extract_subgraph(kg, ["a"], SamplerConfig(rho=1.0, r_max=2, seed=0))
    # 2-hop ball from a: hop1 = {b, c}, hop2 = {d}
    assert g.nodes == frozenset({"a", "b", "c", "d"})
    assert g.hop_of == {"a": 0, "b": 1, "c": 1, "d": 2}
    assert g.m == 4  # induced edges: ab, ac, bc, cd


def test_extract_center_always_kept_and_hops_bounded():
    kg = bridged_triangles()
    for seed in range(20):
        g = extract_subgraph(kg, ["c", "d"], SamplerConfig(rho=0.3, r_max=2, seed=seed))
        assert {"c", "d"} <= set(g.nodes)
        assert g.hop_of["c"] == 0 and g.hop_of["d"] == 0
        assert all(h <= 2 for h in g.hop_of.values())
        assert g.m == len(structural_edges(g))


def test_extract_deterministic_for_seed():
    rng = random.Random(5)
    triples = []
    names = [f"v{i:02d}" for i in range(50)]
    for _ in range(120):
        a, b = rng.sample(names, 2)
        triples.append(Triple(a, "r", b))
    kg = KnowledgeGraph(triples)
    center = [sorted(kg.nodes)[0]]
    cfg = SamplerConfig(rho=0.6, r_max=3, seed=42)
    first = extract_subgraph(kg, center, cfg)
    second = extract_subgraph(kg, center, cfg)
    assert first.nodes == second.nodes
    assert first.hop_of == second.hop_of
    assert first.triples == second.triples
    # the sampler actually samples: different seeds reach different balls
    variants = {
        extract_subgraph(kg, center, SamplerConfig(rho=0.6, r_max=3, seed=s)).nodes
        for s in range(10)
    }
    assert len(variants) > 1


def test_extract_hop2_retention_frequency():
    # star of spokes with one leaf each: leaf sits at hop 2
    spokes = [f"s{i}" for i in range(5)]
    triples = [Triple("center", "r", s) for s in spokes]
    triples += [Triple(s, "r", f"leaf_{s}") for s in spokes]
    kg = KnowledgeGraph(triples)
    kept = 0
    total = 0
    for seed in range(10_000):
        g = extract_subgraph(kg, ["center"], SamplerConfig(rho=0.5, r_max=2, seed=seed))
        for s in spokes:
            assert s in g.nodes  # hop-1 nodes always kept
            total += 1
            if f"leaf_{s}" in g.nodes:
                kept += 1
    freq = kept / total
    assert abs(freq - 0.5) < 0.02


def test_extract_hop3_retention_frequency():
    # chains center -> s -> mid -> leaf put the leaf at hop 3
    chains = [f"c{i}" for i in range(5)]
    triples = []
    for c in chains:
        triples.append(Triple("center", "r", f"s_{c}"))
        triples.append(Triple(f"s_{c}", "r", f"mid_{c}"))
        triples.append(Triple(f"mid_{c}", "r", f"leaf_{c}"))
    kg = KnowledgeGraph(triples)
    kept = total = 0
    for seed in range(4000):
        g = extract_subgraph(kg, ["center"], SamplerConfig(rho=0.7, r_max=3, seed=seed))
        for c in chains:
            if f"mid_{c}" in g.nodes:  # hop-3 leaf only reachable via its mid
                total += 1
                kept += f"leaf_{c}" in g.nodes
    # rho ** (3 - 1) = 0.49
    assert abs(kept / total - 0.49) < 0.03


def test_extract_unknown_center():
    kg = bridged_triangles()
    with pytest.raises(NotFoundError):
        extract_subgraph(kg, ["nope"], SamplerConfig())


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(rho=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(rho=1.2)
    with pytest.raises(ValueError):
        SamplerConfig(r_max=0)


def test_full_graph_subgraph_counts_structural_edges():
    kg = KnowledgeGraph(
        [Triple("a", "r1", "b"), Triple("a", "r2", "b"), Triple("b", "r", "c")]
    )
    g = Subgraph.from_full_graph(kg)
    # parallel predicates collapse to one structural edge
    assert g.m == 2
    assert len(g.triples) == 3


def _extraction_sweep():
    """60 seeded extractions from one multigraph, each with five random
    ``(left, right)`` member-set probes (overlapping sets included)."""
    rng = random.Random(11)
    kg = multigraph(60, 200, rng)
    names = sorted(kg.nodes)
    assert kg.self_loop_count > 0
    assert any(
        (a.subject, a.object) == (b.subject, b.object) and a.predicate != b.predicate
        for a, b in zip(kg.triples, kg.triples[1:])
    ), "fixture must hold parallel predicates"
    for trial in range(60):
        center = rng.sample(names, rng.randint(1, 3))
        cfg = SamplerConfig(rho=rng.choice((1.0, 0.6, 0.3)), r_max=rng.randint(1, 3), seed=trial)
        g = extract_subgraph(kg, center, cfg)
        members = sorted(g.nodes)
        probes = [
            (
                frozenset(rng.sample(members, rng.randint(1, len(members)))),
                frozenset(rng.sample(members, rng.randint(1, len(members)))),
            )
            for _ in range(5)
        ]
        yield kg, g, probes


def test_extract_matches_full_scan_reference():
    for kg, g, probes in _extraction_sweep():
        want = reference_triples(kg, g.nodes)
        assert g.triples == want
        want_adj = reference_adj(g.nodes, want)
        assert label_adj(g) == want_adj
        assert g.m == sum(len(s) for s in want_adj.values()) // 2
        for left, right in probes:
            assert g.intra_triples(left) == reference_between(want, left, left)
            # overlapping sets included: each triple is reported once
            assert g.triples_between(left, right) == reference_between(want, left, right)


def test_label_views_match_full_scan_references():
    # ``triples`` is built lazily and cached; even trials build it before
    # the lookups, odd trials after
    seen = {"rho<1 dropped a node": 0, "multi-center": 0, "multi-component": 0,
            "self-loop": 0, "parallel predicates": 0}
    for trial, (kg, center, cfg, g) in enumerate(mixed_extractions(31, 80)):
        rng = random.Random(trial)
        hops = reference_hops(kg, center, cfg)
        members = sorted(hops)
        outside = ["not a node", "\x00"]
        probes = [
            (
                frozenset(rng.sample(members, rng.randint(1, len(members))) + outside[: trial % 3]),
                frozenset(rng.sample(members, rng.randint(1, len(members)))),
            )
            for _ in range(4)
        ]
        want = reference_triples(kg, frozenset(hops))
        if trial % 2 == 0:
            g.triples  # noqa: B018  built before the lookups read rows
        lookups = [(g.intra_triples(left), g.triples_between(left, right)) for left, right in probes]
        want_adj = reference_adj(hops, want)
        assert list(g.hop_of.items()) == list(hops.items())
        assert sorted(map(g.labels.__getitem__, g.centres)) == sorted(set(center))
        assert g.labels == members and g.nodes == frozenset(members) and len(g) == len(members)
        assert g.ids == sorted(g.ids) and len(set(g.ids)) == len(g.ids)
        assert g.index == {v: i for i, v in enumerate(members)}
        assert g.triples == want
        assert label_adj(g) == want_adj
        assert g.nbrs == [sorted(g.index[u] for u in want_adj[v]) for v in members]
        assert g.m == sum(len(s) for s in want_adj.values()) // 2
        assert connected_components(g) == reference_components(want_adj)
        for (left, right), (intra, between) in zip(probes, lookups):
            assert intra == reference_between(want, left, left)
            assert between == reference_between(want, left, right)
        assert lookups == [(g.intra_triples(left), g.triples_between(left, right)) for left, right in probes]
        seen["rho<1 dropped a node"] += cfg.rho < 1 and any(
            v not in hops for u in hops if hops[u] < cfg.r_max for v in kg.structural_neighbors(u)
        )
        seen["multi-center"] += len(center) > 1
        seen["multi-component"] += len(connected_components(g)) > 1
        seen["self-loop"] += any(t.subject == t.object for t in want)
        seen["parallel predicates"] += any(
            (a.subject, a.object) == (b.subject, b.object) for a, b in zip(want, want[1:])
        )
    assert all(seen.values()), seen


def test_triples_between_returns_triple_order():
    # candidate search keeps the bridges as returned, without sorting them
    for _kg, g, probes in _extraction_sweep():
        for left, right in probes:
            between = g.triples_between(left, right)
            assert between == sorted(between)


def test_extract_reads_only_the_neighbourhood():
    class Unscannable(tuple):
        def __iter__(self):
            raise AssertionError("extraction scanned the whole graph's triples")

    kg = bridged_triangles()
    kg.triples = Unscannable(kg.triples)
    g = extract_subgraph(kg, ["a"], SamplerConfig(rho=1.0, r_max=2, seed=0))
    assert g.triples == (
        Triple("a", "rel", "b"),
        Triple("a", "rel", "c"),
        Triple("b", "rel", "c"),
        Triple("c", "bridge", "d"),
    )


def test_engine_run_never_builds_the_whole_graph_triples(tmp_path):
    kg, start, target = clique_path(n_cliques=4, clique_size=4, seed=3)
    path = write(tmp_path, kg.dump())
    kg = KnowledgeGraph.ingest(path)
    script = never_answer_script(width=1, max_depth=3)
    engine = Engine(kg, ScriptedGateway(script), EngineConfig(width=1, max_depth=3))
    _verdict, trace = engine.run("q?", [start])
    assert trace.depth_reached == 3
    # ``triples`` and ``nodes`` are built and cached on the instance at their
    # first read; ``in`` and ``len`` build neither
    assert "triples" not in vars(kg) and "nodes" not in vars(kg)
    assert start in kg and len(kg) == 16
    assert "triples" not in vars(kg) and "nodes" not in vars(kg)
    assert len(kg.triples) == 27 and "triples" in vars(kg)


def test_neighbors_match_reference_from_triples():
    kg = multigraph(30, 120, random.Random(61))
    assert kg.self_loop_count > 0
    for v in sorted(kg.nodes):
        want = sorted(
            [(t.predicate, t.object, "out") for t in kg.triples if t.subject == v]
            + [(t.predicate, t.subject, "in") for t in kg.triples if t.object == v]
        )
        assert kg.neighbors(v) == want


def _as_tsv(triples, rng):
    """The triples as a triple file, with comments, blank lines and CRLF endings
    mixed in."""
    parts = []
    for t in triples:
        roll = rng.random()
        if roll < 0.1:
            parts.append("# a comment\n")
        elif roll < 0.2:
            parts.append("\r\n" if roll < 0.15 else "   \n")
        parts.append("\t".join(t) + ("\r\n" if rng.random() < 0.5 else "\n"))
    return "".join(parts)


# sink labels that sort first, in the middle and last: entities with no
# outgoing row, whose empty runs a row's subject lookup must step over
SINKS = ("!sink", "m sink", "\uffff sink")


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("source", ["iterable", "ingest"])
def test_store_matches_set_and_sort_reference(tmp_path, seed, source):
    rng = random.Random(seed)
    triples = tricky_triples(rng.randint(40, 160), rng)
    triples += multigraph_triples(30, rng.randint(40, 120), rng)
    triples += [Triple(rng.choice(("a", "v03", "z")), "into", sink) for sink in SINKS]
    want = ReferenceStore(triples)
    assert want.duplicate_count > 0 and want.self_loop_count > 0
    assert len({(t.subject, t.object) for t in want.triples}) < len(want.triples)  # parallel
    assert set(SINKS) <= want.nodes - {t.subject for t in want.triples}
    if source == "iterable":
        kg = KnowledgeGraph(iter(triples))
    else:
        path = tmp_path / "tricky.tsv"
        path.write_bytes(_as_tsv(triples, rng).encode("utf-8"))
        kg = KnowledgeGraph.ingest(path)
    # "a" and "a\x00" are distinct labels; "a\x00\x00" is in no triple
    for label in ("a", "a\x00", "a\x00\x00"):
        assert (label in kg) == (label in want.nodes)
    assert len(kg) == len(want.nodes)
    assert kg.nodes == want.nodes and type(kg.nodes) is frozenset
    assert kg.duplicate_count == want.duplicate_count
    assert kg.self_loop_count == want.self_loop_count
    assert kg.dump() == want.dump()
    for v in sorted(want.nodes):
        assert kg.neighbors(v) == want.neighbors(v)
        assert kg.structural_neighbors(v) == want.structural_neighbors(v)
        assert type(kg.structural_neighbors(v)) is frozenset
    assert kg.triples == want.triples
    assert type(kg.triples) is tuple and all(type(t) is Triple for t in kg.triples)
    # a row's subject is read from the row offsets; the store keeps no column
    assert "_s" not in vars(kg)


def test_neighbors_reads_incoming_rows_from_the_neighbours_out_rows():
    # a hub that twelve subjects point at, one of them under three parallel
    # predicates, and self-loops on the hub under two predicates; the hub's
    # own out rows are the only place its self-loops show up as incoming
    triples = [Triple(f"s{i:02d}", "points at", "hub") for i in range(12)]
    triples += [Triple("s03", predicate, "hub") for predicate in ("also", "more")]
    triples += [Triple("hub", predicate, "hub") for predicate in ("loops", "self")]
    triples += [Triple("hub", "points at", "s05"), Triple("s05", "points at", "s06")]
    want = ReferenceStore(triples)
    kg = KnowledgeGraph(iter(triples))
    for v in sorted(want.nodes):
        assert kg.neighbors(v) == want.neighbors(v)
    hub = kg.neighbors("hub")
    assert [e for e in hub if e[1] == "hub"] == [
        ("loops", "hub", "in"), ("loops", "hub", "out"),
        ("self", "hub", "in"), ("self", "hub", "out"),
    ]
    assert sum(e[2] == "in" for e in hub) == 12 + 2 + 2


def _path_triples(n):
    """A path over ``n`` entities, with a self-loop and a reversed edge at its end."""
    names = [f"n{i:05d}" for i in range(n)]
    triples = [Triple(a, "next", b) for a, b in zip(names, names[1:])]
    return triples + [Triple(names[-1], "loop", names[-1]), Triple(names[-1], "prev", names[-2])]


@pytest.mark.parametrize("n", [46_340, 46_341])
def test_neighbour_index_matches_set_and_sort_on_both_sides_of_the_32_bit_rule(n):
    # edge keys are packed as low * n + high and stored both ways: int32 while
    # n * n < 2**31, that is up to 46,340 entities, int64 above
    triples = _path_triples(n)
    kg = KnowledgeGraph(iter(triples))
    assert len(kg) == n and (n * n < 2**31) == (n == 46_340)
    nbrs = {v: set() for v in kg._labels}
    for t in triples:
        if t.subject != t.object:
            nbrs[t.subject].add(t.object)
            nbrs[t.object].add(t.subject)
    index = {v: i for i, v in enumerate(kg._labels)}
    want = [sorted(index[u] for u in nbrs[v]) for v in kg._labels]
    assert kg._nbr.tolist() == [u for nb in want for u in nb]
    assert kg._nbr_start.tolist() == [0] + list(accumulate(map(len, want)))
    assert kg._nbr.dtype == kg._nbr_start.dtype == np.int32


def _write_random_graph(path, n_entities, n_triples, seed):
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n_triples):
            s, o = rng.randrange(n_entities), rng.randrange(n_entities)
            fh.write(f"entity {s:06d}\trelation {rng.randrange(20):02d}\tentity {o:06d}\n")


def test_ingest_peak_memory_stays_near_what_the_store_keeps(tmp_path):
    # Every index frees its temporaries before the next one is built, so
    # ingest peaks at 1.46x the memory the store keeps on this graph, where
    # interning the labels sets the peak; keeping each stage's int64
    # temporaries alive to the end peaks near 1.9x.
    # tests/test_footprint.py checks a graph whose neighbour index sets it.
    path = tmp_path / "graph.tsv"
    _write_random_graph(path, 6_000, 24_000, seed=5)
    KnowledgeGraph.ingest(path)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kg = KnowledgeGraph.ingest(path)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * (after - before)


def test_store_sorts_by_columns_when_a_packed_key_would_overflow(monkeypatch):
    monkeypatch.setattr("fasttog.kg._KEY_LIMIT", 0)
    triples = tricky_triples(200, random.Random(9))
    want = ReferenceStore(triples)
    kg = KnowledgeGraph(triples)
    assert kg.triples == want.triples
    assert kg.duplicate_count == want.duplicate_count
    assert kg.dump() == want.dump()


def test_store_logs_collapsed_duplicates_and_self_loops(caplog):
    with caplog.at_level("WARNING", logger="fasttog.kg"):
        KnowledgeGraph([Triple("a", "r", "b"), Triple("a", "r", "b"), Triple("a", "r", "a")])
    assert [r.getMessage() for r in caplog.records] == [
        "collapsed 1 duplicate triple(s)",
        "graph contains 1 self-loop triple(s)",
    ]


# SHA-1 over 200 seeded extractions: their triples, adjacency, hop order and
# edge count. Pins the sampler's RNG draw order as well as its output.
EXTRACTION_SWEEP_DIGEST = "fa67aea89b5b6bb72c75af361fced09ac5d4f39d"


def extraction_sweep_digest() -> str:
    rng = random.Random(23)
    kg = multigraph(700, 3000, rng)
    names = sorted(kg.nodes)
    h = hashlib.sha1()
    for trial in range(200):
        center = rng.sample(names, rng.randint(1, 3))
        cfg = SamplerConfig(rho=rng.choice((1.0, 0.6, 0.3)), r_max=rng.randint(1, 3), seed=trial)
        g = extract_subgraph(kg, center, cfg)
        hops = list(g.hop_of.items())
        # the centers come first, in set order, which varies with the string
        # hash seed; everything after them is in discovery order
        hops = sorted(hops[: len(center)]) + hops[len(center) :]
        adj = sorted((v, sorted(ns)) for v, ns in label_adj(g).items())
        h.update(repr((g.triples, adj, hops, g.m)).encode("utf-8"))
    return h.hexdigest()


def test_extraction_sweep_digest_is_pinned():
    assert extraction_sweep_digest() == EXTRACTION_SWEEP_DIGEST
