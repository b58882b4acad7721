import random

import pytest

from fasttog import KnowledgeGraph, NotFoundError, Subgraph, Triple, TripleFormatError
from fasttog.kg import SamplerConfig, extract_subgraph

from helpers import (
    bridged_triangles,
    multigraph,
    reference_adj,
    reference_between,
    reference_triples,
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
        assert g.m == len(g.structural_edges())


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


def test_extract_matches_full_scan_reference():
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
        want = reference_triples(kg, g.nodes)
        assert g.triples == want
        want_adj = reference_adj(g.nodes, want)
        assert g.adj == want_adj
        assert g.m == sum(len(s) for s in want_adj.values()) // 2
        members = sorted(g.nodes)
        for _ in range(5):
            left = frozenset(rng.sample(members, rng.randint(1, len(members))))
            right = frozenset(rng.sample(members, rng.randint(1, len(members))))
            assert g.intra_triples(left) == reference_between(want, left, left)
            # overlapping sets included: each triple is reported once
            assert g.triples_between(left, right) == reference_between(want, left, right)


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


def test_neighbors_match_reference_from_triples():
    kg = multigraph(30, 120, random.Random(61))
    assert kg.self_loop_count > 0
    for v in sorted(kg.nodes):
        want = sorted(
            [(t.predicate, t.object, "out") for t in kg.triples if t.subject == v]
            + [(t.predicate, t.subject, "in") for t in kg.triples if t.object == v]
        )
        assert kg.neighbors(v) == want
