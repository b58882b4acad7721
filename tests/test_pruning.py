import random

import pytest

from fasttog import (
    Community,
    KnowledgeGraph,
    Partition,
    ScriptedGateway,
    Triple,
    candidate_communities,
    coarse_prune,
    detect,
    fine_prune,
    random_prune,
)
from fasttog.errors import ReplyParseError
from fasttog.kg import SamplerConfig, extract_subgraph
from fasttog.pruning import CandidateCommunity
from fasttog.verbalize import triple2text

from helpers import Counting, full_subgraph, multigraph, reference_candidates

TRIANGLE_1 = {"a", "b", "c"}
TRIANGLE_2 = {"d", "e", "f"}


@pytest.fixture
def triangle_partition(triangles_g):
    return Partition.from_member_sets([TRIANGLE_1, TRIANGLE_2], triangles_g)


def t2t_verbalizer(g):
    return lambda cand: triple2text(cand.community, cand.bridge_edges, g)


def test_candidates_on_triangles(triangles_g, triangle_partition):
    current = Community.from_members(TRIANGLE_1, triangles_g)
    cands = candidate_communities(triangle_partition, current, set(), triangles_g)
    assert len(cands) == 1
    assert cands[0].community.sorted_members == ("d", "e", "f")
    assert cands[0].bridge_edges == (Triple("c", "bridge", "d"),)
    assert cands[0].modularity == pytest.approx(2.5)


def test_candidates_exclude_history(triangles_g, triangle_partition):
    current = Community.from_members(TRIANGLE_1, triangles_g)
    h = set()
    h.add(Community.from_members(TRIANGLE_2, triangles_g).canonical_id)
    assert candidate_communities(triangle_partition, current, h, triangles_g) == []


def test_candidates_require_direct_edge():
    # path of three communities: far one has no edge to the current one
    triples = [
        Triple("a", "r", "b"),
        Triple("b", "r", "mid"),
        Triple("mid", "r", "x"),
        Triple("x", "r", "y"),
    ]
    kg = KnowledgeGraph(triples)
    g = full_subgraph(kg)
    p = Partition.from_member_sets([{"a", "b"}, {"mid"}, {"x", "y"}], g)
    current = Community.from_members({"a", "b"}, g)
    cands = candidate_communities(p, current, set(), g)
    assert [c.community.sorted_members for c in cands] == [("mid",)]


def test_candidates_with_overlapping_community(triangles_g):
    # re-detection absorbed a current member: bridges come from novel members
    p = Partition.from_member_sets([{"a", "b"}, {"c", "d", "e", "f"}], triangles_g)
    current = Community.from_members({"b", "c"}, triangles_g)
    cands = candidate_communities(p, current, set(), triangles_g)
    by_members = {c.community.sorted_members: c for c in cands}
    assert ("c", "d", "e", "f") in by_members
    bridge = by_members[("c", "d", "e", "f")].bridge_edges
    assert Triple("c", "bridge", "d") in bridge  # novel d touching current c


def test_coarse_prune_orders_and_truncates(triangles_g):
    def cand(members, q):
        c = Community.from_members(members, triangles_g)
        return CandidateCommunity(c, (Triple("a", "r", "b"),), q)

    c1, c2, c3 = cand({"a"}, 2.5), cand({"b"}, 1.0), cand({"c"}, -0.5)
    assert coarse_prune([c3, c1, c2], 2) == [c1, c2]
    assert coarse_prune([c1], 5) == [c1]


def test_coarse_prune_tie_breaks_on_canonical_id(triangles_g):
    def cand(members):
        c = Community.from_members(members, triangles_g)
        return CandidateCommunity(c, (Triple("a", "r", "b"),), 0.0)

    cands = [cand({"e"}), cand({"d"}), cand({"f"})]
    ids = sorted(c.community.canonical_id for c in cands)
    kept = coarse_prune(cands, 1)
    assert kept[0].community.canonical_id == ids[0]


def test_random_prune_is_seeded_subset(triangles_g):
    def cand(members):
        c = Community.from_members(members, triangles_g)
        return CandidateCommunity(c, (Triple("a", "r", "b"),), 0.0)

    cands = [cand({x}) for x in "abcdef"]
    first = random_prune(cands, 2, random.Random(5))
    second = random_prune(cands, 2, random.Random(5))
    assert first == second
    assert len(first) == 2
    assert all(c in cands for c in first)
    assert random_prune(cands[:2], 4, random.Random(0)) == cands[:2]


def _cands_for_fine(triangles_g, n):
    out = []
    for members in ({"d"}, {"e"}, {"f"}):
        c = Community.from_members(members, triangles_g)
        out.append(CandidateCommunity(c, (Triple("c", "bridge", "d"),), c.modularity))
    return out[:n]


def test_fine_prune_single_choice(triangles_g):
    gw = Counting(ScriptedGateway(["A"]))
    cands = _cands_for_fine(triangles_g, 3)
    out = fine_prune("q?", cands, [], gw, 1, verbalizer=t2t_verbalizer(triangles_g))
    assert not out.none_selected
    assert out.chosen == (cands[0],)
    assert gw.ledger.counts()["pruning"] == 1


def test_fine_prune_multi_choice_partial(triangles_g):
    gw = ScriptedGateway(["A, C"])
    cands = _cands_for_fine(triangles_g, 3)
    out = fine_prune("q?", cands, [], gw, 3, verbalizer=t2t_verbalizer(triangles_g))
    assert [c.community.sorted_members for c in out.chosen] == [("d",), ("f",)]
    assert len(out.chosen) == 2


def test_fine_prune_none_reply(triangles_g):
    gw = ScriptedGateway(["None of the above"])
    cands = _cands_for_fine(triangles_g, 2)
    out = fine_prune("q?", cands, [], gw, 1, verbalizer=t2t_verbalizer(triangles_g))
    assert out.none_selected
    assert out.chosen == ()


def test_fine_prune_unparseable_carries_raw_reply(triangles_g):
    gw = ScriptedGateway(["total nonsense 123"])
    cands = _cands_for_fine(triangles_g, 2)
    with pytest.raises(ReplyParseError) as err:
        fine_prune("q?", cands, [], gw, 1, verbalizer=t2t_verbalizer(triangles_g))
    assert err.value.raw_reply == "total nonsense 123"


def test_fine_prune_issues_exactly_one_call(triangles_g):
    gw = Counting(ScriptedGateway(["B", "A"]))
    cands = _cands_for_fine(triangles_g, 3)
    fine_prune("q?", cands, [], gw, 1, verbalizer=t2t_verbalizer(triangles_g))
    assert sum(gw.ledger.counts().values()) == 1


def test_fine_prune_single_candidate_still_consults(triangles_g):
    gw = Counting(ScriptedGateway(["None"]))
    cands = _cands_for_fine(triangles_g, 1)
    out = fine_prune("q?", cands, [], gw, 1, verbalizer=t2t_verbalizer(triangles_g))
    assert out.none_selected
    assert gw.ledger.counts()["pruning"] == 1


def test_fine_prune_requires_candidates(triangles_g):
    with pytest.raises(ValueError):
        fine_prune("q?", [], [], ScriptedGateway(["A"]), 1, verbalizer=lambda c: None)


def test_coarse_prune_properties(triangles_g):
    rng = random.Random(3)
    singles = [Community.from_members({x}, triangles_g) for x in "abcdef"]
    for _ in range(50):
        cands = [
            CandidateCommunity(c, (Triple("a", "r", "b"),), rng.uniform(-3, 3))
            for c in rng.sample(singles, rng.randint(1, 6))
        ]
        k = rng.randint(1, 8)
        kept = coarse_prune(cands, k)
        assert len(kept) <= k
        assert all(c in cands for c in kept)
        scores = [c.modularity for c in kept]
        assert scores == sorted(scores, reverse=True)


def _candidate_cases(rng):
    """(partition, current, history, subgraph) around seeded extractions."""
    kg = multigraph(70, 180, rng)
    names = sorted(kg.nodes)
    for trial in range(40):
        center = rng.sample(names, rng.randint(1, 3))
        g = extract_subgraph(kg, center, SamplerConfig(r_max=rng.randint(1, 2), seed=trial))
        kind = rng.choice(("louvain", "hierarchical", "random"))
        p = detect(g, kind, rng.randint(1, 5), seed=trial)
        ids = [c.canonical_id for c in p.communities]
        members = sorted(g.nodes)
        currents = [
            frozenset(center),  # the walk's own centre
            rng.choice(p.communities).members,  # a block of the partition
            frozenset(rng.sample(members, rng.randint(1, min(6, len(members))))),
        ]
        big = [c for c in p.communities if len(c) > 1]
        if big:
            # a current community absorbed into a larger block by re-detection
            block = sorted(rng.choice(big).members)
            currents.append(frozenset(block[: rng.randint(1, len(block) - 1)]))
        for cur in currents:
            h = set(rng.sample(ids, rng.randint(0, len(ids) // 2)))
            yield p, Community.from_members(cur, g), h, g


def test_candidates_match_brute_force_scan():
    rng = random.Random(53)
    seen = 0
    for p, current, h, g in _candidate_cases(rng):
        got = candidate_communities(p, current, h, g)
        assert got == reference_candidates(p, current, h, g)
        seen += len(got)
    assert seen > 100  # the sweep reaches non-trivial candidate sets
