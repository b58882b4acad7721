import random

import pytest

from fasttog import (
    Community,
    KnowledgeGraph,
    Partition,
    Triple,
    modularity_community,
    modularity_global,
    partition_dump,
)
from fasttog.community import validate_partition
from fasttog.errors import (
    InvalidCommunityError,
    InvalidPartitionError,
    ModularityUndefinedError,
)
from helpers import (
    eager_community_sums,
    eq1_direct,
    full_subgraph,
    random_graph,
    random_partition_sets,
)

TRIANGLE_1 = {"a", "b", "c"}
TRIANGLE_2 = {"d", "e", "f"}


def test_whole_graph_is_zero(triangles_g):
    p = Partition.from_member_sets([set(triangles_g.nodes)], triangles_g)
    assert modularity_global(p, triangles_g) == pytest.approx(0.0, abs=1e-12)


def test_bridged_triangles_partition(triangles_g):
    p = Partition.from_member_sets([TRIANGLE_1, TRIANGLE_2], triangles_g)
    # independent oracle: direct double-sum evaluation
    oracle = eq1_direct(triangles_g, [TRIANGLE_1, TRIANGLE_2])
    assert oracle == pytest.approx(5 / 14, abs=1e-12)
    assert modularity_global(p, triangles_g) == pytest.approx(oracle, abs=1e-12)


def test_triangle_community_score(triangles_g):
    c = Community.from_members(TRIANGLE_1, triangles_g)
    assert c.sigma_in == 6
    assert c.sigma_tot == 7
    assert modularity_community(c, triangles_g) == pytest.approx(2.5, abs=1e-12)


def test_single_edge_singletons():
    kg = KnowledgeGraph([Triple("u", "r", "v")])
    g = full_subgraph(kg)
    sets = [{"u"}, {"v"}]
    oracle = eq1_direct(g, sets)
    # the double-sum definition pins this at -0.5
    assert oracle == pytest.approx(-0.5, abs=1e-12)
    p = Partition.from_member_sets(sets, g)
    assert modularity_global(p, g) == pytest.approx(oracle, abs=1e-12)


def test_edgeless_graph_rejected():
    kg = KnowledgeGraph([Triple("x", "self", "x")])  # self-loop only: no structure
    g = full_subgraph(kg)
    p = Partition.from_member_sets([{"x"}], g)
    with pytest.raises(ModularityUndefinedError):
        modularity_global(p, g)


def test_whole_graph_community_scores_zero(triangles_g):
    c = Community.from_members(triangles_g.nodes, triangles_g)
    assert c.sigma_in == 2 * triangles_g.m
    assert c.sigma_tot == 2 * triangles_g.m
    assert modularity_community(c, triangles_g) == pytest.approx(0.0, abs=1e-12)


def test_isolated_in_structure_scores_zero():
    kg = KnowledgeGraph([Triple("a", "r", "b"), Triple("x", "self", "x")])
    g = full_subgraph(kg)
    c = Community.from_members({"x"}, g)
    assert c.sigma_in == 0 and c.sigma_tot == 0
    assert modularity_community(c, g) == pytest.approx(0.0)


def test_empty_community_rejected(triangles_g):
    with pytest.raises(InvalidCommunityError):
        Community.from_members(set(), triangles_g)


def test_members_outside_subgraph_rejected(triangles_g):
    with pytest.raises(InvalidCommunityError):
        Community.from_members({"a", "zz"}, triangles_g)


def test_per_community_sums_match_direct_double_sum():
    rng = random.Random(99)
    for trial in range(40):
        kg = random_graph(rng.randint(3, 25), 0.3, rng)
        g = full_subgraph(kg)
        if g.m == 0:
            continue
        sets = random_partition_sets(g.nodes, rng)
        p = Partition.from_member_sets(sets, g)
        assert modularity_global(p, g) == pytest.approx(
            eq1_direct(g, sets), abs=1e-9
        ), f"trial {trial}"


def test_scaling_identity(triangles_g):
    p = Partition.from_member_sets([TRIANGLE_1, TRIANGLE_2], triangles_g)
    total = sum(modularity_community(c, triangles_g) for c in p.communities)
    assert modularity_global(p, triangles_g) == pytest.approx(
        total / (2 * triangles_g.m), abs=1e-12
    )


def test_canonical_id_is_member_set_identity(triangles_g):
    c1 = Community.from_members({"a", "b", "c"}, triangles_g)
    c2 = Community.from_members({"c", "b", "a"}, triangles_g)
    c3 = Community.from_members({"a", "b"}, triangles_g)
    assert c1.canonical_id == c2.canonical_id
    assert c1.canonical_id != c3.canonical_id


def test_sigma_in_even_everywhere():
    rng = random.Random(7)
    for _ in range(20):
        kg = random_graph(rng.randint(3, 20), 0.35, rng)
        g = full_subgraph(kg)
        for block in random_partition_sets(g.nodes, rng):
            c = Community.from_members(block, g)
            assert c.sigma_in % 2 == 0
            assert c.sigma_tot >= c.sigma_in


def test_validate_partition_detects_overlap(triangles_g):
    a = Community.from_members({"a", "b", "c"}, triangles_g)
    b = Community.from_members({"c", "d", "e", "f"}, triangles_g)
    p = Partition((a.sorted_members, b.sorted_members), triangles_g)
    with pytest.raises(InvalidPartitionError):
        validate_partition(p, triangles_g.nodes)


def test_validate_partition_detects_gap(triangles_g):
    a = Community.from_members({"a", "b", "c"}, triangles_g)
    p = Partition((a.sorted_members,), triangles_g)
    with pytest.raises(InvalidPartitionError):
        validate_partition(p, triangles_g.nodes)


def test_partition_dump_format(triangles_g):
    p = Partition.from_member_sets([TRIANGLE_1, TRIANGLE_2], triangles_g)
    dump = partition_dump(p)
    lines = dump.strip().split("\n")
    assert lines[0] == "0\ta,b,c\t2.500000"
    assert lines[1] == "1\td,e,f\t2.500000"


def test_detect_hashes_no_canonical_id(monkeypatch):
    import fasttog.community as community_mod
    from fasttog import detect
    from fasttog.detect import DETECTOR_KINDS

    hashed = []
    real = community_mod.canonical_community_id

    def counting(members):
        hashed.append(members)
        return real(members)

    monkeypatch.setattr(community_mod, "canonical_community_id", counting)
    g = full_subgraph(random_graph(14, 0.3, random.Random(59)))
    for kind in DETECTOR_KINDS:
        p = detect(g, kind, 3, seed=1)
        assert hashed == []
        first = p.community(0)  # builds block 0 alone
        assert hashed == [first.members]  # hashed once, when built
        assert first.canonical_id == real(first.members)
        assert p.community(0) is first and hashed == [first.members]
        hashed.clear()


def test_detect_scores_no_community(monkeypatch):
    from fasttog import detect
    from fasttog.detect import DETECTOR_KINDS

    built = []
    real = Community.from_members.__func__

    def counting(cls, members, g):
        built.append(members)
        return real(cls, members, g)

    monkeypatch.setattr(Community, "from_members", classmethod(counting))
    g = full_subgraph(random_graph(14, 0.3, random.Random(61)))
    for kind in DETECTOR_KINDS:
        p = detect(g, kind, 3, seed=1)
        assert built == []
        first = p.communities[0]
        assert (first.sigma_in, first.sigma_tot, first.modularity) == eager_community_sums(
            first.members, g
        )
        built.clear()
