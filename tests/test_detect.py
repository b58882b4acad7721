import hashlib
import random

import pytest

from fasttog import (
    Community,
    KnowledgeGraph,
    Partition,
    Triple,
    backtrack_to_size,
    detect,
    detect_full,
    modularity_global,
)
from fasttog.community import PartitionSnapshot, partition_dump
from fasttog.detect import (
    DETECTOR_KINDS,
    _hierarchical_states,
    _louvain_states,
    connected_components,
)

from helpers import eager_community_sums, eq1_direct, full_subgraph, multigraph, random_graph

STRUCTURAL_KINDS = ("louvain", "girvan_newman", "hierarchical", "spectral")


def member_sets(p: Partition):
    return sorted(c.sorted_members for c in p.communities)


def all_partitions(items):
    items = list(items)
    if len(items) == 1:
        yield [items]
        return
    first = items[0]
    for rest in all_partitions(items[1:]):
        for i in range(len(rest)):
            yield rest[:i] + [[first] + rest[i]] + rest[i + 1 :]
        yield [[first]] + rest


def test_louvain_triangles_matches_exhaustive_optimum(triangles_g):
    # oracle: best modularity over every partition with block sizes <= 4
    best, best_q = None, -10.0
    for part in all_partitions(sorted(triangles_g.nodes)):
        if any(len(b) > 4 for b in part):
            continue
        q = eq1_direct(triangles_g, [set(b) for b in part])
        if q > best_q:
            best_q, best = q, part
    assert sorted(tuple(sorted(b)) for b in best) == [("a", "b", "c"), ("d", "e", "f")]
    assert best_q == pytest.approx(5 / 14, abs=1e-12)

    p = detect(triangles_g, "louvain", 4, seed=3)
    assert member_sets(p) == [("a", "b", "c"), ("d", "e", "f")]
    assert modularity_global(p, triangles_g) == pytest.approx(best_q, abs=1e-9)


@pytest.mark.parametrize("kind", STRUCTURAL_KINDS)
def test_structural_detectors_find_triangles(triangles_g, kind):
    p = detect(triangles_g, kind, 4, seed=1)
    assert member_sets(p) == [("a", "b", "c"), ("d", "e", "f")]


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_m_max_one_gives_singletons(triangles_g, kind):
    p = detect(triangles_g, kind, 1, seed=0)
    assert all(len(c) == 1 for c in p.communities)
    assert len(p.communities) == 6


def test_random_detector_covers_with_bounded_sizes():
    rng = random.Random(0)
    kg = random_graph(9, 0.4, rng)
    g = full_subgraph(kg)
    p = detect(g, "random", 4, seed=11)
    assert p.node_set() == g.nodes
    assert all(1 <= len(c) <= 4 for c in p.communities)


def test_backtrack_returns_final_when_feasible(triangles_g):
    snaps = _size_snapshots(triangles_g, [[1, 1, 1, 1, 1, 1], [3, 3]])
    chosen = backtrack_to_size(snaps, 4)
    assert chosen.max_size() == 3


def test_backtrack_first_feasible_from_end(triangles_g):
    snaps = _size_snapshots(triangles_g, [[1] * 6, [3, 3], [5, 1], [6]])
    chosen = backtrack_to_size(snaps, 4)
    assert chosen.max_size() == 3


def test_backtrack_small_sizes(triangles_g):
    snaps = _size_snapshots(triangles_g, [[1] * 6, [2, 2, 2]])
    chosen = backtrack_to_size(snaps, 4)
    assert sorted(len(c) for c in chosen.communities) == [2, 2, 2]


def _size_snapshots(g, size_lists):
    """Build snapshot lists whose community sizes follow the given pattern."""
    nodes = sorted(g.nodes)
    snaps = []
    for step, sizes in enumerate(size_lists):
        assert sum(sizes) == len(nodes)
        blocks, i = [], 0
        for s in sizes:
            blocks.append(set(nodes[i : i + s]))
            i += s
        snaps.append(PartitionSnapshot(step, Partition.from_member_sets(blocks, g)))
    return snaps


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_chosen_state_equals_backtracked_snapshots(kind):
    rng = random.Random(17)
    for trial in range(8):
        kg = random_graph(rng.randint(5, 18), 0.3, rng)
        g = full_subgraph(kg)
        m_max = rng.choice([2, 3, 4])
        outcome = detect_full(g, kind, m_max, seed=trial)
        for comp in outcome.components:
            again = backtrack_to_size(comp.snapshots, m_max)
            assert member_sets(again) == member_sets(comp.chosen)
            # the finest recorded state is always feasible
            assert comp.snapshots[0].partition.max_size() <= max(m_max, 1) or (
                comp.snapshots[0].partition.max_size() == 1
            )


def test_louvain_snapshots_monotone_modularity():
    rng = random.Random(23)
    for trial in range(10):
        kg = random_graph(rng.randint(6, 22), 0.3, rng)
        g = full_subgraph(kg)
        outcome = detect_full(g, "louvain", len(g.nodes), seed=trial)
        for comp in outcome.components:
            if len(comp.nodes) < 2:
                continue
            comp_nodes = frozenset(comp.nodes)
            scores = []
            for snap in comp.snapshots:
                # restrict the oracle to this component's induced structure
                sets = [set(c.members) for c in snap.partition.communities]
                others = [{v} for v in g.nodes - comp_nodes]
                scores.append(eq1_direct(g, sets + others))
            assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))


def test_louvain_trajectory_steps_are_distinct_from_singletons():
    rng = random.Random(29)
    for trial in range(20):
        kg = random_graph(rng.randint(4, 30), rng.choice([0.1, 0.2, 0.3]), rng)
        g = full_subgraph(kg)
        outcome = detect_full(g, "louvain", rng.randint(2, 8), seed=trial)
        for comp in outcome.components:
            snaps = comp.snapshots
            assert [s.step_index for s in snaps] == list(range(len(snaps)))
            assert member_sets(snaps[0].partition) == [(v,) for v in comp.nodes]
            # every recorded move joins a node to a neighbour's block
            for a, b in zip(snaps, snaps[1:]):
                assert member_sets(a.partition) != member_sets(b.partition)


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_detect_builds_only_the_chosen_communities(kind, monkeypatch):
    calls = []
    real = Community.from_members.__func__

    def counting(cls, members, g):
        calls.append(frozenset(members))
        return real(cls, members, g)

    monkeypatch.setattr(Community, "from_members", classmethod(counting))
    rng = random.Random(43)
    for trial in range(6):
        kg = random_graph(rng.randint(8, 18), 0.3, rng)
        g = full_subgraph(kg)
        m_max = rng.choice([2, 3, 4])
        calls.clear()
        p = detect(g, kind, m_max, seed=trial)
        assert len(calls) == len(p)

        outcome = detect_full(g, kind, m_max, seed=trial)
        for comp in outcome.components:
            calls.clear()
            snaps = comp.snapshots
            rebuilt = sum(len(s.partition) for s in snaps if s.partition is not comp.chosen)
            assert len(calls) == rebuilt
            assert comp.snapshots is snaps  # built once, then cached
            assert backtrack_to_size(snaps, m_max) is comp.chosen


def test_girvan_newman_components_nondecreasing(triangles_g):
    outcome = detect_full(triangles_g, "girvan_newman", 6, seed=0)
    for comp in outcome.components:
        # snapshots run fine to coarse, so community counts shrink chronologically
        counts = [len(s.partition.communities) for s in reversed(comp.snapshots)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[0] == 1  # the whole component before any removal


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_determinism(kind):
    rng = random.Random(31)
    kg = random_graph(16, 0.3, rng)
    g = full_subgraph(kg)
    first = detect(g, kind, 4, seed=123)
    second = detect(g, kind, 4, seed=123)
    assert member_sets(first) == member_sets(second)


def test_disconnected_graph_communities_stay_within_components():
    triples = [
        Triple("a", "r", "b"),
        Triple("b", "r", "c"),
        Triple("a", "r", "c"),
        Triple("x", "r", "y"),
        Triple("y", "r", "z"),
        Triple("x", "r", "z"),
    ]
    kg = KnowledgeGraph(triples)
    g = full_subgraph(kg)
    comps = connected_components(g)
    assert len(comps) == 2
    for kind in DETECTOR_KINDS:
        p = detect(g, kind, 4, seed=2)
        assert p.node_set() == g.nodes
        for c in p.communities:
            assert any(c.members <= comp for comp in comps)


def test_size_constraint_randomized_mini():
    rng = random.Random(41)
    for trial in range(30):
        kg = random_graph(rng.randint(4, 16), 0.3, rng)
        g = full_subgraph(kg)
        kind = DETECTOR_KINDS[trial % len(DETECTOR_KINDS)]
        m_max = rng.choice([1, 2, 4, 8])
        p = detect(g, kind, m_max, seed=trial)
        assert p.max_size() <= m_max
        assert p.node_set() == g.nodes


def _ring_of_pairs(n=16):
    triples = []
    for i in range(n):
        triples.append(Triple(f"p{i:02d}a", "pair", f"p{i:02d}b"))
        triples.append(Triple(f"p{i:02d}b", "ring", f"p{(i+1) % n:02d}a"))
    return full_subgraph(KnowledgeGraph(triples))


def test_louvain_aggregates_beyond_first_level():
    # a ring of two-node cliques only reaches good modularity by merging
    # merged pairs again, i.e. via at least one aggregation round
    g = _ring_of_pairs()
    p = detect(g, "louvain", len(g.nodes), seed=0)
    assert all(len(c) >= 2 for c in p.communities)
    assert any(len(c) >= 4 for c in p.communities)
    assert modularity_global(p, g) > 0.6


def test_louvain_bounded_backtrack_beats_singletons():
    g = _ring_of_pairs()
    p = detect(g, "louvain", 4, seed=0)
    assert p.max_size() <= 4
    assert modularity_global(p, g) > 0.4  # singletons would be far below zero


def test_detect_rejects_bad_inputs(triangles_g):
    with pytest.raises(ValueError):
        detect(triangles_g, "unknown_kind", 4)
    with pytest.raises(ValueError):
        detect(triangles_g, "louvain", 0)


# SHA-1 over the louvain sweep below: the chosen partition's dump, then every
# snapshot's, per graph. Pinned from the label-keyed implementation, so a
# change of the state encoding may not move a single partition.
LOUVAIN_SWEEP_DIGEST = "01158225de5f238262eef6fc22d0c4ce1354b197"


def _louvain_sweep_graphs():
    rng = random.Random(2024)
    graphs = [_ring_of_pairs()] + [
        full_subgraph(random_graph(rng.randint(4, 60), rng.choice((0.05, 0.1, 0.2, 0.35)), rng))
        for _ in range(320)
    ]
    return [(g, rng.randint(1, 8)) for g in graphs]


def test_louvain_partitions_and_snapshots_match_pinned_digest():
    digest = hashlib.sha1()
    for trial, (g, m_max) in enumerate(_louvain_sweep_graphs()):
        outcome = detect_full(g, "louvain", m_max, seed=trial)
        digest.update(partition_dump(outcome.partition).encode())
        for comp in outcome.components:
            for snap in comp.snapshots:
                digest.update(partition_dump(snap.partition).encode())
    assert digest.hexdigest() == LOUVAIN_SWEEP_DIGEST


# SHA-1 over the hierarchical sweep below, built like the louvain one. Dense
# graphs (p >= 0.5) make tied Jaccard scores common, and the multigraphs add
# self-loops and parallel predicates; pinned from the full pair scan, so a
# faster merge loop may not move a single partition or tie-break.
HIERARCHICAL_SWEEP_DIGEST = "001de9c5210b348b26da43aca2f2908c8bf8e6fc"


def _hierarchical_sweep_graphs():
    rng = random.Random(2025)
    graphs = [
        full_subgraph(
            random_graph(rng.randint(2, 60), rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.6)), rng)
        )
        for _ in range(300)
    ] + [full_subgraph(multigraph(rng.randint(2, 40), rng.randint(1, 120), rng)) for _ in range(20)]
    return [(g, rng.randint(2, 8)) for g in graphs]


def test_hierarchical_partitions_and_snapshots_match_pinned_digest():
    digest = hashlib.sha1()
    for trial, (g, m_max) in enumerate(_hierarchical_sweep_graphs()):
        outcome = detect_full(g, "hierarchical", m_max, seed=trial)
        digest.update(partition_dump(outcome.partition).encode())
        for comp in outcome.components:
            for snap in comp.snapshots:
                digest.update(partition_dump(snap.partition).encode())
    assert digest.hexdigest() == HIERARCHICAL_SWEEP_DIGEST


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_detect_matches_detect_full_over_the_sweeps(kind):
    cases = _louvain_sweep_graphs() + _hierarchical_sweep_graphs()
    if kind in ("girvan_newman", "spectral"):  # the slow ones, on small graphs only
        cases = [(g, m_max) for g, m_max in cases if len(g.nodes) <= 20]
    for trial, (g, m_max) in enumerate(cases):
        full = detect_full(g, kind, m_max, seed=trial).partition
        assert partition_dump(detect(g, kind, m_max, seed=trial)) == partition_dump(full)


def test_bounded_hierarchical_states_stop_at_the_first_oversized_block():
    for g, m_max in _hierarchical_sweep_graphs():
        for comp in connected_components(g):
            full = _hierarchical_states(g, comp)
            bounded = _hierarchical_states(g, comp, m_max)
            assert bounded == full[: len(bounded)]
            over = [i for i, state in enumerate(full) if max(map(len, state)) > m_max]
            assert len(bounded) == (over[0] + 1 if over else len(full))


def _replayed(states):
    return [(state.max_size, sorted(map(sorted, state))) for state in states]


def test_bounded_louvain_states_stop_at_the_first_oversized_level():
    for trial, (g, m_max) in enumerate(_louvain_sweep_graphs()):
        for comp in connected_components(g):
            full = _louvain_states(g, comp, random.Random(trial))
            bounded = _louvain_states(g, comp, random.Random(trial), m_max)
            assert _replayed(bounded) == _replayed(full[: len(bounded)])
            assert all(state.max_size > m_max for state in full[len(bounded) :])
            # the stop falls at the end of the first level that ends oversized
            level_ends = [
                i for i, state in enumerate(full)
                if i + 1 == len(full) or full[i + 1].level is not state.level
            ]
            over = [i for i in level_ends if full[i].max_size > m_max]
            assert len(bounded) == (over[0] + 1 if over else len(full))


def _ring_and_random_graph(seed):
    """The ring of pairs (labels p..) and a random graph (labels q..) as two
    components, the ring first."""
    ring = _ring_of_pairs().triples
    other = random_graph(20, 0.2, random.Random(seed)).triples
    relabelled = [Triple("q" + t.subject, t.predicate, "q" + t.object) for t in other]
    return full_subgraph(KnowledgeGraph(list(ring) + relabelled))


def test_louvain_stops_early_only_on_the_last_component():
    m_max = 2  # the ring's first level ends with pairs, its second with bigger blocks
    for seed in range(3):
        g = _ring_and_random_graph(seed)
        first, second = connected_components(g)
        rng = random.Random(seed)
        _louvain_states(g, first, rng)
        unbounded = _replayed(_louvain_states(g, second, rng))
        rng = random.Random(seed)
        cut = _louvain_states(g, first, rng, m_max)
        assert len(cut) < len(_louvain_states(g, first, random.Random(seed)))
        # stopping the first component early would change the second's draws
        assert _replayed(_louvain_states(g, second, rng)) != unbounded
        bounded = detect(g, "louvain", m_max, seed=seed)
        full = detect_full(g, "louvain", m_max, seed=seed)
        assert partition_dump(bounded) == partition_dump(full.partition)
        assert member_sets(full.components[1].chosen) == [
            s for s in member_sets(bounded) if s[0].startswith("q")
        ]


def test_lazy_community_sums_match_the_eager_reference():
    for trial, (g, m_max) in enumerate(_louvain_sweep_graphs()):
        p = detect(g, "louvain", m_max, seed=trial)
        for i, c in enumerate(p.communities):
            again = Community.from_members(set(c.members), g)
            expected = eager_community_sums(c.members, g)
            if i % 2:  # read the sums before hashing or comparing
                assert (c.sigma_in, c.sigma_tot, c.modularity) == expected
            assert hash(c) == hash(again) == hash((c.members, *expected))
            assert c == again and not c != again
            assert (again.modularity, again.sigma_tot, again.sigma_in) == expected[::-1]
            assert (c.sigma_in, c.sigma_tot, c.modularity) == expected
        for a, b in zip(p.communities, p.communities[1:]):
            assert a != b


def test_louvain_states_track_size_and_move_one_level_node():
    rng = random.Random(47)
    for trial in range(40):
        kg = random_graph(rng.randint(4, 40), rng.choice((0.1, 0.2, 0.3)), rng)
        g = full_subgraph(kg)
        outcome = detect_full(g, "louvain", len(g.nodes), seed=trial)
        for comp in outcome.components:
            if len(comp.nodes) < 2:
                continue
            states = comp._states
            blocks = [[frozenset(b) for b in state] for state in states]
            for state, replayed in zip(states, blocks):
                assert state.max_size == max(map(len, replayed))
            for state, before, after in zip(states[1:], blocks, blocks[1:]):
                # the moved level node's members leave one block for another
                u, _c = state.level.moves[state.n_moves - 1]
                moved = frozenset(state.level.labels[i] for i in state.level.members[u])
                source = next(b for b in before if moved <= b)
                target = next(b for b in after if moved <= b)
                assert source != target
                rest_before = sorted(sorted(b - moved) for b in before if b - moved)
                rest_after = sorted(sorted(b - moved) for b in after if b - moved)
                assert rest_before == rest_after


def test_backtrack_without_a_feasible_snapshot_raises(triangles_g):
    snaps = _size_snapshots(triangles_g, [[3, 3], [6]])
    with pytest.raises(ValueError):
        backtrack_to_size(snaps, 2)
