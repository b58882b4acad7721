import hashlib
import importlib
import random
from itertools import accumulate

import numpy as np
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
from fasttog.community import partition_dump
from fasttog.detect import (
    DETECTOR_KINDS,
    _centres_linked,
    _girvan_newman_states,
    _hierarchical_states,
    _kmeans,
    _Level,
    _local_components,
    _louvain_states,
    _rank_nbrs,
    _read,
    _shuffle,
    connected_components,
)
from fasttog.kg import SamplerConfig, extract_subgraph

from helpers import (
    eager_community_sums,
    eq1_direct,
    full_subgraph,
    label_adj,
    lane_in_background,
    mixed_extractions,
    multigraph,
    random_graph,
    reference_components,
    reference_kmeans,
)

STRUCTURAL_KINDS = ("louvain", "girvan_newman", "hierarchical", "spectral")


@pytest.mark.parametrize("seed", range(8))
def test_kmeans_matches_the_per_cluster_mean_reference(seed):
    # unit rows as spectral embeds them; every other seed repeats a few rows
    # many times, so some draws start two centroids on one point and a
    # cluster empties
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(40, 4))
    if seed % 2:
        points = points[rng.integers(0, 5, size=40)]
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    for k in range(2, 9):
        got = _kmeans(points, k, np.random.default_rng([seed, k]))
        want = reference_kmeans(points, k, np.random.default_rng([seed, k]))
        assert got.tolist() == want.tolist()


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
    for sizes in size_lists:
        assert sum(sizes) == len(nodes)
        blocks, i = [], 0
        for s in sizes:
            blocks.append(set(nodes[i : i + s]))
            i += s
        snaps.append(Partition.from_member_sets(blocks, g))
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
            assert comp.snapshots[0].max_size() <= max(m_max, 1) or (
                comp.snapshots[0].max_size() == 1
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
                sets = [set(c.members) for c in snap.communities]
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
            assert member_sets(snaps[0]) == [(v,) for v in comp.nodes]
            # every recorded move joins a node to a neighbour's block
            for a, b in zip(snaps, snaps[1:]):
                assert member_sets(a) != member_sets(b)


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_detect_builds_only_the_chosen_communities(kind, monkeypatch):
    calls = []
    real = Community.from_members.__func__

    def counting(cls, members, g):
        calls.append(tuple(members))
        return real(cls, members, g)

    monkeypatch.setattr(Community, "from_members", classmethod(counting))
    rng = random.Random(43)
    for trial in range(6):
        kg = random_graph(rng.randint(8, 18), 0.3, rng)
        g = full_subgraph(kg)
        m_max = rng.choice([2, 3, 4])
        calls.clear()
        p = detect(g, kind, m_max, seed=trial)
        assert calls == []  # detection builds no community
        built = p.communities
        assert calls == list(p.blocks)  # reading builds each block once
        assert all(a is b for a, b in zip(p.communities, built))
        assert len(calls) == len(p)

        calls.clear()
        outcome = detect_full(g, kind, m_max, seed=trial)
        assert calls == []  # recording the trajectories builds no community
        for comp in outcome.components:
            snaps = comp.snapshots
            assert backtrack_to_size(snaps, m_max) is comp.chosen
            calls.clear()
            for snap in snaps:
                snap.communities
            assert len(calls) == sum(map(len, snaps))


def test_inline_shuffle_draws_as_random_shuffle():
    for seed in range(20):
        want, got = random.Random(seed), random.Random(seed)
        for n in range(301):
            expected, order = list(range(n)), list(range(n))
            want.shuffle(expected)
            _shuffle(order, got.getrandbits)
            assert order == expected
            assert got.getstate() == want.getstate()


def test_girvan_newman_components_nondecreasing(triangles_g):
    outcome = detect_full(triangles_g, "girvan_newman", 6, seed=0)
    for comp in outcome.components:
        # snapshots run fine to coarse, so community counts shrink chronologically
        counts = [len(s.communities) for s in reversed(comp.snapshots)]
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
                digest.update(partition_dump(snap).encode())
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
                digest.update(partition_dump(snap).encode())
    assert digest.hexdigest() == HIERARCHICAL_SWEEP_DIGEST


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_detect_matches_detect_full_over_the_sweeps(kind):
    cases = _louvain_sweep_graphs() + _hierarchical_sweep_graphs()
    if kind in ("girvan_newman", "spectral"):  # the slow ones, on small graphs only
        cases = [(g, m_max) for g, m_max in cases if len(g.nodes) <= 20]
    for trial, (g, m_max) in enumerate(cases):
        full = detect_full(g, kind, m_max, seed=trial).partition
        assert partition_dump(detect(g, kind, m_max, seed=trial)) == partition_dump(full)


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
def test_detect_matches_detect_full_on_multi_component_extractions(kind):
    cases = 0
    for trial, (_kg, _center, _cfg, g) in enumerate(mixed_extractions(37, 60)):
        comps = reference_components(label_adj(g))
        if len(comps) < 2 or (kind in ("girvan_newman", "spectral") and len(g) > 20):
            continue
        cases += 1
        m_max = 2 + trial % 3
        full = detect_full(g, kind, m_max, seed=trial)
        assert [frozenset(c.nodes) for c in full.components] == comps
        assert partition_dump(detect(g, kind, m_max, seed=trial)) == partition_dump(full.partition)
    assert cases >= 5


def _lane_extractions():
    """Extractions on lane graphs around several centers: a whole clique (its
    centers linked), a clique node with background nodes, or a few background
    nodes (their centers seldom linked)."""
    for seed in range(12):
        kg, _start, _target = lane_in_background(n_background=80, seed=seed)
        rng = random.Random(seed)
        back = sorted(v for v in kg.nodes if v.startswith("bg"))
        clique = [f"c{seed % 6}m{i}" for i in range(4)]
        for trial, center in enumerate((
            clique,
            [clique[0]] + rng.sample(back, 2),
            rng.sample(back, rng.randint(2, 4)),
        )):
            cfg = SamplerConfig(rho=(1.0, 0.6)[trial % 2], r_max=rng.randint(1, 2), seed=seed)
            yield extract_subgraph(kg, center, cfg)


def test_components_are_searched_only_when_the_centres_are_not_linked():
    linked = searched = 0
    graphs = [g for _kg, _center, _cfg, g in mixed_extractions(37, 60)]
    for g in graphs + list(_lane_extractions()):
        labels = g.labels
        got = [frozenset(map(labels.__getitem__, comp)) for comp in _local_components(g)]
        assert got == reference_components(label_adj(g))
        if g.n_centres > 1:
            centres_linked = _centres_linked(g)
            linked += centres_linked
            searched += not centres_linked
            assert len(got) == 1 or not centres_linked
    assert linked >= 10 and searched >= 10, (linked, searched)


def test_detect_builds_a_state_only_for_each_component_pick(monkeypatch):
    detect_module = importlib.import_module("fasttog.detect")
    real = detect_module._Level.label_blocks
    built = [0]

    def counting(level, *args):
        built[0] += 1
        return real(level, *args)

    monkeypatch.setattr(detect_module._Level, "label_blocks", counting)
    for trial, (g, m_max) in enumerate(_louvain_sweep_graphs()):
        built[0] = 0
        detect(g, "louvain", m_max, seed=trial)
        assert built[0] == len(_local_components(g))
        built[0] = 0
        outcome = detect_full(g, "louvain", m_max, seed=trial)
        assert built[0] == sum(len(comp.snapshots) for comp in outcome.components)


def _states(levels):
    """Every state of the records ``levels``, in order, as (record, index)."""
    return [(level, i) for level in levels for i in range(len(level.sizes))]


def _pulled(stream, m_max, coarse_to_fine):
    """The states a bounded read pulls from ``stream``, in the stream's order."""
    levels, _step = _read(stream, m_max, coarse_to_fine, True)
    return _states(levels[::-1] if coarse_to_fine else levels)


def _replayed(states, n):
    """Each state's largest block and its blocks over the ranks ``range(n)``."""
    return [(level.sizes[i], sorted(level.label_blocks(i, range(n)))) for level, i in states]


def test_bounded_hierarchical_states_stop_at_the_first_oversized_block():
    for g, m_max in _hierarchical_sweep_graphs():
        for comp in _local_components(g):
            nbrs = _rank_nbrs(g, comp)
            full = _replayed(_states(_hierarchical_states(nbrs, m_max, None)), len(nbrs))
            bounded = _pulled(_hierarchical_states(nbrs, m_max, None), m_max, False)
            bounded = _replayed(bounded, len(nbrs))
            assert bounded == full[: len(bounded)]
            assert all(size == max(map(len, blocks)) for size, blocks in full)
            over = [i for i, (size, _blocks) in enumerate(full) if size > m_max]
            assert len(bounded) == (over[0] + 1 if over else len(full))


def test_bounded_girvan_newman_states_stop_at_the_first_state_that_fits():
    rng = random.Random(24)
    graphs = [full_subgraph(random_graph(rng.randint(2, 24), rng.choice((0.1, 0.2, 0.4)), rng))
              for _ in range(40)]
    graphs += [full_subgraph(multigraph(rng.randint(2, 20), rng.randint(1, 50), rng)) for _ in range(10)]
    stopped = 0
    for g in graphs:
        m_max = rng.randint(2, 6)
        for comp in _local_components(g):
            nbrs = _rank_nbrs(g, comp)
            # coarse to fine
            full = _replayed(_states(_girvan_newman_states(nbrs, m_max, None)), len(nbrs))
            bounded = _pulled(_girvan_newman_states(nbrs, m_max, None), m_max, True)
            bounded = _replayed(bounded, len(nbrs))
            assert bounded == full[: len(bounded)]
            assert all(size == max(map(len, blocks)) for size, blocks in full)
            sizes = [size for size, _blocks in bounded]
            assert sizes[-1] <= m_max and all(size > m_max for size in sizes[:-1])
            stopped += len(bounded) < len(full)
    assert stopped > 10


def test_bounded_louvain_states_stop_at_the_first_oversized_level():
    for trial, (g, m_max) in enumerate(_louvain_sweep_graphs()):
        for comp in _local_components(g):
            nbrs = _rank_nbrs(g, comp)
            levels = list(_louvain_states(nbrs, m_max, random.Random(trial)))
            full = _states(levels)
            bounded = _pulled(_louvain_states(nbrs, m_max, random.Random(trial)), m_max, False)
            assert _replayed(bounded, len(nbrs)) == _replayed(full[: len(bounded)], len(nbrs))
            assert all(level.sizes[j] > m_max for level, j in full[len(bounded) :])
            # the singletons and each level's last state end a record, and no
            # other: the next state, if any, is on another level's move log
            level_ends = [
                i for i, (level, _j) in enumerate(full)
                if i + 1 == len(full) or full[i + 1][0].moves is not level.moves
            ]
            ends = [end - 1 for end in accumulate(len(level.sizes) for level in levels)]
            assert ends == level_ends
            # the stop falls at the end of the first level that ends oversized
            over = [i for i in level_ends if full[i][0].sizes[full[i][1]] > m_max]
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
        first, second = (_rank_nbrs(g, comp) for comp in _local_components(g))
        rng = random.Random(seed)
        drained = _states(_louvain_states(first, m_max, rng))
        unbounded = _replayed(_states(_louvain_states(second, m_max, rng)), len(second))
        rng = random.Random(seed)
        cut = _pulled(_louvain_states(first, m_max, rng), m_max, False)
        assert len(cut) < len(drained)
        # stopping the first component early would change the second's draws
        assert _replayed(_states(_louvain_states(second, m_max, rng)), len(second)) != unbounded
        bounded = detect(g, "louvain", m_max, seed=seed)
        full = detect_full(g, "louvain", m_max, seed=seed)
        assert partition_dump(bounded) == partition_dump(full.partition)
        assert member_sets(full.components[1].chosen) == [
            s for s in member_sets(bounded) if s[0].startswith("q")
        ]


def _hand_built(sizes, ends=None):
    """Records of states with these largest blocks, each record ending at an
    index in ``ends``; one record per state when it is None."""
    levels, start = [], 0
    for end in range(len(sizes)) if ends is None else sorted(ends):
        levels.append(_Level({}, [], sizes[start : end + 1]))
        start = end + 1
    return levels


def test_the_pick_is_the_last_state_that_fits_read_fine_to_coarse():
    # one louvain level whose largest block goes 1, 3, 5, 4, 6: a move brings
    # it back to 4, so the pick is that state, not the 3 before the first
    # oversized one; only the level's last state ends a record
    level = _hand_built([1, 3, 5, 4, 6], ends={0, 4})
    for stop in (False, True):
        assert _read(iter(level), 4, False, stop) == (level, 3)
    # an oversized record end stops a bounded read after the first 3 states;
    # drained, the pick is the same
    levels = _hand_built([1, 3, 5, 6, 7], ends={0, 2, 4})
    assert _read(iter(levels), 4, False, True) == (levels[:2], 1)
    assert len(_states(levels[:2])) == 3
    assert _read(iter(levels), 4, False, False) == (levels, 1)
    merges = _hand_built([1, 2, 5, 6])  # hierarchical: one state per record
    assert _read(iter(merges), 4, False, True) == (merges[:3], 1)
    # a coarse-to-fine stream picks its first state that fits, bounded or drained
    splits = _hand_built([6, 5, 3, 2, 1])
    assert _read(iter(splits), 4, True, True) == (splits[2::-1], 0)
    assert _read(iter(splits), 4, True, False) == (splits[::-1], 2)
    # only the finest state fits
    assert _read(iter(_hand_built([1, 5])), 2, False, True)[1] == 0
    finest = _hand_built([6, 5, 1])
    assert _read(iter(finest), 2, True, True) == (finest[::-1], 0)


def test_louvain_picks_past_its_first_oversized_state_on_the_sweeps():
    later = components = 0
    for trial, (g, m_max) in enumerate(_louvain_sweep_graphs() + _hierarchical_sweep_graphs()):
        for comp in detect_full(g, "louvain", m_max, seed=trial).components:
            components += 1
            snapshots = comp.snapshots
            over = [i for i, snap in enumerate(snapshots) if snap.max_size() > m_max]
            later += bool(over) and snapshots.index(comp.chosen) > over[0]
    assert (later, components) == (19, 889)


# States that detect pulls per detector, over each sweep: louvain and
# hierarchical over their own sweeps, then every detector over
# _detector_sweep_cases (Girvan-Newman and spectral on graphs of <= 30 nodes).
# Pinned from the bounded state lists the detectors returned before they
# became streams, so a stream pulled past its stop, or cut short, fails here.
PULLED_STATES = {
    "louvain sweep": 9616,
    "hierarchical sweep": 3848,
    "louvain": 1115,
    "girvan_newman": 510,
    "hierarchical": 592,
    "spectral": 418,
    "random": 288,
}


def test_detect_pulls_each_stream_up_to_its_stop(monkeypatch):
    detect_module = importlib.import_module("fasttog.detect")
    read = detect_module._read
    pulled = [0]

    def counting_read(stream, *args):
        def counted():
            for level in stream:
                pulled[0] += len(level.sizes)
                yield level

        return read(counted(), *args)

    monkeypatch.setattr(detect_module, "_read", counting_read)

    def pulls(kind, cases, max_nodes=None):
        pulled[0] = 0
        for trial, (g, m_max) in enumerate(cases):
            if max_nodes is None or len(g) <= max_nodes:
                detect(g, kind, m_max, seed=trial)
        return pulled[0]

    sweep = _detector_sweep_cases()
    got = {
        "louvain sweep": pulls("louvain", _louvain_sweep_graphs()),
        "hierarchical sweep": pulls("hierarchical", _hierarchical_sweep_graphs()),
    }
    for kind in DETECTOR_KINDS:
        got[kind] = pulls(kind, sweep, 30 if kind in ("girvan_newman", "spectral") else None)
    assert got == PULLED_STATES


def test_community_sums_match_the_eager_reference():
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
        # the components share one generator, as in detect
        louvain_rng = random.Random(trial)
        for comp in _local_components(g):
            if len(comp) < 2:
                continue  # detect draws nothing for a singleton
            states = _states(_louvain_states(_rank_nbrs(g, comp), len(g.nodes), louvain_rng))
            ranks = range(len(comp))
            blocks = [[frozenset(b) for b in level.label_blocks(i, ranks)] for level, i in states]
            for (level, i), replayed in zip(states, blocks):
                assert level.sizes[i] == max(map(len, replayed))
            for (level, i), before, after in zip(states[1:], blocks, blocks[1:]):
                # the moved level node's members leave one block for another
                u, _c = level.moves[level.n_moves(i) - 1]
                moved = frozenset(level.members[u])
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


# SHA-1 per detector over the sweep below: for each case, the chosen
# partition's dump, then each component's nodes and every snapshot's dump.
# Pinned from the label-adjacency implementation of these detectors, so
# running them on local indices may not move a single partition, snapshot or
# tie-break. Hierarchical is hashed on the multi-component cases only; its
# own sweep above covers the rest.
DETECTOR_SWEEP_DIGEST = {
    "girvan_newman": "18c78630a63c922bc23b2d8c966dc6e9c5c57e91",
    "hierarchical": "209c0a2aedbca420b65b5aeee9c880b40e566ba0",
    "spectral": "41724311da108b338a6e15043608f28368144be0",
    "random": "34c3a5a0d3ea93ce99cd5bd29b965166d29e9c8c",
}


def _detector_sweep_cases():
    rng = random.Random(2026)
    cases = [g for _kg, _center, _cfg, g in mixed_extractions(41, 50)]
    cases += [full_subgraph(random_graph(rng.randint(2, 24), rng.choice((0.1, 0.2, 0.4)), rng))
              for _ in range(30)]
    cases += [full_subgraph(multigraph(rng.randint(2, 24), rng.randint(1, 50), rng))
              for _ in range(20)]
    return [(g, rng.randint(2, 6)) for g in cases]


@pytest.mark.parametrize("kind", sorted(DETECTOR_SWEEP_DIGEST))
def test_detector_sweep_matches_pinned_digest(kind):
    digest = hashlib.sha1()
    for trial, (g, m_max) in enumerate(_detector_sweep_cases()):
        if kind in ("girvan_newman", "spectral") and len(g) > 30:
            continue
        full = detect_full(g, kind, m_max, seed=trial)
        if kind == "hierarchical" and len(full.components) < 2:
            continue
        dump = partition_dump(full.partition)
        assert partition_dump(detect(g, kind, m_max, seed=trial)) == dump
        digest.update(dump.encode())
        for comp in full.components:
            digest.update(repr(comp.nodes).encode())
            for snap in comp.snapshots:
                digest.update(partition_dump(snap).encode())
    assert digest.hexdigest() == DETECTOR_SWEEP_DIGEST[kind]
