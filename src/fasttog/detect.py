"""Size-constrained community detection with snapshot backtracking.

Five detectors share one driver contract: run the algorithm on each connected
component to its natural stop, record the state trajectory ordered from
finest to coarsest, then walk the trajectory from the coarse end back toward
the fine end and keep the first state whose communities all fit within the
size bound. The finest state is always all singletons, so a feasible state
always exists for any bound >= 1.

States are recorded compactly: the scan reads only each state's largest
block size, so only the chosen state of each component becomes a
:class:`Partition`. The full snapshot list of a component is built on first
access to :attr:`ComponentTrace.snapshots`.

Trajectory recording per detector:

* louvain      -- singletons, then one state per accepted local move
                  (across aggregation levels), so the trajectory passes
                  through every intermediate grouping. Each level logs its
                  moves once; a state is a move count on its level plus its
                  largest block size, and is replayed into member sets on
                  demand, only when chosen or inspected.
* girvan_newman -- edge removals by highest betweenness down to the empty
                  graph; one state per change of the component structure,
                  recorded in reverse removal order so the list still runs
                  fine to coarse.
* hierarchical -- singletons, then one state per merge (average-linkage
                  over shared-neighbor Jaccard similarity; only clusters
                  joined by at least one edge may merge).
* spectral     -- normalized-Laplacian embedding with seeded k-means; k is
                  swept upward from 1 and the sweep stops at the first k
                  whose clusters all fit, so the chosen state is the
                  smallest feasible k.
* random       -- seeded shuffle chunked into blocks of random size <= bound
                  (structure-blind baseline).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .community import Partition, PartitionSnapshot, validate_partition
from .kg import EntityId, Subgraph

DETECTOR_KINDS = ("louvain", "girvan_newman", "hierarchical", "spectral", "random")


@dataclass
class ComponentTrace:
    """Recorded trajectory and chosen state for one connected component.

    ``snapshots`` is built from the recorded states on first access and then
    cached; the chosen step's snapshot holds the ``chosen`` object itself.
    """

    nodes: tuple[EntityId, ...]
    chosen: Partition
    _states: list = field(repr=False)
    _chosen_step: int
    _g: Subgraph = field(repr=False)

    @cached_property
    def snapshots(self) -> list[PartitionSnapshot]:
        return [
            PartitionSnapshot(
                i,
                self.chosen
                if i == self._chosen_step
                else Partition.from_member_sets(state, self._g),
            )
            for i, state in enumerate(self._states)
        ]


@dataclass
class DetectionOutcome:
    partition: Partition
    components: list[ComponentTrace]


def connected_components(g: Subgraph) -> list[frozenset[EntityId]]:
    """Structural components of the subgraph, ordered by smallest member."""
    return [frozenset(block) for block in _components_of(g.adj)]


def backtrack_to_size(snapshots: list[PartitionSnapshot], m_max: int) -> Partition:
    """First feasible state scanning from the last snapshot toward the first.

    Every detector trajectory starts from a state that fits, so a list with
    no feasible snapshot raises ``ValueError``.
    """
    for snap in reversed(snapshots):
        if snap.partition.max_size() <= m_max:
            return snap.partition
    raise ValueError(f"no snapshot fits the size bound {m_max}")


def detect(g: Subgraph, kind: str, m_max: int, seed: int = 0) -> Partition:
    """Partition ``g`` with every community size <= ``m_max``."""
    return detect_full(g, kind, m_max, seed).partition


def detect_full(g: Subgraph, kind: str, m_max: int, seed: int = 0) -> DetectionOutcome:
    """Like :func:`detect` but keeps per-component trajectories for inspection."""
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector kind: {kind!r}")
    if not g.nodes:
        raise ValueError("subgraph is empty")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")

    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    traces: list[ComponentTrace] = []
    chosen_communities = []
    for comp in connected_components(g):
        states = _component_states(g, comp, kind, m_max, rng, np_rng)
        # the same scan as backtrack_to_size, on block sizes alone; the
        # finest state always fits, so the scan always stops
        step = next(
            i for i in reversed(range(len(states))) if _largest_block(states[i]) <= m_max
        )
        chosen = Partition.from_member_sets(states[step], g)
        traces.append(ComponentTrace(tuple(sorted(comp)), chosen, states, step, g))
        chosen_communities.extend(chosen.communities)

    partition = Partition(
        tuple(sorted(chosen_communities, key=lambda c: c.sorted_members)), g.m
    )
    validate_partition(partition, g.nodes)
    return DetectionOutcome(partition, traces)


def _largest_block(state) -> int:
    # louvain labellings track their largest block; other states are set lists
    return state.max_size if isinstance(state, _Labelling) else max(map(len, state))


def _component_states(g, comp, kind, m_max, rng, np_rng):
    if len(comp) == 1 or m_max == 1:
        # singletons are the only feasible state; skip the algorithms
        return [[{v} for v in sorted(comp)]]
    if kind == "louvain":
        return _louvain_states(g, comp, rng)
    if kind == "girvan_newman":
        return _girvan_newman_states(g, comp)
    if kind == "hierarchical":
        return _hierarchical_states(g, comp)
    if kind == "spectral":
        return _spectral_states(g, comp, m_max, np_rng)
    return _random_states(comp, m_max, rng)


# -- louvain ----------------------------------------------------------------


@dataclass(slots=True)
class _Level:
    """One louvain aggregation level and the moves made on it.

    Nodes are numbered by their rank in the component's sorted label order;
    a level node is named by the rank of its smallest original member, so
    integer order is label order. ``members`` maps each level node to the
    ranks it stands for; ``moves`` logs each accepted ``(node, community)``
    move in order.
    """

    labels: list[EntityId]
    members: dict[int, list[int]]
    moves: list[tuple[int, int]] = field(default_factory=list)


@dataclass(slots=True)
class _Labelling:
    """One louvain state: the first ``n_moves`` moves of its level.

    Iterating replays those moves from the level's singletons and yields the
    member sets over original nodes.
    """

    level: _Level
    n_moves: int
    max_size: int

    def __iter__(self):
        level = self.level
        comm = {u: u for u in level.members}
        for u, c in level.moves[: self.n_moves]:
            comm[u] = c
        grouped: dict[int, list[int]] = {}
        for u, c in comm.items():
            grouped.setdefault(c, []).extend(level.members[u])
        labels = level.labels
        return iter([{labels[i] for i in block} for block in grouped.values()])


def _louvain_states(g: Subgraph, comp: frozenset[EntityId], rng: random.Random):
    labels = sorted(comp)
    n = len(labels)
    rank = {v: i for i, v in enumerate(labels)}
    # working (possibly aggregated) weighted graph; weights stay component-local
    weight: dict[int, dict[int, float]] = {i: {} for i in range(n)}
    self_w = [0.0] * n
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    two_m = 0.0
    for u, i in rank.items():
        for v in g.adj[u]:
            j = rank.get(v)
            if j is not None and i < j:
                weight[i][j] = weight[j][i] = 1.0
                two_m += 2.0

    level = _Level(labels, members)
    states = [_Labelling(level, 0, 1)]
    if two_m == 0.0:
        return states

    max_size = 1
    while True:
        level_nodes = sorted(weight)
        k_w = [0.0] * n
        for u in level_nodes:
            k_w[u] = self_w[u] + sum(weight[u].values())
        comm_of = list(range(n))
        comm_tot = list(k_w)
        size = [0] * n
        count_of_size = [0] * (n + 1)  # communities per block size
        for u in level_nodes:
            size[u] = len(members[u])
            count_of_size[size[u]] += 1
        moves = level.moves

        while True:
            moved_in_pass = False
            order = list(level_nodes)
            rng.shuffle(order)
            for u in order:
                old = comm_of[u]
                k = k_w[u]
                comm_tot[old] -= k
                # weight from u into each neighboring community
                links: dict[int, float] = {}
                for v, w in weight[u].items():
                    c = comm_of[v]
                    links[c] = links.get(c, 0.0) + w
                stay_score = links.get(old, 0.0) - comm_tot[old] * k / two_m
                best_comm, best_score = old, stay_score
                for c in sorted(links):
                    score = links[c] - comm_tot[c] * k / two_m
                    if score > best_score + 1e-12:
                        best_comm, best_score = c, score
                comm_of[u] = best_comm
                comm_tot[best_comm] += k
                if best_comm != old:
                    moved_in_pass = True
                    moving = len(members[u])
                    for c, delta in ((old, -moving), (best_comm, moving)):
                        count_of_size[size[c]] -= 1
                        size[c] += delta
                        count_of_size[size[c]] += 1
                    max_size = max(max_size, size[best_comm])
                    while not count_of_size[max_size]:
                        max_size -= 1
                    # state per accepted move: the trajectory must pass
                    # through fine intermediate states or backtracking would
                    # overshoot straight to singletons whenever the natural
                    # optimum violates the size bound. The move joins u to a
                    # block holding a neighbour, so each state differs from
                    # the one before.
                    moves.append((u, best_comm))
                    states.append(_Labelling(level, len(moves), max_size))
            if not moved_in_pass:
                break

        if not moves:
            return states

        # aggregate communities into super-nodes named by their smallest member
        groups: dict[int, list[int]] = {}
        for u in level_nodes:
            groups.setdefault(comm_of[u], []).append(u)
        rename = {c: min(us) for c, us in groups.items()}
        new_weight: dict[int, dict[int, float]] = {}
        new_self = [0.0] * n
        new_members: dict[int, list[int]] = {}
        for c, us in groups.items():
            name = rename[c]
            new_members[name] = [i for u in us for i in members[u]]
            new_weight[name] = {}
            new_self[name] = sum(self_w[u] for u in us)
        for c, us in groups.items():
            name = rename[c]
            for u in us:
                for v, w in weight[u].items():
                    other = rename[comm_of[v]]
                    if other == name:
                        new_self[name] += w
                    else:
                        new_weight[name][other] = new_weight[name].get(other, 0.0) + w
        weight, self_w, members = new_weight, new_self, new_members
        if len(weight) == 1:
            return states
        level = _Level(labels, members)


# -- girvan-newman -----------------------------------------------------------


def _girvan_newman_states(g: Subgraph, comp: frozenset[EntityId]):
    adj = {u: set(g.adj[u] & comp) for u in sorted(comp)}
    chronological = [_components_of(adj)]
    while any(adj[u] for u in adj):
        betweenness = _edge_betweenness(adj)
        top = max(betweenness.values())
        edge = min(e for e, b in betweenness.items() if b >= top - 1e-9)
        adj[edge[0]].discard(edge[1])
        adj[edge[1]].discard(edge[0])
        comps = _components_of(adj)
        if len(comps) > len(chronological[-1]):
            chronological.append(comps)
    # removal order runs coarse to fine; reverse so backtracking from the
    # list's end yields the coarsest feasible state rather than singletons
    return list(reversed(chronological))


def _components_of(adj):
    """BFS blocks of an adjacency map, ordered by smallest member."""
    seen: set[EntityId] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        block = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    block.add(v)
                    queue.append(v)
        comps.append(block)
    return comps


def _edge_betweenness(adj):
    """Brandes accumulation of shortest-path counts onto edges."""
    eb = {}
    for u in adj:
        for v in adj[u]:
            if u < v:
                eb[(u, v)] = 0.0
    for s in sorted(adj):
        dist = {s: 0}
        sigma = {v: 0.0 for v in adj}
        sigma[s] = 1.0
        preds: dict[EntityId, list[EntityId]] = {v: [] for v in adj}
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(adj[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in adj}
        for w in reversed(order):
            for v in preds[w]:
                c = sigma[v] / sigma[w] * (1.0 + delta[w])
                key = (v, w) if v < w else (w, v)
                eb[key] += c
                delta[v] += c
    return eb


# -- hierarchical -------------------------------------------------------------


def _dense_adjacency(g: Subgraph, comp: frozenset[EntityId]):
    """The component's sorted nodes, their row index, and the boolean adjacency."""
    nodes = sorted(comp)
    index = {v: i for i, v in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for u in nodes:
        for v in g.adj[u]:
            if v in comp:
                A[index[u], index[v]] = True
    return nodes, index, A


def _hierarchical_states(g: Subgraph, comp: frozenset[EntityId]):
    nodes, index, A = _dense_adjacency(g, comp)
    inter = (A.astype(np.int64) @ A.astype(np.int64).T).astype(float)
    deg = A.sum(axis=1).astype(float)
    union = deg[:, None] + deg[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0, inter / union, 0.0)

    clusters: dict[tuple, list[int]] = {(v,): [index[v]] for v in nodes}
    states = [[{v} for v in nodes]]
    while len(clusters) > 1:
        best = None
        keys = sorted(clusters)
        for i, a in enumerate(keys):
            ia = clusters[a]
            for b in keys[i + 1 :]:
                ib = clusters[b]
                if not A[np.ix_(ia, ib)].any():
                    continue  # merges only across an existing edge
                score = float(sim[np.ix_(ia, ib)].mean())
                cand = (-score, a, b)
                if best is None or cand < best[0]:
                    best = (cand, a, b)
        if best is None:
            break
        _, a, b = best
        merged_key = tuple(sorted(a + b))
        merged = clusters.pop(a) + clusters.pop(b)
        clusters[merged_key] = merged
        states.append([set(key) for key in clusters])
    return states


# -- spectral -----------------------------------------------------------------


def _spectral_states(g: Subgraph, comp: frozenset[EntityId], m_max: int, np_rng):
    nodes, _, adjacency = _dense_adjacency(g, comp)
    n = len(nodes)
    A = adjacency.astype(float)
    deg = A.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - (A * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]
    _, vecs = np.linalg.eigh(lap)

    ascending = []
    for k in range(1, n + 1):
        emb = vecs[:, :k]
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = np.where(norms > 1e-12, emb / norms, emb)
        labels = _kmeans(emb, k, np_rng)
        blocks: dict[int, set[EntityId]] = {}
        for v, lab in zip(nodes, labels):
            blocks.setdefault(int(lab), set()).add(v)
        state = list(blocks.values())
        ascending.append(state)
        if max(len(b) for b in state) <= m_max:
            break
    return list(reversed(ascending))


def _kmeans(points, k, np_rng, restarts=10, max_iter=100):
    n = points.shape[0]
    if k >= n:
        return np.arange(n)
    if k == 1:
        return np.zeros(n, dtype=int)
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        centroids = points[np_rng.choice(n, size=k, replace=False)].copy()
        labels = np.zeros(n, dtype=int)
        for _ in range(max_iter):
            d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for c in range(k):
                mask = new_labels == c
                if mask.any():
                    centroids[c] = points[mask].mean(axis=0)
                else:
                    # revive empty clusters at the point farthest from its centroid
                    far = d2.min(axis=1).argmax()
                    centroids[c] = points[far]
                    new_labels[far] = c
            if (new_labels == labels).all():
                break
            labels = new_labels
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if inertia < best_inertia - 1e-12:
            best_inertia, best_labels = inertia, labels.copy()
    return best_labels


# -- random baseline ----------------------------------------------------------


def _random_states(comp: frozenset[EntityId], m_max: int, rng: random.Random):
    nodes = sorted(comp)
    order = list(nodes)
    rng.shuffle(order)
    blocks = []
    i = 0
    while i < len(order):
        size = rng.randint(1, m_max)
        blocks.append(set(order[i : i + size]))
        i += size
    return [[{v} for v in nodes], blocks]
