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
                  demand, only when chosen or inspected. Super-nodes never
                  split, so on the subgraph's last component :func:`detect`
                  stops at the end of the first level whose blocks do not
                  all fit; earlier components run to the natural stop,
                  because a later component draws from the same RNG.
* girvan_newman -- edge removals by highest betweenness down to the empty
                  graph; one state per change of the component structure,
                  recorded in reverse removal order so the list still runs
                  fine to coarse.
* hierarchical -- singletons, then one state per merge (average-linkage
                  over shared-neighbor Jaccard similarity; only clusters
                  joined by at least one edge may merge). A pair's score
                  depends on its two clusters alone, so each merge rescores
                  only the merged cluster's pairs. :func:`detect` stops
                  after the first merge that makes a block bigger than the
                  bound: blocks only grow, so no later state fits;
                  :func:`detect_full` merges to the natural stop.
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
    """Partition ``g`` with every community size <= ``m_max``.

    Hierarchical merging stops at the first state with a block over
    ``m_max``, and louvain on the last component at the end of the first
    level with such a block; blocks only grow, so the chosen state is the
    same as :func:`detect_full`'s.
    """
    return _detect(g, kind, m_max, seed, stop_early=True).partition


def detect_full(g: Subgraph, kind: str, m_max: int, seed: int = 0) -> DetectionOutcome:
    """Like :func:`detect` but keeps per-component trajectories for inspection."""
    return _detect(g, kind, m_max, seed, stop_early=False)


def _detect(g, kind, m_max, seed, stop_early) -> DetectionOutcome:
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
    comps = connected_components(g)
    for i, comp in enumerate(comps):
        # louvain may stop early only on the last component: stopping sooner
        # would change the random draws every later component sees
        bounded = stop_early and (kind != "louvain" or i == len(comps) - 1)
        states = _component_states(g, comp, kind, m_max, rng, np_rng, bounded)
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


def _component_states(g, comp, kind, m_max, rng, np_rng, bounded):
    if len(comp) == 1 or m_max == 1:
        # singletons are the only feasible state; skip the algorithms
        return [[{v} for v in sorted(comp)]]
    if kind == "louvain":
        return _louvain_states(g, comp, rng, m_max if bounded else None)
    if kind == "girvan_newman":
        return _girvan_newman_states(g, comp)
    if kind == "hierarchical":
        return _hierarchical_states(g, comp, m_max if bounded else None)
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
        # frozensets, which Community.from_members keeps without copying
        return iter([frozenset(map(labels.__getitem__, block)) for block in grouped.values()])


def _louvain_states(
    g: Subgraph, comp: frozenset[EntityId], rng: random.Random, m_max: int | None = None
):
    """Louvain states from singletons on; with ``m_max``, stop once a level
    converges with a block bigger than ``m_max``."""
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
        nbrs: list[tuple[tuple[int, float], ...]] = [()] * n
        for u in level_nodes:
            k_w[u] = self_w[u] + sum(weight[u].values())
            nbrs[u] = tuple(weight[u].items())
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
                # a move must beat the best score so far by 1e-12; staying
                # keeps old's own score, which cannot beat itself, so the
                # scan skips old
                best_comm = old
                nb = nbrs[u]
                if len(nb) == 1:
                    # most nodes are leaves: the general scan below with one
                    # link, whose weight is 0.0 + w == w
                    v, w = nb[0]
                    c = comm_of[v]
                    if c != old:
                        bar = 0.0 - comm_tot[old] * k / two_m + 1e-12
                        if w - comm_tot[c] * k / two_m > bar:
                            best_comm = c
                else:
                    # weight from u into each neighboring community
                    links: dict[int, float] = {}
                    for v, w in nb:
                        c = comm_of[v]
                        links[c] = links.get(c, 0.0) + w
                    bar = links.get(old, 0.0) - comm_tot[old] * k / two_m + 1e-12
                    for c in sorted(links):
                        if c != old:
                            score = links[c] - comm_tot[c] * k / two_m
                            if score > bar:
                                best_comm, bar = c, score + 1e-12
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

        # super-nodes never split, so once a level ends with a block over
        # the bound, no later state fits
        if not moves or (m_max is not None and max_size > m_max):
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


def _hierarchical_states(g: Subgraph, comp: frozenset[EntityId], m_max: int | None = None):
    """Merge states from singletons on; with ``m_max``, stop after the first
    merge that makes a block bigger than ``m_max``."""
    nodes, index, A = _dense_adjacency(g, comp)
    inter = (A.astype(np.int64) @ A.astype(np.int64).T).astype(float)
    deg = A.sum(axis=1).astype(float)
    union = deg[:, None] + deg[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0, inter / union, 0.0)

    clusters: dict[tuple, list[int]] = {(v,): [index[v]] for v in nodes}

    def pair(x, y):
        return (x, y) if x < y else (y, x)

    def score(x, y):  # x < y; the index lists fix the float summation order
        # the block's mean, summed as ndarray.mean() sums it, minus its overhead
        block = sim.take(clusters[x], axis=0).take(clusters[y], axis=1)
        return float(np.add.reduce(block, axis=None)) / block.size

    # clusters merge only across an existing edge; a pair's score depends on
    # its two clusters alone, so a merge rescores only the merged cluster's
    # pairs, and the strict-tuple minimum picks the same pair as a full scan
    touch = {(u,): {(v,) for v in g.adj[u] if v != u} for u in nodes}
    scores = {(a, b): score(a, b) for a in touch for b in touch[a] if a < b}
    states = [[{v} for v in nodes]]
    while scores:
        _, a, b = min((-s, x, y) for (x, y), s in scores.items())
        merged_key = tuple(sorted(a + b))
        clusters[merged_key] = clusters.pop(a) + clusters.pop(b)
        touch[merged_key] = (touch.pop(a) | touch.pop(b)) - {a, b}
        for c in touch[merged_key]:
            touch[c] -= {a, b}
            touch[c].add(merged_key)
            scores.pop(pair(a, c), None)
            scores.pop(pair(b, c), None)
            scores[pair(merged_key, c)] = score(*pair(merged_key, c))
        del scores[(a, b)]
        states.append([set(key) for key in clusters])
        if m_max is not None and len(merged_key) > m_max:
            break
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
