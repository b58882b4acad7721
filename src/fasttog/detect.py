"""Size-constrained community detection with snapshot backtracking.

Five detectors share one driver contract: run the algorithm on each connected
component to its natural stop, record the state trajectory ordered from
finest to coarsest, then walk the trajectory from the coarse end back toward
the fine end and keep the first state whose communities all fit within the
size bound. The finest state is always all singletons, so a feasible state
always exists for any bound >= 1.

Components are split over the subgraph's local indices; an extraction with
one center is connected, so it is not searched. Every detector runs on the
component's neighbour lists over its ranks (``_rank_nbrs``); ranks follow
local order, which is label order, so integer order and tie-breaks are those
of the labels. A state is a list of rank blocks, and no label is read before
a state is chosen.

States are recorded compactly: the scan reads only each state's largest
block size, so only the chosen state of each component is turned into
blocks, sorted label tuples (``_label_blocks``). The :class:`Partition` they
form builds no :class:`Community` until one is read. Only :func:`detect_full`
keeps a :class:`ComponentTrace` per component, and its snapshot list is
built on first access to :attr:`ComponentTrace.snapshots`.

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
                  fine to coarse. Blocks only split, so :func:`detect`
                  stops at the first state whose blocks all fit;
                  :func:`detect_full` removes every edge.
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

    ``nodes`` are the component's labels in label order, so node ``i`` is the
    label of rank ``i``. ``snapshots`` is built from the recorded states on
    first access and then cached; the chosen step's snapshot holds the
    ``chosen`` object itself.
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
                else Partition.of_blocks(tuple(sorted(_label_blocks(state, self.nodes))), self._g),
            )
            for i, state in enumerate(self._states)
        ]


@dataclass
class DetectionOutcome:
    partition: Partition
    components: list[ComponentTrace]


def connected_components(g: Subgraph) -> list[frozenset[EntityId]]:
    """Structural components of the subgraph, ordered by smallest member."""
    labels = g.labels
    return [frozenset(map(labels.__getitem__, comp)) for comp in _local_components(g)]


def _local_components(g: Subgraph) -> list[list[int]]:
    """Structural components as ascending local-index lists, ordered by
    smallest member. An extraction with one center is connected: every kept
    node was reached from a kept node."""
    n = len(g)
    if g.n_centres > 1:
        comps = _components_of(g.nbrs, range(n))
        if len(comps) > 1:
            return [sorted(block) for block in comps]
    return [list(range(n))]


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
    same as :func:`detect_full`'s. Girvan-Newman stops at the first state
    whose blocks all fit, for the same reason: its blocks only split.
    """
    return _detect(g, kind, m_max, seed, full=False).partition


def detect_full(g: Subgraph, kind: str, m_max: int, seed: int = 0) -> DetectionOutcome:
    """Like :func:`detect` but keeps per-component trajectories for inspection."""
    return _detect(g, kind, m_max, seed, full=True)


def _detect(g, kind, m_max, seed, full) -> DetectionOutcome:
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector kind: {kind!r}")
    if not len(g):
        raise ValueError("subgraph is empty")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")

    rng = random.Random(seed)
    # spectral is the only reader; numpy.random is not loaded for the others
    np_rng = np.random.default_rng(seed) if kind == "spectral" else None
    traces: list[ComponentTrace] = []
    all_blocks = []
    comps = _local_components(g)
    for i, comp in enumerate(comps):
        # louvain may stop early only on the last component: stopping sooner
        # would change the random draws every later component sees
        bounded = not full and (kind != "louvain" or i == len(comps) - 1)
        states = _component_states(_rank_nbrs(g, comp), kind, m_max, rng, np_rng, bounded)
        # the same scan as backtrack_to_size, on block sizes alone; the
        # finest state always fits, so the scan always stops
        step = len(states) - 1
        while _largest_block(states[step]) > m_max:
            step -= 1
        # the component's rank -> label map
        labels = g.labels if len(comp) == len(g) else list(map(g.labels.__getitem__, comp))
        blocks = _label_blocks(states[step], labels)
        all_blocks.extend(blocks)
        if full:
            # disjoint blocks differ in their first label, so the sort reads only that
            blocks.sort()
            chosen = Partition.of_blocks(tuple(blocks), g)
            traces.append(ComponentTrace(tuple(labels), chosen, states, step, g))

    all_blocks.sort()
    partition = Partition.of_blocks(tuple(all_blocks), g)
    validate_partition(partition, g.nodes)
    return DetectionOutcome(partition, traces)


def _rank_nbrs(g: Subgraph, comp: list[int]) -> list[list[int]]:
    """The neighbour lists of the component ``comp`` (ascending local
    indices) over its ranks, each ascending. A whole-subgraph component's
    ranks are its local indices."""
    if len(comp) == len(g):
        return g.nbrs
    rank = {v: i for i, v in enumerate(comp)}
    return [[rank[u] for u in g.nbrs[v]] for v in comp]


def _largest_block(state) -> int:
    # louvain labellings track their largest block; other states are block lists
    return state.max_size if isinstance(state, _Labelling) else max(map(len, state))


def _label_blocks(state, labels) -> list[tuple[EntityId, ...]]:
    """The blocks of a state as tuples of labels in label order; ``labels``
    maps the state's ranks to labels. Ranks follow label order, so sorted
    ranks give sorted labels."""
    blocks = state.rank_blocks() if isinstance(state, _Labelling) else map(sorted, state)
    return [tuple(map(labels.__getitem__, block)) for block in blocks]


def _component_states(nbrs, kind, m_max, rng, np_rng, bounded):
    """States of the component whose neighbour lists over ranks are ``nbrs``."""
    if len(nbrs) == 1 or m_max == 1:
        # singletons are the only feasible state; skip the algorithms
        return [[{v} for v in range(len(nbrs))]]
    if kind == "louvain":
        return _louvain_states(nbrs, rng, m_max if bounded else None)
    if kind == "girvan_newman":
        return _girvan_newman_states(nbrs, m_max if bounded else None)
    if kind == "hierarchical":
        return _hierarchical_states(nbrs, m_max if bounded else None)
    if kind == "spectral":
        return _spectral_states(nbrs, m_max, np_rng)
    return _random_states(len(nbrs), m_max, rng)


# -- louvain ----------------------------------------------------------------


@dataclass(slots=True)
class _Level:
    """One louvain aggregation level and the moves made on it.

    Nodes are numbered by their rank in the component's ascending local
    indices, which is label order; a level node is named by the rank of its
    smallest original member, so integer order is label order. ``members``
    maps each level node to the ranks it stands for; ``moves`` logs each
    accepted ``(node, community)`` move in order.
    """

    members: dict[int, list[int]]
    moves: list[tuple[int, int]] = field(default_factory=list)


@dataclass(slots=True)
class _Labelling:
    """One louvain state: the first ``n_moves`` moves of its level.

    :meth:`rank_blocks` replays those moves from the level's singletons and
    gives the blocks over original nodes as ascending rank lists.
    """

    level: _Level
    n_moves: int
    max_size: int

    def rank_blocks(self) -> list[list[int]]:
        members = self.level.members
        # level nodes are named by ranks, so a list up to the largest holds them
        comm = list(range(max(members) + 1))
        for u, c in self.level.moves[: self.n_moves]:
            comm[u] = c
        # a level node is named by its smallest member, so grouping in
        # ascending node order puts the blocks in order of their smallest
        # member
        grouped: dict[int, list[int]] = {}
        for u in sorted(members):
            grouped.setdefault(comm[u], []).extend(members[u])
        blocks = list(grouped.values())
        for block in blocks:
            block.sort()
        return blocks


def _louvain_states(nbrs: list[list[int]], rng: random.Random, m_max: int | None = None):
    """Louvain states of the component whose neighbour lists over ranks are
    ``nbrs``, from singletons on; with ``m_max``, stop once a level converges
    with a block bigger than ``m_max``."""
    n = len(nbrs)
    level = _Level({i: [i] for i in range(n)})
    states = [_Labelling(level, 0, 1)]
    two_m = float(sum(map(len, nbrs)))
    if two_m == 0.0:
        return states
    getrandbits = rng.getrandbits

    # the working (possibly aggregated) weighted graph: each level node's
    # neighbours and their link weights, its weighted degree, its self-loop
    # weight and its block size. Weights are whole numbers, so their sums are
    # exact in any order. The first level's links all share one list of unit
    # weights, as long as the longest neighbour list
    level_nodes = list(range(n))
    nbrs_of = nbrs
    weights_of = [[1.0] * max(map(len, nbrs))] * n
    k_w = list(map(float, map(len, nbrs)))
    self_w = [0.0] * n
    size = [1] * n
    max_size = 1
    while True:
        members = level.members
        count_of_size = [0] * (n + 1)  # communities per block size
        for u in level_nodes:
            count_of_size[size[u]] += 1
        comm_of = list(range(n))
        comm_tot = list(k_w)
        moves = level.moves

        while True:
            moved_in_pass = False
            order = list(level_nodes)
            _shuffle(order, getrandbits)
            for u in order:
                old = comm_of[u]
                nb = nbrs_of[u]
                if len(nb) == 1 and comm_of[nb[0]] == old:
                    # a leaf in its neighbour's community stays. Taking its
                    # weight out of old's total and back in would be exact:
                    # totals are sums of whole-number weights
                    continue
                k = k_w[u]
                comm_tot[old] -= k
                # a move must beat the best score so far by 1e-12; staying
                # keeps old's own score, which cannot beat itself, so the
                # scan skips old
                best_comm = old
                if len(nb) == 1:
                    # most nodes are leaves: the general scan below with one
                    # link, whose weight is 0.0 + w == w
                    c = comm_of[nb[0]]
                    w = weights_of[u][0]
                    bar = 0.0 - comm_tot[old] * k / two_m + 1e-12
                    if w - comm_tot[c] * k / two_m > bar:
                        best_comm = c
                else:
                    # weight from u into each neighboring community
                    links: dict[int, float] = {}
                    for v, w in zip(nb, weights_of[u]):
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
                    s = size[old]
                    count_of_size[s] -= 1
                    count_of_size[s - moving] += 1
                    size[old] = s - moving
                    s = size[best_comm]
                    count_of_size[s] -= 1
                    s += moving
                    count_of_size[s] += 1
                    size[best_comm] = s
                    if s > max_size:
                        max_size = s
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
        if len(groups) == 1:
            return states
        rename = {c: min(us) for c, us in groups.items()}
        new_members: dict[int, list[int]] = {}
        new_self = [0.0] * n
        new_weight: dict[int, dict[int, float]] = {}
        for c, us in groups.items():
            name = rename[c]
            new_members[name] = [i for u in us for i in members[u]]
            w_self = sum(self_w[u] for u in us)
            to = new_weight[name] = {}
            for u in us:
                for v, w in zip(nbrs_of[u], weights_of[u]):
                    other = rename[comm_of[v]]
                    if other == name:
                        w_self += w
                    else:
                        to[other] = to.get(other, 0.0) + w
            new_self[name] = w_self
        level_nodes = sorted(new_members)
        nbrs_of = [()] * n
        weights_of = [()] * n
        k_w = [0.0] * n
        size = [0] * n
        for u in level_nodes:
            nbrs_of[u] = list(new_weight[u])
            weights_of[u] = list(new_weight[u].values())
            k_w[u] = new_self[u] + sum(weights_of[u])
            size[u] = len(new_members[u])
        self_w = new_self
        level = _Level(new_members)


def _shuffle(x: list, getrandbits) -> None:
    """``random.Random.shuffle(x)`` with the same draws from ``getrandbits``,
    the generator's bound method, but no method call per element."""
    i = len(x) - 1
    while i > 0:
        # every i down to stop + 1 draws the same number of bits
        bits = (i + 1).bit_length()
        stop = (1 << (bits - 1)) - 2
        for i in range(i, stop, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            x[i], x[j] = x[j], x[i]
        i = stop


# -- girvan-newman -----------------------------------------------------------


def _girvan_newman_states(nbrs: list[list[int]], m_max: int | None = None):
    """Edge-removal states from the whole component on; with ``m_max``, stop
    at the first state whose blocks all fit."""
    adj = [list(nb) for nb in nbrs]  # ascending; a removal keeps them so
    nodes = range(len(adj))
    comps = _components_of(adj, nodes)
    chronological = [comps]
    while any(adj) and (m_max is None or max(map(len, comps)) > m_max):
        betweenness = _edge_betweenness(adj)
        top = max(betweenness.values())
        edge = min(e for e, b in betweenness.items() if b >= top - 1e-9)
        adj[edge[0]].remove(edge[1])
        adj[edge[1]].remove(edge[0])
        comps = _components_of(adj, nodes)
        if len(comps) > len(chronological[-1]):
            chronological.append(comps)
    # removal order runs coarse to fine; reverse so backtracking from the
    # list's end yields the coarsest feasible state rather than singletons
    return list(reversed(chronological))


def _components_of(adj, nodes):
    """Blocks of the adjacency ``adj`` over ``nodes`` (ascending), ordered by
    smallest member. Each block grows a whole frontier at a time, by set
    operations."""
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        block = frontier = {start}
        while frontier:
            frontier = set().union(*map(adj.__getitem__, frontier)) - block
            block |= frontier
        seen |= block
        comps.append(block)
    return comps


def _edge_betweenness(adj: list[list[int]]):
    """Brandes accumulation of shortest-path counts onto edges; ``adj`` holds
    ascending neighbour lists, visited in that order."""
    n = len(adj)
    eb = {(u, v): 0.0 for u in range(n) for v in adj[u] if u < v}
    for s in range(n):
        dist = {s: 0}
        sigma = [0.0] * n
        sigma[s] = 1.0
        preds: list[list[int]] = [[] for _ in range(n)]
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                c = sigma[v] / sigma[w] * (1.0 + delta[w])
                key = (v, w) if v < w else (w, v)
                eb[key] += c
                delta[v] += c
    return eb


# -- hierarchical -------------------------------------------------------------


def _dense_adjacency(nbrs: list[list[int]]) -> np.ndarray:
    """The 0/1 float adjacency matrix of the neighbour lists ``nbrs``."""
    A = np.zeros((len(nbrs), len(nbrs)))
    for u, nb in enumerate(nbrs):
        A[u, nb] = 1.0
    return A


def _hierarchical_states(nbrs: list[list[int]], m_max: int | None = None):
    """Merge states from singletons on; with ``m_max``, stop after the first
    merge that makes a block bigger than ``m_max``."""
    A = _dense_adjacency(nbrs)
    # a float product runs on BLAS; the shared-neighbour counts are far below
    # 2**53, so they are exact
    inter = A @ A.T
    deg = A.sum(axis=1)
    union = deg[:, None] + deg[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0, inter / union, 0.0)

    # a cluster is keyed by its sorted ranks and lists them in merge order
    clusters: dict[tuple, list[int]] = {(v,): [v] for v in range(len(nbrs))}

    def pair(x, y):
        return (x, y) if x < y else (y, x)

    def score(x, y):  # x < y; the index lists fix the float summation order
        # the block's mean, summed as ndarray.mean() sums it, minus its overhead
        block = sim.take(clusters[x], axis=0).take(clusters[y], axis=1)
        return float(np.add.reduce(block, axis=None)) / block.size

    # clusters merge only across an existing edge; a pair's score depends on
    # its two clusters alone, so a merge rescores only the merged cluster's
    # pairs, and the strict-tuple minimum picks the same pair as a full scan
    touch = {(u,): {(v,) for v in nb} for u, nb in enumerate(nbrs)}
    scores = {(a, b): score(a, b) for a in touch for b in touch[a] if a < b}
    states = [list(clusters)]
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
        states.append(list(clusters))
        if m_max is not None and len(merged_key) > m_max:
            break
    return states


# -- spectral -----------------------------------------------------------------


def _spectral_states(nbrs: list[list[int]], m_max: int, np_rng):
    n = len(nbrs)
    A = _dense_adjacency(nbrs)
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
        blocks: dict[int, list[int]] = {}
        for v, lab in enumerate(labels.tolist()):
            blocks.setdefault(lab, []).append(v)
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


def _random_states(n: int, m_max: int, rng: random.Random):
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    i = 0
    while i < n:
        size = rng.randint(1, m_max)
        blocks.append(order[i : i + size])
        i += size
    return [[[v] for v in range(n)], blocks]
