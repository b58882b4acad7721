"""Size-constrained community detection with snapshot backtracking.

One contract serves the five detectors. Each is a stream: a generator of a
connected component's states in its natural order, fine to coarse (louvain,
hierarchical, random) or coarse to fine (Girvan-Newman; spectral by ascending
k). A stream yields its states in records (``_Level``): a run of states that
share one level's members and move log, with each state's largest block in
``sizes``. One rule picks the state: the last that fits the size bound, read
fine to coarse (:func:`backtrack_to_size`). The finest state is all
singletons, or a state that fits, so some state fits any bound >= 1.
:func:`detect_full` drains each stream; :func:`detect` pulls no record past
its stop, which never passes over the state the rule picks:

* a coarse-to-fine stream stops at its first state that fits;
* hierarchical stops at its first state that does not fit: blocks only grow;
* louvain stops at the end of a level whose last state does not fit:
  super-nodes never split, but within a level a move can bring the largest
  block back under the bound, so only a record's end can stop a read. It
  stops so on the subgraph's last component only: the components draw from
  one generator, so cutting an earlier one short would move a later one's
  draws.

Components are split over the subgraph's local indices. Every node an
extraction keeps is linked to a center through kept nodes, so when the
centers are linked among themselves the subgraph is one component and is not
searched. Every detector runs on the component's neighbour lists over its
ranks (``_rank_nbrs``); ranks follow local order, which is label order, so
integer order and tie-breaks are those of the labels. A state is a record
and an index in it; :func:`detect` replays only each component's chosen
state into label blocks (``_Level.label_blocks``), :func:`detect_full` every
state, and the :class:`Partition` they form builds no :class:`Community`
until one is read.

The streams:

* louvain      -- singletons, then one record per aggregation level, with
                  one state per accepted local move. A state is a move count
                  on its level's move log, replayed into blocks only when
                  chosen or inspected.
* girvan_newman -- the whole component, then one state per change of the
                  component structure as edges of highest betweenness go.
* hierarchical -- singletons, then one state per merge (average linkage over
                  shared-neighbour Jaccard similarity, across an edge only);
                  a cluster is named by its smallest rank, and a merge
                  rescores only the merged cluster's pairs.
* spectral     -- normalized-Laplacian embedding with seeded k-means, from
                  k = 1 to the first k whose clusters all fit.
* random       -- singletons, then a seeded shuffle chunked into blocks of
                  random size <= bound (structure-blind baseline).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .community import Partition, validate_partition
from .kg import EntityId, Subgraph

@dataclass(frozen=True)
class ComponentTrace:
    """One connected component's labels in label order, its states'
    partitions fine to coarse, and the chosen one."""

    nodes: tuple[EntityId, ...]
    snapshots: list[Partition]
    chosen: Partition


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
    smallest member. Every kept node of an extraction was reached from a
    center through kept nodes, so centers linked among themselves make one
    component; the whole subgraph is searched only when they are not, or
    when every node is a center (a whole graph)."""
    n = len(g)
    if g.n_centres > 1 and (g.n_centres == n or not _centres_linked(g)):
        comps = _components_of(g.nbrs, range(n))
        if len(comps) > 1:
            return [sorted(block) for block in comps]
    return [list(range(n))]


def _centres_linked(g: Subgraph) -> bool:
    """Whether the centers are connected through edges among themselves."""
    centres = set(g.centres)
    among = {v: centres.intersection(g.nbrs[v]) for v in centres}
    return len(_components_of(among, centres)) == 1


def backtrack_to_size(snapshots: list[Partition], m_max: int) -> Partition:
    """The pick rule on recorded snapshots: the last one, read fine to
    coarse, whose blocks all fit ``m_max``.

    Every detector trajectory starts from a state that fits, so a list with
    no feasible snapshot raises ``ValueError``.
    """
    return snapshots[_last_fitting([snap.max_size() for snap in snapshots], m_max)]


def _last_fitting(sizes: list[int], m_max: int) -> int:
    """The pick rule: the index of the last state, read fine to coarse,
    whose largest block, ``sizes[i]``, is at most ``m_max``."""
    for i in range(len(sizes) - 1, -1, -1):
        if sizes[i] <= m_max:
            return i
    raise ValueError(f"no snapshot fits the size bound {m_max}")


def detect(g: Subgraph, kind: str, m_max: int, seed: int = 0) -> Partition:
    """Partition ``g`` with every community size <= ``m_max``.

    Each component's stream is pulled only up to its stop, which never cuts
    off the state :func:`detect_full` picks, and only that state is built.
    """
    return _detect(g, kind, m_max, seed, full=False).partition


def detect_full(g: Subgraph, kind: str, m_max: int, seed: int = 0) -> DetectionOutcome:
    """Like :func:`detect` but drains every stream and keeps per-component
    trajectories, fine to coarse, for inspection."""
    return _detect(g, kind, m_max, seed, full=True)


def _detect(g, kind, m_max, seed, full) -> DetectionOutcome:
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector kind: {kind!r}")
    if not len(g):
        raise ValueError("subgraph is empty")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")

    make_stream, coarse_to_fine = _STREAMS[kind]
    # spectral is numpy's only reader; numpy.random is not loaded for the others
    rng = np.random.default_rng(seed) if kind == "spectral" else random.Random(seed)
    traces: list[ComponentTrace] = []
    all_blocks = []
    comps = _local_components(g)
    for i, comp in enumerate(comps):
        # louvain stops early only on the last component: the components draw
        # from one generator, so cutting an earlier one short moves later draws
        stop = not full and (kind != "louvain" or i == len(comps) - 1)
        if len(comp) == 1 or m_max == 1:
            # singletons are the only feasible state; skip the algorithm
            stream = [_of_blocks([v] for v in range(len(comp)))]
        else:
            stream = make_stream(_rank_nbrs(g, comp), m_max, rng)
        levels, step = _read(stream, m_max, coarse_to_fine, stop)
        del stream  # a stream stopped early holds its working state until freed
        # the component's rank -> label map
        labels = g.labels if len(comp) == len(g) else list(map(g.labels.__getitem__, comp))
        states = [(level, j) for level in levels for j in range(len(level.sizes))]
        if full:
            snapshots = [Partition(tuple(sorted(level.label_blocks(j, labels))), g) for level, j in states]
            traces.append(ComponentTrace(tuple(labels), snapshots, snapshots[step]))
            all_blocks.extend(snapshots[step].blocks)
        else:
            level, j = states[step]
            all_blocks.extend(level.label_blocks(j, labels))

    all_blocks.sort()
    partition = Partition(tuple(all_blocks), g)
    validate_partition(partition, g.nodes)
    return DetectionOutcome(partition, traces)


def _read(stream, m_max: int, coarse_to_fine: bool, stop: bool) -> tuple[list[_Level], int]:
    """Pull ``stream``'s records, with ``stop`` none past the stream's stop
    (see the module docstring), and pick a state by the rule of
    :func:`backtrack_to_size`. Returns the pulled records fine to coarse and
    the chosen state's index among their states, in order."""
    levels = []
    for level in stream:
        levels.append(level)
        last = level.sizes[-1]
        if stop and (last <= m_max if coarse_to_fine else last > m_max):
            break
    if coarse_to_fine:
        levels.reverse()
    return levels, _last_fitting([size for level in levels for size in level.sizes], m_max)


def _rank_nbrs(g: Subgraph, comp: list[int]) -> list[list[int]]:
    """The neighbour lists of the component ``comp`` (ascending local
    indices) over its ranks, each ascending. A whole-subgraph component's
    ranks are its local indices."""
    if len(comp) == len(g):
        return g.nbrs
    rank = {v: i for i, v in enumerate(comp)}
    return [[rank[u] for u in g.nbrs[v]] for v in comp]


@dataclass(slots=True)
class _Level:
    """A record of a stream: a run of states on one level.

    A level's nodes stand for disjoint blocks of ranks: ``members`` maps each
    node to its block, and ``moves`` logs each accepted ``(node, block)`` move
    in order. The record's states are the last ``len(sizes)`` move counts on
    the log, and ``sizes`` holds each one's largest block; state ``i`` is
    read off the record by :meth:`label_blocks`. A louvain level holds one
    state per accepted move, and its level nodes are named by the rank of
    their smallest original member, so integer order is label order. Every
    other record holds one state, its blocks with no move made.
    """

    members: dict[int, list[int]]
    moves: list[tuple[int, int]]
    sizes: list[int]

    def n_moves(self, i: int) -> int:
        """How many moves of the log the record's ``i``-th state has made."""
        return len(self.moves) + 1 - len(self.sizes) + i

    def label_blocks(self, i: int, labels) -> list[tuple[EntityId, ...]]:
        """The ``i``-th state's blocks as tuples of labels in label order;
        ``labels`` maps the record's ranks to labels. Ranks follow label
        order, so sorted ranks give sorted labels."""
        members = self.members
        # level nodes are small integers, so a list up to the largest holds them
        comm = list(range(max(members) + 1))
        for u, c in self.moves[: self.n_moves(i)]:
            comm[u] = c
        grouped: dict[int, list[int]] = {}
        for u in members:
            grouped.setdefault(comm[u], []).extend(members[u])
        for block in grouped.values():
            block.sort()
        return [tuple(map(labels.__getitem__, block)) for block in grouped.values()]


def _of_blocks(blocks) -> _Level:
    """The one-state record whose blocks of ranks are ``blocks``."""
    members = dict(enumerate(blocks))
    return _Level(members, [], [max(map(len, members.values()))])


# -- louvain ----------------------------------------------------------------


def _louvain_states(nbrs: list[list[int]], m_max: int, rng: random.Random):
    """Louvain records of the component whose neighbour lists over ranks are
    ``nbrs``, fine to coarse: the singletons, then one record per level,
    yielded at the level's end before any draw of the next level."""
    n = len(nbrs)
    members = {i: [i] for i in range(n)}
    yield _Level(members, [], [1])
    two_m = float(sum(map(len, nbrs)))
    if two_m == 0.0:
        return
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
        count_of_size = [0] * (n + 1)  # communities per block size
        for u in level_nodes:
            count_of_size[size[u]] += 1
        comm_of = list(range(n))
        comm_tot = list(k_w)
        moves = []
        sizes = []

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
                    sizes.append(max_size)
            if not moved_in_pass:
                break

        if not moves:
            return
        yield _Level(members, moves, sizes)

        # aggregate communities into super-nodes named by their smallest member
        groups: dict[int, list[int]] = {}
        for u in level_nodes:
            groups.setdefault(comm_of[u], []).append(u)
        if len(groups) == 1:
            return
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
        members = new_members


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


def _girvan_newman_states(nbrs: list[list[int]], m_max: int, rng):
    """Edge-removal states, coarse to fine, from the whole component on."""
    adj = [list(nb) for nb in nbrs]  # ascending; a removal keeps them so
    nodes = range(len(adj))
    comps = _components_of(adj, nodes)
    yield _of_blocks(comps)
    while any(adj):
        betweenness = _edge_betweenness(adj)
        top = max(betweenness.values())
        edge = min(e for e, b in betweenness.items() if b >= top - 1e-9)
        adj[edge[0]].remove(edge[1])
        adj[edge[1]].remove(edge[0])
        split = _components_of(adj, nodes)
        if len(split) > len(comps):
            comps = split
            yield _of_blocks(comps)


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
        # the visit order is the queue: the loop reads what it appends
        order = [s]
        for v in order:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    order.append(w)
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


def _hierarchical_states(nbrs: list[list[int]], m_max: int, rng):
    """Merge states, fine to coarse, from singletons on."""
    A = _dense_adjacency(nbrs)
    # a float product runs on BLAS; the shared-neighbour counts are far below
    # 2**53, so they are exact
    inter = A @ A.T
    deg = A.sum(axis=1)
    union = deg[:, None] + deg[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0, inter / union, 0.0)

    # a cluster is named by its smallest rank and lists its ranks in merge
    # order. Clusters are disjoint, so names order as sorted rank lists would
    clusters = {v: [v] for v in range(len(nbrs))}

    def pair(x, y):
        return (x, y) if x < y else (y, x)

    def score(x, y):  # x < y; the index lists fix the float summation order
        # the block's mean, summed as ndarray.mean() sums it, minus its overhead
        block = sim.take(clusters[x], axis=0).take(clusters[y], axis=1)
        return float(np.add.reduce(block, axis=None)) / block.size

    # clusters merge only across an existing edge; a pair's score depends on
    # its two clusters alone, so a merge rescores only the merged cluster's
    # pairs, and the strict-tuple minimum picks the same pair as a full scan
    touch = {u: set(nb) for u, nb in enumerate(nbrs)}
    scores = {(a, b): score(a, b) for a in touch for b in touch[a] if a < b}
    yield _of_blocks(clusters.values())
    while scores:
        _, a, b = min((-s, x, y) for (x, y), s in scores.items())
        # the merged cluster keeps the smaller name, a < b, in a new list: the
        # states already yielded hold the old one
        clusters[a] = clusters[a] + clusters.pop(b)
        touch[a] = (touch[a] | touch.pop(b)) - {a, b}
        for c in touch[a]:
            touch[c].discard(b)
            touch[c].add(a)
            scores.pop(pair(b, c), None)
            scores[pair(a, c)] = score(*pair(a, c))
        del scores[(a, b)]
        yield _of_blocks(clusters.values())


# -- spectral -----------------------------------------------------------------

# seeded k-means runs per k, and the iterations of each run
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 100


def _spectral_states(nbrs: list[list[int]], m_max: int, np_rng):
    """k-means states, coarse to fine by ascending k, up to the first k whose
    clusters all fit ``m_max``: the sweep's natural end, so a later
    component's draws do not depend on whether the stream is drained."""
    n = len(nbrs)
    A = _dense_adjacency(nbrs)
    deg = A.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - (A * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]
    _, vecs = np.linalg.eigh(lap)

    for k in range(1, n + 1):
        emb = vecs[:, :k]
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = np.where(norms > 1e-12, emb / norms, emb)
        labels = _kmeans(emb, k, np_rng)
        blocks: dict[int, list[int]] = {}
        for v, lab in enumerate(labels.tolist()):
            blocks.setdefault(lab, []).append(v)
        level = _of_blocks(blocks.values())
        yield level
        if level.sizes[0] <= m_max:
            return


def _kmeans(points, k, np_rng):
    n = points.shape[0]
    if k >= n:
        return np.arange(n)
    if k == 1:
        return np.zeros(n, dtype=int)
    best_labels, best_inertia = None, np.inf
    for _ in range(_KMEANS_RESTARTS):
        centroids = points[np_rng.choice(n, size=k, replace=False)].copy()
        labels = np.zeros(n, dtype=int)
        for _ in range(_KMEANS_MAX_ITER):
            d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            sizes = np.bincount(new_labels, minlength=k)
            if sizes.all():
                # every cluster's points in one run each, in point order, so
                # each sum adds the same points in the same order as a mean
                order = np.argsort(new_labels, kind="stable")
                runs = np.cumsum(sizes) - sizes
                centroids = np.add.reduceat(points[order], runs, axis=0) / sizes[:, None]
            else:
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


def _random_states(nbrs: list[list[int]], m_max: int, rng: random.Random):
    order = list(range(len(nbrs)))
    yield _of_blocks([v] for v in order)
    rng.shuffle(order)
    blocks = []
    i = 0
    while i < len(order):
        size = rng.randint(1, m_max)
        blocks.append(order[i : i + size])
        i += size
    yield _of_blocks(blocks)


# each detector's stream of a component's records, built from its neighbour
# lists over ranks, the size bound and the generator, and whether the stream
# runs coarse to fine
_STREAMS = {
    "louvain": (_louvain_states, False),
    "girvan_newman": (_girvan_newman_states, True),
    "hierarchical": (_hierarchical_states, False),
    "spectral": (_spectral_states, True),
    "random": (_random_states, False),
}
DETECTOR_KINDS = tuple(_STREAMS)
