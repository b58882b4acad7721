"""Shared fixture builders and test doubles."""

from __future__ import annotations

import io
import random
import re
from collections import deque

import numpy as np

from fasttog import (
    KnowledgeGraph,
    SamplerConfig,
    Subgraph,
    Triple,
    TripleFormatError,
    extract_subgraph,
)
from fasttog.detect import _KMEANS_MAX_ITER, _KMEANS_RESTARTS
from fasttog.gateway import GenerationRequest, GenerationResponse, CallLedger
from fasttog.pruning import CandidateCommunity


def bridged_triangles() -> KnowledgeGraph:
    """Two triangles a-b-c and d-e-f joined by the single edge c-d (m=7)."""
    edges = [
        ("a", "rel", "b"),
        ("b", "rel", "c"),
        ("a", "rel", "c"),
        ("d", "rel", "e"),
        ("e", "rel", "f"),
        ("d", "rel", "f"),
        ("c", "bridge", "d"),
    ]
    return KnowledgeGraph([Triple(*e) for e in edges])


def full_subgraph(kg: KnowledgeGraph) -> Subgraph:
    return Subgraph.from_full_graph(kg)


def random_graph(n: int, p: float, rng: random.Random) -> KnowledgeGraph:
    """Undirected G(n, p) rendered as triples; guaranteed at least one edge."""
    triples = []
    names = [f"n{i:02d}" for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                triples.append(Triple(names[i], "rel", names[j]))
    if not triples:
        triples.append(Triple(names[0], "rel", names[1 % n]))
    return KnowledgeGraph(triples)


def random_partition_sets(nodes, rng: random.Random) -> list[set]:
    order = sorted(nodes)
    rng.shuffle(order)
    blocks = []
    i = 0
    while i < len(order):
        size = rng.randint(1, max(1, len(order) // 2))
        blocks.append(set(order[i : i + size]))
        i += size
    return blocks


def label_adj(g: Subgraph) -> dict:
    """The structural neighbours of each node of ``g`` by label, built from
    its local neighbour lists."""
    labels = g.labels
    return {labels[i]: frozenset(map(labels.__getitem__, nb)) for i, nb in enumerate(g.nbrs)}


def structural_edges(g: Subgraph) -> list[tuple]:
    """Undirected structural edges of ``g`` as sorted (u, v) pairs with u < v."""
    adj = label_adj(g)
    return [(u, v) for u in sorted(adj) for v in adj[u] if u < v]


def eager_community_sums(members, g: Subgraph) -> tuple[int, int, float]:
    """Independent oracle for ``Community``'s sums, counted from the
    structural edge list: (sigma_in, sigma_tot, modularity)."""
    members = frozenset(members)
    edges = structural_edges(g)
    internal = sum(1 for u, v in edges if u in members and v in members)
    sigma_tot = sum((u in members) + (v in members) for u, v in edges)
    sigma_in = 2 * internal
    q = float(sigma_in) - (sigma_tot**2) / (2.0 * g.m) if g.m else 0.0
    return sigma_in, sigma_tot, q


def eq1_direct(g: Subgraph, member_sets) -> float:
    """Independent oracle: the double-sum definition of modularity.

    Builds the dense adjacency matrix and evaluates
    sum_ij (A_ij - k_i k_j / 2m) over same-community pairs, divided by 2m.
    """
    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for u, v in structural_edges(g):
        A[index[u], index[v]] = 1.0
        A[index[v], index[u]] = 1.0
    k = A.sum(axis=1)
    m = A.sum() / 2.0
    comm_of = {}
    for ci, block in enumerate(member_sets):
        for v in block:
            comm_of[v] = ci
    same = np.zeros((n, n), dtype=bool)
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            same[i, j] = comm_of[u] == comm_of[v]
    return float(((A - np.outer(k, k) / (2 * m)) * same).sum() / (2 * m))


def multigraph(n: int, n_triples: int, rng: random.Random) -> KnowledgeGraph:
    """The graph of ``multigraph_triples``."""
    return KnowledgeGraph(multigraph_triples(n, n_triples, rng))


def multigraph_triples(n: int, n_triples: int, rng: random.Random) -> list[Triple]:
    """Random directed triples over ``n`` nodes with parallel predicates,
    reversed pairs and self-loops mixed in."""
    names = [f"v{i:02d}" for i in range(n)]
    triples = []
    for _ in range(n_triples):
        u, v = rng.choice(names), rng.choice(names)
        if rng.random() < 0.05:
            v = u
        triples.append(Triple(u, rng.choice(("p", "q", "r")), v))
    return triples


def mixed_extractions(seed: int, trials: int):
    """Seeded extractions from graphs that join a ``multigraph`` to
    ``tricky_triples`` over disjoint labels, so that an extraction may have
    several centers and several components. Yields ``(kg, center, cfg, g)``
    with 1-4 centers, ``rho`` of 1, 0.6 or 0.3 and ``r_max`` of 1-3."""
    rng = random.Random(seed)
    for trial in range(trials):
        triples = list(multigraph(40, rng.randint(30, 90), rng).triples)
        kg = KnowledgeGraph(triples + tricky_triples(rng.randint(20, 60), rng))
        center = rng.sample(sorted(kg.nodes), rng.randint(1, 4))
        cfg = SamplerConfig(rho=rng.choice((1.0, 0.6, 0.3)), r_max=rng.randint(1, 3), seed=trial)
        yield kg, center, cfg, extract_subgraph(kg, center, cfg)


# labels that sort and compare awkwardly: case pairs, a trailing NUL, a label
# that is a prefix of others, and non-ASCII (composed and decomposed forms)
TRICKY_LABELS = (
    "a", "A", "a\x00", "ab", "abc", "a b", "B", "b", "b\x00",
    "\u00e9", "e\u0301", "Straße", "strasse", "日本", "日本語", "Ωmega", "z", "Z",
)
TRICKY_PREDICATES = ("p", "P", "p\x00", "pq", "ñ", "r")


def tricky_triples(n_triples: int, rng: random.Random) -> list[Triple]:
    """Seeded multigraph over ``TRICKY_LABELS`` with duplicates, self-loops and
    parallel predicates mixed in."""
    triples = []
    for _ in range(n_triples):
        roll = rng.random()
        if triples and roll < 0.15:
            triples.append(rng.choice(triples))  # duplicate
            continue
        u, v = rng.choice(TRICKY_LABELS), rng.choice(TRICKY_LABELS)
        if roll < 0.25:
            v = u
        triples.append(Triple(u, rng.choice(TRICKY_PREDICATES), v))
    return triples


class ReferenceStore:
    """Independent oracle for ``KnowledgeGraph``: the plain set-and-sort
    semantics, recomputed from every triple on each query."""

    def __init__(self, triples):
        triples = [Triple(*t) for t in triples]
        unique = set(triples)
        self.triples = tuple(sorted(unique))
        self.nodes = frozenset(v for t in unique for v in (t.subject, t.object))
        self.duplicate_count = len(triples) - len(unique)
        self.self_loop_count = sum(t.subject == t.object for t in unique)

    def neighbors(self, v):
        return sorted(
            [(t.predicate, t.object, "out") for t in self.triples if t.subject == v]
            + [(t.predicate, t.subject, "in") for t in self.triples if t.object == v]
        )

    def structural_neighbors(self, v):
        return frozenset(
            u
            for t in self.triples
            if t.subject != t.object
            for w, u in ((t.subject, t.object), (t.object, t.subject))
            if w == v
        )

    def dump(self):
        lines = sorted(f"{t.subject}\t{t.predicate}\t{t.object}" for t in self.triples)
        return "\n".join(lines) + ("\n" if lines else "")


def reference_parse(data: bytes) -> list[Triple]:
    """Independent oracle for ``KnowledgeGraph.ingest``'s reader: the UTF-8
    file ``data`` read one line at a time, with universal newlines. Comment,
    blank and whitespace-only lines are skipped; the first line that is not
    three non-empty tab-separated fields raises TripleFormatError."""
    triples = []
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line or line.isspace() or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise TripleFormatError(
                line_no, f"expected 3 tab-separated fields, got {len(parts)}"
            )
        if not all(parts):
            raise TripleFormatError(line_no, "empty field")
        triples.append(Triple(*parts))
    return triples


def reference_kmeans(points, k, np_rng):
    """Independent oracle for ``detect._kmeans``: the same restarts and
    draws, with every centroid taken as its cluster's mean, one cluster at
    a time."""
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
            for c in range(k):
                mask = new_labels == c
                if mask.any():
                    centroids[c] = points[mask].mean(axis=0)
                else:
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


def reference_triples(kg: KnowledgeGraph, nodes) -> tuple[Triple, ...]:
    """Independent oracle: scan every triple of the whole graph for those
    between retained nodes."""
    return tuple(t for t in kg.triples if t.subject in nodes and t.object in nodes)


def reference_hops(kg: KnowledgeGraph, center, cfg) -> dict:
    """Independent oracle for ``extract_subgraph``'s hops: a BFS over labels
    whose neighbours come from a scan of every triple. The centers come
    first, in center-set order, then the kept nodes in discovery order;
    neighbours are visited, and random draws made, in label order."""
    store = ReferenceStore(kg.triples)
    rng = random.Random(cfg.seed)
    center = frozenset(center)
    hop = dict.fromkeys(center, 0)
    decided = set(center)
    queue = deque(sorted(center))
    while queue:
        u = queue.popleft()
        if hop[u] >= cfg.r_max:
            continue
        keep_p = cfg.rho ** hop[u]
        for v in sorted(store.structural_neighbors(u)):
            if v in decided:
                continue
            decided.add(v)
            if keep_p >= 1.0 or rng.random() < keep_p:
                hop[v] = hop[u] + 1
                queue.append(v)
    return hop


def reference_components(adj) -> list[frozenset]:
    """Connected components of a label adjacency, ordered by smallest member."""
    seen, comps = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        block, stack = {start}, [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in block:
                    block.add(v)
                    stack.append(v)
        seen |= block
        comps.append(frozenset(block))
    return comps


def reference_adj(nodes, triples) -> dict:
    """Structural neighbours: parallel edges collapsed, self-loops dropped."""
    adj = {v: set() for v in nodes}
    for t in triples:
        if t.subject != t.object:
            adj[t.subject].add(t.object)
            adj[t.object].add(t.subject)
    return {v: frozenset(s) for v, s in adj.items()}


def reference_between(triples, left, right) -> list[Triple]:
    return [
        t
        for t in triples
        if (t.subject in left and t.object in right)
        or (t.subject in right and t.object in left)
    ]


def reference_candidates(p, current, h, g) -> list:
    """Brute force: scan every community of ``p`` for triples connecting its
    members outside ``current`` to ``current``, reading the subgraph's full
    triple tuple."""
    out = []
    for c in p.communities:
        if c.members == current.members or c.canonical_id in h:
            continue
        novel = c.members - current.members
        bridges = reference_between(g.triples, novel, current.members)
        if novel and bridges:
            out.append(CandidateCommunity(c, tuple(sorted(bridges))))
    out.sort(key=lambda cand: (-cand.community.modularity, cand.community.canonical_id))
    return out


# -- synthetic knowledge graphs for engine runs --------------------------------


def clique_path(
    n_cliques: int = 6,
    clique_size: int = 4,
    seed: int = 0,
    prefix: str = "p",
) -> tuple[KnowledgeGraph, str, str]:
    """A chain of cliques with single bridge edges between consecutive ones.

    Returns (graph, start_label, target_label): the start sits in the first
    clique, the target in the last. Labels are seed-shuffled so detection
    tie-breaks vary across instances.
    """
    rng = random.Random(seed)
    total = n_cliques * clique_size
    names = [f"{prefix}{i:03d}" for i in range(total)]
    rng.shuffle(names)
    cliques = [
        names[c * clique_size : (c + 1) * clique_size] for c in range(n_cliques)
    ]
    triples = []
    for members in cliques:
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                triples.append(Triple(members[i], "rel", members[j]))
    for c in range(n_cliques - 1):
        triples.append(Triple(cliques[c][-1], "next", cliques[c + 1][0]))
    return KnowledgeGraph(triples), cliques[0][0], cliques[-1][-1]


def clique_spider(
    arms: int = 3,
    arm_len: int = 8,
    clique_size: int = 4,
    seed: int = 0,
) -> tuple[KnowledgeGraph, str]:
    """A hub node feeding ``arms`` disjoint clique chains.

    Rich enough that every chain finds a fresh candidate at every step, which
    the call-accounting worst case requires.
    """
    rng = random.Random(seed)
    triples = []
    hub = "hub"
    for a in range(arms):
        total = arm_len * clique_size
        names = [f"a{a}x{i:03d}" for i in range(total)]
        rng.shuffle(names)
        cliques = [
            names[c * clique_size : (c + 1) * clique_size] for c in range(arm_len)
        ]
        for members in cliques:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    triples.append(Triple(members[i], "rel", members[j]))
        for c in range(arm_len - 1):
            triples.append(Triple(cliques[c][-1], "next", cliques[c + 1][0]))
        triples.append(Triple(hub, "arm", cliques[0][0]))
    return KnowledgeGraph(triples), hub


def gold_star(
    n_decoys: int = 7,
    seed: int = 0,
) -> tuple[KnowledgeGraph, str, str]:
    """A start node with one dense 4-clique neighbor and sparse decoy pairs.

    The target lives inside the clique, which scores far above every decoy,
    so score-ranked coarse pruning always keeps it while random pruning
    frequently drops it.
    """
    rng = random.Random(seed)
    start = "origin"
    gold = [f"gold{i}" for i in range(4)]
    target = gold[-1]
    triples = []
    for i in range(len(gold)):
        for j in range(i + 1, len(gold)):
            triples.append(Triple(gold[i], "rel", gold[j]))
    triples.append(Triple(start, "leads", gold[0]))
    for d in range(n_decoys):
        a, b = f"d{d}a", f"d{d}b"
        triples.append(Triple(start, "leads", a))
        triples.append(Triple(a, "rel", b))
    rng.shuffle(triples)
    return KnowledgeGraph(triples), start, target


def lane_in_background(
    n_background: int = 300,
    n_cliques: int = 6,
    clique_size: int = 4,
    seed: int = 0,
) -> tuple[KnowledgeGraph, str, str]:
    """A lane of cliques set in a sparse random background.

    Consecutive cliques are joined by single edges, each clique node leaks one
    edge into the background, and each background node links to two earlier
    ones. Returns (graph, start_label, target_label): the start sits in the
    first clique, the target in the last.
    """
    rng = random.Random(seed)
    back = [f"bg{i:03d}" for i in range(n_background)]
    triples = [
        Triple(back[i], rng.choice(("rel", "near")), back[j])
        for i in range(1, n_background)
        for j in rng.sample(range(i), min(i, 2))
    ]
    cliques = [
        [f"c{c}m{i}" for i in range(clique_size)] for c in range(n_cliques)
    ]
    for members in cliques:
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                triples.append(Triple(members[i], "rel", members[j]))
            triples.append(Triple(members[i], "leak", rng.choice(back)))
    for c in range(n_cliques - 1):
        triples.append(Triple(cliques[c][-1], "next", cliques[c + 1][0]))
    return KnowledgeGraph(triples), cliques[0][0], cliques[-1][-1]


def star(n_leaves: int = 40) -> tuple[KnowledgeGraph, str, str]:
    """A hub joined to ``n_leaves`` leaves and nothing else.

    Returns (graph, hub, target leaf). Under a small size bound every leaf is
    a candidate of the hub, more than the 26 option letters when there are
    more than 26 leaves.
    """
    leaves = [f"leaf{i:02d}" for i in range(n_leaves)]
    return KnowledgeGraph([Triple("hub", "links", leaf) for leaf in leaves]), "hub", leaves[-1]


# -- deterministic test gateways ------------------------------------------------


class Counting:
    """Counts the calls made through it by tag, then forwards them.

    Gateways count nothing themselves; this double gives tests that drive a
    gateway directly, without an engine run, a ledger to assert on.
    """

    def __init__(self, gateway):
        self.gateway = gateway
        self.ledger = CallLedger()

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        self.ledger.increment(req.tag)
        return self.gateway.generate(req)


def never_answer_script(width: int, max_depth: int, degrade_replies=("degrade filler",)):
    """Reply sequence for a run that never answers and never stalls."""
    lines = [", ".join("ABCDEFGHIJ"[i] for i in range(width)), "Unknown"]
    for _ in range(max_depth):
        for _ in range(width):
            lines.extend(["A", "A"])  # select, then confirm
        lines.append("Unknown")
    lines.extend(degrade_replies)
    return lines


_OPTION_RE = re.compile(r"^[A-Z]\. (.*)$", re.MULTILINE)


def pruning_options(body: str) -> list[str]:
    """Option texts of a pruning prompt in letter order, read from its
    selection block; empty for a prompt without one (entity extraction)."""
    _, _, selection = body.partition("\nSelection:\n")
    return _OPTION_RE.findall(selection)


class OracleGateway:
    """Deterministic stand-in that walks toward a target entity.

    Pruning requests pick the option mentioning the entity closest to the
    target (confirming single options); reasoning requests answer when the
    target label appears in the prompt, else reply Unknown. Baseline requests
    return a planted wrong answer so degraded runs are visibly incorrect.
    """

    provider = "oracle"

    def __init__(self, kg: KnowledgeGraph, target: str):
        self.kg = kg
        self.target = target
        self._dist = self._distances(target)
        # longest labels first so substring hits are never partial-token
        self._labels = sorted(kg.nodes, key=len, reverse=True)

    def _distances(self, target: str) -> dict[str, int]:
        dist = {target: 0}
        queue = deque([target])
        while queue:
            u = queue.popleft()
            for v in self.kg.structural_neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def _best_distance(self, text: str) -> int:
        best = 10**9
        for label in self._labels:
            if label in text:
                best = min(best, self._dist.get(label, 10**9))
        return best

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        if req.tag == "pruning":
            options = pruning_options(req.prompt.body)
            if not options:
                reply = "A"
            else:
                scores = [self._best_distance(text) for text in options]
                reply = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[scores.index(min(scores))]
            return GenerationResponse(reply, 0, self.provider, 0)
        if req.tag == "reasoning":
            if self.target in req.prompt.body:
                return GenerationResponse(f"Answer: {self.target}", 0, self.provider, 0)
            return GenerationResponse("Unknown", 0, self.provider, 0)
        return GenerationResponse("Answer: oracle-miss", 0, self.provider, 0)
