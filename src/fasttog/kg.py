"""In-memory knowledge graph: triple ingestion, adjacency, and hop-limited sampling.

Entities are identified by their label string (the triple files carry labels
only, so the label doubles as the stable id). The graph is immutable once
built and safe for concurrent readers.

Triple file format: UTF-8, one ``subject<TAB>predicate<TAB>object`` per line.
Lines starting with ``#`` are comments; blank lines are skipped. Labels may
contain spaces but not tabs.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import NotFoundError, TripleFormatError

log = logging.getLogger(__name__)

EntityId = str


class Triple(NamedTuple):
    subject: EntityId
    predicate: str
    object: EntityId


@dataclass(frozen=True)
class SamplerConfig:
    """Controls hop-limited neighborhood sampling.

    A node first discovered at hop ``n`` is retained with probability
    ``rho ** (n - 1)``, so hop-1 neighbors are always kept and deeper
    nodes are kept with exponentially decaying probability.
    """

    rho: float = 1.0
    r_max: int = 2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")


class KnowledgeGraph:
    """Immutable triple store with a per-node index.

    ``_out[v]`` and ``_in[v]`` list the ``Triple`` objects of ``triples``
    whose subject, respectively object, is ``v``, in ``triples`` order; a
    self-loop is in both. Since ``triples`` is sorted, each ``_out[v]`` runs
    in (predicate, object) order, which subgraph extraction relies on.
    """

    def __init__(self, triples: Iterable[Triple]):
        seen: set[Triple] = set()
        ordered: list[Triple] = []
        duplicates = 0
        self_loops = 0
        for t in triples:
            if t in seen:
                duplicates += 1
                continue
            seen.add(t)
            ordered.append(t)
            if t.subject == t.object:
                self_loops += 1
        ordered.sort()
        self.triples: tuple[Triple, ...] = tuple(ordered)
        self.duplicate_count = duplicates
        self.self_loop_count = self_loops
        if duplicates:
            log.warning("collapsed %d duplicate triple(s)", duplicates)
        if self_loops:
            log.warning("graph contains %d self-loop triple(s)", self_loops)

        out: dict[EntityId, list[Triple]] = {}
        inc: dict[EntityId, list[Triple]] = {}
        structural: dict[EntityId, set[EntityId]] = {}
        for t in self.triples:
            out.setdefault(t.subject, []).append(t)
            inc.setdefault(t.object, []).append(t)
            if t.subject != t.object:
                # self-loops are kept for verbalization but carry no
                # structural weight (degree / modularity ignore them)
                structural.setdefault(t.subject, set()).add(t.object)
                structural.setdefault(t.object, set()).add(t.subject)
        self.nodes: frozenset[EntityId] = frozenset(out.keys() | inc.keys())
        self._out = out
        self._in = inc
        self._structural = {v: frozenset(structural.get(v, ())) for v in self.nodes}

    # -- construction -----------------------------------------------------

    @classmethod
    def ingest(cls, source: str | Path) -> "KnowledgeGraph":
        """Parse a TSV triple file. Malformed lines raise TripleFormatError."""
        triples = []
        with open(source, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if not line.strip() or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise TripleFormatError(
                        line_no, f"expected 3 tab-separated fields, got {len(parts)}"
                    )
                subject, predicate, obj = parts
                if not subject or not predicate or not obj:
                    raise TripleFormatError(line_no, "empty field")
                triples.append(Triple(subject, predicate, obj))
        return cls(triples)

    # -- queries -----------------------------------------------------------

    def neighbors(self, v: EntityId) -> list[tuple[str, EntityId, str]]:
        """All incident triples of ``v`` as sorted (predicate, neighbor, direction)."""
        if v not in self.nodes:
            raise NotFoundError(f"unknown entity: {v!r}")
        return sorted(
            [(t.predicate, t.object, "out") for t in self._out.get(v, ())]
            + [(t.predicate, t.subject, "in") for t in self._in.get(v, ())]
        )

    def structural_neighbors(self, v: EntityId) -> frozenset[EntityId]:
        if v not in self.nodes:
            raise NotFoundError(f"unknown entity: {v!r}")
        return self._structural[v]

    def dump(self) -> str:
        """Canonical dump: lexicographically sorted TSV lines."""
        lines = sorted(f"{t.subject}\t{t.predicate}\t{t.object}" for t in self.triples)
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class Subgraph:
    """A hop-limited working graph extracted around a center node set.

    ``triples`` holds every source triple between retained nodes (including
    parallel predicates and self-loops, for verbalization), sorted. ``out``
    indexes those same triples by subject, so member-set lookups read only
    the members' entries and extraction cost follows the neighbourhood, not
    the whole graph. The structural view collapses parallel edges to a
    single undirected edge and drops self-loops; ``m`` is the structural
    edge count used by modularity.
    """

    center: frozenset[EntityId]
    nodes: frozenset[EntityId]
    triples: tuple[Triple, ...]
    out: dict[EntityId, tuple[Triple, ...]] = field(repr=False)
    hop_of: dict[EntityId, int]
    adj: dict[EntityId, frozenset[EntityId]] = field(repr=False)
    m: int = 0

    def degree(self, v: EntityId) -> int:
        return len(self.adj[v])

    def structural_edges(self) -> list[tuple[EntityId, EntityId]]:
        """Undirected structural edges as sorted (u, v) pairs with u < v."""
        out = []
        for u in sorted(self.adj):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    # both lookups walk subjects in sorted order, so they return triples in
    # the same order as ``triples``
    def intra_triples(self, members: frozenset[EntityId]) -> list[Triple]:
        return [t for v in sorted(members) for t in self.out.get(v, ()) if t.object in members]

    def triples_between(
        self, left: frozenset[EntityId], right: frozenset[EntityId]
    ) -> list[Triple]:
        """Triples with one endpoint in ``left`` and the other in ``right``."""
        return [
            t
            for v in sorted(left | right)
            for t in self.out.get(v, ())
            if (v in left and t.object in right) or (v in right and t.object in left)
        ]

    @classmethod
    def _from_retained(
        cls,
        omega: KnowledgeGraph,
        center: frozenset[EntityId],
        retained: set[EntityId],
        hop_of: dict[EntityId, int],
    ) -> "Subgraph":
        # each node's outgoing triples are sorted by (predicate, object), so
        # walking the retained nodes in order yields the triples already sorted
        out: dict[EntityId, tuple[Triple, ...]] = {}
        adj: dict[EntityId, set[EntityId]] = {v: set() for v in retained}
        for v in sorted(retained):
            mine = tuple(t for t in omega._out.get(v, ()) if t.object in retained)
            out[v] = mine
            for t in mine:
                if t.object != v:
                    adj[v].add(t.object)
                    adj[t.object].add(v)
        m = sum(len(s) for s in adj.values()) // 2
        return cls(
            center=center,
            nodes=frozenset(retained),
            triples=tuple(t for ts in out.values() for t in ts),
            out=out,
            hop_of=dict(hop_of),
            adj={v: frozenset(s) for v, s in adj.items()},
            m=m,
        )

    @classmethod
    def from_full_graph(cls, omega: KnowledgeGraph) -> "Subgraph":
        """Wrap a whole graph as a hop-0 subgraph (used by offline detection)."""
        nodes = set(omega.nodes)
        return cls._from_retained(
            omega, frozenset(nodes), nodes, {v: 0 for v in nodes}
        )


def extract_subgraph(
    omega: KnowledgeGraph,
    center: Iterable[EntityId],
    cfg: SamplerConfig,
) -> Subgraph:
    """BFS out to ``r_max`` hops from the center, thinning deeper frontiers.

    A node first reached at hop ``n`` is kept with probability
    ``rho ** (n - 1)``; rejection is final for the extraction (the node is
    never reconsidered via another path). Center nodes are always kept at
    hop 0. The edge set is every source triple between retained nodes.
    Identical (graph, center, config) inputs reproduce identical subgraphs.
    """
    center_set = frozenset(center)
    if not center_set:
        raise NotFoundError("center must contain at least one entity")
    for v in center_set:
        if v not in omega.nodes:
            raise NotFoundError(f"center entity not in graph: {v!r}")

    rng = random.Random(cfg.seed)
    hop_of: dict[EntityId, int] = {v: 0 for v in center_set}
    retained: set[EntityId] = set(center_set)
    decided: set[EntityId] = set(center_set)  # kept or rejected, never revisited
    queue: deque[EntityId] = deque(sorted(center_set))

    while queue:
        u = queue.popleft()
        hop = hop_of[u]
        if hop >= cfg.r_max:
            continue
        for v in sorted(omega.structural_neighbors(u)):
            if v in decided:
                continue
            decided.add(v)
            keep_p = cfg.rho ** hop  # discovery hop is hop + 1
            if keep_p >= 1.0 or rng.random() < keep_p:
                hop_of[v] = hop + 1
                retained.add(v)
                queue.append(v)
    return Subgraph._from_retained(omega, center_set, retained, hop_of)
