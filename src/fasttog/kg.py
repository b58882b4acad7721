"""In-memory knowledge graph: triple ingestion, adjacency, and hop-limited sampling.

Entities are identified by their label string (the triple files carry labels
only, so the label doubles as the stable id). Inside the store each label is
interned as its rank in sorted label order, and the triples are held as
sorted integer columns; ``Triple`` objects are made only for the rows a
caller reads; per-node reads go through memoryviews (``_views``), and a
whole-store read rebuilds the subject column from the row offsets. The
graph is immutable once built and safe for concurrent readers.

An extracted :class:`Subgraph` numbers its nodes 0..n-1 in label order and
keeps one adjacency, an integer neighbour list per node, read from the
store's neighbour index. Every detector, the component split and candidate
search work on those lists; the subgraph's labels are built with it, its
triple tuple when first read, and each lookup reads the rows it needs from
the store.

Triple file format: UTF-8, one ``subject<TAB>predicate<TAB>object`` per line.
Lines starting with ``#`` are comments; blank and whitespace-only lines are
skipped. Labels may contain spaces but not tabs. A file is read in batches
of lines, each split and interned in one pass; a line that is not a triple,
or not UTF-8, raises ``TripleFormatError`` with its line number. An iterable
of triples is interned in the same batches.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import NotFoundError, TripleFormatError

EntityId = str


class Triple(NamedTuple):
    subject: EntityId
    predicate: str
    object: EntityId


# a batch of triples as its subject, predicate and object labels
_Columns = tuple[Sequence[str], Sequence[str], Sequence[str]]


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
    """Immutable triple store held as sorted integer columns.

    Entity ``i`` is ``_labels[i]`` and predicate ``j`` is ``_predicates[j]``;
    ids are ranks in sorted label order, so integer order is label order, and
    a label's id is found by bisecting ``_labels``, with no label map kept.
    The deduplicated triples are sorted by (subject, predicate, object), which
    is the order of sorted ``Triple`` tuples. The store keeps their predicate
    and object columns, ``_p`` and ``_o``, and no subject column: two
    compressed sparse row (CSR) indexes read one node's share of them.

    * rows ``_out_start[v]`` up to ``_out_start[v + 1]`` have subject ``v``,
      in (predicate, object) order, which subgraph extraction relies on;
    * ``_nbr[_nbr_start[v]:_nbr_start[v + 1]]`` are the structural
      neighbours of ``v`` (either direction, parallel edges collapsed,
      self-loops dropped), ascending.

    Both offset arrays are int32, so a store holds fewer than 2**30 rows.
    Every per-node read (``neighbors``, ``structural_neighbors``, subgraphs)
    takes single items and short runs of the columns and indexes through
    memoryviews (``_views``), which hand back Python ints. A whole-store read
    rebuilds the subject column from ``_out_start`` (``_label_rows``).

    The sort key and the neighbour index are built by helpers that free
    their temporaries before they return, so ingest peaks little above what
    the store keeps. The neighbour index packs each edge as one integer below
    ``n * n``: int32 while ``n * n < 2**31`` (46,340 entities or fewer),
    int64 above. ``label in kg`` is the cheap membership test; the label set
    ``nodes`` is built on first read.
    """

    def __init__(self, triples: Iterable[Triple]):
        self._build(_triple_columns(triples))

    def _build(self, batches: Iterable[_Columns]) -> None:
        """Build the store from batches of label columns, as ``_parse_tsv``
        and ``_triple_columns`` yield them."""
        self._labels, self._predicates, columns = _intern(batches)
        n = len(self._labels)
        read = len(columns[0])
        s, p, o = _sorted_distinct(columns, n, len(self._predicates))
        self._p, self._o = p, o
        self.duplicate_count = read - len(s)
        self.self_loop_count = int(np.count_nonzero(s == o))
        if self.duplicate_count or self.self_loop_count:
            import logging  # loaded only when there is something to warn about

            log = logging.getLogger(__name__)
            if self.duplicate_count:
                log.warning("collapsed %d duplicate triple(s)", self.duplicate_count)
            if self.self_loop_count:
                log.warning("graph contains %d self-loop triple(s)", self.self_loop_count)
        if 2 * len(s) > _OFFSET_LIMIT:
            raise ValueError(f"{len(s)} distinct triples overflow the int32 row offsets")
        # int32 probes: int64 ones would make numpy search an int64 copy of ``s``
        self._out_start = np.searchsorted(s, np.arange(n + 1, dtype=np.int32)).astype(np.int32)
        ends = [s, o]
        del s  # the helper frees the subject column before its pairs buffer
        self._nbr, self._nbr_start = _neighbour_index(ends, n)

    # -- construction -----------------------------------------------------

    @classmethod
    def ingest(cls, source: str | Path) -> "KnowledgeGraph":
        """Parse a TSV triple file. A malformed line, or one that is not
        UTF-8, raises TripleFormatError with its line number."""
        graph = cls.__new__(cls)
        try:
            with open(source, encoding="utf-8") as fh:
                graph._build(_parse_tsv(fh))
        except UnicodeDecodeError:
            # the decoder's position counts from its chunk; find the line by
            # reading the file again as the text reader splits it
            with open(source, encoding="utf-8", errors="surrogateescape") as fh:
                _check_lines(fh, 1)  # raises: some line holds an escaped byte
            raise
        return graph

    # -- queries -----------------------------------------------------------

    @cached_property
    def nodes(self) -> frozenset[EntityId]:
        """Every entity label. Built on first read; the walk tests ``in kg``."""
        return frozenset(self._labels)

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        """Every triple, sorted. Built on first read; extraction never reads it."""
        # a list first: tuple() of an iterator of unknown length builds more slowly
        return tuple(list(map(Triple._make, self._label_rows())))

    def neighbors(self, v: EntityId) -> list[tuple[str, EntityId, str]]:
        """All incident triples of ``v`` as sorted (predicate, neighbor, direction).

        There is no index by object: the rows with object ``v`` are found
        among the outgoing rows of ``v``'s structural neighbours and, for
        self-loops, of ``v`` itself. A call costs the out-degree of ``v``'s
        neighbours.
        """
        i = self._index(v)
        labels, predicates = self._labels, self._predicates
        p, o, out_start, nbr, nbr_start = self._views()
        found = []
        for u in nbr[nbr_start[i] : nbr_start[i + 1]].tolist() + [i]:
            lo, hi = out_start[u], out_start[u + 1]
            for q, w in zip(p[lo:hi].tolist(), o[lo:hi].tolist()):
                if u == i:
                    found.append((predicates[q], labels[w], "out"))
                if w == i:
                    found.append((predicates[q], labels[u], "in"))
        return sorted(found)

    def structural_neighbors(self, v: EntityId) -> frozenset[EntityId]:
        i = self._index(v)
        _, _, _, nbr, nbr_start = self._views()
        return frozenset(map(self._labels.__getitem__, nbr[nbr_start[i] : nbr_start[i + 1]].tolist()))

    def dump(self) -> str:
        """Canonical dump: lexicographically sorted TSV lines."""
        lines = sorted(map("\t".join, self._label_rows()))
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return self._find(label) is not None

    def _find(self, label: object) -> int | None:
        """The id of ``label``, or None if it is not an entity label."""
        if not isinstance(label, str):
            return None
        labels = self._labels
        i = bisect_left(labels, label)
        return i if i < len(labels) and labels[i] == label else None

    def _index(self, v: EntityId) -> int:
        i = self._find(v)
        if i is None:
            raise NotFoundError(f"unknown entity: {v!r}")
        return i

    def _views(self) -> tuple[memoryview, ...]:
        """The ``_p`` and ``_o`` columns, ``_out_start``, ``_nbr`` and
        ``_nbr_start`` as memoryviews, whose items and slices read as Python
        ints at about half the cost of numpy's. Made per call, so the store
        keeps none."""
        arrays = (self._p, self._o, self._out_start, self._nbr, self._nbr_start)
        return tuple(map(memoryview, arrays))

    def _label_rows(self) -> Iterator[tuple[str, str, str]]:
        """Every row as (subject, predicate, object) labels, in row order; each
        entity is repeated over its run of rows, so one with none is skipped."""
        labels, predicates = self._labels, self._predicates
        s = np.repeat(np.arange(len(labels), dtype=np.int32), np.diff(self._out_start))
        return zip(
            map(labels.__getitem__, s.tolist()),
            map(predicates.__getitem__, self._p.tolist()),
            map(labels.__getitem__, self._o.tolist()),
        )


# a packed (subject, predicate, object) sort key must stay below this
_KEY_LIMIT = 2**63
# row and neighbour offsets are int32; the neighbour index holds at most two
# entries per row
_OFFSET_LIMIT = 2**31 - 1
# lines (or triples) read and interned at a time; a batch's label strings are
# held until it is interned, and larger batches raise the ingest peak
_BATCH = 128


def _parse_tsv(lines: TextIO) -> Iterator[_Columns]:
    """The triples of a text file read with universal newlines, ``_BATCH``
    lines at a time, each batch as its subject, predicate and object columns.

    Comment, blank and whitespace-only lines are dropped with one
    comprehension, and the batch's kept lines are joined and split on tabs
    at once. A batch with a line that does not hold exactly two tabs, or
    with an empty field, is read again line by line (``_check_lines``),
    which raises TripleFormatError at its first bad line.
    """
    for first in count(1, _BATCH):
        batch = list(islice(lines, _BATCH))
        if not batch:
            return
        kept = [line for line in batch if line[0] != "#" and not line.isspace()]
        if not kept:
            continue
        # a label holds no newline, and only a file's last line may lack one
        text = "".join(kept).removesuffix("\n")
        cells = text.replace("\n", "\t").split("\t")
        # every kept line holds exactly two tabs if and only if the cells,
        # joined three to a line, give the text back
        rows = zip(*[iter(cells)] * 3)
        if "\n".join(map("\t".join, rows)) != text or "" in cells:
            _check_lines(batch, first)
        yield cells[0::3], cells[1::3], cells[2::3]


def _check_lines(lines: Iterable[str], first: int) -> None:
    """Raise TripleFormatError at the first line of ``lines`` that is not a
    triple, a comment or blank, or that holds an undecodable byte (read with
    ``errors="surrogateescape"``); ``first`` is the first line's number."""
    for line_no, raw in enumerate(lines, start=first):
        line = raw.rstrip("\r\n")
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00  # the escaped byte
            raise TripleFormatError(line_no, f"invalid UTF-8 byte 0x{byte:02x}") from None
        if not line or line.isspace() or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise TripleFormatError(
                line_no, f"expected 3 tab-separated fields, got {len(parts)}"
            )
        if "" in parts:
            raise TripleFormatError(line_no, "empty field")


def _triple_columns(triples: Iterable[Triple]) -> Iterator[_Columns]:
    """``triples``, ``_BATCH`` at a time, as columns, as ``_parse_tsv`` yields
    them. A row without three fields raises ValueError."""
    rows = iter(triples)
    while batch := list(islice(rows, _BATCH)):
        subjects, predicates, objects = zip(*batch, strict=True)
        yield subjects, predicates, objects


def _intern(batches: Iterable[_Columns]) -> tuple[list[str], list[str], list[np.ndarray]]:
    """Intern the labels of batches of triples, each batch as its subject,
    predicate and object columns.

    Returns the entity and predicate labels in id order, and the subject,
    predicate and object id columns in input order. Each column of a batch
    is interned in one ``map`` over a label dict, which gives a missing
    label the next first-seen id; the ids are then renumbered as ranks in
    sorted label order.
    """
    entities: defaultdict[str, int] = defaultdict(count().__next__)
    predicates: defaultdict[str, int] = defaultdict(count().__next__)
    entity, predicate = entities.__getitem__, predicates.__getitem__
    s_col, p_col, o_col = array("i"), array("i"), array("i")
    for s_labels, p_labels, o_labels in batches:
        k = len(s_labels)
        # numpy converts the ids to int32 faster than an array appends them
        s_col.frombytes(_int32_bytes(map(entity, s_labels), k))
        p_col.frombytes(_int32_bytes(map(predicate, p_labels), k))
        o_col.frombytes(_int32_bytes(map(entity, o_labels), k))
    # the last batch's labels are freed before the ranked columns are made
    s_labels = p_labels = o_labels = None
    # ids so far are in first-seen order; renumber them as ranks
    labels, rank = _rank_in_label_order(entities)
    predicate_labels, p_rank = _rank_in_label_order(predicates)
    del entities, entity  # freed before the ranked columns are made
    # rebinding frees each first-seen column once its ranked copy exists
    s_col = rank[np.asarray(s_col)]
    p_col = p_rank[np.asarray(p_col)]
    o_col = rank[np.asarray(o_col)]
    return labels, predicate_labels, [s_col, p_col, o_col]


def _int32_bytes(ids: Iterator[int], k: int) -> memoryview:
    """The ``k`` ints of ``ids`` as int32 bytes."""
    return np.fromiter(ids, np.int32, k).data.cast("B")


def _rank_in_label_order(ids: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Rank the labels of ``ids`` (label -> first-seen id) in sorted label
    order. Returns the labels by rank and the first-seen id -> rank map.

    Labels are sorted as Python strings: a numpy ``U`` array would drop
    trailing NULs and merge ``"a"`` with ``"a\\x00"``.
    """
    labels = sorted(ids)
    rank = np.empty(len(labels), dtype=np.int32)
    rank[list(map(ids.__getitem__, labels))] = np.arange(len(labels), dtype=np.int32)
    return labels, rank


def _sorted_distinct(columns: list[np.ndarray], n: int, n_p: int):
    """The distinct rows of the int32 (s, p, o) id ``columns``, ascending.

    Takes the columns out of the list, so each one is freed as soon as it is
    packed into the int64 sort key.
    """
    s, p, o = columns
    columns.clear()
    if n * n_p * n >= _KEY_LIMIT:  # the packed key would overflow
        order = np.lexsort((o, p, s))
        s, p, o = s[order], p[order], o[order]
        fresh = _first_of_runs(s) | _first_of_runs(p) | _first_of_runs(o)
        return s[fresh], p[fresh], o[fresh]
    key = s.astype(np.int64)
    del s
    key *= n_p
    key += p
    del p
    key *= n
    key += o
    del o
    key.sort()
    key = key[_first_of_runs(key)]
    # unpack from the lowest field up, shrinking the key in place
    o = _remainder32(key, n)
    key //= n
    p = _remainder32(key, n_p)
    key //= n_p
    return key.astype(np.int32), p, o


def _neighbour_index(ends: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The structural-neighbour CSR of the rows ``ends = [s, o]``: neighbours,
    offsets. Takes the columns out of the list, so a column the caller no
    longer holds is freed before the pairs buffer is made.

    Each distinct undirected edge is packed once as ``low * n + high``, int32
    while ``n * n`` fits, and then stored in both directions in one buffer,
    sorted. Self-loops are kept for verbalization but carry no structural
    weight (degree and modularity ignore them), so they are dropped here.
    """
    s, o = ends
    ends.clear()
    key = np.int32 if n * n < 2**31 else np.int64
    keep = s != o
    s, o = s[keep], o[keep]
    edges = np.minimum(s, o).astype(key, copy=False)
    edges *= n
    edges += np.maximum(s, o)
    del s, o, keep
    edges.sort()
    edges = edges[_first_of_runs(edges)]
    pairs = np.empty(2 * len(edges), dtype=key)
    pairs[: len(edges)] = edges
    back = pairs[len(edges) :]
    np.remainder(edges, n, out=back)
    back *= n
    edges //= n
    back += edges
    del edges
    pairs.sort()
    start = np.searchsorted(pairs, np.arange(n + 1, dtype=key) * n).astype(np.int32)
    return _remainder32(pairs, n), start


def _remainder32(packed: np.ndarray, base: int) -> np.ndarray:
    """``packed % base`` as int32, with no int64 copy of ``packed``."""
    return np.remainder(packed, base, out=np.empty(len(packed), dtype=np.int32), casting="unsafe")


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``ordered`` that differ from the one before."""
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    return fresh


class Subgraph:
    """A hop-limited working graph extracted around a center node set.

    A subgraph is held by local index: node ``i`` is store id ``ids[i]``, and
    the ids ascend, so local order is label order. ``nbrs[i]`` lists the local
    indices of node ``i``'s structural neighbours, ascending: parallel edges
    collapse to one undirected edge and self-loops are dropped. ``m`` is the
    structural edge count used by modularity, and ``n_centres`` the number of
    hop-0 nodes. These lists are the subgraph's one adjacency: every detector,
    the component split and candidate search read them.

    ``labels`` (by local index), ``nodes`` and ``index`` (label -> local
    index) are built with the subgraph, since every search reads them. Two
    views are built on first read: ``hop_of`` (centers first, in center-set
    order, then discovery order) and ``triples``, every source triple between
    retained nodes (including parallel predicates and self-loops, for
    verbalization), sorted. Each lookup reads its nodes' rows from the store,
    and ``Triple`` objects are made only for the triples a lookup returns.
    """

    def __init__(self, omega: KnowledgeGraph, hop: dict[int, int], n_centres: int):
        # ``hop`` maps each retained store id to its hop, in discovery order
        self._omega = omega
        self._hop = hop
        self.n_centres = n_centres
        self.ids = ids = sorted(hop)
        self._local = local = dict(zip(ids, range(len(ids))))
        self._views = omega._views()
        _, _, _, nbr, nbr_start = self._views
        self.nbrs = [
            [local[u] for u in nbr[nbr_start[v] : nbr_start[v + 1]].tolist() if u in local]
            for v in ids
        ]
        self.m = sum(map(len, self.nbrs)) // 2
        self.labels = labels = list(map(omega._labels.__getitem__, ids))
        self.nodes = frozenset(labels)
        self.index = dict(zip(labels, range(len(ids))))

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def hop_of(self) -> dict[EntityId, int]:
        labels = self._omega._labels
        return {labels[v]: h for v, h in self._hop.items()}

    @property
    def centres(self) -> list[int]:
        """The hop-0 nodes' local indices, in center-set order."""
        return list(map(self._local.__getitem__, islice(self._hop, self.n_centres)))

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        every = set(range(len(self.ids)))
        return tuple(t for _, _, t in self.rows_between(every, every))

    def intra_triples(self, members: frozenset[EntityId]) -> list[Triple]:
        return self.triples_between(members, members)

    def triples_between(
        self, left: frozenset[EntityId], right: frozenset[EntityId]
    ) -> list[Triple]:
        """Triples with one endpoint in ``left`` and the other in ``right``."""
        return [t for _, _, t in self.rows_between(self.local_set(left), self.local_set(right))]

    def rows_between(self, left: set[int], right: set[int]) -> list[tuple[int, int, Triple]]:
        """The triples with one endpoint in ``left`` and the other in
        ``right`` (sets of local indices), in triple order, each as
        ``(subject, object, triple)`` with local endpoints.

        Subjects are walked in ascending order, and each one's rows are read
        from the store in (predicate, object) order, so every lookup returns
        triples in the order of ``triples``. An object outside the subgraph
        has no local index, so its row is never kept."""
        ids, nbrs, local = self.ids, self.nbrs, self._local
        labels, predicates = self.labels, self._omega._predicates
        p, o, out_start, _, _ = self._views
        either = left | right
        out = []
        for i in sorted(either):
            if i in left:
                targets = either if i in right else right
            else:
                targets = left
            # a row joins i to a structural neighbour, or is a self-loop
            if i not in targets and targets.isdisjoint(nbrs[i]):
                continue
            lo, hi = out_start[ids[i]], out_start[ids[i] + 1]
            out += [
                (i, j, Triple(labels[i], predicates[q], labels[j]))
                for q, j in zip(p[lo:hi].tolist(), map(local.get, o[lo:hi].tolist()))
                if j in targets
            ]
        return out

    def local_set(self, labels) -> set[int]:
        """The local indices of ``labels``; labels outside the subgraph have none."""
        local = set(map(self.index.get, labels))
        local.discard(None)
        return local

    @classmethod
    def from_full_graph(cls, omega: KnowledgeGraph) -> "Subgraph":
        """Wrap a whole graph as a hop-0 subgraph (used by offline detection)."""
        n = len(omega._labels)
        return cls(omega, dict.fromkeys(range(n), 0), n)


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
    # retained ids and their hops, in discovery order: the centers first, in
    # center-set order
    hop: dict[int, int] = {}
    for v in center_set:
        i = omega._find(v)
        if i is None:
            raise NotFoundError(f"center entity not in graph: {v!r}")
        hop[i] = 0

    # the walk runs over ids; ascending id order is sorted label order, so
    # neighbours are visited, and random draws made, in label order. The
    # generator is seeded on the first draw: at rho == 1 nothing is drawn
    rng = None
    r_max = cfg.r_max
    keep_p = [cfg.rho**h for h in range(r_max)]  # for a node found from hop h
    _, _, _, nbr, nbr_start = omega._views()
    decided: set[int] = set(hop)  # kept or rejected, never revisited
    queue: deque[int] = deque(sorted(hop))  # nodes below hop r_max

    while queue:
        u = queue.popleft()
        h = hop[u]
        p = keep_p[h]
        for v in nbr[nbr_start[u] : nbr_start[u + 1]].tolist():
            if v in decided:
                continue
            decided.add(v)
            if p < 1.0:
                if rng is None:
                    rng = random.Random(cfg.seed)
                if rng.random() >= p:
                    continue
            hop[v] = h + 1
            if h + 1 < r_max:
                queue.append(v)
    return Subgraph(omega, hop, len(center_set))
