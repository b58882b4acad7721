"""Communities, partitions, and modularity bookkeeping.

Conventions (chosen so per-community sums reproduce the direct double-sum
definition of modularity exactly):

* ``sigma_in`` counts each internal structural edge twice (the ordered
  adjacency double-count), so it is always even.
* ``sigma_tot`` is the sum of structural degrees of the members.
* Per-community score ``Q(c) = sigma_in - sigma_tot**2 / (2m)``.
* Global modularity is ``(1 / 2m) * sum_c Q(c)``, identical to summing
  ``A_ij - k_i k_j / 2m`` over all same-community ordered node pairs.

Structure is undirected and unweighted: parallel predicates between the same
node pair count as one edge, and self-loops carry no structural weight.

A :class:`Partition` is its blocks, tuples of member labels; it builds the
:class:`Community` of a block on the block's first read. A community keeps
its members' local indices and neighbour lists and the subgraph's edge count
until its sums are first read, then computes all three at once. Detection
builds no community, and candidate search builds and scores only those next
to the frontier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import InvalidCommunityError, InvalidPartitionError, ModularityUndefinedError
from .kg import EntityId, Subgraph


def canonical_community_id(members: frozenset[EntityId]) -> str:
    digest = hashlib.sha1("\t".join(sorted(members)).encode("utf-8")).hexdigest()
    return digest


def _check_members(member_set: frozenset[EntityId], g: Subgraph) -> None:
    if not member_set:
        raise InvalidCommunityError("community must have at least one member")
    if not member_set <= g.nodes:
        missing = sorted(member_set - g.nodes)
        raise InvalidCommunityError(f"members not in subgraph: {missing}")


class Community:
    """A node group of one subgraph, with its structural sums.

    The members are sorted once, when built, because every trace lists them.
    ``sigma_in``, ``sigma_tot`` and ``modularity`` are computed from the
    subgraph together on the first read of any of them, and the canonical id
    is hashed on first read, so a community costs only what is read of it.
    Equality, hashing and ``repr`` use the members and the three sums, as a
    frozen dataclass of those four fields would; nothing assigns to a
    community once it is built.
    """

    __slots__ = ("members", "sorted_members", "_local", "_adj", "_m", "_sums", "_id")

    def __init__(self, members: frozenset[EntityId], g: Subgraph):
        self.members = members
        self.sorted_members = tuple(sorted(members))
        # only what the sums read, so that a kept community does not keep the
        # whole subgraph alive: the members' local indices and neighbour
        # lists. Lists, not tuples: CPython keeps freed small tuples on free
        # lists, and one more tuple per community raised the walk
        # benchmark's peak memory by about 0.2 MB
        self._local = list(map(g.index.__getitem__, self.sorted_members))
        self._adj = list(map(g.nbrs.__getitem__, self._local))
        self._m = g.m
        self._sums = None
        self._id = None

    @classmethod
    def from_members(cls, members, g: Subgraph) -> "Community":
        member_set = frozenset(members)
        _check_members(member_set, g)
        return cls(member_set, g)

    def _scores(self) -> tuple[int, int, float]:
        if self._sums is None:
            inside, adj, m = set(self._local), self._adj, self._m
            # the ordered double-count of internal edges
            sigma_in = sum(map(len, map(inside.intersection, adj)))
            sigma_tot = sum(map(len, adj))
            q = float(sigma_in) - (sigma_tot**2) / (2.0 * m) if m else 0.0
            self._sums = (sigma_in, sigma_tot, q)
            self._local = self._adj = None
        return self._sums

    @property
    def sigma_in(self) -> int:
        return self._scores()[0]

    @property
    def sigma_tot(self) -> int:
        return self._scores()[1]

    @property
    def modularity(self) -> float:
        return self._scores()[2]

    @property
    def canonical_id(self) -> str:
        if self._id is None:
            self._id = canonical_community_id(self.members)
        return self._id

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.members, *self._scores()) == (other.members, *other._scores())

    def __hash__(self) -> int:
        return hash((self.members, *self._scores()))

    def __repr__(self) -> str:
        sigma_in, sigma_tot, q = self._scores()
        return (
            f"Community(members={self.members!r}, sigma_in={sigma_in!r}, "
            f"sigma_tot={sigma_tot!r}, modularity={q!r})"
        )

    def __len__(self) -> int:
        return len(self.members)


class Partition:
    """A disjoint cover of a subgraph's nodes by communities.

    A partition is its blocks: ``blocks`` holds each block's member labels as
    a tuple in label order, and the blocks are in the order of those tuples.
    The :class:`Community` of block ``i`` is built through
    :meth:`Community.from_members` on the first ``community(i)`` and then
    cached, so ``communities`` returns the same objects on every read; a walk
    builds only the communities next to its frontier.
    """

    __slots__ = ("blocks", "_g", "_communities")

    @classmethod
    def of_blocks(cls, blocks: tuple[tuple[EntityId, ...], ...], g: Subgraph) -> "Partition":
        """A partition of ``g`` whose blocks, sorted tuples in partition order,
        are taken as they are."""
        p = cls.__new__(cls)
        p.blocks = blocks
        p._g = g
        p._communities = [None] * len(blocks)
        return p

    @classmethod
    def from_member_sets(cls, member_sets, g: Subgraph) -> "Partition":
        blocks = []
        for s in member_sets:
            member_set = frozenset(s)
            _check_members(member_set, g)
            blocks.append(tuple(sorted(member_set)))
        blocks.sort()
        return cls.of_blocks(tuple(blocks), g)

    def community(self, i: int) -> Community:
        c = self._communities[i]
        if c is None:
            c = self._communities[i] = Community.from_members(self.blocks[i], self._g)
        return c

    @property
    def communities(self) -> tuple[Community, ...]:
        return tuple(map(self.community, range(len(self.blocks))))

    def node_set(self) -> frozenset[EntityId]:
        return frozenset().union(*self.blocks)

    def max_size(self) -> int:
        return max(map(len, self.blocks))

    def __iter__(self):
        return iter(self.communities)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.blocks, self._g.m) == (other.blocks, other._g.m)

    def __hash__(self) -> int:
        return hash((self.blocks, self._g.m))

    def __repr__(self) -> str:
        return f"Partition(blocks={self.blocks!r}, subgraph_m={self._g.m!r})"


@dataclass(frozen=True)
class PartitionSnapshot:
    """One recorded partition state along a detector's trajectory."""

    step_index: int
    partition: Partition


def validate_partition(p: Partition, expected_nodes: frozenset[EntityId]) -> None:
    """Check disjointness and exact cover; raise InvalidPartitionError otherwise."""
    total = sum(map(len, p.blocks))
    union = p.node_set()
    if total != len(union):
        raise InvalidPartitionError("communities overlap")
    if union != expected_nodes:
        raise InvalidPartitionError(
            f"partition covers {len(union)} nodes, expected {len(expected_nodes)}"
        )


def modularity_community(c: Community, g: Subgraph) -> float:
    """Per-community score: sigma_in - sigma_tot^2 / (2m), recomputed on g."""
    fresh = Community.from_members(c.members, g)  # checks the members first
    if g.m < 1:
        raise ModularityUndefinedError("subgraph has no structural edges")
    return fresh.modularity


def modularity_global(p: Partition, g: Subgraph) -> float:
    """Global modularity of a partition via per-community sums."""
    if g.m < 1:
        raise ModularityUndefinedError("subgraph has no structural edges")
    validate_partition(p, g.nodes)
    return sum(Community.from_members(block, g).modularity for block in p.blocks) / (2.0 * g.m)


def partition_dump(p: Partition, label_sep: str = ",") -> str:
    """Text dump: one ``index<TAB>members<TAB>score`` line per community."""
    lines = []
    for i, c in enumerate(p.communities):
        lines.append(f"{i}\t{label_sep.join(c.sorted_members)}\t{c.modularity:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")
