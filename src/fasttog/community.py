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
:class:`Community` of a block on the block's first read and caches it. A
community is a frozen value: ``Community.from_members`` computes its sums and
hashes its canonical id when it is built, and it keeps nothing of the
subgraph. Detection builds no community, and candidate search builds only
those next to the frontier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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


@dataclass(frozen=True, slots=True)
class Community:
    """A node group of one subgraph, with its structural sums.

    Built only by :meth:`from_members`. Equality, hashing and ``repr`` use
    the members and the three sums; the sorted members, which every trace
    lists, and the canonical id are kept alongside.
    """

    members: frozenset[EntityId]
    sigma_in: int
    sigma_tot: int
    modularity: float
    sorted_members: tuple[EntityId, ...] = field(compare=False, repr=False)
    canonical_id: str = field(compare=False, repr=False)

    @classmethod
    def from_members(cls, members, g: Subgraph) -> "Community":
        member_set = frozenset(members)
        _check_members(member_set, g)
        sorted_members = tuple(sorted(member_set))
        local = list(map(g.index.__getitem__, sorted_members))
        adj = list(map(g.nbrs.__getitem__, local))
        inside, m = set(local), g.m
        # the ordered double-count of internal edges
        sigma_in = sum(map(len, map(inside.intersection, adj)))
        sigma_tot = sum(map(len, adj))
        q = float(sigma_in) - (sigma_tot**2) / (2.0 * m) if m else 0.0
        return cls(
            member_set, sigma_in, sigma_tot, q, sorted_members, canonical_community_id(member_set)
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

    def __init__(self, blocks: tuple[tuple[EntityId, ...], ...], g: Subgraph):
        """A partition of ``g`` whose blocks, sorted tuples in partition order,
        are taken as they are."""
        self.blocks = blocks
        self._g = g
        self._communities = [None] * len(blocks)

    @classmethod
    def from_member_sets(cls, member_sets, g: Subgraph) -> "Partition":
        blocks = []
        for s in member_sets:
            member_set = frozenset(s)
            _check_members(member_set, g)
            blocks.append(tuple(sorted(member_set)))
        blocks.sort()
        return cls(tuple(blocks), g)

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

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.blocks, self._g.m) == (other.blocks, other._g.m)

    def __repr__(self) -> str:
        return f"Partition(blocks={self.blocks!r}, subgraph_m={self._g.m!r})"


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


def partition_dump(p: Partition) -> str:
    """Text dump: one ``index<TAB>members<TAB>score`` line per community."""
    lines = []
    for i, c in enumerate(p.communities):
        lines.append(f"{i}\t{','.join(c.sorted_members)}\t{c.modularity:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")
