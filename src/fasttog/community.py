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

A :class:`Community` keeps its members' structural neighbour sets and the
subgraph's edge count until the sums are first read, then computes all three
at once; detection builds every community of the chosen partition, but
candidate search scores only those next to the frontier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import InvalidCommunityError, InvalidPartitionError, ModularityUndefinedError
from .kg import EntityId, Subgraph


def canonical_community_id(members: frozenset[EntityId]) -> str:
    digest = hashlib.sha1("\t".join(sorted(members)).encode("utf-8")).hexdigest()
    return digest


class Community:
    """A node group of one subgraph, with its structural sums.

    The members are sorted once, when built, because every trace lists them.
    ``sigma_in``, ``sigma_tot`` and ``modularity`` are computed from the
    subgraph together on the first read of any of them, and the canonical id
    is hashed on first read; detection builds many communities whose scores
    and ids are never read. Equality, hashing and ``repr`` use the members and
    the three sums, as a frozen dataclass of those four fields would; nothing
    assigns to a community once it is built.
    """

    __slots__ = ("members", "sorted_members", "_adj", "_m", "_sums", "_id")

    def __init__(self, members: frozenset[EntityId], g: Subgraph):
        self.members = members
        self.sorted_members = tuple(sorted(members))
        # only what the sums read, so that a kept community does not keep the
        # whole subgraph alive. A list, not a tuple: CPython keeps freed small
        # tuples on free lists, and one more tuple per community raised the
        # walk benchmark's peak memory by about 0.2 MB
        self._adj = list(map(g.adj.__getitem__, self.sorted_members))
        self._m = g.m
        self._sums = None
        self._id = None

    @classmethod
    def from_members(cls, members, g: Subgraph) -> "Community":
        member_set = frozenset(members)
        if not member_set:
            raise InvalidCommunityError("community must have at least one member")
        if not member_set <= g.nodes:
            missing = sorted(member_set - g.nodes)
            raise InvalidCommunityError(f"members not in subgraph: {missing}")
        return cls(member_set, g)

    def _scores(self) -> tuple[int, int, float]:
        if self._sums is None:
            members, m = self.members, self._m
            sigma_in = 0  # the ordered double-count of internal edges
            sigma_tot = 0
            for nbrs in self._adj:
                sigma_tot += len(nbrs)
                sigma_in += len(nbrs & members)
            q = float(sigma_in) - (sigma_tot**2) / (2.0 * m) if m else 0.0
            self._sums = (sigma_in, sigma_tot, q)
            self._adj = None
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


@dataclass(frozen=True)
class Partition:
    """A disjoint cover of a subgraph's nodes by communities."""

    communities: tuple[Community, ...]
    subgraph_m: int

    @classmethod
    def from_member_sets(cls, member_sets, g: Subgraph) -> "Partition":
        comms = [Community.from_members(s, g) for s in member_sets]
        comms.sort(key=lambda c: c.sorted_members)
        return cls(tuple(comms), g.m)

    def node_set(self) -> frozenset[EntityId]:
        out: set[EntityId] = set()
        for c in self.communities:
            out.update(c.members)
        return frozenset(out)

    def max_size(self) -> int:
        return max(len(c) for c in self.communities)

    def __iter__(self):
        return iter(self.communities)

    def __len__(self) -> int:
        return len(self.communities)


@dataclass(frozen=True)
class PartitionSnapshot:
    """One recorded partition state along a detector's trajectory."""

    step_index: int
    partition: Partition


def validate_partition(p: Partition, expected_nodes: frozenset[EntityId]) -> None:
    """Check disjointness and exact cover; raise InvalidPartitionError otherwise."""
    total = sum(len(c) for c in p.communities)
    union = p.node_set()
    if total != len(union):
        raise InvalidPartitionError("communities overlap")
    if union != expected_nodes:
        raise InvalidPartitionError(
            f"partition covers {len(union)} nodes, expected {len(expected_nodes)}"
        )


def modularity_community(c: Community, g: Subgraph) -> float:
    """Per-community score: sigma_in - sigma_tot^2 / (2m), recomputed on g."""
    if not c.members:
        raise InvalidCommunityError("community must have at least one member")
    if g.m < 1:
        raise ModularityUndefinedError("subgraph has no structural edges")
    return Community.from_members(c.members, g).modularity


def modularity_global(p: Partition, g: Subgraph) -> float:
    """Global modularity of a partition via per-community sums."""
    if g.m < 1:
        raise ModularityUndefinedError("subgraph has no structural edges")
    validate_partition(p, g.nodes)
    return sum(modularity_community(c, g) for c in p.communities) / (2.0 * g.m)


def partition_dump(p: Partition, label_sep: str = ",") -> str:
    """Text dump: one ``index<TAB>members<TAB>score`` line per community."""
    lines = []
    for i, c in enumerate(p.communities):
        lines.append(f"{i}\t{label_sep.join(c.sorted_members)}\t{c.modularity:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")
