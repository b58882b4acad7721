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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidCommunityError, InvalidPartitionError, ModularityUndefinedError
from .kg import EntityId, Subgraph


def canonical_community_id(members: frozenset[EntityId]) -> str:
    digest = hashlib.sha1("\t".join(sorted(members)).encode("utf-8")).hexdigest()
    return digest


@dataclass(frozen=True)
class Community:
    """A node group with cached structural sums relative to one subgraph.

    The members are sorted once, when built. The canonical id is hashed on
    first read and then cached; detection builds many communities whose ids
    are never read.
    """

    members: frozenset[EntityId]
    sigma_in: int
    sigma_tot: int
    modularity: float
    sorted_members: tuple[EntityId, ...] = field(compare=False, repr=False)

    @classmethod
    def from_members(cls, members, g: Subgraph) -> "Community":
        member_set = frozenset(members)
        if not member_set:
            raise InvalidCommunityError("community must have at least one member")
        missing = member_set - g.nodes
        if missing:
            raise InvalidCommunityError(f"members not in subgraph: {sorted(missing)}")
        internal = 0
        sigma_tot = 0
        for v in member_set:
            sigma_tot += g.degree(v)
            internal += len(g.adj[v] & member_set)
        sigma_in = internal  # already the ordered double-count
        q = float(sigma_in) - (sigma_tot**2) / (2.0 * g.m) if g.m else 0.0
        return cls(
            members=member_set,
            sigma_in=sigma_in,
            sigma_tot=sigma_tot,
            modularity=q,
            sorted_members=tuple(sorted(member_set)),
        )

    @cached_property
    def canonical_id(self) -> str:
        return canonical_community_id(self.members)

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
