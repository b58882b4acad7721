"""Candidate selection and two-stage pruning around the current community.

Candidates are the partition's communities that are new (not in the visited
history), disjoint from the current community, and directly connected to it
by at least one edge. Coarse pruning keeps the top-k candidates by their
community score; fine pruning asks the generation gateway to choose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .community import Community, Partition, modularity_community
from .gateway import GenerationRequest, parse_choice
from .kg import Subgraph, Triple
from .verbalize import CommunityText, build_pruning_prompt


@dataclass(frozen=True)
class CandidateCommunity:
    community: Community
    bridge_edges: tuple[Triple, ...]
    modularity: float


@dataclass(frozen=True)
class PruneOutcome:
    chosen: tuple[CandidateCommunity, ...]
    chosen_texts: tuple[CommunityText, ...] = ()
    none_selected: bool = False
    raw_reply: str | None = None


def candidate_communities(
    p: Partition, current: Community, h: set[str], g: Subgraph
) -> list[CandidateCommunity]:
    """One-hop-adjacent, unvisited communities of ``p`` around ``current``.

    Re-detection may absorb current members into a larger community, so
    connecting triples are taken between the candidate's novel members and
    the current member set; candidates contributing no novel connected node
    are dropped. Ordered by score descending, then canonical id.
    """
    # a community holds a connecting triple iff it holds a frontier node, so
    # the rest are skipped before their ids are hashed or triples read
    frontier = set().union(*(g.adj[v] for v in current.members)) - current.members
    out = []
    for c in p.communities:
        if c.members.isdisjoint(frontier) or c.canonical_id in h:
            continue
        bridges = g.triples_between(c.members - current.members, current.members)
        out.append(
            CandidateCommunity(c, tuple(sorted(bridges)), modularity_community(c, g))
        )
    out.sort(key=lambda cand: (-cand.modularity, cand.community.canonical_id))
    return out


def coarse_prune(cands: Sequence[CandidateCommunity], k: int) -> list[CandidateCommunity]:
    """Top-k candidates by score, ties broken by canonical id ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(cands, key=lambda cand: (-cand.modularity, cand.community.canonical_id))
    return ranked[:k]


def random_prune(
    cands: Sequence[CandidateCommunity], k: int, rng: random.Random
) -> list[CandidateCommunity]:
    """Structure-blind baseline: keep k uniformly sampled candidates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(cands) <= k:
        return list(cands)
    return rng.sample(list(cands), k)


def fine_prune(
    question: str,
    cands: Sequence[CandidateCommunity],
    context_chain: Sequence[CommunityText],
    gateway,
    k: int,
    verbalizer: Callable[[CandidateCommunity], CommunityText],
    templates_dir=None,
) -> PruneOutcome:
    """Model-driven final selection among the coarse survivors.

    Issues exactly one generation request. A reply naming no relevant option
    yields an outcome with ``none_selected`` set; an unparseable reply raises
    with the raw text attached. ``k`` is clamped to the candidate count, so a
    width-sized pick over fewer surviving candidates selects what exists.
    """
    if not cands:
        raise ValueError("cands must be non-empty")
    k = min(k, len(cands))
    texts = [verbalizer(c) for c in cands]
    bundle = build_pruning_prompt(question, context_chain, texts, k, templates_dir=templates_dir)
    resp = gateway.generate(GenerationRequest(bundle, "pruning"))
    indices = parse_choice(resp.text, len(cands), k)
    if indices is None:
        return PruneOutcome((), (), True, resp.text)
    return PruneOutcome(
        tuple(cands[i] for i in indices),
        tuple(texts[i] for i in indices),
        False,
        resp.text,
    )
