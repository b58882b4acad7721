"""Candidate selection and two-stage pruning around the current community.

Candidates are the partition's communities that are new (not in the visited
history), disjoint from the current community, and directly connected to it
by at least one edge. Coarse pruning keeps the top-k candidates by their
community score; fine pruning asks the generation gateway to choose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

# kept importable: bench/run.py hooks it, and tests/test_bench_hooks.py needs every hook
from .community import Community, Partition, modularity_community  # noqa: F401
from .gateway import GenerationRequest, parse_choice
from .kg import Subgraph, Triple
from .verbalize import CommunityText, build_pruning_prompt


@dataclass(frozen=True)
class CandidateCommunity:
    community: Community
    bridge_edges: tuple[Triple, ...]


@dataclass(frozen=True)
class PruneOutcome:
    chosen: tuple[CandidateCommunity, ...]
    chosen_texts: tuple[CommunityText, ...] = ()
    none_selected: bool = False
    raw_reply: str | None = None


def _rank(cand: CandidateCommunity) -> tuple[float, str]:
    """The candidate order: score descending, then canonical id ascending."""
    return -cand.community.modularity, cand.community.canonical_id


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
    # only the blocks holding one are built; the sort key below is total, so
    # the order they are visited in does not matter. Nodes are local indices
    nbrs = g.nbrs
    inside = g.local_set(current.members)
    frontier = set().union(*map(nbrs.__getitem__, inside)) - inside
    index = g.index
    block_of = [None] * len(g)
    for i, block in enumerate(p.blocks):
        for v in block:
            block_of[index[v]] = i
    # every connecting triple joins a current member to a frontier node of
    # the candidate; grouping keeps each block's triples in triple order
    bridges_of: dict[int, list[Triple]] = {}
    for i, j, t in g.rows_between(frontier, inside):
        bridges_of.setdefault(block_of[i if i in frontier else j], []).append(t)
    out = []
    for i, bridges in bridges_of.items():
        c = p.community(i)
        if c.canonical_id in h:
            continue
        out.append(CandidateCommunity(c, tuple(bridges)))
    out.sort(key=_rank)
    return out


def coarse_prune(cands: Sequence[CandidateCommunity], k: int) -> list[CandidateCommunity]:
    """Top-k candidates by score, ties broken by canonical id ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sorted(cands, key=_rank)[:k]


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
    texts: Sequence[CommunityText],
    templates_dir=None,
) -> PruneOutcome:
    """Model-driven final selection among the coarse survivors.

    Issues exactly one generation request. A reply naming no relevant option
    yields an outcome with ``none_selected`` set; an unparseable reply raises
    with the raw text attached. ``texts[i]`` is the prompt text of ``cands[i]``.
    ``k`` is clamped to the candidate count, so a width-sized pick over fewer
    surviving candidates selects what exists.
    """
    if not cands or len(texts) != len(cands):
        raise ValueError("cands must be non-empty, with one text each")
    k = min(k, len(cands))
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
