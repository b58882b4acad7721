"""Community-to-text conversion and prompt assembly.

Two conversion modes: rule-based triple serialization (t2t) and a fluent
rewrite through a generation backend (g2t) that falls back to t2t when the
backend is absent or failing, or its rewrite is blank.

Triples are serialized in narrative order: triples whose subject never
appears as an object inside the same group come first, then alphabetically,
so simple chains read source-to-sink and star patterns read alphabetically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from .community import Community
from .errors import GatewayError
from .gateway import GenerationRequest, PromptBundle, render
# kept importable: bench/run.py hooks it, and tests/test_bench_hooks.py needs every hook
from .gateway import load_template  # noqa: F401
from .kg import Subgraph, Triple

MODES = ("t2t", "g2t")

OPTION_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class CommunityText:
    community_id: str
    text: str
    mode_used: str
    includes_bridge: bool
    fallback: bool = False


def narrative_order(triples: Sequence[Triple]) -> list[Triple]:
    objects = {t.object for t in triples}
    return sorted(triples, key=lambda t: (1 if t.subject in objects else 0, t))


def _serialize(triples: Sequence[Triple]) -> str:
    return ", ".join(f"{t.subject} {t.predicate} {t.object}" for t in narrative_order(triples))


def triple2text(c: Community, bridge: Sequence[Triple], g: Subgraph) -> CommunityText:
    """Rule-based serialization of a community plus its connecting triples."""
    intra = g.intra_triples(c.members)
    if intra:
        parts = [_serialize(intra)]
    else:
        parts = [", ".join(c.sorted_members)]
    # a connecting triple already rendered above is not repeated
    rendered = set(intra)
    fresh_bridge = [t for t in dict.fromkeys(bridge) if t not in rendered]
    if fresh_bridge:
        parts.append("linked via: " + _serialize(fresh_bridge))
    return CommunityText(
        community_id=c.canonical_id,
        text=", ".join(parts),
        mode_used="t2t",
        includes_bridge=bool(bridge),
    )


def graph2text(
    c: Community,
    bridge: Sequence[Triple],
    backend,
    g: Subgraph,
    templates_dir=None,
) -> CommunityText:
    """Fluent conversion via the rewrite backend; t2t when it is absent,
    failing or blank. The rewrite's non-blank lines are joined with one
    space, so a later line cannot stand as a prompt line of its own."""
    base = triple2text(c, bridge, g)
    if backend is None:
        return dataclasses.replace(base, fallback=True)
    bundle = render("g2t", templates_dir, triples=base.text)
    try:
        reply = backend.generate(GenerationRequest(bundle, "g2t")).text
        text = " ".join(filter(None, map(str.strip, reply.splitlines())))
    except GatewayError:
        text = ""
    if not text:  # a blank rewrite would leave its option bare
        return dataclasses.replace(base, fallback=True)
    return CommunityText(
        community_id=c.canonical_id,
        text=text,
        mode_used="g2t",
        includes_bridge=base.includes_bridge,
    )


def build_pruning_prompt(
    question: str,
    context_chain: Sequence[CommunityText],
    candidates: Sequence[CommunityText],
    k: int,
    templates_dir=None,
) -> PromptBundle:
    """Multiple-choice selection prompt over candidate communities.

    The premise carries the chain's community texts in order; candidates are
    lettered A, B, ... in the given order, followed by an explicit None
    option. The instruction requests one letter for k=1 and exactly k letters
    otherwise.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if len(candidates) > len(OPTION_LETTERS):
        raise ValueError("too many candidates to letter")
    labels = tuple(OPTION_LETTERS[i] for i in range(len(candidates)))
    premise = "\n".join(ct.text for ct in context_chain)
    option_lines = [f"{label}. {ct.text}" for label, ct in zip(labels, candidates)]
    option_lines.append("None. None of the above is relevant.")
    if k == 1:
        instruction = 'Reply with the single letter of the best option, or "None".'
    else:
        instruction = f'Reply with exactly {k} letters separated by commas, or "None".'
    selection = "\n".join(option_lines) + "\n\n" + instruction
    return render("pruning", templates_dir, question=question, premise=premise, selection=selection)


def build_reasoning_prompt(
    question: str,
    chains: Sequence[Sequence[CommunityText]],
    start: CommunityText,
    templates_dir=None,
) -> PromptBundle:
    """Answer-generation prompt over all chains.

    The start community appears exactly once at the head of the context and
    is never repeated inside a chain; chains render at their actual lengths.
    """
    if not chains:
        raise ValueError("at least one chain is required")
    lines = [start.text]
    for i, chain in enumerate(chains, start=1):
        if not chain:
            continue
        lines.append(f"Chain {i}: " + " -> ".join(ct.text for ct in chain))
    return render("reasoning", templates_dir, question=question, context="\n".join(lines))
