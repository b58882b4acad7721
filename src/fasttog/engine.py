"""The iterative community-by-community reasoning loop.

One run proceeds in two phases. The initial phase turns the question's
subject entity into a single-node start community, runs one local community
search with a width-sized multiple choice to pick the header community of
each chain, and issues one reasoning call. Each following iteration extends
every active chain by one community (a single-choice selection followed by a
relevance confirmation, two generation calls per chain), then issues one
global reasoning call over all chains. A chain whose selection or
confirmation comes back negative is discontinued. If the depth budget is
exhausted without an answer, the run degrades to an inner-knowledge baseline.

Call accounting: each run counts its own calls, g2t rewrites included, in a
fresh ledger that ``RunTrace.ledger`` reports; retries inside a gateway count
once. With no stalled chains the retrieval calls total exactly
``2 * width * max_depth + max_depth + 2`` before any degrade call (one
pruning and one reasoning call in the initial phase, two pruning calls per
chain plus one reasoning call per iteration).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .community import Community
from .detect import DETECTOR_KINDS, detect
from .errors import FastToGError, ResolutionError
from .gateway import (
    PRUNING_TEMPERATURE,
    CallLedger,
    GenerationRequest,
    GenerationResponse,
    ParsedVerdict,
    baseline_answer,
    load_template,
    parse_verdict,
    PromptBundle,
)
from .kg import KnowledgeGraph, SamplerConfig, Subgraph, extract_subgraph
from .pruning import (
    PruneOutcome,
    candidate_communities,
    coarse_prune,
    fine_prune,
    random_prune,
)
from .verbalize import MODES, CommunityText, build_reasoning_prompt, graph2text, triple2text


@dataclass
class EngineConfig:
    width: int = 3
    max_depth: int = 5
    r_max: int = 2
    max_community_size: int = 4
    rho: float = 1.0
    mode: str = "t2t"
    detector: str = "louvain"
    coarse_top_k: int | None = None  # defaults to 2 * width
    prune_mode: str = "modularity"  # or "random" (ablation baseline)
    degrade_mode: str = "io"
    seed: int = 0
    templates_dir: str | None = None

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_community_size < 1:
            raise ValueError("max_community_size must be >= 1")
        if self.coarse_top_k is not None and self.coarse_top_k < 1:
            raise ValueError("coarse_top_k must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown verbalize mode: {self.mode!r}")
        if self.detector not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector: {self.detector!r}")
        if self.prune_mode not in ("modularity", "random"):
            raise ValueError(f"unknown prune mode: {self.prune_mode!r}")
        if self.degrade_mode not in ("io", "cot", "cot_sc"):
            raise ValueError(f"unknown degrade mode: {self.degrade_mode!r}")

    @property
    def resolved_coarse_top_k(self) -> int:
        return self.coarse_top_k if self.coarse_top_k is not None else 2 * self.width

    def public_dict(self) -> dict:
        return {
            "width": self.width,
            "max_depth": self.max_depth,
            "r_max": self.r_max,
            "max_community_size": self.max_community_size,
            "rho": self.rho,
            "mode": self.mode,
            "detector": self.detector,
            "coarse_top_k": self.resolved_coarse_top_k,
            "prune_mode": self.prune_mode,
            "degrade_mode": self.degrade_mode,
            "seed": self.seed,
        }


@dataclass
class ReasoningChain:
    communities: list[Community] = field(default_factory=list)
    texts: list[CommunityText] = field(default_factory=list)
    active: bool = True

    def last(self) -> Community:
        return self.communities[-1]


@dataclass
class ChainSet:
    chains: list[ReasoningChain]
    start: Community
    start_text: CommunityText

    def active_chains(self) -> list[ReasoningChain]:
        return [c for c in self.chains if c.active]


@dataclass
class RunTrace:
    events: list[dict] = field(default_factory=list)
    depth_reached: int = 0
    ledger: dict[str, int] = field(default_factory=dict)
    answer: ParsedVerdict | None = None
    degraded: bool = False

    def add(self, event: str, **payload) -> None:
        self.events.append({"event": event, **payload})

    def to_jsonl(self) -> str:
        lines = [json.dumps(e, sort_keys=True) for e in self.events]
        return "\n".join(lines) + ("\n" if lines else "")


class _Counted:
    """Forwards each generation call after counting it in a run's ledger."""

    def __init__(self, gateway, ledger: CallLedger):
        self._gateway = gateway
        self._ledger = ledger

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        self._ledger.increment(req.tag)
        return self._gateway.generate(req)


class Engine:
    """Owns one knowledge graph + gateway and executes question runs."""

    def __init__(
        self,
        omega: KnowledgeGraph,
        gateway,
        config: EngineConfig | None = None,
        g2t_backend=None,
    ):
        self.omega = omega
        self.gateway = gateway
        self.config = config or EngineConfig()
        self.g2t_backend = g2t_backend

    # -- public entry ------------------------------------------------------

    def run(
        self, question: str, start_entities: list[str] | None = None
    ) -> tuple[ParsedVerdict, RunTrace]:
        cfg = self.config
        self._seed_counter = 0
        self._rng = random.Random(cfg.seed ^ 0x9E3779B9)
        self._ledger = CallLedger()
        self._gateway = _Counted(self.gateway, self._ledger)
        self._g2t = None
        if self.g2t_backend is not None:
            self._g2t = _Counted(self.g2t_backend, self._ledger)
        trace = RunTrace()
        trace.add("start", question=question, config=cfg.public_dict())
        try:
            return self._run(question, start_entities, trace)
        except FastToGError as exc:
            # fatal aborts still expose what happened up to the failure
            trace.ledger = self._ledger.counts()
            trace.add("aborted", error=str(exc))
            exc.partial_trace = trace
            raise

    def _run(self, question, start_entities, trace) -> tuple[ParsedVerdict, RunTrace]:
        cfg = self.config
        start_label = self._resolve_start(question, start_entities, trace)
        history: set[str] = set()
        chainset = self._initial_phase(question, start_label, history, trace)

        verdict = ParsedVerdict("unknown")
        degraded = False
        if chainset.active_chains():
            verdict = self._reason(question, chainset, trace, depth=0)
        else:
            trace.add("no_headers", depth=0)

        if verdict.kind != "answer":
            for depth in range(1, cfg.max_depth + 1):
                if not chainset.active_chains():
                    break
                verdict = self._step_and_reason(question, chainset, history, depth, trace)
                trace.depth_reached = depth
                if verdict.kind == "answer":
                    break
            if verdict.kind != "answer":
                degraded = True
                trace.add("degrade", mode=cfg.degrade_mode, depth=trace.depth_reached)
                verdict = baseline_answer(
                    question, cfg.degrade_mode, self._gateway, templates_dir=cfg.templates_dir
                )

        trace.answer = verdict
        trace.degraded = degraded
        trace.ledger = self._ledger.counts()
        trace.add(
            "final",
            answer={"kind": verdict.kind, "text": verdict.text},
            depth_reached=trace.depth_reached,
            degraded=degraded,
            ledger=trace.ledger,
        )
        return verdict, trace

    # -- phases -------------------------------------------------------------

    def _resolve_start(self, question, start_entities, trace) -> str:
        if start_entities:
            for label in start_entities:
                if label in self.omega.nodes:
                    trace.add("start_entity", label=label, source="provided")
                    return label
            raise ResolutionError(
                f"no provided start entity found in graph: {start_entities!r}"
            )
        preamble, body_tpl = load_template("extract", self.config.templates_dir)
        bundle = PromptBundle(
            system_preamble=preamble,
            body=body_tpl.format(question=question),
            temperature=PRUNING_TEMPERATURE,
        )
        resp = self._gateway.generate(GenerationRequest(bundle, "pruning"))
        label = resp.text.strip().strip('"')
        if label not in self.omega.nodes:
            raise ResolutionError(f"extracted entity not in graph: {label!r}")
        trace.add("start_entity", label=label, source="extracted")
        return label

    def _initial_phase(self, question, start_label, history, trace) -> ChainSet:
        cfg = self.config
        outcome, current, start_text = self._local_community_search(
            question,
            frozenset([start_label]),
            history,
            n_pick=cfg.width,
            context_texts=None,
            trace=trace,
            depth=0,
            chain_index=None,
        )
        history.add(current.canonical_id)
        chains = [ReasoningChain() for _ in range(cfg.width)]
        for i, (cand, text) in enumerate(zip(outcome.chosen, outcome.chosen_texts)):
            chains[i].communities.append(cand.community)
            chains[i].texts.append(text)
            history.add(cand.community.canonical_id)
        for chain in chains:
            if not chain.communities:
                chain.active = False
        trace.add(
            "headers",
            depth=0,
            chosen=[c.community.canonical_id for c in outcome.chosen],
            none_selected=outcome.none_selected,
        )
        return ChainSet(chains=chains, start=current, start_text=start_text)

    def _step_and_reason(self, question, chainset, history, depth, trace) -> ParsedVerdict:
        for idx, chain in enumerate(chainset.chains):
            if not chain.active:
                continue
            context = [chainset.start_text] + chain.texts
            outcome, _, _ = self._local_community_search(
                question,
                chain.last().members,
                history,
                n_pick=1,
                context_texts=context,
                trace=trace,
                depth=depth,
                chain_index=idx,
            )
            if outcome.none_selected or not outcome.chosen:
                chain.active = False
                # empty candidate sets carry no model reply
                reason = "no_candidates" if outcome.raw_reply is None else "none_selected"
                trace.add("chain_stopped", chain=idx, depth=depth, reason=reason)
                continue
            cand, cand_text = outcome.chosen[0], outcome.chosen_texts[0]
            confirm = fine_prune(
                question,
                [cand],
                context,
                self._gateway,
                k=1,
                verbalizer=lambda _c, _t=cand_text: _t,
                templates_dir=self.config.templates_dir,
            )
            trace.add(
                "confirm",
                chain=idx,
                depth=depth,
                community=cand.community.canonical_id,
                confirmed=not confirm.none_selected,
                reply=confirm.raw_reply,
            )
            if confirm.none_selected:
                chain.active = False
                trace.add("chain_stopped", chain=idx, depth=depth, reason="not_confirmed")
                continue
            chain.communities.append(cand.community)
            chain.texts.append(cand_text)
            history.add(cand.community.canonical_id)
            trace.add(
                "chain_grew",
                chain=idx,
                depth=depth,
                community=cand.community.canonical_id,
                members=list(cand.community.sorted_members),
            )
        return self._reason(question, chainset, trace, depth)

    def _reason(self, question, chainset, trace, depth) -> ParsedVerdict:
        bundle = build_reasoning_prompt(
            question,
            [chain.texts for chain in chainset.chains],
            chainset.start_text,
            templates_dir=self.config.templates_dir,
        )
        resp = self._gateway.generate(GenerationRequest(bundle, "reasoning"))
        verdict = parse_verdict(resp.text)
        trace.add(
            "verdict",
            depth=depth,
            kind=verdict.kind,
            text=verdict.text,
            reply=resp.text,
        )
        return verdict

    # -- local community search ---------------------------------------------

    def _local_community_search(
        self,
        question,
        current_members: frozenset,
        history: set[str],
        n_pick: int,
        context_texts,
        trace: RunTrace,
        depth: int,
        chain_index,
    ) -> tuple[PruneOutcome, Community, CommunityText]:
        """Extract, detect, filter, coarse-prune, fine-prune around one community.

        Returns the outcome, the current community, and the premise text the
        pruning prompt opened with (the current community's own text when no
        context was given).
        """
        cfg = self.config
        sampler = SamplerConfig(rho=cfg.rho, r_max=cfg.r_max, seed=self._next_seed())
        g = extract_subgraph(self.omega, current_members, sampler)
        trace.add(
            "subgraph",
            chain=chain_index,
            depth=depth,
            center=sorted(current_members),
            nodes=len(g.nodes),
            edges=g.m,
        )
        partition = detect(g, cfg.detector, cfg.max_community_size, seed=self._next_seed())
        trace.add(
            "partition",
            chain=chain_index,
            depth=depth,
            communities=[list(c.sorted_members) for c in partition.communities],
        )
        current = Community.from_members(current_members, g)
        if context_texts is None:
            context_texts = [self._community_text(current, (), g, trace)]
        cands = candidate_communities(partition, current, history, g)
        if not cands:
            trace.add("coarse", chain=chain_index, depth=depth, kept=[], current=sorted(current_members))
            return PruneOutcome((), (), True, None), current, context_texts[0]
        top_k = cfg.resolved_coarse_top_k
        if cfg.prune_mode == "random":
            kept = random_prune(cands, top_k, self._rng)
        else:
            kept = coarse_prune(cands, top_k)
        trace.add(
            "coarse",
            chain=chain_index,
            depth=depth,
            current=sorted(current_members),
            current_id=current.canonical_id,
            kept=[
                {
                    "id": cand.community.canonical_id,
                    "members": list(cand.community.sorted_members),
                    "modularity": cand.modularity,
                    "bridges": [list(t) for t in cand.bridge_edges],
                }
                for cand in kept
            ],
        )
        outcome = fine_prune(
            question,
            kept,
            context_texts,
            self._gateway,
            k=n_pick,
            verbalizer=lambda cand, _g=g: self._community_text(
                cand.community, cand.bridge_edges, _g, trace
            ),
            templates_dir=cfg.templates_dir,
        )
        trace.add(
            "fine",
            chain=chain_index,
            depth=depth,
            chosen=[c.community.canonical_id for c in outcome.chosen],
            none_selected=outcome.none_selected,
            reply=outcome.raw_reply,
        )
        return outcome, current, context_texts[0]

    def _community_text(
        self, community: Community, bridges, g: Subgraph, trace: RunTrace | None = None
    ) -> CommunityText:
        if self.config.mode == "g2t":
            text = graph2text(
                community,
                list(bridges),
                self._g2t,
                g,
                templates_dir=self.config.templates_dir,
            )
            if text.fallback and trace is not None:
                trace.add("g2t_fallback", community=community.canonical_id)
            return text
        return triple2text(community, list(bridges), g)

    def _next_seed(self) -> int:
        self._seed_counter += 1
        return (self.config.seed * 1_000_003 + self._seed_counter) & 0x7FFFFFFF


def trace_to_dot(trace_events: list[dict]) -> str:
    """Render the explored community graph as DOT.

    Communities appear as boxes listing their member labels; connecting
    triples appear as labeled arrows; the communities chosen into chains are
    highlighted, explored-but-unchosen candidates stay plain.
    """
    boxes: dict[str, list[str]] = {}
    chosen: set[str] = set()
    arrows: dict[tuple[str, str], str] = {}
    start_id = None
    for ev in trace_events:
        kind = ev.get("event")
        if kind == "coarse":
            cur_id = ev.get("current_id")
            if cur_id:
                boxes.setdefault(cur_id, ev.get("current", []))
            for cand in ev.get("kept", []):
                boxes.setdefault(cand["id"], cand["members"])
                if cur_id:
                    preds = sorted({t[1] for t in cand["bridges"]})
                    arrows.setdefault((cur_id, cand["id"]), ", ".join(preds))
            if ev.get("depth") == 0 and start_id is None:
                start_id = cur_id
        elif kind == "headers":
            chosen.update(ev.get("chosen", []))
        elif kind == "chain_grew":
            chosen.add(ev["community"])
    if start_id:
        chosen.add(start_id)

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph exploration {", "  node [shape=box, fontname=Helvetica];"]
    for cid in sorted(boxes):
        label = "\\n".join(esc(member) for member in boxes[cid])
        style = ' style=filled fillcolor="lightblue"' if cid in chosen else ""
        peripheries = " peripheries=2" if cid == start_id else ""
        lines.append(f'  "{cid[:12]}" [label="{label}"{style}{peripheries}];')
    for (src, dst), label in sorted(arrows.items()):
        style = "bold" if src in chosen and dst in chosen else "dashed"
        lines.append(
            f'  "{src[:12]}" -> "{dst[:12]}" [label="{esc(label)}", style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
