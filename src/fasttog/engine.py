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

An engine keeps no per-run state: each ``Engine.run`` call builds its own
run state, so threads may share one engine.

Call accounting: each run counts its own calls, g2t rewrites included, in
its trace's ``RunTrace.ledger``; retries inside a gateway count once. A call
is counted before it is forwarded, so the call that aborts a run counts once
in its partial trace. With no stalled chains the retrieval calls total
exactly ``2 * width * max_depth + max_depth + 2`` before any degrade call
(one pruning and one reasoning call in the initial phase, two pruning calls
per chain plus one reasoning call per iteration).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property

from .community import Community, canonical_community_id
from .detect import DETECTOR_KINDS, detect
from .errors import FastToGError, ResolutionError
from .gateway import (
    BASELINE_MODES,
    TAGS,
    TEMPLATES,
    GenerationRequest,
    GenerationResponse,
    ParsedVerdict,
    baseline_answer,
    load_template,
    parse_verdict,
    render,
)
from .kg import KnowledgeGraph, SamplerConfig, Subgraph, extract_subgraph
from .pruning import (
    PruneOutcome,
    candidate_communities,
    coarse_prune,
    fine_prune,
    random_prune,
)
from .verbalize import (
    MODES, OPTION_LETTERS, CommunityText, build_reasoning_prompt, graph2text, triple2text
)

PRUNE_MODES = ("modularity", "random")  # random: the structure-blind ablation


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
    prune_mode: str = "modularity"
    degrade_mode: str = "io"
    seed: int = 0
    templates_dir: str | None = None

    def __post_init__(self):
        for name in ("width", "max_depth", "max_community_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        SamplerConfig(self.rho, self.r_max)  # each walk's sampler checks rho and r_max
        if self.coarse_top_k is not None and self.coarse_top_k < 1:
            raise ValueError("coarse_top_k must be >= 1")
        top_k, letters = self.resolved_coarse_top_k, len(OPTION_LETTERS)
        if top_k > letters:  # one option letter per kept candidate
            raise ValueError(f"coarse_top_k (default 2 * width) must be <= {letters}, got {top_k}")
        if self.mode not in MODES:
            raise ValueError(f"unknown verbalize mode: {self.mode!r}")
        if self.detector not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector: {self.detector!r}")
        if self.prune_mode not in PRUNE_MODES:
            raise ValueError(f"unknown prune mode: {self.prune_mode!r}")
        if self.degrade_mode not in BASELINE_MODES:
            raise ValueError(f"unknown degrade mode: {self.degrade_mode!r}")
        for name in TEMPLATES:  # a run reads them only once it has a subgraph
            try:
                load_template(name, self.templates_dir)
            except OSError as exc:
                reason = exc.strerror or exc
                raise ValueError(
                    f"templates_dir {self.templates_dir}: cannot read {name}.txt ({reason})"
                ) from None

    @property
    def resolved_coarse_top_k(self) -> int:
        return self.coarse_top_k if self.coarse_top_k is not None else 2 * self.width

    def public_dict(self) -> dict:
        """The config a trace records: no template path, the resolved top-k."""
        public = asdict(self)
        del public["templates_dir"]
        public["coarse_top_k"] = self.resolved_coarse_top_k
        return public


@dataclass
class RunTrace:
    events: list[dict] = field(default_factory=list)
    depth_reached: int = 0
    ledger: dict[str, int] = field(default_factory=dict)
    degraded: bool = False

    def add(self, event: str, **payload) -> None:
        self.events.append({"event": event, **payload})

    def to_jsonl(self) -> str:
        lines = [json.dumps(e, sort_keys=True) for e in self.events]
        return "\n".join(lines) + ("\n" if lines else "")


class _Counted:
    """Forwards each generation call after counting it in a run's ledger."""

    def __init__(self, gateway, ledger: dict[str, int]):
        self._gateway = gateway
        self._ledger = ledger

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        self._ledger[req.tag] += 1
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

    def run(
        self, question: str, start_entities: list[str] | None = None
    ) -> tuple[ParsedVerdict, RunTrace]:
        state = _Run(self, question)
        try:
            return state.answer(start_entities)
        except FastToGError as exc:
            # fatal aborts still expose what happened up to the failure
            state.trace.add("aborted", error=str(exc))
            exc.partial_trace = state.trace
            raise


class _Run:
    """Everything one run reads and writes, built afresh by each ``Engine.run``.

    Chain ``i`` is ``texts[i]``, its community texts in order, and
    ``ends[i]``, the members of its last community or ``None`` once the chain
    has stopped.
    """

    def __init__(self, engine: Engine, question: str):
        cfg = self.config = engine.config
        self.omega = engine.omega
        self.question = question
        self.seeds = ((cfg.seed * 1_000_003 + i) & 0x7FFFFFFF for i in itertools.count(1))
        self.trace = RunTrace(ledger=dict.fromkeys(TAGS, 0))
        self.gateway = _Counted(engine.gateway, self.trace.ledger)
        self.g2t = None
        if engine.g2t_backend is not None:
            self.g2t = _Counted(engine.g2t_backend, self.trace.ledger)
        self.trace.add("start", question=question, config=cfg.public_dict())
        self.history: set[str] = set()
        self.start_text: CommunityText | None = None
        self.texts: list[list[CommunityText]] = []
        self.ends: list[frozenset | None] = []

    @cached_property
    def rng(self) -> random.Random:
        """The random-prune generator, seeded on first use."""
        return random.Random(self.config.seed ^ 0x9E3779B9)

    def answer(self, start_entities) -> tuple[ParsedVerdict, RunTrace]:
        cfg, trace = self.config, self.trace
        self._initial_phase(self._resolve_start(start_entities))

        verdict = ParsedVerdict("unknown")
        if any(self.ends):  # a stopped chain's end is None
            verdict = self._reason(depth=0)
        else:
            trace.add("no_headers", depth=0)
        for depth in range(1, cfg.max_depth + 1):
            if verdict.kind == "answer" or not any(self.ends):
                break
            verdict = self._step_and_reason(depth)
            trace.depth_reached = depth
        if verdict.kind != "answer":
            trace.degraded = True
            trace.add("degrade", mode=cfg.degrade_mode, depth=trace.depth_reached)
            verdict = baseline_answer(
                self.question, cfg.degrade_mode, self.gateway, templates_dir=cfg.templates_dir
            )

        trace.add(
            "final",
            answer={"kind": verdict.kind, "text": verdict.text},
            depth_reached=trace.depth_reached,
            degraded=trace.degraded,
            ledger=trace.ledger,
        )
        return verdict, trace

    # -- phases -------------------------------------------------------------

    def _resolve_start(self, start_entities) -> str:
        if start_entities:
            for label in start_entities:
                if label in self.omega:
                    self.trace.add("start_entity", label=label, source="provided")
                    return label
            raise ResolutionError(
                f"no provided start entity found in graph: {start_entities!r}"
            )
        bundle = render("extract", self.config.templates_dir, question=self.question)
        resp = self.gateway.generate(GenerationRequest(bundle, "pruning"))
        label = resp.text.strip().strip('"')
        if label not in self.omega:
            raise ResolutionError(f"extracted entity not in graph: {label!r}")
        self.trace.add("start_entity", label=label, source="extracted")
        return label

    def _initial_phase(self, start_label) -> None:
        start = frozenset([start_label])
        outcome = self._local_community_search(
            start, n_pick=self.config.width, context_texts=None, depth=0, chain_index=None
        )
        self.history.add(canonical_community_id(start))
        self.history.update(cand.community.canonical_id for cand in outcome.chosen)
        stopped = self.config.width - len(outcome.chosen)
        self.texts = [[text] for text in outcome.chosen_texts] + [[] for _ in range(stopped)]
        self.ends = [cand.community.members for cand in outcome.chosen] + [None] * stopped
        self.trace.add(
            "headers",
            depth=0,
            chosen=[c.community.canonical_id for c in outcome.chosen],
            none_selected=outcome.none_selected,
        )

    def _step_and_reason(self, depth) -> ParsedVerdict:
        trace = self.trace
        for idx, members in enumerate(self.ends):
            if members is None:
                continue
            context = [self.start_text] + self.texts[idx]
            outcome = self._local_community_search(
                members, n_pick=1, context_texts=context, depth=depth, chain_index=idx
            )
            if outcome.none_selected:
                self.ends[idx] = None
                # empty candidate sets carry no model reply
                reason = "no_candidates" if outcome.raw_reply is None else "none_selected"
                trace.add("chain_stopped", chain=idx, depth=depth, reason=reason)
                continue
            cand, cand_text = outcome.chosen[0], outcome.chosen_texts[0]
            confirm = fine_prune(
                self.question,
                [cand],
                context,
                self.gateway,
                k=1,
                texts=[cand_text],
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
                self.ends[idx] = None
                trace.add("chain_stopped", chain=idx, depth=depth, reason="not_confirmed")
                continue
            self.ends[idx] = cand.community.members
            self.texts[idx].append(cand_text)
            self.history.add(cand.community.canonical_id)
            trace.add(
                "chain_grew",
                chain=idx,
                depth=depth,
                community=cand.community.canonical_id,
                members=list(cand.community.sorted_members),
            )
        return self._reason(depth)

    def _reason(self, depth) -> ParsedVerdict:
        bundle = build_reasoning_prompt(
            self.question,
            self.texts,
            self.start_text,
            templates_dir=self.config.templates_dir,
        )
        resp = self.gateway.generate(GenerationRequest(bundle, "reasoning"))
        verdict = parse_verdict(resp.text)
        self.trace.add(
            "verdict",
            depth=depth,
            kind=verdict.kind,
            text=verdict.text,
            reply=resp.text,
        )
        return verdict

    # -- local community search ---------------------------------------------

    def _local_community_search(
        self, current_members: frozenset, n_pick: int, context_texts, depth: int, chain_index
    ) -> PruneOutcome:
        """Extract, detect, filter, coarse-prune, fine-prune around one community.

        With no ``context_texts`` (the initial search), the pruning prompt
        opens with the current community's own text, which becomes the run's
        start text.
        """
        cfg, trace = self.config, self.trace
        sampler = SamplerConfig(rho=cfg.rho, r_max=cfg.r_max, seed=next(self.seeds))
        g = extract_subgraph(self.omega, current_members, sampler)
        trace.add(
            "subgraph",
            chain=chain_index,
            depth=depth,
            center=sorted(current_members),
            nodes=len(g),
            edges=g.m,
        )
        partition = detect(g, cfg.detector, cfg.max_community_size, seed=next(self.seeds))
        trace.add(
            "partition",
            chain=chain_index,
            depth=depth,
            communities=[list(block) for block in partition.blocks],
        )
        current = Community.from_members(current_members, g)
        if context_texts is None:
            self.start_text = self._community_text(current, (), g)
            context_texts = [self.start_text]
        cands = candidate_communities(partition, current, self.history, g)
        if not cands:
            trace.add("coarse", chain=chain_index, depth=depth, kept=[], current=sorted(current_members))
            return PruneOutcome((), (), True, None)
        top_k = cfg.resolved_coarse_top_k
        if cfg.prune_mode == "random":
            kept = random_prune(cands, top_k, self.rng)
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
                    "modularity": cand.community.modularity,
                    "bridges": [list(t) for t in cand.bridge_edges],
                }
                for cand in kept
            ],
        )
        outcome = fine_prune(
            self.question,
            kept,
            context_texts,
            self.gateway,
            k=n_pick,
            texts=[self._community_text(c.community, c.bridge_edges, g) for c in kept],
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
        return outcome

    def _community_text(self, community: Community, bridges, g: Subgraph) -> CommunityText:
        if self.config.mode == "g2t":
            text = graph2text(
                community,
                list(bridges),
                self.g2t,
                g,
                templates_dir=self.config.templates_dir,
            )
            if text.fallback:
                self.trace.add("g2t_fallback", community=community.canonical_id)
            return text
        return triple2text(community, list(bridges), g)


def check_trace_event(ev) -> None:
    """Raise ``ValueError`` unless :func:`trace_to_dot` can read the event."""
    if not isinstance(ev, dict):
        raise ValueError("an event must be a JSON object")
    kind = ev.get("event")
    if kind == "coarse":
        if not isinstance(ev.get("current_id"), (str, type(None))):
            raise ValueError("a coarse event's current_id must be a string")
        if not _str_list(ev.get("current", [])):
            raise ValueError("a coarse event's current must be a list of labels")
        kept = ev.get("kept", [])
        if not isinstance(kept, list):
            raise ValueError("a coarse event's kept must be a list")
        for cand in kept:
            if not isinstance(cand, dict) or not isinstance(cand.get("id"), str):
                raise ValueError("each kept entry needs a string id")
            if not _str_list(cand.get("members")):
                raise ValueError("each kept entry needs a list of member labels")
            bridges = cand.get("bridges")
            if not isinstance(bridges, list) or not all(
                _str_list(t) and len(t) == 3 for t in bridges
            ):
                raise ValueError("each kept entry's bridges must be lists of three labels")
    elif kind == "headers" and not _str_list(ev.get("chosen", [])):
        raise ValueError("a headers event's chosen must be a list of ids")
    elif kind == "chain_grew" and not isinstance(ev.get("community"), str):
        raise ValueError("a chain_grew event needs a string community id")


def _str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


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
