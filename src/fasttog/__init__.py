"""Community-by-community retrieval and reasoning over knowledge graphs.

The package walks a knowledge graph one community at a time: it samples a
hop-limited subgraph around the current position, partitions it into
size-bounded communities, keeps the structurally densest candidates, lets a
language model pick the next step for each reasoning chain, and asks the
model for an answer after every round. Scripted gateways make every part of
the loop runnable and testable offline.
"""

from .community import (
    Community,
    Partition,
    modularity_community,
    modularity_global,
    partition_dump,
)
from .detect import (
    DETECTOR_KINDS,
    DetectionOutcome,
    backtrack_to_size,
    connected_components,
    detect,
    detect_full,
)
from .engine import Engine, EngineConfig, RunTrace, trace_to_dot
from .errors import (
    DataError,
    FastToGError,
    GatewayError,
    NotFoundError,
    ProviderError,
    ReplyParseError,
    ResolutionError,
    ScriptExhaustedError,
    TransportError,
    TripleFormatError,
)
from .evaluate import EvalReport, QARecord, evaluate, exact_match, load_dataset
from .gateway import (
    CallLedger,
    ChatEndpoint,
    GenerationRequest,
    GenerationResponse,
    ParsedVerdict,
    PromptBundle,
    ScriptedGateway,
    baseline_answer,
    normalize_answer,
    parse_choice,
    parse_verdict,
)
from .kg import KnowledgeGraph, SamplerConfig, Subgraph, Triple, extract_subgraph
from .pruning import (
    CandidateCommunity,
    PruneOutcome,
    candidate_communities,
    coarse_prune,
    fine_prune,
    random_prune,
)
from .verbalize import (
    CommunityText,
    build_pruning_prompt,
    build_reasoning_prompt,
    graph2text,
    triple2text,
)

__version__ = "0.1.0"

__all__ = [
    "CallLedger",
    "CandidateCommunity",
    "ChatEndpoint",
    "Community",
    "CommunityText",
    "DataError",
    "DetectionOutcome",
    "DETECTOR_KINDS",
    "Engine",
    "EngineConfig",
    "EvalReport",
    "FastToGError",
    "GatewayError",
    "GenerationRequest",
    "GenerationResponse",
    "KnowledgeGraph",
    "NotFoundError",
    "ParsedVerdict",
    "Partition",
    "PromptBundle",
    "ProviderError",
    "PruneOutcome",
    "QARecord",
    "ReplyParseError",
    "ResolutionError",
    "RunTrace",
    "SamplerConfig",
    "ScriptExhaustedError",
    "ScriptedGateway",
    "Subgraph",
    "TransportError",
    "Triple",
    "TripleFormatError",
    "backtrack_to_size",
    "baseline_answer",
    "build_pruning_prompt",
    "build_reasoning_prompt",
    "candidate_communities",
    "coarse_prune",
    "connected_components",
    "detect",
    "detect_full",
    "evaluate",
    "exact_match",
    "extract_subgraph",
    "fine_prune",
    "graph2text",
    "load_dataset",
    "modularity_community",
    "modularity_global",
    "normalize_answer",
    "parse_choice",
    "parse_verdict",
    "partition_dump",
    "random_prune",
    "trace_to_dot",
    "triple2text",
]
