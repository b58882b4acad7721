"""The benchmark's workloads: graph size, engine settings and entry point.

Every workload uses ``max_community_size=4``, ``width=3`` and
``max_depth=3``; they differ in what dominates a question's time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    entities: int
    triples: int
    questions: int
    kinds: tuple[str, ...]  # question kinds of one cycle, see gen.py
    detector: str
    r_max: int
    entry: str  # "engine": Engine.run in process; "cli": fasttog eval via a loopback stub
    parallelism: int = 1
    max_cycles: int | None = None  # cycles asked at most in one run

    def __post_init__(self):
        if self.questions % len(self.kinds):
            raise ValueError(f"{self.name}: questions must be whole cycles of kinds")

    def engine_config(self):
        from fasttog import EngineConfig

        return EngineConfig(
            width=WIDTH,
            max_depth=MAX_DEPTH,
            r_max=self.r_max,
            max_community_size=MAX_COMMUNITY_SIZE,
            detector=self.detector,
        )


WIDTH = 3
MAX_DEPTH = 3
MAX_COMMUNITY_SIZE = 4
# retrieval calls of one run before any degrade call (see fasttog.engine)
RETRIEVAL_CALL_BOUND = 2 * WIDTH * MAX_DEPTH + MAX_DEPTH + 2

# cycles of question kinds (see gen.py); each run asks whole cycles, so the
# mix is the same in every run. DETECT_MIX puts the median and the tail in
# later-round questions, whose wandering chain detects on subgraphs of a few
# hundred nodes; its one degraded walk runs three chains for three rounds and
# costs as much as eight of them, so one per cycle of eight keeps 40 to 64
# questions in a 30 s run. A run asks at most nine of its cycles: with ten degraded walks
# the tail (ten questions beyond it, see metrics.py) would move from the
# depth-1 questions to the degraded ones, so a faster detector would read as
# a slower tail. WALK_MIX puts the median in first-round questions; EVAL_MIX
# puts it in later-round questions, whose calls and detections interleave.
DETECT_MIX = ("near",) + ("lane",) * 6 + ("island",)
WALK_MIX = ("near",) * 5 + ("lane",) * 2 + ("island",) * 2
EVAL_MIX = ("near", "near", "lane", "lane", "island")

WORKLOADS = {
    w.name: w
    for w in (
        # detection on subgraphs of a few hundred nodes dominates; kg work
        # is small
        Workload(
            "walk-80k-louvain", 20_000, 80_000, 144, DETECT_MIX, "louvain", 2, "engine",
            max_cycles=9,
        ),
        # a full triple scan per extraction dominates; subgraphs are tiny.
        # Runnable, but not in BENCHMARK.json: these memory-bound scans vary
        # too much between runs on a shared host to gate a change on them
        Workload("walk-1m-local", 250_000, 1_000_000, 126, WALK_MIX, "louvain", 1, "engine"),
        # the only workload through cli, evaluate and the real ChatEndpoint
        Workload("eval-chat-10k", 2_500, 10_000, 40, EVAL_MIX, "hierarchical", 1, "cli", 2),
    )
}
