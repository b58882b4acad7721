"""Compare the CPU cost of two source trees in one process.

Usage: python tools/ab.py PARENT_SRC CHANGE_SRC [--rounds N]

Each SRC is a directory that holds a ``fasttog`` package, such as a
checkout's ``src``. Each tree's package is copied under its own name
(``fasttog_parent``, ``fasttog_change``), so both load side by side, and
``tests/helpers.py`` of this repository is loaded once per side against
that side's package.

A question set is a fixed list of ``Engine.run`` calls: on the
``lane_in_background`` graphs of ``GRAPH_SEEDS``, each built once per side
from the same triples, the run from the lane's start at several widths and
engine seeds, answered by ``OracleGateway``. ``louvain`` and ``hierarchical`` run the
set under those detectors. A warm-up round runs every question on both
sides and compares their traces byte for byte; unequal traces exit 1.
Then each round runs the whole set on both sides back to back, the side
that goes first alternating, and times each side by process CPU.

The ``ingest`` set times ``KnowledgeGraph.ingest`` of one seeded triple
file, written once per run (``INGEST_ENTITIES`` labels, ``INGEST_TRIPLES``
triples, with comments, blank lines, CRLF endings, non-ASCII labels,
duplicates and self-loops). Its warm-up round ingests the file on both sides
and compares their ``dump()`` byte for byte; unequal dumps exit 1. Its
rounds alternate as the engine sets' do, one ingest per side per round.

Prints, per set, each side's median and quartiles of CPU per question (per
ingest for ``ingest``), the rounds each side was cheaper in, and whether the
gap between the medians exceeds the parent's interquartile range. Timings
are of this host and process; quote them with the host they were taken on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import logging
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
HELPERS = REPO / "tests" / "helpers.py"
SIDES = ("parent", "change")
DETECTORS = ("louvain", "hierarchical")
GRAPH_SEEDS = range(4)
WIDTHS = (1, 2, 3)
ENGINE_SEEDS = (0, 1)
INGEST_ENTITIES = 10_000
INGEST_TRIPLES = 40_000
INGEST_SEED = 0


@contextlib.contextmanager
def _as_fasttog(package: str):
    """While open, the name ``fasttog`` and its submodules resolve to
    ``package``: ``tests/helpers.py`` imports ``fasttog`` by name, and a
    package may name itself to find its templates."""
    aliased = {
        "fasttog" + name[len(package):]: module
        for name, module in sys.modules.items()
        if name == package or name.startswith(package + ".")
    }
    saved = {name: sys.modules.get(name) for name in aliased}
    sys.modules.update(aliased)
    try:
        yield
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


class Side:
    """One tree's package, its helpers, and the engines of each question set."""

    def __init__(self, name: str, src: Path, copies: Path):
        self.name = name
        self.package = f"fasttog_{name}"
        shutil.copytree(
            src / "fasttog", copies / self.package, ignore=shutil.ignore_patterns("__pycache__")
        )
        fasttog = importlib.import_module(self.package)
        self.knowledge_graph = fasttog.KnowledgeGraph
        self.sets = {detector: [] for detector in DETECTORS}
        with self.active():
            spec = importlib.util.spec_from_file_location(f"ab_helpers_{name}", HELPERS)
            helpers = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(helpers)
            for graph_seed in GRAPH_SEEDS:
                kg, start, target = helpers.lane_in_background(seed=graph_seed)
                gateway = helpers.OracleGateway(kg, target)
                for detector, questions in self.sets.items():
                    for width in WIDTHS:
                        for seed in ENGINE_SEEDS:
                            config = fasttog.EngineConfig(width=width, detector=detector, seed=seed)
                            questions.append((fasttog.Engine(kg, gateway, config), start))

    def active(self):
        return _as_fasttog(self.package)

    def traces(self, detector: str) -> list[str]:
        with self.active():
            return [eng.run("q?", [start])[1].to_jsonl() for eng, start in self.sets[detector]]

    def cpu_per_question(self, detector: str) -> float:
        """Seconds of process CPU per question over one pass of the set."""
        questions = self.sets[detector]
        gc.collect()  # the other side's garbage is not charged to this one
        with self.active():
            began = time.process_time()
            for engine, start in questions:
                engine.run("q?", [start])
            spent = time.process_time() - began
        return spent / len(questions)

    def dump(self, path: Path) -> str:
        """The canonical dump of this side's ingest of ``path``."""
        with self.active():
            return self.knowledge_graph.ingest(path).dump()

    def cpu_per_ingest(self, path: Path) -> float:
        """Seconds of process CPU of one ``KnowledgeGraph.ingest`` of ``path``."""
        gc.collect()
        with self.active():
            began = time.process_time()
            self.knowledge_graph.ingest(path)
            return time.process_time() - began


def write_ingest_file(path: Path) -> None:
    """The ``ingest`` set's triple file: ``INGEST_TRIPLES`` seeded triples."""
    rng = random.Random(INGEST_SEED)
    labels = [f"entity {i:05d}" for i in range(INGEST_ENTITIES - 2)] + ["Straße", "日本"]
    predicates = [f"relation {i:02d}" for i in range(20)] + ["ñ"]
    lines = []
    for _ in range(INGEST_TRIPLES):
        roll = rng.random()
        if roll < 0.01:
            lines.append("# a comment\n" if roll < 0.005 else "\n")
        s = rng.choice(labels)
        o = s if roll > 0.995 else rng.choice(labels)  # a self-loop
        line = f"{s}\t{rng.choice(predicates)}\t{o}" + ("\r\n" if roll > 0.9 else "\n")
        lines.append(line * (2 if 0.5 < roll < 0.51 else 1))  # a duplicate
    path.write_bytes("".join(lines).encode("utf-8"))


def _quartiles(xs: list[float]) -> list[float]:
    """The first quartile, the median and the third quartile of ``xs``."""
    if len(xs) == 1:  # quantiles() needs two points
        return xs * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def _alternate(parent: Side, change: Side, rounds: int, measure) -> dict[str, list[float]]:
    """``measure(side)`` of both sides per round, the side that goes first
    alternating."""
    cpu = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in (parent, change) if r % 2 == 0 else (change, parent):
            cpu[side.name].append(measure(side))
    return cpu


def compare(parent: Side, change: Side, rounds: int, detector: str) -> bool:
    """Run one question set; print its report; whether the traces were equal."""
    n = len(parent.sets[detector])
    for i, (a, b) in enumerate(zip(parent.traces(detector), change.traces(detector))):
        if a != b:
            print(f"{detector}: {n} questions, traces differ at question {i}")
            return False
    print(f"{detector}: {n} questions, traces equal")
    _report(_alternate(parent, change, rounds, lambda side: side.cpu_per_question(detector)))
    return True


def compare_ingest(parent: Side, change: Side, rounds: int, path: Path) -> bool:
    """Run the ingest set; print its report; whether the dumps were equal."""
    if parent.dump(path) != change.dump(path):
        print(f"ingest: {INGEST_TRIPLES} triples, dumps differ")
        return False
    print(f"ingest: {INGEST_TRIPLES} triples, dumps equal")
    _report(_alternate(parent, change, rounds, lambda side: side.cpu_per_ingest(path)))
    return True


def _report(cpu: dict[str, list[float]]) -> None:
    """Print each side's quartiles, the rounds each side won, and the gap."""
    rounds = len(cpu["parent"])
    stats = {side: _quartiles(cpu[side]) for side in SIDES}
    for side in SIDES:
        q1, med, q3 = (x * 1e3 for x in stats[side])
        print(f"  {side:<6}  median {med:.3f} ms  quartiles {q1:.3f}-{q3:.3f} ms")
    won = sum(c < p for p, c in zip(cpu["parent"], cpu["change"]))
    lost = sum(c > p for p, c in zip(cpu["parent"], cpu["change"]))
    gap = stats["change"][1] - stats["parent"][1]
    iqr = stats["parent"][2] - stats["parent"][0]
    verdict = "exceeds" if abs(gap) > iqr else "is within"
    print(
        f"  change cheaper in {won}/{rounds} rounds, parent in {lost}/{rounds}; "
        f"gap {gap * 1e3:+.3f} ms {verdict} the parent's IQR ({iqr * 1e3:.3f} ms)"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds per set")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "fasttog" / "__init__.py").is_file():
            parser.error(f"{src} holds no fasttog package")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory(prefix="fasttog-ab-") as tmp:
        sys.path.insert(0, tmp)
        sides = [
            Side(side, src, Path(tmp))
            for side, src in zip(SIDES, (args.parent_src, args.change_src))
        ]
        equal = [compare(*sides, args.rounds, detector) for detector in DETECTORS]
        graph = Path(tmp) / "graph.tsv"
        write_ingest_file(graph)
        # each ingest warns of the file's duplicates and self-loops
        logging.disable(logging.WARNING)
        equal.append(compare_ingest(*sides, args.rounds, graph))
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
