"""Seeded workload generator: a random triple file plus a question set.

Run as ``python3 bench/gen.py --workload NAME --seed N --out DIR``. It writes
``graph.tsv`` (the input of ``KnowledgeGraph.ingest``), ``questions.jsonl``
(the ``fasttog eval`` dataset format, with two extra fields the engine
ignores) and ``oracle.json`` (what the stand-in model needs to know). The
same workload and seed always give the same bytes.

Graph: ``entities`` labels joined by ``triples`` random triples over 50
predicates, every label close to the mean degree, plus planted nodes per
question. Every question starts at its own planted entity linked to a few
random labels (``START_LINKS``), and questions cycle through the workload's
``kinds``:

* ``near``   -- the target is one of those labels: answered in the first
  round;
* ``lane``   -- a planted path start-a-b leads to the target, which sits in a
  planted four-clique: answered in a later round;
* ``island`` -- the target sits in a planted four-clique that nothing links
  to, so the run degrades to the baseline call and gets the planted wrong
  answer.

The walk's other chains wander the random graph, which is where the
detector and the graph store do most of their work.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, Workload  # noqa: E402

N_PREDICATES = 50
ISLAND_SIZE = 4
# random labels a question's start links to: few enough that coarse pruning
# keeps every first-round candidate. A lane's start has one, so one chain
# wanders the random graph beside the chain that follows the lane; an
# island's three chains all wander until the depth budget runs out.
START_LINKS = {"near": 3, "lane": 1, "island": 3}


def label(i: int) -> str:
    return f"Synthetic Entity {i:06d}"


def generate(w: Workload, seed: int) -> tuple[str, str, str]:
    """Return (graph TSV, questions JSONL, oracle JSON) for one workload/seed."""
    rng = random.Random(f"{w.name}:{seed}")
    n = w.entities
    predicates = [f"synthetic relation {i:02d}" for i in range(N_PREDICATES)]

    def link(s: int, o: int) -> None:
        triples.append((s, rng.choice(predicates), o))

    # pair up shuffled degree stubs, so that every entity gets close to the
    # mean degree: subgraphs around different centers then differ little in
    # size, and so do the detector's and the graph store's costs
    stubs = [v for v in range(n) for _ in range(2 * w.triples // n)]
    rng.shuffle(stubs)
    pairs = zip(stubs[0::2], stubs[1::2])
    edges: set[tuple[int, int]] = set()
    triples: list[tuple[int, str, int]] = []
    while len(triples) < w.triples:
        s, o = next(pairs, None) or (rng.randrange(n), rng.randrange(n))
        if s == o or (s, o) in edges or (o, s) in edges:
            continue
        edges.add((s, o))
        link(s, o)

    questions = []
    oracle = {}
    fresh = iter(range(n, n + w.questions * (2 * ISLAND_SIZE + 1)))
    for q in range(w.questions):
        kind = w.kinds[q % len(w.kinds)]
        qid = f"q{q:04d}"
        start = next(fresh)
        anchors = rng.sample(range(n), START_LINKS[kind])
        for v in anchors:
            link(start, v)
        dist: dict[int, int] = {}
        if kind == "near":
            target = anchors[0]
            dist = {target: 0, start: 1}
        else:
            clique = [next(fresh) for _ in range(ISLAND_SIZE)]
            for i, u in enumerate(clique):
                for v in clique[i + 1 :]:
                    link(u, v)
            target = clique[0]
            if kind == "lane":
                a1, a2 = next(fresh), next(fresh)
                link(start, a1)
                link(a1, a2)
                link(a2, target)
                dist = {v: 1 for v in clique}
                dist.update({target: 0, a2: 1, a1: 2, start: 3})
        wrong = rng.randrange(n)
        while wrong == target:
            wrong = rng.randrange(n)
        questions.append(
            {
                "id": qid,
                "question": f"[{qid}] Which entity do the facts linked to {label(start)} lead to?",
                "answers": [label(target)],
                "start_entities": [label(start)],
                "kind": kind,
                "wrong": label(wrong),
            }
        )
        oracle[qid] = {
            "target": label(target),
            "wrong": label(wrong),
            "dist": {label(v): d for v, d in sorted(dist.items())},
        }

    tsv = "".join(f"{label(s)}\t{p}\t{label(o)}\n" for s, p, o in triples)
    jsonl = "".join(json.dumps(q, sort_keys=True) + "\n" for q in questions)
    return tsv, jsonl, json.dumps(oracle, sort_keys=True)


def write(w: Workload, seed: int, out: Path) -> None:
    tsv, jsonl, oracle = generate(w, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.tsv").write_text(tsv, encoding="utf-8")
    (out / "questions.jsonl").write_text(jsonl, encoding="utf-8")
    (out / "oracle.json").write_text(oracle, encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write(WORKLOADS[args.workload], args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
