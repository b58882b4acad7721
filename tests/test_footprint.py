"""What a run loads and keeps: checked in a fresh interpreter, so modules that
other tests imported do not count."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

from fasttog import KnowledgeGraph

REPO = Path(__file__).resolve().parents[1]

# Reports which of WATCHED are loaded after each phase, and whether the graph
# built its label set. A closed loopback port makes the endpoint call fail on
# connect; with no retries it raises TransportError at once.
CHILD = r"""
import json, socket, sys, time
import numpy as np
import fasttog.gateway
from fasttog import (
    ChatEndpoint, Engine, EngineConfig, GenerationRequest, KnowledgeGraph,
    PromptBundle, SamplerConfig, ScriptedGateway, Subgraph, TransportError,
    detect, extract_subgraph,
)

WATCHED = ("ssl", "http.client", "urllib.request", "numpy.random", "logging", "concurrent.futures")
report = {"numpy_major": int(np.__version__.split(".")[0])}

def phase(name):
    report[name] = {"loaded": [m for m in WATCHED if m in sys.modules]}

kg = KnowledgeGraph.ingest("demos/data/us_geo.tsv")
start = "Pennsylvania Convention Center"
gateway = ScriptedGateway(["A", "Unknown", "A", "A", "Answer: Humid Subtropical"])
engine = Engine(kg, gateway, EngineConfig(width=1, max_depth=3, seed=7, detector="louvain"))
verdict, _trace = engine.run("What is the climate there?", [start])
report["answer"] = verdict.text
full = Subgraph.from_full_graph(kg)
local = extract_subgraph(kg, [start], SamplerConfig(r_max=2))
for kind in ("hierarchical", "girvan_newman", "random"):
    detect(full, kind, 3)
    detect(local, kind, 3)
phase("walk")
report["walk"]["nodes_built"] = "nodes" in vars(kg)

detect(local, "spectral", 3)
phase("spectral")

with socket.socket() as s:
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
fasttog.gateway.RETRY_BUDGET = 0
endpoint = ChatEndpoint(url=f"http://127.0.0.1:{port}/", model="m", timeout=5)
bundle = PromptBundle(system_preamble="s", body="b")
began = time.monotonic()
try:
    endpoint.generate(GenerationRequest(bundle, "reasoning"))
except TransportError:
    report["refused_s"] = time.monotonic() - began
phase("endpoint")
print(json.dumps(report))
"""


def test_a_louvain_walk_loads_no_http_stack_and_builds_no_label_set():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(PYTHONPATH=str(REPO / "src"), NO_PROXY="127.0.0.1")
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["answer"] == "Humid Subtropical"
    walk = report["walk"]
    http_stack = ["ssl", "http.client", "urllib.request"]
    # the graph has no duplicate or self-loop to warn about, and no worker pool runs
    assert not {"logging", "concurrent.futures"} & set(walk["loaded"])
    if report["numpy_major"] >= 2:  # older numpy loads numpy.random with numpy
        assert walk["loaded"] == []
    else:
        assert not set(http_stack) & set(walk["loaded"])
    assert walk["nodes_built"] is False
    assert report["spectral"]["loaded"] == ["numpy.random"]
    assert report["endpoint"]["loaded"] == http_stack + ["numpy.random"]
    assert report["refused_s"] < 5


def _kept_bytes(kg):
    """What the store keeps: its arrays' buffers, and the label lists with
    their strings."""
    arrays = sum(a.nbytes for a in vars(kg).values() if hasattr(a, "nbytes"))
    lists = (kg._labels, kg._predicates)
    return arrays + sum(sys.getsizeof(x) + sum(map(sys.getsizeof, x)) for x in lists)


def test_ingest_peaks_within_a_fixed_ratio_of_what_the_store_keeps(tmp_path):
    # 2,000 entities and 20,000 triples, so the neighbour index, not the
    # label interning, sets the peak. It reads 1.38x what the store keeps
    # with 32-bit edge keys and no subject column; with int64 keys and a
    # kept subject column it read 1.70x.
    rng = random.Random(7)
    path = tmp_path / "graph.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(20_000):
            s, o = rng.randrange(2_000), rng.randrange(2_000)
            fh.write(f"entity {s:06d}\trelation {rng.randrange(20):02d}\tentity {o:06d}\n")
    KnowledgeGraph.ingest(path)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kg = KnowledgeGraph.ingest(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * _kept_bytes(kg)
