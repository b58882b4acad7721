"""What a run loads and keeps: checked in a fresh interpreter, so modules that
other tests imported do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Reports which of WATCHED are loaded after each phase, and whether the graph
# built its label set. A closed loopback port makes the endpoint call fail on
# connect; with no retries it raises TransportError at once.
CHILD = r"""
import json, socket, sys, time
import numpy as np
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
endpoint = ChatEndpoint(url=f"http://127.0.0.1:{port}/", model="m", retry_budget=0, timeout=5)
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
