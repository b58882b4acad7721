"""The two pruning stages and the prompts they build.

Coarse pruning is model-free: candidates adjacent to the current community
are ranked by their structural score and only the top k survive. Fine
pruning puts the survivors into a lettered multiple-choice prompt (with an
explicit None escape hatch) and lets the gateway pick. Here the gateway is a
scripted stand-in, so everything below is fully offline and reproducible.
"""

from pathlib import Path

from fasttog import (
    Community,
    KnowledgeGraph,
    SamplerConfig,
    ScriptedGateway,
    candidate_communities,
    coarse_prune,
    detect,
    extract_subgraph,
    fine_prune,
    triple2text,
)

DATA = Path(__file__).parent / "data" / "us_geo.tsv"

kg = KnowledgeGraph.ingest(DATA)
center = "Philadelphia"
g = extract_subgraph(kg, [center], SamplerConfig(rho=1.0, r_max=2, seed=0))
partition = detect(g, "louvain", 4, seed=0)
current = Community.from_members({center}, g)

cands = candidate_communities(partition, current, set(), g)
print(f"candidates adjacent to {center!r} (score-ranked):")
for cand in cands:
    print(f"   {cand.community.modularity:7.3f}  {','.join(cand.community.sorted_members)}")

kept = coarse_prune(cands, 3)
print("\ncoarse pruning keeps the top 3:")
for cand in kept:
    print(f"   {cand.community.modularity:7.3f}  {','.join(cand.community.sorted_members)}")

print("\nverbalized candidate (intra-community facts, then connecting facts):")
text = triple2text(kept[0].community, kept[0].bridge_edges, g)
print("  ", text.text)

gateway = ScriptedGateway(["B"])
texts = [triple2text(cand.community, cand.bridge_edges, g) for cand in kept]
outcome = fine_prune(
    "Which state is Philadelphia in?",
    kept,
    [triple2text(current, (), g)],
    gateway,
    k=1,
    texts=texts,
)
print("\nscripted gateway replied 'B'; fine pruning chose:")
print("  ", ",".join(outcome.chosen[0].community.sorted_members))

print("\nthe prompt the gateway saw is plain text with lettered options:")
from fasttog import build_pruning_prompt

bundle = build_pruning_prompt(
    "Which state is Philadelphia in?",
    [triple2text(current, (), g)],
    texts,
    k=1,
)
print("-" * 60)
print(bundle.body)
print("-" * 60)
