"""Size-bounded community detection and the snapshot backtracking behind it.

Every detector streams its states in its natural order, fine to coarse or
coarse to fine, and one rule picks the state: the last one that fits the size
bound, read fine to coarse. ``detect_full`` drains each stream and keeps the
trajectory, printed below fine to coarse; ``detect`` stops pulling a stream
once no later state could be picked. The two bridged triangles below are the
canonical sanity fixture: all four structure-aware detectors find them, and
the per-community score of each triangle is 2.5 with a global modularity of
5/14.
"""

from fasttog import (
    DETECTOR_KINDS,
    KnowledgeGraph,
    Subgraph,
    Triple,
    detect,
    detect_full,
    modularity_global,
    partition_dump,
)

edges = [
    ("a", "rel", "b"), ("b", "rel", "c"), ("a", "rel", "c"),
    ("d", "rel", "e"), ("e", "rel", "f"), ("d", "rel", "f"),
    ("c", "bridge", "d"),
]
kg = KnowledgeGraph([Triple(*e) for e in edges])
g = Subgraph.from_full_graph(kg)

print("bridged triangles, size bound 4:")
for kind in DETECTOR_KINDS:
    p = detect(g, kind, 4, seed=1)
    groups = [",".join(c.sorted_members) for c in p.communities]
    q = modularity_global(p, g)
    print(f"   {kind:<14} -> {groups}   Q = {q:.4f}")

print("\npartition dump format (index, members, per-community score):")
print(partition_dump(detect(g, "louvain", 4, seed=1)), end="")

print("\nbacktracking in action: the same graph under a size bound of 2")
outcome = detect_full(g, "louvain", 2, seed=1)
trace = outcome.components[0]
print(f"   trajectory of {len(trace.snapshots)} recorded states (sizes shown):")
for step, snap in enumerate(trace.snapshots):
    sizes = sorted((len(c) for c in snap.communities), reverse=True)
    marker = "  <- chosen" if snap is trace.chosen else ""
    print(f"      step {step}: {sizes}{marker}")
print("   chosen communities:", [",".join(c.sorted_members) for c in trace.chosen.communities])
