"""Generate the seeded synthetic supply network and split it transductively.

The generator mimics a real multi-tier supply base: one hub company fed by
every tier-1 supplier, preferential attachment between tiers (heavy-tailed
in-degree), cross-tier shortcuts, and part/substance/smelter side structure.
The split keeps every entity and relation type represented in train.

    python3 demos/02_synthetic_network_and_split.py
"""

import tempfile
from pathlib import Path

import numpy as np

from chainlens import DEFAULT_SCHEMA, GeneratorConfig, SplitConfig, generate_synthetic, transductive_split
from chainlens.dataset import check_transductive, export_triples, write_split

graph = generate_synthetic(GeneratorConfig(seed=2024))
stats = graph.stats()
print(f"Generated {stats.total_entities} entities / {stats.total_triples} triples")
print("Schema check:", graph.validate(DEFAULT_SCHEMA).summary())

# The hub dominates in-degree by construction.
indeg = np.bincount(graph.triples_array()[:, 2], minlength=graph.num_entities)
top = np.argsort(indeg)[::-1][:5]
print("\nTop in-degree nodes:")
for node in top.tolist():
    print(f"  {graph.labels[node]:12s} {graph.entity_type(node).value:10s} in-degree {indeg[node]}")

share = np.sort(indeg)[::-1][:7].sum() / stats.total_triples
print(f"Top 1% of nodes hold {share:.0%} of all incoming edges (heavy tail)")

# Same seed, same bytes.
with tempfile.TemporaryDirectory() as tmp:
    a, b = Path(tmp) / "a.tsv", Path(tmp) / "b.tsv"
    export_triples(generate_synthetic(GeneratorConfig(seed=2024)), a)
    export_triples(generate_synthetic(GeneratorConfig(seed=2024)), b)
    print("\nByte-identical re-generation:", a.read_bytes() == b.read_bytes())

    split = transductive_split(graph, SplitConfig(0.1, 0.1, seed=0))
    print(f"Split: {len(split.train_ids)} train / {len(split.validation_ids)} valid / {len(split.test_ids)} test")
    missing = check_transductive(split.train_ids, split.validation_ids, split.test_ids)
    print("Every held-out entity appears in train:", missing is None)
    write_split(graph, split, Path(tmp) / "splits")
    print("Wrote", sorted(p.name for p in (Path(tmp) / "splits").iterdir()))
