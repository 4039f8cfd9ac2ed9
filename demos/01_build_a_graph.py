"""Build a small typed supply network by hand and poke at it.

Every entity carries one of eight types, every edge one of eleven relation
types, and a schema decides which combinations are legal.  Run with:

    python3 demos/01_build_a_graph.py
"""

from chainlens import DEFAULT_SCHEMA, EntityType, Graph, RelationType, SchemaViolation

g = Graph()

# A focal manufacturer, two tiers of suppliers, and some context entities.
focal = g.add_entity("Helios Devices", EntityType.SUPPLIER)
tier1 = g.add_entity("Nordic Metals", EntityType.SUPPLIER)
tier2 = g.add_entity("Baltic Ore", EntityType.SUPPLIER)
smelter = g.add_entity("Kiruna Works", EntityType.SMELTER)
scope = g.add_entity("Power Electronics", EntityType.BUSINESS_SCOPE)
country = g.add_entity("Sweden", EntityType.COUNTRY)

g.add_triple(tier1, RelationType.SUPPLIES_TO, focal, DEFAULT_SCHEMA)
g.add_triple(tier2, RelationType.SUPPLIES_TO, tier1, DEFAULT_SCHEMA)
g.add_triple(smelter, RelationType.SUPPLIES_TO, tier2, DEFAULT_SCHEMA)
g.add_triple(tier1, RelationType.RELATED_TO, scope, DEFAULT_SCHEMA)
g.add_triple(tier1, RelationType.LOCATED_IN, country, DEFAULT_SCHEMA)

print("Entities:", g.num_entities, "| triples:", g.num_triples)

# The schema rejects type-illegal facts: a country cannot supply anyone.
try:
    g.add_triple(country, RelationType.SUPPLIES_TO, focal, DEFAULT_SCHEMA)
except SchemaViolation as exc:
    print("Rejected as expected:", exc)

# Adjacency queries are sorted and direction-aware.
print("\nWho supplies Helios? ", g.neighbors(focal, "in"))
print("Everything around Nordic Metals:")
for neighbor, relation in g.neighbors(tier1, "both"):
    print(f"  {relation.value:12s} <-> {g.labels[neighbor]}")

# Projections keep chosen entity and relation types only.
suppliers_only = g.project_subgraph({EntityType.SUPPLIER}, {RelationType.SUPPLIES_TO})
print("\nSupplier projection:", suppliers_only.num_entities, "nodes,",
      suppliers_only.num_triples, "edges (the smelter edge drops out)")

print("\nFull stats table:")
print(g.stats().as_text())
