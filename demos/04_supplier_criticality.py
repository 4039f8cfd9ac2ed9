"""Score supplier criticality from network structure alone.

Five metrics on the supplier/supplies_to projection: in-degree, out-degree,
betweenness, closeness, and triangle count.  Each is min-max scaled onto
[0, 10] and summed into an aggregated importance score; suppliers above 10
are flagged critical.

    python3 demos/04_supplier_criticality.py
"""

import numpy as np

from chainlens import EntityType, GeneratorConfig, RelationType, generate_synthetic
from chainlens.analytics import METRIC_NAMES, criticality, critical_paths, sole_supplier_scopes

graph = generate_synthetic(GeneratorConfig(seed=2024))
suppliers = graph.project_subgraph({EntityType.SUPPLIER}, {RelationType.SUPPLIES_TO})
report = criticality(suppliers, threshold=10.0)

order = np.argsort(report.aggregated)[::-1]
print("Most critical suppliers:")
for i in order[:8]:
    flag = "CRITICAL" if report.is_critical[i] else ""
    print(f"  {report.labels[i]:12s} score {report.aggregated[i]:5.2f}  {flag}")
print(f"\n{int(report.is_critical.sum())} suppliers exceed the threshold of {report.threshold:g}")

print("\nMetric correlation matrix (Pearson on raw values):")
print("            " + "  ".join(f"{m[:7]:>7s}" for m in METRIC_NAMES))
for name, row in zip(METRIC_NAMES, report.correlation):
    print(f"{name[:11]:11s} " + "  ".join(f"{v:+.4f}" for v in row))

# Supply chains into the hub that pass through a flagged supplier.
paths = critical_paths(suppliers, report, max_depth=3)
print(f"\n{len(paths)} critical supply paths terminate at the hub; the longest ones:")
for path in paths[-3:]:
    print("  " + " -> ".join(report.labels[p] for p in path))

# Single points of failure: scopes served by exactly one supplier.
scopes = sole_supplier_scopes(graph)
if scopes:
    print(f"\nSole-supplier business scopes ({len(scopes)}):")
    for scope_id, supplier_id in scopes:
        print(f"  {graph.labels[scope_id]} depends entirely on {graph.labels[supplier_id]}")
else:
    print("\nNo sole-supplier business scopes at this seed (every scope has backup suppliers)")
