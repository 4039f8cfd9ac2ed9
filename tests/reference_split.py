"""Reference implementation that the split tests compare chainlens against.

``reference_transductive_split`` is the transductive split written on
``Triple`` tuples with dicts and sets, one Python step per triple: pin one
incident triple per entity, then one per uncovered relation type, in sorted
triple order, and sample validation and test from the rest.  The array split
in ``chainlens.dataset`` must return the same three parts.
"""

from typing import NamedTuple

import numpy as np

from chainlens.dataset import SplitInfeasible, split_sizes
from chainlens.graph import RELATION_BY_INDEX


class Triple(NamedTuple):
    """One id row; tuples order as (subject, relation index, object)."""

    subject: int
    predicate: int
    object: int


def reference_transductive_split(graph, config):
    """(train, validation, test) as lists of Triples in sorted order."""
    if graph.num_triples == 0:
        raise SplitInfeasible("graph has no triples to split")
    triples = sorted(map(Triple._make, graph.triples_array().tolist()))

    first_incident = {}
    first_rel = {}
    for t in triples:
        first_incident.setdefault(t.subject, t)
        first_incident.setdefault(t.object, t)
        first_rel.setdefault(t.predicate, t)

    pinned = set()
    covered = set()
    covered_rels = set()

    def pin(t):
        pinned.add(t)
        covered.add(t.subject)
        covered.add(t.object)
        covered_rels.add(t.predicate)

    for e in range(graph.num_entities):
        if e not in covered and e in first_incident:
            pin(first_incident[e])
    for rel in range(len(RELATION_BY_INDEX)):
        if rel in first_rel and rel not in covered_rels:
            pin(first_rel[rel])

    free = [t for t in triples if t not in pinned]
    if not free:
        raise SplitInfeasible(
            "every triple is needed to keep some entity or relation type in train "
            "(nothing can be held out)"
        )
    _, n_val, n_test = split_sizes(len(triples), config.validation_fraction, config.test_fraction)
    if len(free) < n_val + n_test:
        total = n_val + n_test
        n_val_eff = int(len(free) * n_val / total) if total else 0
        n_test_eff = int(len(free) * n_test / total) if total else 0
    else:
        n_val_eff, n_test_eff = n_val, n_test
    if (n_val > 0 and n_val_eff == 0) or (n_test > 0 and n_test_eff == 0):
        raise SplitInfeasible(
            "the transductive cover leaves too few free triples for non-empty "
            "validation/test sets (every triple is some entity's only edge?)"
        )

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(free))
    validation = sorted(free[i] for i in order[:n_val_eff])
    test = sorted(free[i] for i in order[n_val_eff : n_val_eff + n_test_eff])
    held = set(validation) | set(test)
    train = [t for t in triples if t not in held]
    return train, validation, test
