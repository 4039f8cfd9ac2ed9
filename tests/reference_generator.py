"""Reference implementation that the generator tests compare chainlens against.

``reference_generate_synthetic`` is the synthetic supply-network generator
written one triple at a time: every edge goes through ``Graph.add_triple``
(schema check per triple), every retry through ``Graph.has_triple``, and
every weighted draw through ``numpy.random.Generator.choice``.  The array
generator in ``chainlens.dataset`` must make the same draws in the same
order and return the same labels, type codes and triple rows, in the same
row order.
"""

import math

import numpy as np

from chainlens.dataset import _LABEL_PREFIX, ConfigError, GeneratorConfig
from chainlens.graph import DEFAULT_SCHEMA, EntityType, Graph, RelationType, Schema


def _validate_config(cfg: GeneratorConfig, schema: Schema) -> None:
    ec, rc = cfg.entity_counts, cfg.relation_counts
    for et in EntityType:
        if ec.get(et, 0) < 0:
            raise ConfigError(f"negative count for entity type {et.value}")
    for rt in RelationType:
        if rc.get(rt, 0) < 0:
            raise ConfigError(f"negative count for relation {rt.value}")
    n_sup = ec.get(EntityType.SUPPLIER, 0)
    t1, t2, t3 = cfg.tier_sizes
    if min(t1, t2, t3) < 0:
        raise ConfigError("negative tier size")
    if 1 + t1 + t2 + t3 > n_sup:
        raise ConfigError(
            f"tier sizes {cfg.tier_sizes} plus the hub exceed the supplier count {n_sup}"
        )
    if not 0.0 <= cfg.shortcut_fraction < 1.0:
        raise ConfigError("shortcut_fraction must be in [0, 1)")
    if not cfg.hub_label:
        raise ConfigError("hub_label must be non-empty")

    def pool(types: frozenset) -> int:
        return sum(ec.get(t, 0) for t in types)

    # Capacity: distinct (source, target) pairs must accommodate the count.
    for rt in RelationType:
        count = rc.get(rt, 0)
        src, tgt = schema.source_types(rt), schema.target_types(rt)
        capacity = pool(src) * pool(tgt) - pool(src & tgt)  # self-edges excluded
        if count > capacity:
            raise ConfigError(
                f"relation {rt.value}: requested {count} edges but only "
                f"{capacity} distinct pairs are possible for the configured entity counts"
            )

    # Structural minimums for the supply network.
    if cfg.hub_fanout < 0:
        raise ConfigError("hub_fanout must be non-negative")
    hub_fanout = min(cfg.hub_fanout, t1)
    n_short = round(cfg.shortcut_fraction * rc.get(RelationType.SUPPLIES_TO, 0))
    base = t1 + t2 + t3 + ec.get(EntityType.SMELTER, 0) + n_short + hub_fanout
    if rc.get(RelationType.SUPPLIES_TO, 0) < base:
        raise ConfigError(
            f"relation supplies_to: count {rc.get(RelationType.SUPPLIES_TO, 0)} is below the "
            f"structural minimum {base} (tier coverage + smelters + shortcuts + hub fanout)"
        )
    if rc.get(RelationType.RELATED_TO, 0) < n_sup:
        raise ConfigError(
            f"relation related_to: count {rc.get(RelationType.RELATED_TO, 0)} cannot cover "
            f"every supplier ({n_sup})"
        )
    min_loc = n_sup + ec.get(EntityType.SMELTER, 0)
    if rc.get(RelationType.LOCATED_IN, 0) < min_loc:
        raise ConfigError(
            f"relation located_in: count {rc.get(RelationType.LOCATED_IN, 0)} cannot cover "
            f"every supplier and smelter ({min_loc})"
        )
    if n_sup > 0 and ec.get(EntityType.BUSINESS_SCOPE, 0) == 0:
        raise ConfigError("relation related_to: no business scopes to relate suppliers to")
    if n_sup > 0 and ec.get(EntityType.COUNTRY, 0) == 0:
        raise ConfigError("relation located_in: no countries to locate suppliers in")


def _skewed_weights(n: int) -> np.ndarray:
    # sqrt-decaying target popularity: varied sizes without letting any
    # single node rival the hub's in-degree
    w = np.sqrt(np.arange(n, 0, -1, dtype=float))
    return w / w.sum()


def _pa_targets(
    rng: np.random.Generator,
    targets: list[int],
    n_draws: int,
    indeg: np.ndarray,
    max_per_target: int | None = None,
) -> list[int]:
    """Draw ``n_draws`` targets with linear preferential attachment.

    Targets become eligible gradually over the draw stream (earliest first),
    so early targets compound their advantage and the in-degree distribution
    comes out heavy-tailed.  Attachment weight is in_degree + 1.
    ``max_per_target`` caps how often one target may be drawn (the size of
    the source pool, so that distinct source/target pairs always exist).
    """
    chosen: list[int] = []
    if n_draws <= 0 or not targets:
        return chosen
    active = 0
    pool = np.asarray(targets, dtype=np.int64)
    block_counts = np.zeros(len(pool), dtype=np.int64)
    for i in range(n_draws):
        want = min(len(pool), max(1, math.ceil(len(pool) * (i + 1) / n_draws)))
        if active < want:
            j = active
            active += 1
        else:
            w = indeg[pool[:active]] + 1.0
            if max_per_target is not None:
                w[block_counts[:active] >= max_per_target] = 0.0
            total = w.sum()
            if total > 0:
                j = int(rng.choice(active, p=w / total))
            elif active < len(pool):
                j = active
                active += 1
            else:
                raise ConfigError("relation supplies_to: attachment pool exhausted; reduce the count")
        block_counts[j] += 1
        t = int(pool[j])
        indeg[t] += 1
        chosen.append(t)
    return chosen


def _sample_distinct_pairs(
    rng: np.random.Generator,
    sources: list[int],
    targets: list[int],
    k: int,
    exclude_self: bool = False,
) -> list[tuple[int, int]]:
    """k distinct (source, target) pairs, exact for small pools, rejection otherwise."""
    if k == 0:
        return []
    capacity = len(sources) * len(targets)
    if exclude_self:
        capacity -= len(set(sources) & set(targets))
    if k > capacity:
        raise ConfigError(f"cannot sample {k} distinct pairs from capacity {capacity}")
    if capacity <= 10_000:
        pairs = [(s, t) for s in sources for t in targets if not (exclude_self and s == t)]
        order = rng.permutation(len(pairs))
        return [pairs[i] for i in order[:k]]
    out: set[tuple[int, int]] = set()
    while len(out) < k:
        s = sources[int(rng.integers(len(sources)))]
        t = targets[int(rng.integers(len(targets)))]
        if exclude_self and s == t:
            continue
        out.add((s, t))
    return sorted(out)


def reference_generate_synthetic(config: GeneratorConfig | None = None, schema: Schema = DEFAULT_SCHEMA) -> Graph:
    """Build a seeded synthetic supply network.

    Guarantees: schema-valid output; the hub supplier receives a supplies_to
    edge from every tier-1 supplier and ends with the maximum in-degree in
    the graph; every supplier has at least one related_to business scope and
    one located_in country; part/substance/smelter relations hit the
    configured counts exactly.
    """
    cfg = config or GeneratorConfig()
    _validate_config(cfg, schema)
    rng = np.random.default_rng(cfg.seed)
    graph = Graph()
    ec, rc = cfg.entity_counts, cfg.relation_counts

    by_type: dict[EntityType, list[int]] = {}
    hub = graph.add_entity(cfg.hub_label, EntityType.SUPPLIER)
    suppliers = [hub]
    for i in range(1, ec.get(EntityType.SUPPLIER, 0)):
        suppliers.append(graph.add_entity(f"SUP-{i:04d}", EntityType.SUPPLIER))
    by_type[EntityType.SUPPLIER] = suppliers
    for et in EntityType:
        if et is EntityType.SUPPLIER:
            continue
        by_type[et] = [
            graph.add_entity(f"{_LABEL_PREFIX[et]}-{i:04d}", et) for i in range(ec.get(et, 0))
        ]

    t1n, t2n, t3n = cfg.tier_sizes
    tier1 = suppliers[1 : 1 + t1n]
    tier2 = suppliers[1 + t1n : 1 + t1n + t2n]
    tier3 = suppliers[1 + t1n + t2n : 1 + t1n + t2n + t3n]

    indeg = np.zeros(graph.num_entities, dtype=np.int64)

    def add_supply(s: int, o: int) -> bool:
        if s == o or graph.has_triple(s, RelationType.SUPPLIES_TO, o):
            return False
        graph.add_triple(s, RelationType.SUPPLIES_TO, o, schema)
        return True

    # Tier-1 suppliers all feed the hub.
    for s in tier1:
        add_supply(s, hub)
        indeg[hub] += 1

    # The hub feeds part of tier 1 back (divisions, distribution).
    fanout = min(cfg.hub_fanout, len(tier1))
    if fanout:
        for j in rng.choice(len(tier1), size=fanout, replace=False):
            t = tier1[int(j)]
            add_supply(hub, t)
            indeg[t] += 1

    # Smelters feed a random supplier each.
    for sm in by_type[EntityType.SMELTER]:
        while True:
            o = suppliers[int(rng.integers(len(suppliers)))]
            if add_supply(sm, o):
                indeg[o] += 1
                break

    n_supply = rc.get(RelationType.SUPPLIES_TO, 0)
    n_short = round(cfg.shortcut_fraction * n_supply)
    fill_budget = n_supply - graph.stats().relation_counts.get(RelationType.SUPPLIES_TO, 0) - n_short

    # Per-block draw totals: every tier-2/3 supplier gets one outgoing edge,
    # the rest of the budget is split proportionally to source tier size.
    blocks: list[tuple[list[int], list[int]]] = []
    if tier2 and tier1:
        blocks.append((tier2, tier1))
    if tier3 and tier2:
        blocks.append((tier3, tier2))
    coverage_total = sum(len(src) for src, _ in blocks)
    extra_total = max(0, fill_budget - coverage_total)
    draws_per_block: list[int] = []
    src_total = sum(len(src) for src, _ in blocks) or 1
    for j, (src, _) in enumerate(blocks):
        if j == len(blocks) - 1:
            extra = extra_total - sum(d - len(b[0]) for d, b in zip(draws_per_block, blocks))
        else:
            extra = int(round(extra_total * len(src) / src_total))
        draws_per_block.append(len(src) + extra)

    for (src, tgt), n_draws in zip(blocks, draws_per_block):
        if n_draws > len(src) * len(tgt):
            raise ConfigError(
                "relation supplies_to: tier flow needs more distinct pairs than the "
                "tier sizes allow; reduce the count or grow the tiers"
            )
        order = list(tgt)
        rng.shuffle(order)
        picked = _pa_targets(rng, order, n_draws, indeg, max_per_target=len(src))
        shuffled_src = list(src)
        rng.shuffle(shuffled_src)
        for i, t in enumerate(picked):
            if i < len(shuffled_src):
                s = shuffled_src[i]
                if add_supply(s, t):
                    continue
            placed = False
            for _ in range(50):
                s = src[int(rng.integers(len(src)))]
                if add_supply(s, t):
                    placed = True
                    break
            if not placed:
                for s in src:
                    if add_supply(s, t):
                        placed = True
                        break
            if not placed:
                raise ConfigError("relation supplies_to: tier block saturated; reduce the count")

    # Cross-tier shortcuts: deeper suppliers skipping at least one level.
    short_sources = tier2 + tier3
    for _ in range(n_short):
        if not short_sources:
            break
        placed = False
        for _ in range(200):
            s = short_sources[int(rng.integers(len(short_sources)))]
            if s in tier2 or not tier1:
                t = hub
            else:
                cands = np.asarray([hub] + tier1, dtype=np.int64)
                w = indeg[cands] + 1.0
                t = int(cands[rng.choice(len(cands), p=w / w.sum())])
            if add_supply(s, t):
                indeg[t] += 1
                placed = True
                break
        if not placed:
            raise ConfigError("relation supplies_to: shortcut placement saturated")

    # Supplier coverage relations: one scope and one country each, with a
    # skewed but bounded popularity profile, then extra edges up to the
    # configured counts.
    scopes = list(by_type[EntityType.BUSINESS_SCOPE])
    countries = list(by_type[EntityType.COUNTRY])
    rng.shuffle(scopes)
    rng.shuffle(countries)

    def covered_assign(rel: RelationType, sources: list[int], tgt_pool: list[int]) -> None:
        weights = _skewed_weights(len(tgt_pool))
        picks = rng.choice(len(tgt_pool), size=len(sources), p=weights)
        for s, j in zip(sources, picks):
            graph.add_triple(s, rel, tgt_pool[int(j)], schema)
        extra = rc.get(rel, 0) - len(sources)
        while extra > 0:
            s = sources[int(rng.integers(len(sources)))]
            t = tgt_pool[int(rng.choice(len(tgt_pool), p=weights))]
            if not graph.has_triple(s, rel, t):
                graph.add_triple(s, rel, t, schema)
                extra -= 1

    covered_assign(RelationType.RELATED_TO, suppliers, scopes)
    covered_assign(
        RelationType.LOCATED_IN, suppliers + by_type[EntityType.SMELTER], countries
    )

    # belongs_to: a subset of suppliers gets a registration country.
    n_belong = rc.get(RelationType.BELONGS_TO, 0)
    if n_belong and countries:
        if n_belong <= len(suppliers):
            chosen = rng.choice(len(suppliers), size=n_belong, replace=False)
            weights = _skewed_weights(len(countries))
            picks = rng.choice(len(countries), size=n_belong, p=weights)
            for i, j in zip(chosen, picks):
                graph.add_triple(suppliers[int(i)], RelationType.BELONGS_TO, countries[int(j)], schema)
        else:
            for s, t in _sample_distinct_pairs(rng, suppliers, countries, n_belong):
                graph.add_triple(s, RelationType.BELONGS_TO, t, schema)

    # Part/substance/smelter relations: exact configured counts.
    def fill_relation(rel: RelationType) -> None:
        count = rc.get(rel, 0)
        if count == 0:
            return
        src_pool = sorted(set().union(*[by_type[t] for t in schema.source_types(rel)]))
        tgt_pool = sorted(set().union(*[by_type[t] for t in schema.target_types(rel)]))
        pairs = _sample_distinct_pairs(rng, src_pool, tgt_pool, count, exclude_self=True)
        for s, t in pairs:
            graph.add_triple(s, rel, t, schema)

    for rel in (
        RelationType.INCLUDES,
        RelationType.PRODUCES,
        RelationType.PRODUCED_IN,
        RelationType.SAME_AS,
        RelationType.MANUFACTURED_BY,
        RelationType.CONTAINS,
        RelationType.REFINES,
    ):
        fill_relation(rel)

    return graph
