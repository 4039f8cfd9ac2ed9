"""Triple-file ingestion, synthetic supply-network generation, and splits.

The shared triple file format is UTF-8, one triple per line, tab-separated:
``subject_label TAB subject_type TAB predicate TAB object_label TAB
object_type``.  Lines starting with ``#`` are comments.  Entities are
deduplicated by (label, type).  One reader (``_read_triples``) serves
``load_triples`` and ``load_split_dir``, and one writer (``_write_triples``)
serves ``export_triples`` and ``write_split``; both work on the id columns of
a :class:`~chainlens.graph.Graph` and build no per-triple objects.

The synthetic generator emits a schema-valid network shaped like a real
multi-tier supply base: a single hub supplier supplied by every tier-1
supplier, tier-2 supplying tier-1 and tier-3 supplying tier-2 under linear
preferential attachment (heavy-tailed in-degree), a sprinkling of cross-tier
shortcut edges, and part/substance/smelter side structure.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import TypeVar

import numpy as np

from .graph import (
    DEFAULT_SCHEMA,
    ENTITY_TYPE_INDEX,
    EntityType,
    Graph,
    GraphError,
    RELATION_BY_INDEX,
    RELATION_INDEX,
    RelationType,
    Schema,
    SchemaViolation,
)

TRAIN_FILE = "train.tsv"
VALID_FILE = "valid.tsv"
TEST_FILE = "test.tsv"

_HEADER = "# subject\tsubject_type\tpredicate\tobject\tobject_type"


class ParseError(Exception):
    """A malformed triple or config file line."""


class ConfigError(Exception):
    """An invalid or unsatisfiable generator/training configuration."""


class SplitInfeasible(Exception):
    """The requested split cannot produce non-empty held-out sets."""


# ---------------------------------------------------------------------------
# Triple file I/O
# ---------------------------------------------------------------------------

_ENTITY_CODES = {t.value: i for t, i in ENTITY_TYPE_INDEX.items()}
_RELATION_CODES = {r.value: i for r, i in RELATION_INDEX.items()}


#: Lines parsed per batch; bounds how many per-field strings are alive at once.
READ_BATCH_LINES = 1 << 10


def _parse_lines(path: Path, lines: list[str], first_lineno: int, schema: Schema,
                 vocab: dict[str, int]) -> np.ndarray:
    """(k, 3) id triples of the triple lines in ``lines``, numbered from ``first_lineno``.

    Each new ``label TAB type`` gets the next id in ``vocab``, subject before
    object.  The first bad line raises :class:`ParseError` (field count, empty
    label, unknown relation or type) or :class:`SchemaViolation`, named as
    ``path:line``.
    """
    linenos = [i for i, line in enumerate(lines, start=first_lineno) if line.strip() and not line.startswith("#")]
    rows = [lines[i - first_lineno] for i in linenos]
    errors: list[tuple[int, str]] = []  # (row, message), in check order within a row
    whole = next((k for k, tabs in enumerate(map(str.count, rows, repeat("\t"))) if tabs != 4), len(rows))
    if whole < len(rows):  # only the rows before the first one without 5 fields are split
        errors.append((whole, f"expected 5 tab-separated fields, got {rows[whole].count(chr(9)) + 1}"))
    fields = "\t".join(rows[:whole]).split("\t") if whole else []
    s_label, s_type, relation, o_label, o_type = (fields[i::5] for i in range(5))
    errors += [(col.index(""), "empty entity label") for col in (s_label, o_label) if "" in col]
    codes = []  # relation, subject-type and object-type indices; -1 for an unknown name
    for names, known, kind in ((relation, _RELATION_CODES, RelationType),
                               (s_type, _ENTITY_CODES, EntityType), (o_type, _ENTITY_CODES, EntityType)):
        codes.append(np.fromiter(map(known.get, names, repeat(-1)), dtype=np.int64, count=len(names)))
        for k in np.flatnonzero(codes[-1] < 0)[:1].tolist():
            try:
                kind.from_name(names[k])
            except ValueError as exc:
                errors.append((k, str(exc)))
    n = min([k for k, _ in errors], default=len(s_label))
    rels, s_codes, o_codes = (c[:n] for c in codes)
    illegal = np.flatnonzero(~schema.legal(rels, s_codes, o_codes))
    if illegal.size:
        k = int(illegal[0])
        message = schema.violation(EntityType(s_type[k]), RelationType(relation[k]), EntityType(o_type[k]),
                                   s_label[k], o_label[k])
        raise SchemaViolation(f"{path}:{linenos[k]}: {message}")
    if errors:
        k, message = min(errors, key=lambda e: e[0])
        raise ParseError(f"{path}:{linenos[k]}: {message}")
    keys = [""] * (2 * n)  # "label TAB type" of each line's subject and object in turn
    keys[0::2] = map("\t".join, zip(s_label, s_type))
    keys[1::2] = map("\t".join, zip(o_label, o_type))
    for key in dict.fromkeys(keys):
        vocab.setdefault(key, len(vocab))
    ends = np.fromiter(map(vocab.__getitem__, keys), dtype=np.int64, count=2 * n)
    return np.stack([ends[0::2], rels, ends[1::2]], axis=1)


def _read_triples(paths: list[Path], schema: Schema) -> tuple[Graph, list[np.ndarray]]:
    """Read triple files into one graph plus one (k, 3) id-triple array per file.

    Entities get ids by (label, type) in first-appearance order over the
    files; the graph keeps each distinct triple once, in first-appearance
    order, while the per-file arrays keep every line.
    """
    vocab: dict[str, int] = {}
    arrays = []
    for path in paths:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        arrays.append(np.concatenate([np.empty((0, 3), dtype=np.int64)] + [
            _parse_lines(path, lines[i : i + READ_BATCH_LINES], i + 1, schema, vocab)
            for i in range(0, len(lines), READ_BATCH_LINES)
        ]))
    entities = [key.split("\t") for key in vocab]
    spo = np.concatenate(arrays)
    _, first = np.unique((spo[:, 0] * len(RELATION_INDEX) + spo[:, 1]) * max(len(vocab), 1) + spo[:, 2],
                         return_index=True)
    graph = Graph([label for label, _ in entities], [_ENTITY_CODES[t] for _, t in entities], spo[np.sort(first)])
    return graph, arrays


def load_triples(path: str | Path, schema: Schema = DEFAULT_SCHEMA) -> Graph:
    """Read a triple file into a schema-validated Graph.

    Entities are deduplicated by (label, type); duplicate triple lines are
    collapsed.  Raises :class:`ParseError` with the offending line number,
    or :class:`SchemaViolation` naming the line for type-illegal triples.
    """
    return _read_triples([Path(path)], schema)[0]


def _unreadable(label: str, subject: bool) -> bool:
    """Whether ``label`` would not read back from a triple file: empty, with a tab or line break, or a ``#`` subject."""
    return (subject and label.startswith("#")) or "\t" in label or label.splitlines() != [label]


def _write_triples(graph: Graph, spo: np.ndarray, path: Path) -> None:
    """Write id-triple rows of ``graph`` in the shared format, lines sorted.

    Raises :class:`GraphError` for a label that would not read back.
    """
    role = np.zeros(graph.num_entities, dtype=np.int8)  # 2 for a subject, 1 for an object only
    role[spo[:, 2]] = 1
    role[spo[:, 0]] = 2
    ids = np.flatnonzero(role)
    labels = [graph.labels[i] for i in ids.tolist()]
    text = "\t".join(labels)
    subjects = "\n" + "\n".join(graph.labels[i] for i in np.flatnonzero(role == 2).tolist())
    # tests on the joined labels, each of which fails only when some label would not read back
    if len(ids) and ("" in labels or text.count("\t") >= len(ids) or text.splitlines() != [text]
                     or "\n#" in subjects):
        label = next(label for label, r in zip(labels, role[ids].tolist()) if _unreadable(label, r == 2))
        raise GraphError(f"label {label!r} cannot be written to a triple file: it would not read back")
    lines = [_HEADER, *map("\t".join, graph.label_triples(spo))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_triples(graph: Graph, path: str | Path) -> None:
    """Write a graph in the shared triple format with sorted line order."""
    _write_triples(graph, graph.triples_array(), Path(path))


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a plain ``key=value`` config file, ignoring blanks and # comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in out:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_Config = TypeVar("_Config", bound="KvConfig")


class KvConfig:
    """Base of the config dataclasses that a ``key=value`` file sets.

    ``to_kv()`` is the flat view a file and a CLI manifest record, and
    ``from_kv`` builds the config back from a whole such view.
    """

    def to_kv(self) -> dict:
        return asdict(self)

    @classmethod
    def from_kv(cls: type[_Config], kv: dict) -> _Config:
        return cls(**kv)

    @classmethod
    def from_file(cls: type[_Config], path: str | Path) -> _Config:
        """Load overrides from a key=value file; unlisted keys keep defaults.

        Each value takes the type of its key's default, so ``dim=3.5`` is
        rejected and ``margin=2`` loads as ``2.0``.
        """
        kv = cls().to_kv()
        for key, value in parse_kv_file(path).items():
            if key not in kv:
                raise ConfigError(f"{path}: unknown {cls.__name__} key {key!r}")
            try:
                kv[key] = type(kv[key])(value)
            except ValueError:
                raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from None
        return cls.from_kv(kv)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

DEFAULT_ENTITY_COUNTS: dict[EntityType, int] = {
    EntityType.SUPPLIER: 612,
    EntityType.MANUFACTURER_PART: 17,
    EntityType.SIEMENS_PART: 13,
    EntityType.SMELTER: 6,
    EntityType.SUBSTANCE: 12,
    EntityType.COMPONENT: 10,
    EntityType.COUNTRY: 16,
    EntityType.BUSINESS_SCOPE: 8,
}

DEFAULT_RELATION_COUNTS: dict[RelationType, int] = {
    RelationType.SUPPLIES_TO: 1382,
    RelationType.RELATED_TO: 612,
    RelationType.BELONGS_TO: 567,
    RelationType.LOCATED_IN: 618,
    RelationType.INCLUDES: 101,
    RelationType.PRODUCES: 78,
    RelationType.PRODUCED_IN: 44,
    RelationType.SAME_AS: 18,
    RelationType.MANUFACTURED_BY: 16,
    RelationType.CONTAINS: 8,
    RelationType.REFINES: 6,
}

#: Config-file keys of the entity counts, in EntityType order.
_ENTITY_KEYS: dict[EntityType, str] = dict(zip(EntityType, (
    "suppliers", "manufacturer_parts", "siemens_parts", "smelters", "substances", "components", "countries",
    "business_scopes")))

_LABEL_PREFIX: dict[EntityType, str] = {
    EntityType.SUPPLIER: "SUP",
    EntityType.MANUFACTURER_PART: "MPN",
    EntityType.SIEMENS_PART: "SPN",
    EntityType.SMELTER: "SML",
    EntityType.SUBSTANCE: "SUB",
    EntityType.COMPONENT: "CMP",
    EntityType.COUNTRY: "CTY",
    EntityType.BUSINESS_SCOPE: "BSC",
}


@dataclass(frozen=True)
class GeneratorConfig(KvConfig):
    """Knobs for the synthetic network; defaults give ~690 nodes / ~3,450 edges.

    ``hub_fanout`` supplies_to edges run from the hub back into tier-1
    (internal divisions and distribution), which keeps the focal company on
    top of every centrality metric, not just in-degree.
    """

    seed: int = 0
    entity_counts: dict[EntityType, int] = field(default_factory=lambda: dict(DEFAULT_ENTITY_COUNTS))
    relation_counts: dict[RelationType, int] = field(default_factory=lambda: dict(DEFAULT_RELATION_COUNTS))
    tier_sizes: tuple[int, int, int] = (150, 230, 231)
    shortcut_fraction: float = 0.05
    hub_label: str = "FocalCo"
    hub_fanout: int = 25

    def to_kv(self) -> dict:
        """The flat view a config file uses: entity counts under ``_ENTITY_KEYS``,
        relation counts under the relation names, and ``tier1``..``tier3``."""
        return {
            "seed": self.seed, "shortcut_fraction": self.shortcut_fraction,
            "hub_label": self.hub_label, "hub_fanout": self.hub_fanout,
            **dict(zip(("tier1", "tier2", "tier3"), self.tier_sizes)),
            **{key: self.entity_counts.get(et, 0) for et, key in _ENTITY_KEYS.items()},
            **{rt.value: self.relation_counts.get(rt, 0) for rt in RelationType},
        }

    @classmethod
    def from_kv(cls, kv: dict) -> "GeneratorConfig":
        kv = dict(kv)
        return cls(entity_counts={et: kv.pop(key) for et, key in _ENTITY_KEYS.items()},
                   relation_counts={rt: kv.pop(rt.value) for rt in RelationType},
                   tier_sizes=(kv.pop("tier1"), kv.pop("tier2"), kv.pop("tier3")), **kv)


def _validate_config(cfg: GeneratorConfig, schema: Schema) -> None:
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
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
    if _unreadable(cfg.hub_label, subject=True):
        raise ConfigError(f"hub_label {cfg.hub_label!r} must be non-empty, not start with '#' and hold no tab or "
                          "line break")

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


def _choice(p: np.ndarray, u: float) -> int:
    """The index ``rng.choice(len(p), p=p)`` returns when its one ``rng.random()`` draw is ``u``.

    ``Generator.choice(n, p=p)`` normalises the cumulative sum of ``p`` and
    searches it from the right for that draw; these are the same steps
    without ``choice``'s argument checks, so ``_choice(p, rng.random())``
    gives the same index and leaves ``rng`` in the same state.  The generated
    networks depend on this; ``numpy/random/_generator.pyx`` is not shipped
    with the compiled module, so ``test_choice_emulation_matches_generator_choice``
    is the record of it.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, "right"))


_TWO53 = 1 << 53  # Generator.random() returns a whole multiple of 2**-53


def _prefix_choice(weights: list[int], cum: np.ndarray, u: float) -> int:
    """``_choice(np.array(weights) / total, u)`` from whole-number weights and their prefix sums.

    ``cum[k]`` is ``sum(weights[:k + 1])`` and ``total`` is ``cum[-1] > 0``.
    For n weights, the float cdf ``_choice`` builds is within a relative
    ``(2n + 1) * 2**-53`` of the exact ``cum / total`` (n divisions, n
    sequential additions, one normalisation), so when ``u`` lies more than
    twice that inside the exact interval ``[cum[k - 1], cum[k]) / total``
    found by an integer search, ``_choice`` returns ``k`` too.  The
    comparison is in integers, which makes it exact; only a ``u`` nearer an
    edge builds the float cdf.
    """
    total = int(cum[-1])
    x = int(u * _TWO53) * total  # u * total * 2**53, exactly
    k = int(cum.searchsorted(x >> 53, "right"))  # the first k with cum[k] > u * total
    hi = int(cum[k])
    slack = 4 * len(weights) + 8
    if (hi - weights[k]) * (_TWO53 + slack) <= x < hi * (_TWO53 - slack):
        return k
    return _choice(np.array(weights, dtype=float) / total, u)


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
    ``targets`` are distinct ids.

    Each weighted draw returns the index ``rng.choice(active, p=w / w.sum())``
    would, over the weights ``w`` of the eligible targets with capped ones at
    0, from the same single ``rng.random()`` draw (see :func:`_choice`).  The
    weights and their exact prefix sums are kept up to date as draws happen
    (+1 for the drawn target, or 0 once it reaches the cap), so a draw is a
    binary search (:func:`_prefix_choice`) plus one vectorised update of the
    prefix sums past the drawn slot, not a rebuilt cdf.
    """
    chosen: list[int] = []
    if n_draws <= 0 or not targets:
        return chosen
    n = len(targets)
    cap = math.inf if max_per_target is None else max_per_target
    start = (indeg[targets] + 1).tolist()  # a slot's weight before its first draw
    w = [0] * n  # each slot's weight while eligible and under the cap, else 0
    cum = np.zeros(n, dtype=np.int64)  # cum[k] == sum(w[:k + 1])
    counts = [0] * n
    active = total = 0
    for i in range(n_draws):
        want = min(n, max(1, math.ceil(n * (i + 1) / n_draws)))
        if active < want:
            j = active
            active += 1
        elif total > 0:
            j = _prefix_choice(w, cum, rng.random())
        elif active < n:
            j = active
            active += 1
        else:
            raise ConfigError("relation supplies_to: attachment pool exhausted; reduce the count")
        counts[j] += 1
        weight = start[j] + counts[j] if counts[j] < cap else 0
        cum[j:] += weight - w[j]
        total += weight - w[j]
        w[j] = weight
        t = targets[j]
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


def generate_synthetic(config: GeneratorConfig | None = None, schema: Schema = DEFAULT_SCHEMA) -> Graph:
    """Build a seeded synthetic supply network.

    Guarantees: schema-valid output; the hub supplier receives a supplies_to
    edge from every tier-1 supplier and ends with the maximum in-degree in
    the graph; every supplier has at least one related_to business scope and
    one located_in country; part/substance/smelter relations hit the
    configured counts exactly.

    The triples are collected as id rows in insertion order and checked
    against the schema once, at the end; the first row that breaks it raises
    :class:`SchemaViolation`.
    """
    cfg = config or GeneratorConfig()
    _validate_config(cfg, schema)
    rng = np.random.default_rng(cfg.seed)
    ec, rc = cfg.entity_counts, cfg.relation_counts

    labels: list[str] = []
    type_codes: list[int] = []
    by_type: dict[EntityType, list[int]] = {}
    for et in EntityType:  # suppliers first, the hub as id 0
        if et is EntityType.SUPPLIER:
            names = [cfg.hub_label] + [f"SUP-{i:04d}" for i in range(1, ec.get(et, 0))]
        else:
            names = [f"{_LABEL_PREFIX[et]}-{i:04d}" for i in range(ec.get(et, 0))]
        by_type[et] = list(range(len(labels), len(labels) + len(names)))
        labels += names
        type_codes += [ENTITY_TYPE_INDEX[et]] * len(names)
    suppliers = by_type[EntityType.SUPPLIER]
    hub = suppliers[0]

    t1n, t2n, t3n = cfg.tier_sizes
    tier1 = suppliers[1 : 1 + t1n]
    tier2 = suppliers[1 + t1n : 1 + t1n + t2n]
    tier3 = suppliers[1 + t1n + t2n : 1 + t1n + t2n + t3n]

    indeg = np.zeros(len(labels), dtype=np.int64)
    rows: list[tuple[int, int, int]] = []  # (subject, relation index, object), in insertion order
    supply: set[tuple[int, int]] = set()  # the (subject, object) pairs of the supplies_to rows
    supplies_to = RELATION_INDEX[RelationType.SUPPLIES_TO]

    def add_supply(s: int, o: int) -> bool:
        if s == o or (s, o) in supply:
            return False
        supply.add((s, o))
        rows.append((s, supplies_to, o))
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
    fill_budget = n_supply - len(rows) - n_short  # every row so far is a supplies_to row

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
    in_tier2 = set(tier2)
    cands = np.asarray([hub] + tier1, dtype=np.int64)
    for _ in range(n_short):
        if not short_sources:
            break
        placed = False
        for _ in range(200):
            s = short_sources[int(rng.integers(len(short_sources)))]
            if s in in_tier2 or not tier1:
                t = hub
            else:
                w = indeg[cands] + 1.0
                t = int(cands[_choice(w / w.sum(), rng.random())])
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
        r = RELATION_INDEX[rel]
        weights = _skewed_weights(len(tgt_pool))
        picks = rng.choice(len(tgt_pool), size=len(sources), p=weights)
        pairs = list(zip(sources, map(tgt_pool.__getitem__, picks.tolist())))
        rows.extend((s, r, t) for s, t in pairs)
        seen = set(pairs)
        extra = rc.get(rel, 0) - len(sources)
        while extra > 0:
            s = sources[int(rng.integers(len(sources)))]
            t = tgt_pool[_choice(weights, rng.random())]
            if (s, t) not in seen:
                seen.add((s, t))
                rows.append((s, r, t))
                extra -= 1

    covered_assign(RelationType.RELATED_TO, suppliers, scopes)
    covered_assign(
        RelationType.LOCATED_IN, suppliers + by_type[EntityType.SMELTER], countries
    )

    # belongs_to: a subset of suppliers gets a registration country.
    n_belong = rc.get(RelationType.BELONGS_TO, 0)
    belongs_to = RELATION_INDEX[RelationType.BELONGS_TO]
    if n_belong and countries:
        if n_belong <= len(suppliers):
            chosen = rng.choice(len(suppliers), size=n_belong, replace=False)
            weights = _skewed_weights(len(countries))
            picks = rng.choice(len(countries), size=n_belong, p=weights)
            rows.extend((suppliers[i], belongs_to, countries[j]) for i, j in zip(chosen.tolist(), picks.tolist()))
        else:
            rows.extend((s, belongs_to, t) for s, t in _sample_distinct_pairs(rng, suppliers, countries, n_belong))

    # Part/substance/smelter relations: exact configured counts.
    def fill_relation(rel: RelationType) -> None:
        count = rc.get(rel, 0)
        if count == 0:
            return
        src_pool = sorted(set().union(*[by_type[t] for t in schema.source_types(rel)]))
        tgt_pool = sorted(set().union(*[by_type[t] for t in schema.target_types(rel)]))
        pairs = _sample_distinct_pairs(rng, src_pool, tgt_pool, count, exclude_self=True)
        rows.extend((s, RELATION_INDEX[rel], t) for s, t in pairs)

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

    graph = Graph(labels, type_codes, rows)
    violations = graph.validate(schema).schema_violations
    if len(violations):
        s, r, o = violations[0].tolist()
        raise SchemaViolation(schema.violation(graph.entity_type(s), RELATION_BY_INDEX[r], graph.entity_type(o),
                                               labels[s], labels[o]))
    return graph


# ---------------------------------------------------------------------------
# Transductive splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitConfig(KvConfig):
    validation_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.validation_fraction < 1.0 or not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("split fractions must lie in (0, 1)")
        if self.validation_fraction + self.test_fraction >= 1.0:
            raise ConfigError("validation_fraction + test_fraction must be < 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SplitResult:
    """The three parts as (k, 3) id-triple arrays of the split graph, each sorted
    by (subject, relation, object); labels and types stay on the graph."""

    train_ids: np.ndarray
    validation_ids: np.ndarray
    test_ids: np.ndarray


def split_sizes(n_triples: int, validation_fraction: float, test_fraction: float) -> tuple[int, int, int]:
    """Target (train, validation, test) sizes; rounding remainder goes to train."""
    n_val = round(validation_fraction * n_triples)
    n_test = round(test_fraction * n_triples)
    return n_triples - n_val - n_test, n_val, n_test


def transductive_split(graph: Graph, config: SplitConfig) -> SplitResult:
    """Partition the graph's triples so validation/test stay transductive.

    Every entity and relation type occurring in validation or test must also
    occur in train.  Mechanism: in (subject, relation, object) order, greedily
    pin one incident triple per entity (and per relation type) into train,
    then sample the remaining free triples uniformly without replacement into
    validation and test.  When pinning leaves fewer free triples than the
    fraction targets, the held-out sets shrink (train absorbs the shortfall);
    if either held-out set would end up empty, :class:`SplitInfeasible` is
    raised.
    """
    if graph.num_triples == 0:
        raise SplitInfeasible("graph has no triples to split")
    spo = graph.triples_array()
    spo = spo[np.lexsort((spo[:, 2], spo[:, 1], spo[:, 0]))]
    m = len(spo)
    first = np.full(graph.num_entities, m)  # each entity's first incident row, m if none
    np.minimum.at(first, spo[:, [0, 2]], np.arange(m)[:, None])
    subjects, objects = spo[:, 0].tolist(), spo[:, 2].tolist()
    covered = bytearray(graph.num_entities)
    pinned = np.zeros(m, dtype=bool)
    for e, t in enumerate(first.tolist()):
        if t < m and not covered[e]:
            pinned[t] = True
            covered[subjects[t]] = covered[objects[t]] = 1
    relations, at = np.unique(spo[:, 1], return_index=True)
    pinned[at[~np.isin(relations, spo[pinned, 1])]] = True

    free = np.flatnonzero(~pinned)
    if not free.size:
        raise SplitInfeasible(
            "every triple is needed to keep some entity or relation type in train "
            "(nothing can be held out)"
        )
    _, n_val, n_test = split_sizes(m, config.validation_fraction, config.test_fraction)
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

    order = free[np.random.default_rng(config.seed).permutation(len(free))]
    validation = np.sort(order[:n_val_eff])
    test = np.sort(order[n_val_eff : n_val_eff + n_test_eff])
    return SplitResult(np.delete(spo, order[: n_val_eff + n_test_eff], axis=0), spo[validation], spo[test])


def check_transductive(train: np.ndarray, *held_out: np.ndarray) -> np.ndarray | None:
    """The first held-out id row whose subject, relation or object is missing from ``train``, or None.

    ``held_out`` parts are searched in the order given.
    """
    for part in held_out:
        known = (np.isin(part[:, [0, 2]], train[:, [0, 2]], kind="table").all(axis=1)
                 & np.isin(part[:, 1], train[:, 1], kind="table"))
        if not known.all():
            return part[np.argmin(known)]
    return None


# ---------------------------------------------------------------------------
# Split file round trips
# ---------------------------------------------------------------------------

_SPLIT_FILES = (TRAIN_FILE, VALID_FILE, TEST_FILE)


def write_split(graph: Graph, result: SplitResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, spo in zip(_SPLIT_FILES, (result.train_ids, result.validation_ids, result.test_ids)):
        _write_triples(graph, spo, out / name)


def load_split_dir(
    split_dir: str | Path, schema: Schema = DEFAULT_SCHEMA
) -> tuple[Graph, np.ndarray, np.ndarray, np.ndarray]:
    """Load train/valid/test files into one union graph plus id-triple arrays.

    The union graph assigns ids in train-file-first order, so under a
    transductive split the entity vocabulary equals the training set's.
    """
    graph, (train, valid, test) = _read_triples([Path(split_dir) / name for name in _SPLIT_FILES], schema)
    return graph, train, valid, test
