import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens.dataset as dataset_mod
from chainlens.dataset import (
    ConfigError,
    GeneratorConfig,
    ParseError,
    SplitConfig,
    SplitInfeasible,
    SplitResult,
    check_transductive,
    export_triples,
    generate_synthetic,
    load_split_dir,
    load_triples,
    parse_kv_file,
    split_sizes,
    transductive_split,
    write_split,
)
from chainlens.graph import (
    DEFAULT_SCHEMA,
    ENTITY_TYPE_INDEX,
    RELATION_INDEX,
    EntityType,
    Graph,
    GraphError,
    RelationType,
    Schema,
    SchemaViolation,
)
from chainlens.training import TrainConfig

from conftest import random_typed_graph
from reference_generator import reference_generate_synthetic
from reference_split import reference_transductive_split
from reference_writer import label_triples


def rows(spo) -> set[tuple[int, int, int]]:
    return set(map(tuple, spo.tolist()))


def relation_pairs(graph, relation):
    """(subject, object) id pairs of ``relation``'s triples, in storage order."""
    spo = graph.triples_array()
    return spo[spo[:, 1] == RELATION_INDEX[relation]][:, [0, 2]].tolist()


def suppliers_of(graph) -> list[int]:
    return np.flatnonzero(graph.type_codes() == ENTITY_TYPE_INDEX[EntityType.SUPPLIER]).tolist()


def assert_transductive(result):
    train = result.train_ids
    train_ents, train_rels = set(train[:, [0, 2]].ravel().tolist()), set(train[:, 1].tolist())
    for part in (result.validation_ids, result.test_ids):
        for s, r, o in part.tolist():
            assert s in train_ents and o in train_ents
            assert r in train_rels


GEN_10X = GeneratorConfig.from_file(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "gen10x.cfg")


# -- file I/O ----------------------------------------------------------------

def test_load_triples_small_file(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(
        "# comment\n"
        "a\tSupplier\tsupplies_to\tb\tSupplier\n"
        "a\tSupplier\tsupplies_to\tb\tSupplier\n"  # duplicate collapses
        "a\tSupplier\tlocated_in\tx\tCountry\n"
    )
    g = load_triples(path)
    assert g.num_entities == 3
    assert g.num_triples == 2


def test_load_triples_parse_error_names_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tSupplier\tsupplies_to\tb\n")
    with pytest.raises(ParseError, match=r":1:"):
        load_triples(path)


def test_load_triples_schema_violation_names_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(
        "a\tSupplier\tsupplies_to\tb\tSupplier\n"
        "x\tCountry\tsupplies_to\tb\tSupplier\n"
    )
    with pytest.raises(SchemaViolation, match=r":2:"):
        load_triples(path)


def test_export_empty_graph_has_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    export_triples(Graph(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")


def test_round_trip_default_graph(tmp_path, default_graph):
    path = tmp_path / "g.tsv"
    export_triples(default_graph, path)
    reloaded = load_triples(path)
    assert label_triples(reloaded) == label_triples(default_graph)
    # line count = edges + header
    assert len(path.read_text().splitlines()) == default_graph.num_triples + 1


def two_supplier_graph(subject_label, object_label):
    g = Graph()
    s = g.add_entity(subject_label, EntityType.SUPPLIER)
    g.add_triple(s, RelationType.SUPPLIES_TO, g.add_entity(object_label, EntityType.SUPPLIER), DEFAULT_SCHEMA)
    return g


@pytest.mark.parametrize("subject, obj, bad", [
    ("#A", "B", "#A"),
    ("A", "Fo\tcal", "Fo\tcal"),
    ("A\u2028B", "C", "A\u2028B"),
    ("A", "B\x1c", "B\x1c"),
    ("A", "B\r", "B\r"),
    ("A", "", ""),
])
def test_writer_refuses_a_label_that_would_not_read_back(tmp_path, subject, obj, bad):
    g = two_supplier_graph(subject, obj)
    with pytest.raises(GraphError, match=re.escape(repr(bad))):
        export_triples(g, tmp_path / "g.tsv")
    assert not (tmp_path / "g.tsv").exists()
    result = SplitResult(g.triples_array(), g.triples_array()[:0], g.triples_array()[:0])
    with pytest.raises(GraphError, match=re.escape(repr(bad))):
        write_split(g, result, tmp_path / "split")


@pytest.mark.parametrize("subject, obj", [("sup\ud800", "B"), ("A", "sup\ud800")])
def test_writer_refuses_a_label_utf8_cannot_encode_before_opening_the_file(tmp_path, subject, obj):
    g = two_supplier_graph(subject, obj)
    path = tmp_path / "g.tsv"
    path.write_bytes(b"kept\n")
    with pytest.raises(GraphError, match=re.escape(repr("sup\ud800"))):
        export_triples(g, path)
    assert path.read_bytes() == b"kept\n"
    (tmp_path / "split").mkdir()
    (tmp_path / "split" / "train.tsv").write_bytes(b"kept\n")
    result = SplitResult(g.triples_array(), g.triples_array()[:0], g.triples_array()[:0])
    with pytest.raises(GraphError, match=re.escape(repr("sup\ud800"))):
        write_split(g, result, tmp_path / "split")
    assert (tmp_path / "split" / "train.tsv").read_bytes() == b"kept\n"


def test_split_refused_by_its_last_part_writes_no_file(tmp_path):
    # "#X" is an object in the training part and a subject only in the test part
    g = Graph()
    a, x, b = (g.add_entity(label, EntityType.SUPPLIER) for label in ("A", "#X", "B"))
    g.add_triple(a, RelationType.SUPPLIES_TO, x, DEFAULT_SCHEMA)
    g.add_triple(x, RelationType.SUPPLIES_TO, b, DEFAULT_SCHEMA)
    spo = g.triples_array()
    result = SplitResult(spo[spo[:, 0] == a], spo[:0], spo[spo[:, 0] == x])
    out = tmp_path / "split"
    out.mkdir()
    (out / "test.tsv").write_bytes(b"stale\n")
    with pytest.raises(GraphError, match=re.escape(repr("#X"))):
        write_split(g, result, out)
    assert sorted(p.name for p in out.iterdir()) == ["test.tsv"]
    assert (out / "test.tsv").read_bytes() == b"stale\n"


def test_writer_keeps_object_only_hash_labels(tmp_path):
    g = two_supplier_graph("A", "#B")
    export_triples(g, tmp_path / "g.tsv")
    assert label_triples(load_triples(tmp_path / "g.tsv")) == label_triples(g)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_round_trip_random_graphs(tmp_path_factory, seed):
    g = random_typed_graph(np.random.default_rng(seed), 15, 30)
    path = tmp_path_factory.mktemp("rt") / "g.tsv"
    export_triples(g, path)
    assert label_triples(load_triples(path)) == label_triples(g)


# -- generator ---------------------------------------------------------------

def test_generator_deterministic(tmp_path):
    cfg = GeneratorConfig(seed=7)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    export_triples(generate_synthetic(cfg), p1)
    export_triples(generate_synthetic(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generator_output_is_schema_valid(default_graph):
    assert default_graph.validate(DEFAULT_SCHEMA).ok


def test_generator_counts_match_config(default_graph):
    cfg = GeneratorConfig()
    stats = default_graph.stats()
    for et, count in cfg.entity_counts.items():
        assert stats.entity_counts.get(et, 0) == count
    for rt, count in cfg.relation_counts.items():
        assert stats.relation_counts.get(rt, 0) == count


def test_generator_hub_has_max_in_degree(default_graph):
    indeg = np.zeros(default_graph.num_entities, dtype=int)
    np.add.at(indeg, default_graph.triples_array()[:, 2], 1)
    hub = int(np.argmax(indeg))
    assert default_graph.labels[hub] == "FocalCo"
    assert indeg[hub] == indeg.max()
    others = np.delete(indeg, hub)
    assert indeg[hub] > others.max()


def test_generator_every_supplier_covered(default_graph):
    suppliers = suppliers_of(default_graph)
    related = {s for s, _ in relation_pairs(default_graph, RelationType.RELATED_TO)}
    located = {s for s, _ in relation_pairs(default_graph, RelationType.LOCATED_IN)}
    assert set(suppliers) <= related
    assert set(suppliers) <= located


def test_generator_heavy_tail_contract(default_graph):
    # top 1% of suppliers by in-degree hold >= 20% of supplies_to edges
    suppliers = set(suppliers_of(default_graph))
    supply = relation_pairs(default_graph, RelationType.SUPPLIES_TO)
    indeg = {}
    for _, o in supply:
        indeg[o] = indeg.get(o, 0) + 1
    top_n = max(1, round(0.01 * len(suppliers)))
    top = sorted(indeg.values(), reverse=True)[:top_n]
    assert sum(top) / len(supply) >= 0.20


def test_generator_unsatisfiable_counts_error():
    cfg = GeneratorConfig(relation_counts={**GeneratorConfig().relation_counts, RelationType.SAME_AS: 10_000})
    with pytest.raises(ConfigError, match="same_as"):
        generate_synthetic(cfg)


def test_generator_supplies_to_below_structural_minimum():
    cfg = GeneratorConfig(relation_counts={**GeneratorConfig().relation_counts, RelationType.SUPPLIES_TO: 100})
    with pytest.raises(ConfigError, match="supplies_to"):
        generate_synthetic(cfg)


def test_generator_tier_sizes_must_fit():
    with pytest.raises(ConfigError, match="tier"):
        generate_synthetic(GeneratorConfig(tier_sizes=(400, 300, 300)))


WIDER_SCHEMA_CASES = [
    (RelationType.RELATED_TO, EntityType.COUNTRY, EntityType.BUSINESS_SCOPE, (), "no business scopes"),
    (RelationType.LOCATED_IN, EntityType.BUSINESS_SCOPE, EntityType.COUNTRY,
     (RelationType.BELONGS_TO, RelationType.PRODUCED_IN), "no countries"),
]


def wider_schema(relation, extra_target):
    """The default schema with ``extra_target`` added to the targets of ``relation``."""
    sources, targets = DEFAULT_SCHEMA.rules[relation]
    return Schema({**DEFAULT_SCHEMA.rules, relation: (sources, targets | {extra_target})})


@pytest.mark.parametrize("relation, extra_target, emptied, zeroed, message", WIDER_SCHEMA_CASES)
def test_generator_coverage_pool_must_be_non_empty_under_a_wider_schema(relation, extra_target, emptied, zeroed,
                                                                        message):
    # a schema that lets the relation reach another type passes the capacity
    # check with the covering pool empty
    schema = wider_schema(relation, extra_target)
    base = GeneratorConfig()
    cfg = GeneratorConfig(entity_counts={**base.entity_counts, emptied: 0},
                          relation_counts={**base.relation_counts, **{r: 0 for r in zeroed}})
    with pytest.raises(ConfigError, match=message):
        generate_synthetic(cfg, schema)


def test_choice_emulation_matches_generator_choice():
    # _choice(p, rng.random()) must be Generator.choice(n, p=p), index and
    # generator state both: the generated networks depend on it
    for n in (1, 2, 37, 1_500, 2_300):
        for seed in range(200):
            weights = np.random.default_rng([n, seed]).integers(0, 40, n).astype(float)
            weights[seed % n] += 1.0  # at least one positive weight; the rest include zeros
            p = weights / weights.sum()
            expected, emulated = np.random.default_rng(seed), np.random.default_rng(seed)
            assert dataset_mod._choice(p, emulated.random()) == expected.choice(n, p=p)
            assert emulated.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 37, 2_300])
def test_prefix_choice_matches_choice_at_and_between_slot_edges(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        weights = rng.integers(0, 5, n) * rng.integers(1, 10**6, n)  # zeros and wide ranges
        weights[rng.integers(n)] += 1
        cum = np.cumsum(weights)
        total = int(cum[-1])
        # random() returns m / 2**53; the m on and next to an exact cdf edge take the float fallback
        edges = [(c << 53) // total + d for c in rng.choice(cum, size=min(n, 40)).tolist() for d in (-1, 0, 1)]
        draws = rng.integers(0, 1 << 53, 50).tolist() + [m for m in edges if 0 <= m < 1 << 53]
        for u in (m / 2**53 for m in draws):
            expected = dataset_mod._choice(weights / total, u)
            assert dataset_mod._prefix_choice(weights.tolist(), cum, u) == expected


REFERENCE_CASES = (
    [pytest.param(GeneratorConfig(seed=seed), DEFAULT_SCHEMA, id=f"1x-seed{seed}") for seed in range(10)]
    + [pytest.param(replace(GEN_10X, seed=seed), DEFAULT_SCHEMA, id=f"10x-seed{seed}") for seed in range(3)]
    + [pytest.param(GeneratorConfig(seed=4), wider_schema(relation, extra_target), id=f"wider-{relation.value}")
       for relation, extra_target, *_ in WIDER_SCHEMA_CASES]
    + [pytest.param(GeneratorConfig(seed=5), wider_schema(RelationType.INCLUDES, EntityType.COUNTRY),
                    id="wider-includes")]
)


@pytest.mark.parametrize("cfg, schema", REFERENCE_CASES)
def test_generator_matches_reference(tmp_path, cfg, schema):
    got, expected = generate_synthetic(cfg, schema), reference_generate_synthetic(cfg, schema)
    assert got.labels == expected.labels
    assert np.array_equal(got.type_codes(), expected.type_codes())
    assert np.array_equal(got.triples_array(), expected.triples_array())  # the same rows in the same order
    export_triples(got, tmp_path / "got.tsv")
    export_triples(expected, tmp_path / "expected.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()


def error_cases():
    base = GeneratorConfig()
    counts = base.relation_counts
    yield GeneratorConfig(relation_counts={**counts, RelationType.SAME_AS: 10_000}), DEFAULT_SCHEMA, ConfigError
    yield GeneratorConfig(relation_counts={**counts, RelationType.SUPPLIES_TO: 100}), DEFAULT_SCHEMA, ConfigError
    yield GeneratorConfig(tier_sizes=(400, 300, 300)), DEFAULT_SCHEMA, ConfigError
    for relation, extra_target, emptied, zeroed, _ in WIDER_SCHEMA_CASES:
        yield (GeneratorConfig(entity_counts={**base.entity_counts, emptied: 0},
                               relation_counts={**counts, **{r: 0 for r in zeroed}}),
               wider_schema(relation, extra_target), ConfigError)
    # raised after the first draws: 3 tier-2 suppliers cannot take 1,197 tier-1 edges
    yield GeneratorConfig(tier_sizes=(150, 3, 0)), DEFAULT_SCHEMA, ConfigError
    # saturated while placing shortcuts: 5 of them, but only the 3 tier-2 suppliers can take one (to the hub)
    yield (GeneratorConfig(tier_sizes=(150, 3, 0), shortcut_fraction=0.01,
                           relation_counts={**counts, RelationType.SUPPLIES_TO: 485}), DEFAULT_SCHEMA, ConfigError)
    # smelters may not supply under this schema; the reference raises at the first smelter edge
    narrow = Schema({**DEFAULT_SCHEMA.rules,
                     RelationType.SUPPLIES_TO: (frozenset({EntityType.SUPPLIER}), frozenset({EntityType.SUPPLIER}))})
    yield GeneratorConfig(), narrow, SchemaViolation


@pytest.mark.parametrize("cfg, schema, error", list(error_cases()))
def test_generator_errors_match_reference(cfg, schema, error):
    with pytest.raises(error) as expected:
        reference_generate_synthetic(cfg, schema)
    with pytest.raises(error) as got:
        generate_synthetic(cfg, schema)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("label", ["#Focal", "Fo\tcal", "Fo\ncal", "Fo\rcal", "Focal\x85", "Fo\u2028cal"])
def test_generator_rejects_a_hub_label_the_triple_file_cannot_hold(label):
    with pytest.raises(ConfigError, match="hub_label"):
        generate_synthetic(GeneratorConfig(hub_label=label))


def test_generator_config_from_file(tmp_path):
    path = tmp_path / "gen.cfg"
    path.write_text("# small\nseed=3\nsuppliers=40\nsmelters=4\ntier1=5\ntier2=10\ntier3=12\n"
                    "supplies_to=80\nrelated_to=40\nbelongs_to=10\nlocated_in=44\n"
                    "includes=20\nproduces=10\nproduced_in=10\nsame_as=5\n"
                    "manufactured_by=5\ncontains=4\nrefines=2\nhub_label=TinyHub\n")
    cfg = GeneratorConfig.from_file(path)
    assert cfg.seed == 3
    assert cfg.hub_label == "TinyHub"
    assert cfg.entity_counts[EntityType.SUPPLIER] == 40
    g = generate_synthetic(cfg)
    assert g.labels[0] == "TinyHub"
    assert g.validate(DEFAULT_SCHEMA).ok


def test_generator_config_unknown_key(tmp_path):
    path = tmp_path / "gen.cfg"
    path.write_text("bogus=1\n")
    with pytest.raises(ConfigError, match="bogus"):
        GeneratorConfig.from_file(path)


def test_parse_kv_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a pair\n")
    with pytest.raises(ParseError):
        parse_kv_file(path)


def test_parse_kv_file_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("dim=32\n# later\ndim=64\n")
    with pytest.raises(ParseError, match=r"train\.cfg:3: duplicate key 'dim'"):
        parse_kv_file(path)


def _non_default(value):
    if isinstance(value, str):
        return value + "X"
    return value + 1 if isinstance(value, int) else value / 2


@pytest.mark.parametrize("cls", [GeneratorConfig, SplitConfig, TrainConfig])
def test_config_round_trips_through_a_kv_file(tmp_path, cls):
    kv = {key: _non_default(value) for key, value in cls().to_kv().items()}
    cfg = cls.from_kv(kv)
    assert all(cfg.to_kv()[key] != value for key, value in cls().to_kv().items())
    path = tmp_path / "round.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in cfg.to_kv().items()))
    loaded = cls.from_file(path)
    assert loaded == cfg
    assert {key: type(value) for key, value in loaded.to_kv().items()} == {
        key: type(value) for key, value in cls().to_kv().items()}


def test_config_values_take_the_type_of_their_default(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("margin=2\n")
    margin = TrainConfig.from_file(path).margin
    assert type(margin) is float and margin == 2.0
    path.write_text("dim=3.5\n")
    with pytest.raises(ConfigError, match="'dim'"):
        TrainConfig.from_file(path)


# -- splits ------------------------------------------------------------------

def test_split_sizes_full_scale_shape():
    train, val, test = split_sizes(311_676, 0.1, 0.1)
    assert (train, val, test) == (249_340, 31_168, 31_168)


def test_split_partitions_and_is_transductive(default_graph, default_split):
    result = default_split
    train, validation, test = rows(result.train_ids), rows(result.validation_ids), rows(result.test_ids)
    assert train | validation | test == rows(default_graph.triples_array())
    assert not train & validation
    assert not train & test
    assert not validation & test
    assert_transductive(result)


def test_split_fraction_targets_hit_on_default(default_graph, default_split):
    _, n_val, n_test = split_sizes(default_graph.num_triples, 0.1, 0.1)
    assert len(default_split.validation_ids) == n_val
    assert len(default_split.test_ids) == n_test


@given(st.integers(0, 2**31 - 1), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_split_properties_on_random_graphs(graph_seed, split_seed):
    g = random_typed_graph(np.random.default_rng(graph_seed), 20, 60)
    try:
        result = transductive_split(g, SplitConfig(0.15, 0.15, seed=split_seed))
    except SplitInfeasible:
        return
    assert len(result.train_ids) + len(result.validation_ids) + len(result.test_ids) == g.num_triples
    assert_transductive(result)


def test_split_pins_only_triple_of_an_entity():
    # s0 -> s1 is s0's only triple; over 50 seeds it must stay in train
    g = Graph()
    s = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(8)]
    g.add_triple(s[0], RelationType.SUPPLIES_TO, s[1], DEFAULT_SCHEMA)
    for i in range(1, 7):
        for j in range(i + 1, 8):
            g.add_triple(s[i], RelationType.SUPPLIES_TO, s[j], DEFAULT_SCHEMA)
    lonely = tuple(g.triples_array()[0].tolist())
    for seed in range(50):
        result = transductive_split(g, SplitConfig(0.2, 0.2, seed=seed))
        assert lonely in rows(result.train_ids)


def test_split_star_graph_infeasible():
    g = Graph()
    center = g.add_entity("c", EntityType.SUPPLIER)
    for i in range(6):
        leaf = g.add_entity(f"l{i}", EntityType.SUPPLIER)
        g.add_triple(leaf, RelationType.SUPPLIES_TO, center, DEFAULT_SCHEMA)
    with pytest.raises(SplitInfeasible):
        transductive_split(g, SplitConfig(0.2, 0.2, seed=0))


def test_split_config_validation():
    with pytest.raises(ConfigError):
        SplitConfig(0.0, 0.1)
    with pytest.raises(ConfigError):
        SplitConfig(0.6, 0.5)


def test_check_transductive_returns_the_first_row_train_lacks(default_split):
    train = np.array([[0, 0, 1], [1, 2, 2]])
    seen = np.array([[2, 0, 0], [0, 2, 1]])
    assert check_transductive(train, seen) is None
    assert check_transductive(train, seen[:0], seen) is None
    new_subject, new_relation, new_object = [3, 0, 1], [0, 1, 2], [1, 2, 4]
    held_out = np.array([[0, 2, 2], new_object, new_subject])
    np.testing.assert_array_equal(check_transductive(train, seen, held_out), new_object)
    np.testing.assert_array_equal(check_transductive(train, np.array([new_subject])), new_subject)
    np.testing.assert_array_equal(check_transductive(train, np.array([new_relation]), held_out), new_relation)
    assert check_transductive(default_split.train_ids, default_split.validation_ids, default_split.test_ids) is None


def test_split_round_trip_through_files(tmp_path, default_graph, default_split):
    write_split(default_graph, default_split, tmp_path)
    graph, train_arr, valid_arr, test_arr = load_split_dir(tmp_path)
    # triple files carry entities only through triples, so isolated nodes drop
    active = set(default_graph.triples_array()[:, [0, 2]].ravel().tolist())
    assert graph.num_entities == len(active)
    assert len(train_arr) == len(default_split.train_ids)
    assert len(valid_arr) == len(default_split.validation_ids)
    assert len(test_arr) == len(default_split.test_ids)
    # id vocabulary comes from the train file, so every id is in range
    assert train_arr[:, [0, 2]].max() < graph.num_entities
    valid_ents = set(valid_arr[:, 0]) | set(valid_arr[:, 2])
    train_ents = set(train_arr[:, 0]) | set(train_arr[:, 2])
    assert valid_ents <= train_ents


# -- one reader for triple files and split directories -----------------------

def write_split_dir(path, train, valid, test):
    for name, lines in (("train.tsv", train), ("valid.tsv", valid), ("test.tsv", test)):
        (path / name).write_text("".join(line + "\n" for line in lines))


GOOD_LINES = [
    "a\tSupplier\tsupplies_to\tb\tSupplier",
    "b\tSupplier\tsupplies_to\tc\tSupplier",
    "a\tSupplier\tlocated_in\tx\tCountry",
]


def test_load_split_dir_empty_label_names_file_and_line(tmp_path):
    valid = ["# header", GOOD_LINES[0], "\tSupplier\tsupplies_to\tb\tSupplier"]
    write_split_dir(tmp_path, GOOD_LINES, valid, [GOOD_LINES[1]])
    with pytest.raises(ParseError, match=r"valid\.tsv:3: empty entity label"):
        load_split_dir(tmp_path)


def test_load_split_dir_schema_violation_names_file_and_line(tmp_path):
    test = [GOOD_LINES[1], "x\tCountry\tsupplies_to\tb\tSupplier"]
    write_split_dir(tmp_path, GOOD_LINES, [GOOD_LINES[0]], test)
    with pytest.raises(SchemaViolation, match=r"test\.tsv:2: Country is not a valid source for supplies_to"):
        load_split_dir(tmp_path)


def test_load_split_dir_keeps_repeated_lines_per_file(tmp_path):
    write_split_dir(tmp_path, GOOD_LINES, [GOOD_LINES[0]], [GOOD_LINES[2], GOOD_LINES[2]])
    graph, train, valid, test = load_split_dir(tmp_path)
    assert graph.labels == ["a", "b", "c", "x"]
    assert graph.num_triples == 3
    assert (len(train), len(valid), len(test)) == (3, 1, 2)
    np.testing.assert_array_equal(valid, train[:1])


@pytest.mark.parametrize(
    "lines, message",
    [
        # the first bad line wins, whatever its kind
        (["a\tSupplier\tsupplies_to\tb\tSupplier", "a\tSupplier\tsupplies_to\tb\tNope",
          "a\tSupplier", "x\tCountry\tsupplies_to\tb\tSupplier"], r":2: unknown entity type 'Nope'"),
        (["a\tSupplier\tsupplies_to\tb\tSupplier", "x\tCountry\tsupplies_to\tb\tSupplier",
          "a\tSupplier"], r":2: Country is not a valid source"),
        (["a\tSupplier\tsupplies_to\tb\tSupplier", "a\tSupplier"], r":2: expected 5 tab-separated fields, got 2"),
        # a line with one field too many and the next with one too few still name the first
        (["s\tSupplier\tsupplies_to\to\tSupplier\tx", "Supplier\tsupplies_to\tq\tSupplier"],
         r":1: expected 5 tab-separated fields, got 6"),
        # within one line: empty label, then relation, then subject type, then object type
        (["\tSupplier\tsells_to\tb\tNope"], r":1: empty entity label"),
        (["a\tNope\tsells_to\tb\tNope"], r":1: unknown relation type 'sells_to'"),
        (["a\tNope\tsupplies_to\tb\tAlsoNope"], r":1: unknown entity type 'Nope'"),
    ],
)
def test_reader_reports_the_first_bad_line(tmp_path, lines, message):
    path = tmp_path / "g.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((ParseError, SchemaViolation), match=message):
        load_triples(path)


def test_reader_batches_give_the_same_graph(tmp_path, default_graph, monkeypatch):
    path = tmp_path / "g.tsv"
    export_triples(default_graph, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:5] + ["", "# mid-file comment"] + text[5:]) + "\n")
    whole = load_triples(path)
    monkeypatch.setattr(dataset_mod, "READ_BATCH_LINES", 4)
    batched = load_triples(path)
    assert batched.labels == whole.labels
    np.testing.assert_array_equal(batched.type_codes(), whole.type_codes())
    np.testing.assert_array_equal(batched.triples_array(), whole.triples_array())
    assert label_triples(batched) == label_triples(default_graph)
    text[9] = text[9].replace("\t", "\tNope\t", 1)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError, match=r":10: expected 5 tab-separated fields, got 6"):
        load_triples(path)


# -- the array split against the per-triple reference -------------------------

def assert_split_matches_reference(graph, config):
    expected = reference_transductive_split(graph, config)
    result = transductive_split(graph, config)
    parts = (result.train_ids, result.validation_ids, result.test_ids)
    assert tuple(list(map(tuple, part.tolist())) for part in parts) == expected
    return result


@pytest.mark.parametrize("seed", range(5))
def test_split_matches_reference_on_default_graph(default_graph, seed):
    assert_split_matches_reference(default_graph, SplitConfig(0.1, 0.1, seed=seed))


@pytest.mark.parametrize("seed", range(10))
def test_split_matches_reference_on_random_typed_graphs(seed):
    g = random_typed_graph(np.random.default_rng(seed), 20, 60)
    try:
        reference_transductive_split(g, SplitConfig(0.15, 0.15, seed=seed))
    except SplitInfeasible:
        with pytest.raises(SplitInfeasible):
            transductive_split(g, SplitConfig(0.15, 0.15, seed=seed))
        return
    assert_split_matches_reference(g, SplitConfig(0.15, 0.15, seed=seed))


def test_split_matches_reference_when_held_out_sets_shrink():
    # s0 -> s1 plus every s_i -> s_j (1 <= i < j <= 7): 22 triples, 7 pinned, 15 free,
    # against 9 + 9 requested held-out triples
    g = Graph()
    s = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(8)]
    g.add_triple(s[0], RelationType.SUPPLIES_TO, s[1], DEFAULT_SCHEMA)
    for i in range(1, 7):
        for j in range(i + 1, 8):
            g.add_triple(s[i], RelationType.SUPPLIES_TO, s[j], DEFAULT_SCHEMA)
    config = SplitConfig(0.4, 0.4, seed=5)
    assert split_sizes(g.num_triples, 0.4, 0.4)[1:] == (9, 9)
    result = assert_split_matches_reference(g, config)
    assert (len(result.validation_ids), len(result.test_ids)) == (7, 7)


def star_graph():
    g = Graph()
    center = g.add_entity("c", EntityType.SUPPLIER)
    for i in range(6):
        g.add_triple(g.add_entity(f"l{i}", EntityType.SUPPLIER), RelationType.SUPPLIES_TO, center, DEFAULT_SCHEMA)
    return g


def one_free_triple_graph():
    # s0 -> s1 and s0 -> s2 are pinned; s1 -> s2 alone cannot fill 1 + 1 held-out slots
    g = Graph()
    s = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(3)]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        g.add_triple(s[a], RelationType.SUPPLIES_TO, s[b], DEFAULT_SCHEMA)
    return g


@pytest.mark.parametrize(
    "make_graph, message",
    [(star_graph, "every triple is needed"), (one_free_triple_graph, "too few free triples")],
)
def test_split_infeasible_cases_match_reference(make_graph, message):
    g, config = make_graph(), SplitConfig(0.2, 0.2, seed=0)
    with pytest.raises(SplitInfeasible, match=message) as expected:
        reference_transductive_split(g, config)
    with pytest.raises(SplitInfeasible) as got:
        transductive_split(g, config)
    assert str(got.value) == str(expected.value)
