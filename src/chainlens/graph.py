"""Typed in-memory knowledge graph store, held in columns.

Entities carry one of eight built-in entity types and triples one of eleven
built-in relation types.  A :class:`Schema` restricts which entity types may
appear as the source and target of each relation; the built-in default
describes a multi-tier supply network (suppliers, parts, smelters,
substances, components, countries, business scopes).

A :class:`Graph` stores three columns: entity labels, entity-type indices and
one ``(M, 3)`` int64 array of ``(subject, relation index, object)`` rows.
Validation, projection and statistics are array operations on them, and
every result that names triples is such an id array; entity ``i`` is
``labels[i]`` of type :meth:`Graph.entity_type`.  Construction is
single-writer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np


class GraphError(Exception):
    """Base class for graph store errors."""


class UnknownEntity(GraphError):
    """An entity id that is not present in the graph."""


class SchemaViolation(GraphError):
    """A triple whose endpoint types are not allowed for its relation."""


class DuplicateTriple(GraphError):
    """Insertion of a triple that is already present (triples form a set)."""


class SchemaError(GraphError):
    """A malformed or incomplete schema definition."""


def utf8_text(data, path, error: type[Exception]) -> str:
    """``data`` (bytes-like) decoded as UTF-8, else ``error("path:line: not valid UTF-8 ...")``."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((bytes(data[: exc.start]).decode("utf-8") + "x").splitlines())
        raise error(f"{path}:{lineno}: not valid UTF-8 (byte 0x{data[exc.start]:02x} at offset {exc.start})") from None


class EntityType(Enum):
    SUPPLIER = "Supplier"
    MANUFACTURER_PART = "ManufacturerPart"
    SIEMENS_PART = "SiemensPart"
    SMELTER = "Smelter"
    SUBSTANCE = "Substance"
    COMPONENT = "Component"
    COUNTRY = "Country"
    BUSINESS_SCOPE = "BusinessScope"

    @classmethod
    def from_name(cls, name: str) -> "EntityType":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise ValueError(f"unknown entity type {name!r} (valid: {valid})") from None


class RelationType(Enum):
    SUPPLIES_TO = "supplies_to"
    RELATED_TO = "related_to"
    BELONGS_TO = "belongs_to"
    LOCATED_IN = "located_in"
    INCLUDES = "includes"
    PRODUCES = "produces"
    PRODUCED_IN = "produced_in"
    SAME_AS = "same_as"
    MANUFACTURED_BY = "manufactured_by"
    CONTAINS = "contains"
    REFINES = "refines"

    @classmethod
    def from_name(cls, name: str) -> "RelationType":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(r.value for r in cls)
            raise ValueError(f"unknown relation type {name!r} (valid: {valid})") from None


#: Stable 0-based index per relation type, used as the relation id by the
#: embedding and evaluation layers.
RELATION_INDEX: dict[RelationType, int] = {r: i for i, r in enumerate(RelationType)}
RELATION_BY_INDEX: tuple[RelationType, ...] = tuple(RelationType)
#: The same for entity types; a graph stores these indices as its type column.
ENTITY_TYPE_INDEX: dict[EntityType, int] = {t: i for i, t in enumerate(EntityType)}
ENTITY_TYPE_BY_INDEX: tuple[EntityType, ...] = tuple(EntityType)

_ET = EntityType
_RT = RelationType

_DEFAULT_RULES: dict[RelationType, tuple[frozenset, frozenset]] = {
    _RT.SUPPLIES_TO: (frozenset({_ET.SUPPLIER, _ET.SMELTER}), frozenset({_ET.SUPPLIER})),
    _RT.RELATED_TO: (frozenset({_ET.SUPPLIER}), frozenset({_ET.BUSINESS_SCOPE})),
    _RT.BELONGS_TO: (frozenset({_ET.SUPPLIER}), frozenset({_ET.COUNTRY})),
    _RT.LOCATED_IN: (frozenset({_ET.SUPPLIER, _ET.SMELTER}), frozenset({_ET.COUNTRY})),
    _RT.INCLUDES: (frozenset({_ET.COMPONENT}), frozenset({_ET.SUBSTANCE})),
    _RT.PRODUCES: (frozenset({_ET.SUPPLIER}), frozenset({_ET.COMPONENT})),
    _RT.PRODUCED_IN: (frozenset({_ET.SUBSTANCE}), frozenset({_ET.COUNTRY})),
    _RT.SAME_AS: (frozenset({_ET.MANUFACTURER_PART}), frozenset({_ET.SIEMENS_PART})),
    _RT.MANUFACTURED_BY: (frozenset({_ET.COMPONENT}), frozenset({_ET.SUPPLIER})),
    _RT.CONTAINS: (frozenset({_ET.COMPONENT}), frozenset({_ET.COMPONENT})),
    _RT.REFINES: (frozenset({_ET.SMELTER}), frozenset({_ET.SUBSTANCE})),
}


@dataclass(frozen=True)
class Schema:
    """Per-relation source/target entity-type constraints.

    Every relation type must be present with non-empty source and target
    sets.  Schemas are data: the default supply-network schema is built in,
    and variants can be loaded from a tab-separated description file.
    """

    rules: dict[RelationType, tuple[frozenset, frozenset]]

    def __post_init__(self) -> None:
        for rel in RelationType:
            if rel not in self.rules:
                raise SchemaError(f"schema is missing relation type {rel.value!r}")
            src, tgt = self.rules[rel]
            if not src or not tgt:
                raise SchemaError(f"relation {rel.value!r} has empty source or target types")
        tables = tuple(np.array([[t in self.rules[rel][side] for t in ENTITY_TYPE_BY_INDEX]
                                 for rel in RELATION_BY_INDEX]) for side in (0, 1))
        for table in tables:
            table.flags.writeable = False
        object.__setattr__(self, "_tables", tables)  # built once: every triple-file batch checks against them

    def source_types(self, relation: RelationType) -> frozenset:
        return self.rules[relation][0]

    def target_types(self, relation: RelationType) -> frozenset:
        return self.rules[relation][1]

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only bool (relation index, entity-type index) tables of the allowed sources and targets."""
        return self._tables

    def legal(self, relations, source_types, target_types) -> np.ndarray:
        """Elementwise check of relation, source-type and target-type index arrays."""
        src, tgt = self.tables()
        return src[relations, source_types] & tgt[relations, target_types]

    def violation(self, source_type, relation, target_type, source_label, target_label) -> str | None:
        """Why the triple breaks the schema (source checked first), or None if it does not."""
        src, tgt = self.rules[relation]
        if source_type in src and target_type in tgt:
            return None
        role, etype = ("source", source_type) if source_type not in src else ("target", target_type)
        return (f"{etype.value} is not a valid {role} for {relation.value} "
                f"(triple {source_label} -{relation.value}-> {target_label})")

    @classmethod
    def default(cls) -> "Schema":
        return cls(dict(_DEFAULT_RULES))

    @classmethod
    def from_file(cls, path: str | Path) -> "Schema":
        """Load a schema: one line per relation, ``relation TAB sources TAB targets``.

        Source/target cells are comma-separated entity type names.  Lines
        starting with ``#`` and blank lines are ignored.
        """
        rules: dict[RelationType, tuple[frozenset, frozenset]] = {}
        for lineno, raw in enumerate(utf8_text(Path(path).read_bytes(), path, SchemaError).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SchemaError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            try:
                rel = RelationType.from_name(parts[0])
                src = frozenset(EntityType.from_name(n.strip()) for n in parts[1].split(",") if n.strip())
                tgt = frozenset(EntityType.from_name(n.strip()) for n in parts[2].split(",") if n.strip())
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            if rel in rules:
                raise SchemaError(f"{path}:{lineno}: duplicate relation {rel.value!r}")
            rules[rel] = (src, tgt)
        return cls(rules)


DEFAULT_SCHEMA = Schema.default()


@dataclass
class ValidationReport:
    """Result of checking a graph against a schema: the offending (k, 3) id-triple rows."""

    schema_violations: np.ndarray
    dangling: np.ndarray

    @property
    def ok(self) -> bool:
        return not len(self.schema_violations) and not len(self.dangling)

    def summary(self) -> str:
        if self.ok:
            return "OK: graph is schema-consistent"
        return "%d schema violation(s), %d dangling reference(s)" % (
            len(self.schema_violations),
            len(self.dangling),
        )


@dataclass
class GraphStats:
    entity_counts: dict[EntityType, int]
    relation_counts: dict[RelationType, int]
    total_entities: int
    total_triples: int

    def as_text(self) -> str:
        lines = ["entity_type\tnodes"]
        for et in EntityType:
            lines.append(f"{et.value}\t{self.entity_counts.get(et, 0)}")
        lines.append(f"Total\t{self.total_entities}")
        lines.append("relation_type\tedges")
        for rt in RelationType:
            lines.append(f"{rt.value}\t{self.relation_counts.get(rt, 0)}")
        lines.append(f"Total\t{self.total_triples}")
        return "\n".join(lines)


class Graph:
    """Columnar triple store with dense integer entity ids.

    Ids are consecutive integers assigned at insertion, so downstream code
    can use them directly as array indices.  Triples are a set: inserting
    the same (subject, predicate, object) twice raises
    :class:`DuplicateTriple` and leaves the graph unchanged.  The constructor
    takes ready columns (labels, entity-type indices, id-triple rows) as they
    are, unchecked; :meth:`validate` reports what they break.
    """

    def __init__(self, labels=(), type_codes=(), triples=()) -> None:
        self.labels: list[str] = list(labels)
        self._types: list[int] = np.asarray(type_codes, dtype=np.uint8).tolist()
        self._spo = np.array(triples, dtype=np.int64).reshape(-1, 3)
        self._spo.flags.writeable = False
        # add_triple appends here and to the key set; the next read folds the rows into _spo
        self._pending: list[tuple[int, int, int]] = []
        self._keys: set[tuple[int, int, int]] | None = None  # built by the first has_triple

    # -- construction ------------------------------------------------------

    def add_entity(self, label: str, entity_type: EntityType) -> int:
        """Insert an entity and return its fresh id.

        Duplicate labels are allowed; ids disambiguate.  Labels must be
        non-empty (caller-side contract).
        """
        self.labels.append(label)
        self._types.append(ENTITY_TYPE_INDEX[entity_type])
        return len(self.labels) - 1

    def add_triple(self, subject: int, predicate: RelationType, object: int, schema: Schema) -> None:
        """Insert one schema-checked, previously absent triple."""
        message = schema.violation(
            self.entity_type(subject), predicate, self.entity_type(object),
            self.labels[subject], self.labels[object],
        )
        if message:
            raise SchemaViolation(message)
        if self.has_triple(subject, predicate, object):
            raise DuplicateTriple(f"triple ({subject}, {predicate.value}, {object}) already present")
        key = (subject, RELATION_INDEX[predicate], object)
        self._keys.add(key)
        self._pending.append(key)

    # -- lookups -----------------------------------------------------------

    @property
    def num_entities(self) -> int:
        return len(self.labels)

    @property
    def num_triples(self) -> int:
        return len(self._spo) + len(self._pending)

    def entity_type(self, entity_id: int) -> EntityType:
        if not 0 <= entity_id < len(self.labels):
            raise UnknownEntity(f"no entity with id {entity_id}")
        return ENTITY_TYPE_BY_INDEX[self._types[entity_id]]

    def has_triple(self, subject: int, predicate: RelationType, object: int) -> bool:
        if self._keys is None:
            self._keys = set(map(tuple, self.triples_array().tolist()))
        return (subject, RELATION_INDEX[predicate], object) in self._keys

    def neighbors(
        self,
        entity: int,
        direction: str = "both",
        predicate: RelationType | None = None,
    ) -> list[tuple[int, RelationType]]:
        """Adjacent (neighbor, relation) pairs, sorted by id then relation.

        ``direction`` is one of ``out`` (triples where the entity is the
        subject), ``in`` (object), or ``both``; ``both`` concatenates the two
        multisets, so a reciprocal edge appears twice.
        """
        self.entity_type(entity)
        if direction not in ("in", "out", "both"):
            raise ValueError(f"direction must be in/out/both, got {direction!r}")
        spo = self.triples_array()
        pairs = np.concatenate([spo[(spo[:, 0] == entity) & (direction != "in")][:, [2, 1]],
                                spo[(spo[:, 2] == entity) & (direction != "out")][:, [0, 1]]])
        if predicate is not None:
            pairs = pairs[pairs[:, 1] == RELATION_INDEX[predicate]]
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return [(n, RELATION_BY_INDEX[r]) for n, r in pairs.tolist()]

    # -- whole-graph operations --------------------------------------------

    def validate(self, schema: Schema) -> ValidationReport:
        """List every schema-violating triple and every dangling reference."""
        spo = self.triples_array()
        ends = spo[:, [0, 2]]
        dangling = ((ends < 0) | (ends >= self.num_entities)).any(axis=1)
        inside, codes = spo[~dangling], self.type_codes()
        legal = schema.legal(inside[:, 1], codes[inside[:, 0]], codes[inside[:, 2]])
        return ValidationReport(schema_violations=inside[~legal], dangling=spo[dangling])

    def project_subgraph(
        self,
        entity_types: set[EntityType] | frozenset,
        relation_types: set[RelationType] | frozenset,
    ) -> "Graph":
        """Project onto the given entity and relation types.

        The result keeps exactly the entities whose type is in
        ``entity_types`` plus the triples whose predicate is in
        ``relation_types`` with both endpoints retained.  Entity ids are
        re-assigned densely in ascending original-id order.
        """
        codes, spo = self.type_codes(), self.triples_array()
        keep = np.isin(codes, [ENTITY_TYPE_INDEX[t] for t in entity_types])
        new_id = np.cumsum(keep) - 1
        rows = spo[np.isin(spo[:, 1], [RELATION_INDEX[r] for r in relation_types])
                   & keep[spo[:, 0]] & keep[spo[:, 2]]]
        kept = np.flatnonzero(keep)
        rows = np.stack([new_id[rows[:, 0]], rows[:, 1], new_id[rows[:, 2]]], axis=1)
        return Graph([self.labels[i] for i in kept.tolist()], codes[kept], rows)

    def stats(self) -> GraphStats:
        entity_counts = np.bincount(self.type_codes(), minlength=len(ENTITY_TYPE_BY_INDEX))
        relation_counts = np.bincount(self.triples_array()[:, 1], minlength=len(RELATION_BY_INDEX))
        return GraphStats(entity_counts={t: int(c) for t, c in zip(ENTITY_TYPE_BY_INDEX, entity_counts) if c},
                          relation_counts={r: int(c) for r, c in zip(RELATION_BY_INDEX, relation_counts) if c},
                          total_entities=self.num_entities, total_triples=self.num_triples)

    # -- columns -----------------------------------------------------------

    def type_codes(self) -> np.ndarray:
        """The entity-type column as a uint8 array of ENTITY_TYPE_INDEX values."""
        return np.array(self._types, dtype=np.uint8)

    def triples_array(self) -> np.ndarray:
        """The triple column: (M, 3) int64 rows of (subject, relation index, object).

        Read-only; repeated calls return the same array until the next
        ``add_triple``.
        """
        if self._pending:
            self._spo = np.concatenate([self._spo, np.array(self._pending, dtype=np.int64)])
            self._spo.flags.writeable = False
            self._pending.clear()
        return self._spo

    def _type_names(self) -> list[str]:
        return [ENTITY_TYPE_BY_INDEX[c].value for c in self._types]

    def label_triples(self, spo: np.ndarray | None = None) -> list[tuple[str, str, str, str, str]]:
        """Sorted label-level rows of ``spo`` (default: every triple), the canonical file form."""
        s, r, o = (self.triples_array() if spo is None else spo).T.tolist()
        labels, types, relations = self.labels, self._type_names(), [r.value for r in RELATION_BY_INDEX]
        return sorted(zip(map(labels.__getitem__, s), map(types.__getitem__, s), map(relations.__getitem__, r),
                          map(labels.__getitem__, o), map(types.__getitem__, o)))

    def vocabulary_sha256(self) -> str:
        """sha256 of the ordered (label, type) list, which fixes what each entity id means."""
        names = list(zip(self.labels, self._type_names()))
        return hashlib.sha256(json.dumps(names, ensure_ascii=False).encode("utf-8")).hexdigest()
