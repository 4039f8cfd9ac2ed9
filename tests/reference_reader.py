"""Reference implementation that the triple-reader tests compare chainlens against.

``reference_read_triples`` is the triple reader written on ``str`` lines:
the file is decoded whole, cut with ``str.splitlines``, and each batch of
``READ_BATCH_LINES`` lines is split at its tabs, matched against the relation
and entity-type names in dicts, and numbered through a ``"label TAB type"``
vocabulary.  The byte-level reader in ``chainlens.dataset`` must return the
same labels, type codes, graph triples and per-file arrays, or raise the same
exception with the same message; the one difference is a file that is not
UTF-8, which this reader lets fail with ``UnicodeDecodeError``.
"""

from itertools import repeat
from pathlib import Path

import numpy as np

from chainlens.dataset import ParseError
from chainlens.graph import (
    ENTITY_TYPE_INDEX,
    RELATION_INDEX,
    EntityType,
    Graph,
    RelationType,
    Schema,
    SchemaViolation,
)

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


def reference_read_triples(paths: list[Path], schema: Schema) -> tuple[Graph, list[np.ndarray]]:
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
