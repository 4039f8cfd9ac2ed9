"""Reference implementation that the triple-writer tests compare chainlens against.

``reference_write_triples`` is the triple writer written on label tuples:
``label_triples`` builds one ``(subject, subject type, relation, object,
object type)`` tuple of strings per row and sorts them in Python, and one
line is joined per tuple.  The writer in ``chainlens.dataset`` must write the
same bytes, or raise the same :class:`GraphError` for a label that would not
read back; the one difference is a label that UTF-8 cannot encode, which this
writer lets fail with ``UnicodeEncodeError`` once the file is open.
"""

from pathlib import Path

import numpy as np

from chainlens.dataset import _HEADER, _unreadable
from chainlens.graph import ENTITY_TYPE_NAMES, RELATION_BY_INDEX, Graph, GraphError


def label_triples(graph: Graph, spo: np.ndarray | None = None) -> list[tuple[str, str, str, str, str]]:
    """Sorted label-level rows of ``spo`` (default: every triple of ``graph``), the canonical file form."""
    s, r, o = (graph.triples_array() if spo is None else spo).T.tolist()
    labels, relations = graph.labels, [r.value for r in RELATION_BY_INDEX]
    types = [ENTITY_TYPE_NAMES[code] for code in graph.type_codes().tolist()]
    return sorted(zip(map(labels.__getitem__, s), map(types.__getitem__, s), map(relations.__getitem__, r),
                      map(labels.__getitem__, o), map(types.__getitem__, o)))


def reference_write_triples(graph: Graph, spo: np.ndarray, path: Path) -> None:
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
    lines = [_HEADER, *map("\t".join, label_triples(graph, spo))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
