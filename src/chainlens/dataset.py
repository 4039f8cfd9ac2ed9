"""Triple-file ingestion, synthetic supply-network generation, and splits.

The shared triple file format is UTF-8, one triple per line, tab-separated:
``subject_label TAB subject_type TAB predicate TAB object_label TAB
object_type``.  Lines end at any boundary ``str.splitlines`` knows; lines
starting with ``#`` are comments, and whitespace-only lines are skipped.
Entities are deduplicated by (label, type).  One reader (``_read_triples``)
serves ``load_triples`` and ``load_split_dir``, and one writer
(``_write_triples``) serves ``export_triples`` and ``write_split``; both work
on the id columns of a :class:`~chainlens.graph.Graph` and build no
per-triple objects.

The writer sorts lines as ``(subject label, subject type, relation, object
label, object type)`` tuples sort.  Each entity gets the rank of its (label,
type) among the graph's distinct keys in tuple order (equal keys share one
rank), and each relation the rank of its name, so one ``np.argsort`` of the
int64 key ``(rank[s] * R + relation rank) * N + rank[o]`` orders the rows.
The lines are joined from pieces built once per graph (once for a split's
three files): ``"label TAB type TAB"`` and ``"label TAB type NEWLINE"`` per
entity and ``"relation TAB"`` per relation, taken by row through object
arrays and written by :func:`~chainlens.graph.line_chunks`, ``CHUNK_ROWS``
lines to one ``"".join``.  Every label check (one that would not read back,
or that UTF-8 cannot encode) runs once, over all the rows to be written,
before any file is opened.
``tests/reference_writer.py`` keeps the tuple-sorting writer that this one
must agree with byte for byte.

The reader works on each file's bytes in numpy, after the manner of
structural-index parsers (Langdale and Lemire 2019, arXiv 1902.08318): one
pass finds the newlines, and one per batch of lines finds the tabs, so each
field is an offset pair.  Relation and type fields are matched against the
known names as fixed-width words; entity keys (type code, label bytes) are
deduplicated with one sort per batch, and only new labels are decoded.  A
file with a line boundary other than ``\\n`` is first rewritten once as
``"\\n".join(text.splitlines())``.  ``tests/reference_reader.py`` keeps the
str-level reader that this one must agree with.

The files of one read (``graph.tsv``, or a split directory's three) are one
view: parsed in order with one vocabulary, so their (label, type) keys are
numbered in first-appearance order over the files, with every file's rows in
those ids and each file's row count.  The process keeps the views of the last
two file sets it parsed, a graph file and its split directory in a pipeline,
each under the sha256 of each of its files' bytes, in the manner of
hash-checked ``.pyc`` files (PEP 552).  A later read of files with the same
bytes, by any path and a pipe too, takes the kept view in place of a parse if
every row is legal under the schema in use; otherwise the files are parsed,
so every error still names ``path:line``.  A kept view's arrays are
read-only, and so are the per-file arrays a read returns, which are views of
its rows.  A read writes nothing.

The synthetic generator emits a schema-valid network shaped like a real
multi-tier supply base: a single hub supplier supplied by every tier-1
supplier, tier-2 supplying tier-1 and tier-3 supplying tier-2 under linear
preferential attachment (heavy-tailed in-degree), a sprinkling of cross-tier
shortcut edges, and part/substance/smelter side structure.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field
from itertools import count, repeat
from pathlib import Path
from typing import NamedTuple, TypeVar

import numpy as np

from .graph import (
    DEFAULT_SCHEMA,
    ENTITY_TYPE_INDEX,
    ENTITY_TYPE_NAMES,
    EntityType,
    Graph,
    GraphError,
    RELATION_BY_INDEX,
    RELATION_INDEX,
    RelationType,
    Schema,
    SchemaViolation,
    check_utf8_labels,
    config_lines,
    line_chunks,
    utf8_text,
)

TRAIN_FILE = "train.tsv"
VALID_FILE = "valid.tsv"
TEST_FILE = "test.tsv"

logger = logging.getLogger(__name__)

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


#: Lines per batch.  A batch's offset arrays and entity keys cover only its
#: own lines, so what it holds at once is a small multiple of its bytes.  Each
#: batch costs about 0.4 ms of numpy calls whatever its size: a generated 10x
#: file (34,501 lines, 1.7 MB) reads in 43 ms in batches of 8,192 lines and in
#: 57 ms in batches of 1,024, while batches of 16,384 lines left repeated
#: reads with a peak RSS about 5 MB higher.
READ_BATCH_LINES = 1 << 13

#: The line boundaries ``str.splitlines`` knows besides ``\n``: ASCII ones, then
#: U+0085, U+2028 and U+2029 in UTF-8.
_ASCII_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_WIDE_BREAKS = (b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")
#: 0 for an ASCII whitespace byte, 1 for a byte of a non-ASCII character (which
#: may be whitespace), 2 for any other byte.
_BYTE_CLASS = np.array([1 if b >= 0x80 else 2 * (not chr(b).isspace()) for b in range(256)], dtype=np.uint8)
#: ``_WORD_MASKS[k]`` keeps the first k bytes of an int64 word.
_WORD_MASKS = np.frombuffer(b"".join(bytes(8 - k).rjust(8, b"\xff") for k in range(9)), dtype=np.int64)
#: Zero bytes after a file's text, so that every field start has the words of the longest known name to read.
_PAD = 8 * -(-max(len(name.encode("utf-8")) for name in (*_RELATION_CODES, *_ENTITY_CODES)) // 8)


def _read_bytes(fh) -> tuple[bytearray, int]:
    """All of an open file's bytes, then ``_PAD`` zero bytes, and the number of file bytes."""
    data = bytearray(os.fstat(fh.fileno()).st_size + _PAD)
    size = fh.readinto(memoryview(data)[: len(data) - _PAD])
    rest = fh.read()  # all of a pipe, whose size fstat gives as 0
    if rest:
        data, size = data[:size] + rest + bytes(_PAD), size + len(rest)
    return data, size


def _as_text(data: bytearray, size: int, path: Path) -> tuple[bytearray, int]:
    """``_read_bytes``' result with every line boundary a ``\\n``.

    A file with any other boundary is rewritten once as
    ``"\\n".join(text.splitlines())``.  Raises :class:`ParseError` for bytes
    that are not UTF-8.
    """
    breaks = _ASCII_BREAKS
    if not data.isascii():
        utf8_text(memoryview(data)[:size], path, ParseError)
        breaks += _WIDE_BREAKS
    if any(b in data for b in breaks):
        text = "\n".join(str(memoryview(data)[:size], "utf-8").splitlines()).encode("utf-8")
        data, size = bytearray(text) + bytes(_PAD), len(text)
    return data, size


def _field_words(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int, head) -> np.ndarray:
    """(width + 1, k) int64 words of k fields: ``head``, then each field's bytes 8 at a time, zero past its end.

    ``buf`` ends in ``_PAD`` zero bytes.  Equal rows mean equal heads and equal
    first ``8 * width`` bytes.
    """
    unaligned = np.ndarray((len(buf) - 7,), dtype=np.int64, buffer=buf, strides=(1,))  # the word at each byte
    at = np.arange(0, 8 * width, 8)[:, None] + starts
    words = np.empty((width + 1, len(starts)), dtype=np.int64)
    words[0] = head
    words[1:] = unaligned[at]
    at -= starts  # each word's offset in its field; then the bytes of the field it holds
    np.subtract(lengths, at, out=at)
    words[1:] &= _WORD_MASKS[np.maximum(np.minimum(at, 8, out=at), 0, out=at)]
    return words


def _fingerprint(words: np.ndarray) -> np.ndarray:
    """An int64 hash of each column of ``words``: equal columns hash equal."""
    odd = np.arange(1, 2 * len(words), 2, dtype=np.int64) * np.int64(0x5851F42D4C957F2D)
    return (words * odd[:, None]).sum(axis=0, dtype=np.int64)


def _name_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fingerprints, words and codes of the relation names (kind 0) and entity-type names (kind 1), by fingerprint.

    A name's words are ``2 * byte length + kind``, then its bytes.
    """
    names = [(0, name, code) for name, code in _RELATION_CODES.items()]
    names += [(1, name, code) for name, code in _ENTITY_CODES.items()]
    raw = [name.encode("utf-8") for _, name, _ in names]
    lengths = np.array([len(name) for name in raw])
    kinds, codes = np.array([[kind, code] for kind, _, code in names]).T
    buf = np.frombuffer(b"".join(raw) + bytes(_PAD), dtype=np.uint8)
    words = _field_words(buf, np.cumsum(lengths) - lengths, lengths, _PAD // 8, 2 * lengths + kinds)
    prints = _fingerprint(words)
    order = np.argsort(prints)
    return prints[order], words[:, order], codes[order]


_NAME_TABLE = _name_table()


def _name_codes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    """The code of each field as a name of its kind (0 relation, 1 entity type), or -1 for an unknown name."""
    prints, words, codes = _NAME_TABLE
    got = _field_words(buf, starts, lengths, _PAD // 8, 2 * lengths + kinds)
    at = np.searchsorted(prints, _fingerprint(got)).clip(max=len(prints) - 1)
    return np.where((words[:, at] == got).all(axis=0), codes[at], -1)


def _entity_ids(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, type_codes: np.ndarray,
                vocab: dict[bytes, int]) -> np.ndarray:
    """Vocabulary ids of the entity keys (type code, label bytes), numbering new keys in the order given.

    A key's words are its label's byte length and type code (a type code is
    below 256, as a graph's uint8 type column holds it), then its label.
    Keys are grouped by their label's word count, so no key is padded to the
    longest one, and deduplicated with one sort per group; only the distinct
    keys are looked up in ``vocab``, whose keys are the bytes of the words.
    """
    width = (lengths + 7) >> 3
    slot = np.empty(len(starts), dtype=np.int64)  # each key's index in ``keys``
    keys: list[bytes] = []
    first = []  # the first position of each of ``keys``
    for w in np.flatnonzero(np.bincount(width)).tolist():
        at = np.flatnonzero(width == w)
        words = _field_words(buf, starts[at], lengths[at], w, (lengths[at] << 8) | type_codes[at])
        order = np.argsort(_fingerprint(words))
        at, words = at[order], words[:, order]
        new = np.ones(len(at), dtype=bool)
        new[1:] = (words[:, 1:] != words[:, :-1]).any(axis=0)
        heads = np.flatnonzero(new)
        slot[at] = np.cumsum(new) - 1 + len(keys)
        first.append(np.minimum.reduceat(at, heads))
        keys += np.ascontiguousarray(words[:, heads].T).view(f"V{8 * (w + 1)}").ravel().tolist()
    ids = np.fromiter(map(vocab.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))
    unseen = np.flatnonzero(ids < 0)
    if unseen.size:  # a key split over two runs of equal fingerprints is numbered once, by dict.fromkeys
        unseen = unseen[np.argsort(np.concatenate(first)[unseen])]
        fresh = list(map(keys.__getitem__, unseen.tolist()))
        vocab.update(zip(dict.fromkeys(fresh), count(len(vocab))))
        ids[unseen] = np.fromiter(map(vocab.__getitem__, fresh), dtype=np.int64, count=len(fresh))
    return ids[slot]


def _split_lines(data: bytearray, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The triple lines among ``data[starts[i]:ends[i]]`` and their fields.

    Returns the index of each line that is not skipped (``not line.strip()``
    or starting with ``#``), its tab count, and the (5, k) start and length
    of each field of those lines up to the first one without 4 tabs.
    ``buf`` views ``data`` and ``_PAD`` zero bytes after it.
    """
    a, b = int(starts[0]), int(ends[-1])
    tabs = np.flatnonzero(buf[a:b] == ord("\t")) + a
    after = np.searchsorted(tabs, ends)  # the tabs up to each line's end; no tab lies between lines
    n_tabs = after.copy()
    n_tabs[1:] -= after[:-1]
    lines = np.flatnonzero(ends > starts)
    kind = _BYTE_CLASS[buf[starts[lines]]]  # 2: the line holds a byte that is not whitespace
    if (kind < 2).any():
        kind = np.maximum.reduceat(_BYTE_CLASS[buf[a:b]], starts[lines] - a)
        unsure = np.flatnonzero(kind == 1)  # only whitespace and non-ASCII bytes: str.strip decides
        kind[unsure] = [2 * bool(data[s:e].decode("utf-8").strip())
                        for s, e in zip(starts[lines[unsure]].tolist(), ends[lines[unsure]].tolist())]
    rows = lines[(kind == 2) & (buf[starts[lines]] != ord("#"))]
    bad = np.flatnonzero(n_tabs[rows] != 4)
    whole = rows[: bad[0] if bad.size else len(rows)]
    begin = np.empty((5, len(whole)), dtype=np.int64)
    length = np.empty((5, len(whole)), dtype=np.int64)  # first each field's end
    begin[0], length[4] = starts[whole], ends[whole]
    length[:4] = tabs[after[whole] - np.arange(4, 0, -1)[:, None]]
    begin[1:] = length[:4] + 1
    length -= begin
    return rows, n_tabs[rows], begin, length


def _parse_batch(path: Path, data: bytearray, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 first_lineno: int, schema: Schema, vocab: dict[bytes, int]) -> np.ndarray:
    """(k, 3) id triples of the lines ``data[starts[i]:ends[i]]``, numbered from ``first_lineno``.

    Each new (label, type) gets the next id in ``vocab``, subject before
    object.  The first bad line raises :class:`ParseError` (field count,
    empty label, unknown relation or type, checked in that order) or
    :class:`SchemaViolation`, named as ``path:line``.
    """
    rows, n_tabs, begin, length = _split_lines(data, buf, starts, ends)
    whole = begin.shape[1]  # only the rows before the first one without 5 fields are split
    errors: list[tuple[int, str]] = []  # (row, message), in check order within a row
    if whole < len(rows):
        errors.append((whole, f"expected 5 tab-separated fields, got {n_tabs[whole] + 1}"))

    def field(k: int, col: int) -> str:
        return data[begin[col, k] : begin[col, k] + length[col, k]].decode("utf-8")

    empty = np.flatnonzero((length[0] == 0) | (length[3] == 0))
    errors += [(int(empty[0]), "empty entity label")] if empty.size else []
    relations, s_types, o_types = _name_codes(buf, begin[[2, 1, 4]].ravel(), length[[2, 1, 4]].ravel(),
                                              np.repeat([0, 1, 1], whole)).reshape(3, whole)
    for codes, col, kind_of in ((relations, 2, RelationType), (s_types, 1, EntityType), (o_types, 4, EntityType)):
        for k in np.flatnonzero(codes < 0)[:1].tolist():
            try:
                kind_of.from_name(field(k, col))
            except ValueError as exc:
                errors.append((k, str(exc)))
    n = min([k for k, _ in errors], default=whole)
    illegal = np.flatnonzero(~schema.legal(relations[:n], s_types[:n], o_types[:n]))
    if illegal.size:
        k = int(illegal[0])
        message = schema.violation(EntityType(field(k, 1)), RelationType(field(k, 2)), EntityType(field(k, 4)),
                                   field(k, 0), field(k, 3))
        raise SchemaViolation(f"{path}:{rows[k] + first_lineno}: {message}")
    if errors:
        k, message = min(errors, key=lambda e: e[0])
        raise ParseError(f"{path}:{rows[k] + first_lineno}: {message}")
    ends_ids = _entity_ids(buf, begin[[0, 3]].T.ravel(), length[[0, 3]].T.ravel(),
                           np.stack([s_types, o_types], axis=1).ravel(), vocab)
    return np.stack([ends_ids[0::2], relations, ends_ids[1::2]], axis=1)


def _vocabulary(vocab: dict[bytes, int]) -> tuple[list[str], np.ndarray]:
    """Labels and type codes of the ``_entity_ids`` keys of ``vocab``, in id order."""
    heads = np.frombuffer(b"".join(key[:8] for key in vocab), dtype=np.int64)
    labels = [key[8 : 8 + n].decode("utf-8") for key, n in zip(vocab, (heads >> 8).tolist())]
    return labels, (heads & 0xFF).astype(np.uint8)


def _parse(path: Path, data: bytearray, size: int, schema: Schema, vocab: dict[bytes, int]) -> np.ndarray:
    """(k, 3) id triples of the ``_as_text`` bytes ``data[:size]`` of the file at ``path``, new keys numbered in
    ``vocab``."""
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf[:size] == ord("\n"))
    if size and data[size - 1] != ord("\n"):
        ends = np.append(ends, size)
    spo = np.empty((len(ends), 3), dtype=np.int64)  # one row per line at most
    k = 0
    for i in range(0, len(ends), READ_BATCH_LINES):
        batch = ends[i : i + READ_BATCH_LINES]
        starts = np.concatenate([[ends[i - 1] + 1 if i else 0], batch[:-1] + 1])
        rows = _parse_batch(path, data, buf, starts, batch, i + 1, schema, vocab)
        spo[k : k + len(rows)] = rows
        k += len(rows)
    return spo[:k]


class _View(NamedTuple):
    """A set of triple files read as one: their (label, type) keys in first-appearance order over the files,
    numbered from 0, every file's rows in those ids, one file after another, and each file's row count."""

    labels: list[str]
    codes: np.ndarray  # (n,) uint8 type code of each label
    rows: np.ndarray  # (k, 3) int64 subject id, relation code, object id
    counts: np.ndarray  # (files,) int64 rows of each file


#: File sets whose parse the process keeps: a graph file and its split directory.
_KEPT_VIEWS = 2
#: The views of the last ``_KEPT_VIEWS`` file sets parsed, oldest first, each after the sha256 of each of its
#: files' bytes.  The tuple is replaced whole, never changed in place, so a reader on another thread or in a
#: forked child sees one whole tuple without a lock; two parses at once may keep only one of their views.
_views: tuple[tuple[tuple[bytes, ...], _View], ...] = ()


def _read_triples(paths: list[Path], schema: Schema) -> tuple[Graph, list[np.ndarray]]:
    """Read triple files into one graph plus one (k, 3) id-triple array per file.

    Entities get ids by (label, type) in first-appearance order over the
    files; the graph keeps each distinct triple once, in first-appearance
    order, while the per-file arrays keep every line.  The files are one
    view: a kept view of files with the same bytes when every row of it is
    legal under ``schema``, else parsed in order with one vocabulary and
    kept in place of the oldest kept view.
    """
    global _views
    start = time.perf_counter()
    files = []
    for path in paths:
        with open(path, "rb") as fh:
            files.append(_read_bytes(fh))
    digests = tuple(hashlib.sha256(memoryview(data)[:size]).digest() for data, size in files)
    view = next((v for kept, v in _views if kept == digests), None)
    if view is not None and not schema.legal(view.rows[:, 1], view.codes[view.rows[:, 0]],
                                             view.codes[view.rows[:, 2]]).all():
        view = None  # the parse raises the error, naming path:line
    parsed = view is None
    if parsed:
        vocab: dict[bytes, int] = {}
        arrays = [_parse(path, *_as_text(data, size, path), schema, vocab) for path, (data, size) in zip(paths, files)]
    del files  # the view and the graph are built without the bytes: about 1 MB less peak RSS at 10x
    if parsed:
        view = _View(*_vocabulary(vocab), np.concatenate(arrays), np.array(list(map(len, arrays)), dtype=np.int64))
        view.codes.flags.writeable = view.rows.flags.writeable = False
        _views = (*_views, (digests, view))[-_KEPT_VIEWS:]
    logger.info("%s: %s in %.1f ms", ", ".join(map(str, paths)), "parsed" if parsed else "reused an earlier parse",
                1e3 * (time.perf_counter() - start))
    labels, codes, spo, counts = view
    _, first = np.unique((spo[:, 0] * len(RELATION_INDEX) + spo[:, 1]) * max(len(labels), 1) + spo[:, 2],
                         return_index=True)
    graph = Graph(labels, codes, spo[np.sort(first)])
    return graph, np.split(spo, np.cumsum(counts)[:-1])


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


#: Per relation index, its line piece and its name's place in sorted order; per type code, its name's place.
_RELATION_PIECES = np.array([r.value + "\t" for r in RELATION_BY_INDEX], dtype=object)
_RELATION_RANK = np.argsort(np.argsort([r.value for r in RELATION_BY_INDEX]))
_TYPE_RANK = np.argsort(np.argsort(ENTITY_TYPE_NAMES))


class _LinePieces(NamedTuple):
    """A graph's triple-line pieces per entity, as object arrays, and the ranks that sort its lines."""

    subjects: np.ndarray  # "label TAB type TAB"
    objects: np.ndarray  # "label TAB type NEWLINE"
    rank: np.ndarray  # the entity's (label, type) key's place among the distinct keys, in tuple order


def _line_pieces(graph: Graph) -> _LinePieces:
    labels, codes = np.array(graph.labels, dtype=object), graph.type_codes()
    type_rank = _TYPE_RANK[codes]
    # ids in (label, type name) order: a stable sort by label of the ids in type-name order
    order = np.array(sorted(np.argsort(type_rank, kind="stable").tolist(), key=graph.labels.__getitem__), dtype=np.intp)
    # entities with equal (label, type) share one rank, so that their lines order by what follows the key
    new_key = np.ones(len(order), dtype=bool)
    new_key[1:] = (labels[order[1:]] != labels[order[:-1]]) | (type_rank[order[1:]] != type_rank[order[:-1]])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.cumsum(new_key) - 1
    ends = [f"\t{name}\t" for name in ENTITY_TYPE_NAMES], [f"\t{name}\n" for name in ENTITY_TYPE_NAMES]
    return _LinePieces(*(labels + np.array(end, dtype=object)[codes] for end in ends), rank)


def _check_labels(graph: Graph, spo: np.ndarray) -> None:
    """Raise :class:`GraphError` for a label of the rows ``spo`` that would not read back or UTF-8 cannot encode."""
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
    check_utf8_labels(labels, "a triple file")


def _write_triples(pieces: _LinePieces, spo: np.ndarray, path: Path) -> None:
    """Write id-triple rows in the shared format, lines sorted, from their graph's :func:`_line_pieces`.

    The rows' labels must have passed :func:`_check_labels`.
    """
    rank = pieces.rank
    key = (rank[spo[:, 0]] * len(RELATION_BY_INDEX) + _RELATION_RANK[spo[:, 1]]) * len(rank) + rank[spo[:, 2]]
    spo = spo[np.argsort(key)]
    columns = (pieces.subjects[spo[:, 0]], _RELATION_PIECES[spo[:, 1]], pieces.objects[spo[:, 2]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        fh.writelines(line_chunks(len(spo), *(column.tolist() for column in columns)))


def export_triples(graph: Graph, path: str | Path) -> None:
    """Write a graph in the shared triple format with sorted line order."""
    spo = graph.triples_array()
    _check_labels(graph, spo)
    _write_triples(_line_pieces(graph), spo, Path(path))


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a plain ``key=value`` config file, ignoring blanks and # comments."""
    out: dict[str, str] = {}
    for lineno, line in config_lines(path, ParseError):
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
    max_per_target: int,
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
        weight = start[j] + counts[j] if counts[j] < max_per_target else 0
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
    spo = spo[np.argsort((spo[:, 0] * len(RELATION_BY_INDEX) + spo[:, 1]) * graph.num_entities + spo[:, 2])]
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
    """Write a split's three parts as the triple files of ``out_dir``, once the labels of all three pass."""
    parts = (result.train_ids, result.validation_ids, result.test_ids)
    _check_labels(graph, np.concatenate(parts))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pieces = _line_pieces(graph)
    for name, spo in zip(_SPLIT_FILES, parts):
        _write_triples(pieces, spo, out / name)


def load_split_dir(
    split_dir: str | Path, schema: Schema = DEFAULT_SCHEMA
) -> tuple[Graph, np.ndarray, np.ndarray, np.ndarray]:
    """Load train/valid/test files into one union graph plus id-triple arrays.

    The union graph assigns ids in train-file-first order, so under a
    transductive split the entity vocabulary equals the training set's.
    """
    graph, (train, valid, test) = _read_triples([Path(split_dir) / name for name in _SPLIT_FILES], schema)
    return graph, train, valid, test
