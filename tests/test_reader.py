"""The byte-level triple reader against the str-level reference in ``reference_reader.py``, and its parse memos."""

import hashlib
import logging
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens.dataset as dataset_mod
from chainlens.dataset import MEMO_SUFFIX, ParseError, load_split_dir, load_triples
from chainlens.graph import DEFAULT_SCHEMA, RELATION_BY_INDEX, EntityType, RelationType, Schema, SchemaViolation

from reference_reader import reference_read_triples

#: Labels of one to many UTF-8 words: non-ASCII, with spaces, with whitespace
#: that is no line boundary, with NUL, starting with ``#`` or a BOM.
LABELS = ["a", "b", "SUP-0001", "FocalCo", "Zürich", "北京工厂", "A B", " lead", "trail ", "x\x1fy", "nul\x00",
          "\u3000wide", "#hash", "ÿ", "12345678", "123456789", "\ufeffbom", "Ωmega" * 4,
          "a label that is well over sixteen bytes long"]
ENTITY_NAMES = [t.value for t in EntityType]
BAD_NAMES = ["Nope", "supplier", "Supplier ", "ManufacturerPartX", "ManufacturerPar", "Countr", "Country\x00",
             "sells_to", "supplies_to_", "", "located_inX", "Ünknown", "supplies_to" * 2]
COMMENTS = ["#", "# comment", "#\ta\tb\tc\td", "# subject\tsubject_type\tpredicate\tobject\tobject_type", "#Zürich"]
BLANKS = ["", " ", "\t", "\t\t\t\t", "\u3000", "\x1f", "\xa0\t ", "  \t  \t\t\t ", " "]
ODD = ["\ufeff", "\u200b", "a", "a\tb", "\t\t\t\t\t", "\u3000\tSupplier\tsupplies_to\tb\tSupplier"]
#: Every line boundary ``str.splitlines`` knows.
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def triple_line(draw, clean: bool) -> str:
    relation = draw(st.sampled_from(list(RelationType)))
    legal = clean or draw(st.booleans())
    if legal:
        s_type = draw(st.sampled_from(sorted(t.value for t in DEFAULT_SCHEMA.source_types(relation))))
        o_type = draw(st.sampled_from(sorted(t.value for t in DEFAULT_SCHEMA.target_types(relation))))
    else:
        s_type, o_type = draw(st.sampled_from(ENTITY_NAMES)), draw(st.sampled_from(ENTITY_NAMES))
    fields = [draw(st.sampled_from(LABELS)), s_type, relation.value, draw(st.sampled_from(LABELS)), o_type]
    if not clean:
        fault = draw(st.sampled_from(["none", "none", "count", "name", "empty"]))
        if fault == "count":
            fields = fields[: draw(st.integers(1, 4))] if draw(st.booleans()) else fields + ["extra"]
        elif fault == "name":
            fields[draw(st.sampled_from([1, 2, 4]))] = draw(st.sampled_from(BAD_NAMES))
        elif fault == "empty":
            fields[draw(st.sampled_from([0, 3]))] = ""
    return "\t".join(fields)


@st.composite
def triple_file(draw) -> bytes:
    clean = draw(st.booleans())
    kinds = ["triple"] * 6 + ["comment", "blank"] + ([] if clean else ["odd"])
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=25)):
        if kind == "triple":
            lines.append(draw(triple_line(clean)))
        else:
            lines.append(draw(st.sampled_from({"comment": COMMENTS, "blank": BLANKS, "odd": ODD}[kind])))
    breaks = st.just("\n") if draw(st.booleans()) else st.sampled_from(BREAKS)
    ends = [draw(breaks) for _ in lines]
    if lines and draw(st.booleans()):  # no final line boundary
        ends[-1] = ""
    text = "".join(map(str.__add__, lines, ends))
    return ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode("utf-8")


def read_with(reader, paths):
    try:
        return reader(paths, DEFAULT_SCHEMA)
    except (ParseError, SchemaViolation, UnicodeDecodeError) as exc:
        return exc


def utf8_error_message(path, data: bytes) -> str:
    """The ParseError message the reader gives for the first bytes of ``data`` that are not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        return f"{path}:{lineno}: not valid UTF-8 (byte 0x{data[exc.start]:02x} at offset {exc.start})"
    raise AssertionError("the data is UTF-8")


@given(files=st.lists(triple_file(), min_size=1, max_size=3),
       corrupt=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 10**6),
                                     st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80", b"\xf4\x90"])),
       batch=st.sampled_from([1, 2, 3, dataset_mod.READ_BATCH_LINES]))
@settings(deadline=None)
def test_reader_matches_reference(tmp_path_factory, files, corrupt, batch):
    if corrupt is not None and corrupt[0] < len(files):
        i, at, junk = corrupt
        at %= len(files[i]) + 1
        files[i] = files[i][:at] + junk + files[i][at:]
    root = tmp_path_factory.mktemp("reader")
    paths = [root / f"part{i}.tsv" for i in range(len(files))]
    for path, data in zip(paths, files):
        path.write_bytes(data)
    expected = read_with(reference_read_triples, paths)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_mod, "READ_BATCH_LINES", batch)
        got = read_with(dataset_mod._read_triples, paths)
    if isinstance(expected, UnicodeDecodeError):
        bad = paths[corrupt[0]]
        assert type(got) is ParseError and str(got) == utf8_error_message(bad, bad.read_bytes())
    elif isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert not isinstance(got, Exception), got
        (graph, arrays), (expected_graph, expected_arrays) = got, expected
        assert graph.labels == expected_graph.labels
        np.testing.assert_array_equal(graph.type_codes(), expected_graph.type_codes())
        np.testing.assert_array_equal(graph.triples_array(), expected_graph.triples_array())
        assert len(arrays) == len(expected_arrays)
        for part, expected_part in zip(arrays, expected_arrays):
            assert part.dtype == expected_part.dtype
            np.testing.assert_array_equal(part, expected_part)


def test_known_names_have_distinct_fingerprints():
    # a field is matched by fingerprint, then checked word by word: two names
    # with one fingerprint would make one of them unmatchable
    prints, words, codes = dataset_mod._NAME_TABLE
    assert np.unique(prints).size == len(prints) == len(codes) == words.shape[1]


def test_reader_keeps_a_bom_and_skips_whitespace_only_lines(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("\ufeffa\tSupplier\tsupplies_to\tb\tSupplier\n\t\t\t\t\n\u3000\n\x1f \n"
                    "b\tSupplier\tsupplies_to\ta\tSupplier", encoding="utf-8")
    graph = load_triples(path)
    assert graph.labels == ["\ufeffa", "b", "a"]
    assert graph.num_triples == 2


@pytest.mark.parametrize("boundary", BREAKS)
def test_reader_cuts_lines_at_every_boundary(tmp_path, boundary):
    path = tmp_path / "g.tsv"
    line = "a\tSupplier\tsupplies_to\tb\tSupplier"
    path.write_text(f"# header{boundary}{line}{boundary}{boundary}x\tCountry{boundary}", encoding="utf-8",
                    newline="")
    with pytest.raises(ParseError, match=r"g\.tsv:4: expected 5 tab-separated fields, got 2"):
        load_triples(path)
    path.write_text(f"# header{boundary}{line}", encoding="utf-8", newline="")
    assert load_triples(path).labels == ["a", "b"]


def test_reader_reads_a_pipe(tmp_path):
    lines = "".join(f"s{i}\tSupplier\tsupplies_to\ts{i + 1}\tSupplier\n" for i in range(5_000)).encode()
    fifo = tmp_path / "g.tsv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(lines,), daemon=True)
    writer.start()
    try:
        graph = load_triples(fifo)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert graph.num_triples == 5_000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv"]  # no memo of a pipe


def test_reader_refuses_bytes_that_are_not_utf8(tmp_path):
    good = b"a\tSupplier\tsupplies_to\tb\tSupplier\n"
    (tmp_path / "train.tsv").write_bytes(good)
    (tmp_path / "valid.tsv").write_bytes(good + good.replace(b"b\t", b"\xe2\x80\t"))
    (tmp_path / "test.tsv").write_bytes(good)
    offset = len(good) + good.index(b"b\t")
    with pytest.raises(ParseError, match=rf"valid\.tsv:2: not valid UTF-8 \(byte 0xe2 at offset {offset}\)$"):
        load_split_dir(tmp_path)


def test_reader_memory_stays_near_the_file_size(tmp_path):
    # one 1 MB label among 10,000 lines: keys are not padded to the longest label
    lines = [f"s{i}\tSupplier\tsupplies_to\ts{i + 1}\tSupplier" for i in range(10_000)]
    long_label = "x" * 1_000_000
    lines[5_000] = f"{long_label}\tSupplier\tsupplies_to\ts0\tSupplier"
    path = tmp_path / "g.tsv"
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        graph = load_triples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000
    assert long_label in graph.labels and graph.num_triples == 10_000


# ---------------------------------------------------------------------------
# Parse memos
# ---------------------------------------------------------------------------

SMALL = ("a\tSupplier\tsupplies_to\tb\tSupplier\n"
         "b\tSupplier\tsupplies_to\tc\tSupplier\n"
         "c\tSupplier\tlocated_in\tZürich\tCountry\n")


def memo_of(*paths):
    """The memo of a read of ``paths``: beside the first file, named by all of them."""
    return paths[0].with_name("+".join(path.name for path in paths) + MEMO_SUFFIX)


def graph_state(graph, arrays=()):
    """What a read gives, as plain values: labels, type codes, the graph's triples and the per-file arrays."""
    return (graph.labels, graph.type_codes().tolist(), graph.triples_array().tolist(),
            [(a.dtype.str, a.tolist()) for a in arrays])


def parsed_state(paths, schema=DEFAULT_SCHEMA):
    """``graph_state`` of ``_read_triples(paths)`` with their memo deleted first."""
    memo_of(*paths).unlink(missing_ok=True)
    return graph_state(*dataset_mod._read_triples(paths, schema))


def rewrite_memo(memo, **fields):
    """Replace fields of ``memo``, keeping the others."""
    with np.load(memo) as z:
        kept = {name: z[name] for name in z.files}
    with open(memo, "wb") as fh:
        np.savez(fh, **{**kept, **fields})


def refuse_parsing(mp):
    """Make parsing fail, so that a read that succeeds came from memos only."""
    def parse(*args):
        raise AssertionError("parsed a file that has a memo")
    mp.setattr(dataset_mod, "_parse", parse)


def write_small_split(split):
    """A split directory of ``SMALL``'s three lines, one per file."""
    split.mkdir()
    for name, line in zip(["train.tsv", "valid.tsv", "test.tsv"], SMALL.splitlines(keepends=True)):
        (split / name).write_text(line, encoding="utf-8")
    return [split / "train.tsv", split / "valid.tsv", split / "test.tsv"]


def split_state(split):
    """``graph_state`` of ``load_split_dir(split)``."""
    graph, *arrays = load_split_dir(split)
    return graph_state(graph, arrays)


def test_memo_is_written_on_the_first_read_and_read_on_the_next(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="chainlens.dataset")
    (tmp_path / "one").mkdir()
    (tmp_path / "one" / "g.tsv").write_text(SMALL, encoding="utf-8")
    for paths in [tmp_path / "one" / "g.tsv"], write_small_split(tmp_path / "split"):  # one file, then a set
        caplog.clear()
        first = graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA))
        assert memo_of(*paths).is_file()
        with pytest.MonkeyPatch.context() as mp:
            refuse_parsing(mp)
            assert graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA)) == first
        messages = [r.getMessage() for r in caplog.records if r.name == "chainlens.dataset"]
        assert len(messages) == 2  # one per read, not one per file
        read = ", ".join(map(str, paths))
        assert messages[0].startswith(f"{read}: parsed in ") and messages[0].endswith(" ms")
        assert messages[1].startswith(f"{read}: read from its memo in ") and messages[1].endswith(" ms")
        names = sorted([*(path.name for path in paths), memo_of(*paths).name])
        assert sorted(path.name for path in paths[0].parent.iterdir()) == names  # no temp file left


def test_memo_of_other_bytes_of_the_same_length_and_time_is_not_used(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    load_triples(path)
    st = path.stat()
    path.write_bytes(path.read_bytes().replace(b"c\t", b"d\t"))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert path.stat().st_size == st.st_size
    assert load_triples(path).labels == ["a", "b", "d", "Zürich"]
    with pytest.MonkeyPatch.context() as mp:  # the stale memo was replaced
        refuse_parsing(mp)
        assert load_triples(path).labels == ["a", "b", "d", "Zürich"]


def test_truncated_memo_is_replaced(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    expected = graph_state(load_triples(path))
    whole = memo_of(path).read_bytes()
    memo_of(path).write_bytes(whole[: len(whole) // 2])
    assert graph_state(load_triples(path)) == expected
    with pytest.MonkeyPatch.context() as mp:
        refuse_parsing(mp)
        assert graph_state(load_triples(path)) == expected


UNPICKLED = []


def record_unpickling():
    UNPICKLED.append("unpickled")


class Tripwire:
    """Records that it was unpickled."""

    def __reduce__(self):
        return record_unpickling, ()


def test_memo_with_an_object_array_is_never_unpickled(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    expected = graph_state(load_triples(path))
    rewrite_memo(memo_of(path), labels=np.array([Tripwire()], dtype=object))
    assert graph_state(load_triples(path)) == expected
    assert UNPICKLED == []


#: Every relation between any two types, so that a memo's renumbered rows stay legal.
ANYTHING_GOES = Schema({rel: (frozenset(EntityType), frozenset(EntityType)) for rel in RelationType})


def rewrite_meta(path, line, change):
    """Apply ``change`` to line ``line`` of the memo's meta (0 the version, 1 the relations, 2 the types)."""
    with np.load(memo_of(path)) as memo:
        meta = memo["meta"].tobytes()
    lines = meta[32:].split(b"\n")  # after the sha256
    lines[line] = change(lines[line])
    rewrite_memo(memo_of(path), meta=np.frombuffer(meta[:32] + b"\n".join(lines), dtype=np.uint8))


@pytest.mark.parametrize("table", ["relations", "types"])
def test_memo_in_other_names_is_not_used(tmp_path, table):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    expected = graph_state(load_triples(path, ANYTHING_GOES))
    with np.load(memo_of(path)) as memo:
        rows, codes = memo["rows"], memo["codes"]
    # the same memo with the names in reverse order and the codes renumbered to match
    if table == "relations":
        rows[:, 1] = len(RELATION_BY_INDEX) - 1 - rows[:, 1]
        rewrite_memo(memo_of(path), rows=rows)
    else:
        rewrite_memo(memo_of(path), codes=(len(EntityType) - 1 - codes).astype(np.uint8))
    rewrite_meta(path, 1 if table == "relations" else 2, lambda names: b"\t".join(names.split(b"\t")[::-1]))
    assert graph_state(load_triples(path, ANYTHING_GOES)) == expected


def test_memo_of_another_version_is_not_used(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    expected = graph_state(load_triples(path))
    with np.load(memo_of(path)) as memo:  # a parse that an older parser might have made
        labels = np.frombuffer(memo["labels"].tobytes().replace(b"a", b"x"), dtype=np.uint8)
    rewrite_memo(memo_of(path), labels=labels)
    rewrite_meta(path, 0, lambda version: version.replace(str(dataset_mod._MEMO_VERSION).encode(), b"1"))
    assert graph_state(load_triples(path)) == expected


#: Faults in the memo of ``SMALL`` cut into two files after its first line.  The memo holds a, b, c and Zürich,
#: each a Supplier but Zürich, a Country, rows (0, supplies_to, 1), (1, supplies_to, 2), (2, located_in, 3) and
#: counts (1, 2); each fault changes what a read of it would give.
FAULTS = ["subject past the labels", "negative object", "unknown relation", "unknown type", "a label missing",
          "a label too many", "a label never used", "rows as int32", "ids out of first-appearance order",
          "a duplicate key", "an empty label", "a label with a tab", "a label with a carriage return",
          "a label with U+2028", "a subject starting with #", "counts not adding up to the rows",
          "a count too many", "a negative count"]


@pytest.mark.parametrize("fault", FAULTS)
def test_memo_the_parser_could_not_have_made_is_not_used(tmp_path, fault):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    first, rest = SMALL.split("\n", 1)
    paths[0].write_text(first + "\n", encoding="utf-8")
    paths[1].write_text(rest, encoding="utf-8")
    expected = graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA))
    with np.load(memo_of(*paths)) as memo:
        rows, codes, labels = memo["rows"], memo["codes"], memo["labels"].tobytes().decode("utf-8").split("\n")
        counts = memo["counts"]
    if fault == "subject past the labels":
        rows[0, 0] = len(codes)
    elif fault == "negative object":
        rows[0, 2] = -1
    elif fault == "unknown relation":
        rows[0, 1] = len(RELATION_BY_INDEX)
    elif fault == "unknown type":
        codes[0] = len(EntityType)
    elif fault == "a label missing":
        labels = labels[:-1]
    elif fault == "a label too many":
        labels = labels + ["d"]
    elif fault == "a label never used":
        labels, codes = labels + ["d"], np.append(codes, codes[0])
    elif fault == "rows as int32":
        rows = rows.astype(np.int32)
    elif fault == "ids out of first-appearance order":  # the same triples, with b and c numbered the other way
        labels[1], labels[2] = labels[2], labels[1]
        rows[:, 0::2] = np.array([0, 2, 1, 3])[rows[:, 0::2]]
    elif fault == "a duplicate key":  # two ids for (b, Supplier)
        labels[2] = "b"
    elif fault == "a subject starting with #":
        labels[0] = "#a"
    elif fault == "counts not adding up to the rows":
        counts = np.array([2, 2])
    elif fault == "a count too many":  # the rows of a third, empty file
        counts = np.array([1, 2, 0])
    elif fault == "a negative count":  # adds up to the rows, and would give the first file all of them
        counts = np.array([4, -1])
    else:
        labels[1] = {"an empty label": "", "a label with a tab": "b\tx", "a label with a carriage return": "b\rx",
                     "a label with U+2028": "b\u2028x"}[fault]
    rewrite_memo(memo_of(*paths), rows=rows, codes=codes, counts=counts,
                 labels=np.frombuffer("\n".join(labels).encode("utf-8"), dtype=np.uint8))
    assert graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA)) == expected


#: The sha256 of ``parse_sample``'s result under each memo version.  A change to what the parser makes of some
#: file, as a new comment, label or line-break rule, changes it: the change must then give
#: ``dataset._MEMO_VERSION`` a new number, and this table its digest, so that no memo of the old parse is read.
#: Version 3 changed only the memo's layout (one memo per file set, with each file's row count), so its digest is
#: version 2's.
SAMPLE_PARSES = {2: "c451e30c2ec840fc26612734b98f3aa2d22ec940bfe553de399520e6cfb35399",
                 3: "c451e30c2ec840fc26612734b98f3aa2d22ec940bfe553de399520e6cfb35399"}


def parse_sample(tmp_path):
    """``graph_state`` of a fresh read of two files that hold every kind of line, label and line break the
    strategies above draw, as accepted input: one broken at ``\\n`` only, one at every line boundary."""
    lines = []
    for i, label in enumerate(LABELS):
        subject = "a" if label.startswith("#") else label
        lines += [f"{subject}\tSupplier\tsupplies_to\t{LABELS[i - 1]}\tSupplier",
                  f"{subject}\tSupplier\tlocated_in\t{label}\tCountry", COMMENTS[i % len(COMMENTS)],
                  BLANKS[i % len(BLANKS)]]
    paths = [tmp_path / "plain.tsv", tmp_path / "mixed.tsv"]
    paths[0].write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths[1].write_text("".join(line + BREAKS[i % len(BREAKS)] for i, line in enumerate(lines[::-1])),
                        encoding="utf-8")
    state = parsed_state(paths)
    assert state[:3] == graph_state(reference_read_triples(paths, DEFAULT_SCHEMA)[0])[:3]
    return state


def test_memo_version_names_the_parse_it_holds(tmp_path):
    digest = hashlib.sha256(repr(parse_sample(tmp_path)).encode("utf-8")).hexdigest()
    assert SAMPLE_PARSES.get(dataset_mod._MEMO_VERSION) == digest


def test_memo_rows_illegal_under_the_schema_raise_the_parsers_error(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    load_triples(path)  # a memo written under the default schema
    rules = dict(DEFAULT_SCHEMA.rules)
    rules[RelationType.LOCATED_IN] = (frozenset({EntityType.SMELTER}), rules[RelationType.LOCATED_IN][1])
    strict = Schema(rules)
    with pytest.raises(SchemaViolation, match=rf"^{re.escape(str(path))}:3: Supplier is not a valid source") as got:
        load_triples(path, strict)
    memo_of(path).unlink()
    with pytest.raises(SchemaViolation) as parsed:
        load_triples(path, strict)
    assert str(got.value) == str(parsed.value)


def test_memo_that_cannot_be_written_leaves_the_parsed_graph(tmp_path, monkeypatch):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    expected = graph_state(load_triples(path))
    memo_of(path).unlink()

    def replace(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))
    monkeypatch.setattr(os, "replace", replace)
    assert graph_state(load_triples(path)) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv"]  # no memo, no temp file


def test_file_whose_memo_name_is_too_long_is_parsed_without_a_memo(tmp_path):
    short = tmp_path / "g.tsv"
    short.write_text(SMALL, encoding="utf-8")
    expected = graph_state(*dataset_mod._read_triples([short], DEFAULT_SCHEMA))
    path = tmp_path / ("g" * 246 + ".tsv")  # a 250-byte name: its memo's name is over the 255-byte limit
    path.write_text(SMALL, encoding="utf-8")
    assert graph_state(*dataset_mod._read_triples([path], DEFAULT_SCHEMA)) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([short.name, memo_of(short).name, path.name])


#: Subject labels: any of ``LABELS`` that a line may start with; ``#`` labels are objects only.
SUBJECTS = [label for label in LABELS if not label.startswith("#")]


@st.composite
def memo_files(draw) -> list[bytes]:
    """One to three clean triple files drawn from a few shared entities, with duplicate lines and entities."""
    entities = draw(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(ENTITY_NAMES)), min_size=1,
                             max_size=8))
    files = []
    for _ in range(draw(st.integers(1, 3))):
        lines = []
        for _ in range(draw(st.integers(0, 12))):
            relation = draw(st.sampled_from(list(RelationType)))
            sources = [e for e in entities
                       if e[0] in SUBJECTS and EntityType(e[1]) in DEFAULT_SCHEMA.source_types(relation)]
            targets = [e for e in entities if EntityType(e[1]) in DEFAULT_SCHEMA.target_types(relation)]
            if sources and targets:
                (s, s_type), (o, o_type) = draw(st.sampled_from(sources)), draw(st.sampled_from(targets))
                lines.append(f"{s}\t{s_type}\t{relation.value}\t{o}\t{o_type}")
            else:
                lines.append(draw(st.sampled_from(COMMENTS + BLANKS)))
        files.append(("\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))).encode("utf-8"))
    return files


@given(files=memo_files(), changed=st.integers(0, 2))
@settings(deadline=None)
def test_memos_read_as_parsing_does(tmp_path_factory, files, changed):
    root = tmp_path_factory.mktemp("memo")
    paths = [root / f"part{i}.tsv" for i in range(len(files))]
    for path, data in zip(paths, files):
        path.write_bytes(data)
    expected = parsed_state(paths)
    assert expected[:3] == graph_state(reference_read_triples(paths, DEFAULT_SCHEMA)[0])[:3]
    assert sorted(p.name for p in root.iterdir()) == sorted([*(p.name for p in paths), memo_of(*paths).name])
    with pytest.MonkeyPatch.context() as mp:
        refuse_parsing(mp)
        assert graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA)) == expected
    # one file of the set changed, by a comment that changes no triple, so the whole set is parsed again
    path = paths[changed % len(paths)]
    path.write_bytes(b"# changed\n" + path.read_bytes())
    parsed = []
    with pytest.MonkeyPatch.context() as mp:
        parse = dataset_mod._parse
        mp.setattr(dataset_mod, "_parse", lambda path, *args: parsed.append(path) or parse(path, *args))
        assert graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA)) == expected
    assert parsed == paths
    with pytest.MonkeyPatch.context() as mp:  # and the memo was replaced
        refuse_parsing(mp)
        assert graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA)) == expected


def test_a_file_and_a_set_that_holds_it_keep_a_memo_each(tmp_path):
    split = tmp_path / "split"
    paths = write_small_split(split)
    alone = graph_state(load_triples(paths[0]))
    together = split_state(split)
    assert sorted(p.name for p in split.iterdir()) == sorted(["train.tsv", "valid.tsv", "test.tsv",
                                                              "train.tsv" + MEMO_SUFFIX,
                                                              "train.tsv+valid.tsv+test.tsv" + MEMO_SUFFIX])
    with pytest.MonkeyPatch.context() as mp:  # neither read replaced the other's memo
        refuse_parsing(mp)
        for _ in range(2):
            assert graph_state(load_triples(paths[0])) == alone
            assert split_state(split) == together


def test_set_memo_is_not_used_when_one_file_holds_other_bytes_of_the_same_length_and_time(tmp_path):
    split = tmp_path / "split"
    paths = write_small_split(split)
    load_split_dir(split)
    before = memo_of(*paths).read_bytes()
    st = paths[2].stat()
    paths[2].write_bytes(paths[2].read_bytes().replace(b"c\t", b"d\t"))
    os.utime(paths[2], ns=(st.st_atime_ns, st.st_mtime_ns))
    assert paths[2].stat().st_size == st.st_size
    got = split_state(split)
    assert got[0] == ["a", "b", "c", "d", "Zürich"]
    assert memo_of(*paths).read_bytes() != before
    with pytest.MonkeyPatch.context() as mp:  # the stale memo was replaced
        refuse_parsing(mp)
        assert split_state(split) == got
