"""The byte-level triple reader against the str-level reference in ``reference_reader.py``, and the parses a
process keeps for reuse."""

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
from chainlens.dataset import ParseError, load_split_dir, load_triples
from chainlens.graph import DEFAULT_SCHEMA, EntityType, RelationType, Schema, SchemaViolation

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
        mp.setattr(dataset_mod, "_views", ())  # parsed at this batch size, not reused from another example
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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv"]
    fifo.unlink()
    fifo.write_bytes(lines)
    with pytest.MonkeyPatch.context() as mp:  # the pipe's parse was kept like a file's
        refuse_parsing(mp)
        assert graph_state(load_triples(fifo)) == graph_state(graph)


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
# Parse reuse: the views a process keeps of the file sets it parsed
# ---------------------------------------------------------------------------

SMALL = ("a\tSupplier\tsupplies_to\tb\tSupplier\n"
         "b\tSupplier\tsupplies_to\tc\tSupplier\n"
         "c\tSupplier\tlocated_in\tZürich\tCountry\n")


def graph_state(graph, arrays=()):
    """What a read gives, as plain values: labels, type codes, the graph's triples and the per-file arrays."""
    return (graph.labels, graph.type_codes().tolist(), graph.triples_array().tolist(),
            [(a.dtype.str, a.tolist()) for a in arrays])


def parsed_state(paths, schema=DEFAULT_SCHEMA):
    """``graph_state`` of ``_read_triples(paths)`` with no parse kept before it."""
    dataset_mod._views = ()
    return graph_state(*dataset_mod._read_triples(paths, schema))


def refuse_parsing(mp):
    """Make parsing fail, so that a read that succeeds reused a kept parse."""
    def parse(*args):
        raise AssertionError("parsed a file whose parse was kept")
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


def test_a_parse_is_made_on_the_first_read_and_reused_on_the_next(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="chainlens.dataset")
    (tmp_path / "one").mkdir()
    (tmp_path / "one" / "g.tsv").write_text(SMALL, encoding="utf-8")
    for paths in [tmp_path / "one" / "g.tsv"], write_small_split(tmp_path / "split"):  # one file, then a set
        caplog.clear()
        first = graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA))
        with pytest.MonkeyPatch.context() as mp:
            refuse_parsing(mp)
            assert graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA)) == first
        messages = [r.getMessage() for r in caplog.records if r.name == "chainlens.dataset"]
        assert len(messages) == 2  # one per read, not one per file
        read = ", ".join(map(str, paths))
        assert messages[0].startswith(f"{read}: parsed in ") and messages[0].endswith(" ms")
        assert messages[1].startswith(f"{read}: reused an earlier parse in ") and messages[1].endswith(" ms")


def test_a_read_creates_no_file_in_its_directory(tmp_path):
    (tmp_path / "g.tsv").write_text(SMALL, encoding="utf-8")
    paths = write_small_split(tmp_path / "split")
    for _ in range(2):  # parsed, then reused
        load_triples(tmp_path / "g.tsv")
        load_split_dir(tmp_path / "split")
        load_triples(paths[0])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv", "split"]
    assert sorted(p.name for p in (tmp_path / "split").iterdir()) == ["test.tsv", "train.tsv", "valid.tsv"]


def test_a_parse_of_other_bytes_of_the_same_length_and_time_is_not_reused(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    load_triples(path)
    st = path.stat()
    path.write_bytes(path.read_bytes().replace(b"c\t", b"d\t"))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert path.stat().st_size == st.st_size
    assert load_triples(path).labels == ["a", "b", "d", "Zürich"]
    with pytest.MonkeyPatch.context() as mp:  # the new bytes' parse was kept
        refuse_parsing(mp)
        assert load_triples(path).labels == ["a", "b", "d", "Zürich"]


def test_kept_rows_illegal_under_the_schema_raise_the_parsers_error(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(SMALL, encoding="utf-8")
    load_triples(path)  # a parse kept under the default schema
    rules = dict(DEFAULT_SCHEMA.rules)
    rules[RelationType.LOCATED_IN] = (frozenset({EntityType.SMELTER}), rules[RelationType.LOCATED_IN][1])
    strict = Schema(rules)
    with pytest.raises(SchemaViolation, match=rf"^{re.escape(str(path))}:3: Supplier is not a valid source") as got:
        load_triples(path, strict)
    dataset_mod._views = ()
    with pytest.raises(SchemaViolation) as parsed:
        load_triples(path, strict)
    assert str(got.value) == str(parsed.value)
    with pytest.MonkeyPatch.context() as mp:  # the refused read left the kept parse in place
        load_triples(path)
        refuse_parsing(mp)
        load_triples(path)


def test_arrays_a_read_returns_are_read_only_and_later_reads_are_unchanged(tmp_path):
    split = tmp_path / "split"
    write_small_split(split)
    expected = split_state(split)
    graph, *arrays = load_split_dir(split)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 9
    graph.add_entity("d", EntityType.SUPPLIER)
    with pytest.MonkeyPatch.context() as mp:
        refuse_parsing(mp)
        assert split_state(split) == expected


def test_a_third_file_set_read_drops_the_oldest_kept_parse(tmp_path):
    paths = [tmp_path / f"g{i}.tsv" for i in range(3)]
    for i, path in enumerate(paths):
        path.write_text(SMALL.replace("a\t", f"a{i}\t"), encoding="utf-8")
        load_triples(path)
    with pytest.MonkeyPatch.context() as mp:
        refuse_parsing(mp)
        assert [load_triples(path).labels[0] for path in paths[1:]] == ["a1", "a2"]
        with pytest.raises(AssertionError, match="parsed a file whose parse was kept"):
            load_triples(paths[0])


#: Subject labels: any of ``LABELS`` that a line may start with; ``#`` labels are objects only.
SUBJECTS = [label for label in LABELS if not label.startswith("#")]


@st.composite
def shared_entity_files(draw) -> list[bytes]:
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


@given(files=shared_entity_files(), changed=st.integers(0, 2))
@settings(deadline=None)
def test_repeated_reads_equal_parsing(tmp_path_factory, files, changed):
    root = tmp_path_factory.mktemp("reuse")
    paths = [root / f"part{i}.tsv" for i in range(len(files))]
    for path, data in zip(paths, files):
        path.write_bytes(data)
    expected = parsed_state(paths)
    assert expected[:3] == graph_state(reference_read_triples(paths, DEFAULT_SCHEMA)[0])[:3]
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
    with pytest.MonkeyPatch.context() as mp:  # and the new parse was kept
        refuse_parsing(mp)
        assert graph_state(*dataset_mod._read_triples(paths, DEFAULT_SCHEMA)) == expected
    assert sorted(p.name for p in root.iterdir()) == sorted(p.name for p in paths)


def test_a_file_and_a_set_that_holds_it_keep_a_parse_each(tmp_path):
    split = tmp_path / "split"
    paths = write_small_split(split)
    alone = graph_state(load_triples(paths[0]))
    together = split_state(split)
    with pytest.MonkeyPatch.context() as mp:  # neither read replaced the other's kept parse
        refuse_parsing(mp)
        for _ in range(2):
            assert graph_state(load_triples(paths[0])) == alone
            assert split_state(split) == together


def test_set_parse_is_not_reused_when_a_file_has_other_bytes_of_same_length_and_time(tmp_path):
    split = tmp_path / "split"
    paths = write_small_split(split)
    load_split_dir(split)
    st = paths[2].stat()
    paths[2].write_bytes(paths[2].read_bytes().replace(b"c\t", b"d\t"))
    os.utime(paths[2], ns=(st.st_atime_ns, st.st_mtime_ns))
    assert paths[2].stat().st_size == st.st_size
    got = split_state(split)
    assert got[0] == ["a", "b", "c", "d", "Zürich"]
    with pytest.MonkeyPatch.context() as mp:  # the new bytes' parse was kept
        refuse_parsing(mp)
        assert split_state(split) == got
