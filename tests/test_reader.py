"""The byte-level triple reader against the str-level reference in ``reference_reader.py``."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens.dataset as dataset_mod
from chainlens.dataset import ParseError, load_split_dir, load_triples
from chainlens.graph import DEFAULT_SCHEMA, EntityType, RelationType, SchemaViolation

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
