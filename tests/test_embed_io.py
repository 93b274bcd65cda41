"""Embedding table I/O: bit-exact binary round-trips, text parsing, lookup."""

import math
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from semlink import embed_io, pipeline
from semlink.cli import cli
from semlink.embed_io import (
    BLOCK_ROWS,
    EmbeddingTable,
    load_binary,
    load_text,
    save_binary,
    save_text,
)
from semlink.errors import (
    DuplicateLabelError,
    FormatError,
    MissingLabelError,
    NonFiniteError,
    TruncatedError,
)
from semlink.type_extraction import EntityTypeAssignment, read_assignments, write_assignments


def write_reference_binary(path, entries, per_entry_newline=False):
    """Independent writer used as the round-trip oracle: struct.pack only."""
    dim = len(entries[0][1]) if entries else 0
    with open(path, "wb") as fh:
        fh.write(f"{len(entries)} {dim}\n".encode("ascii"))
        for label, values in entries:
            fh.write(label.encode("utf-8") + b" ")
            fh.write(struct.pack(f"<{len(values)}f", *values))
            if per_entry_newline:
                fh.write(b"\n")


class TestBinary:
    def test_minimal_well_formed_file(self, tmp_path):
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [1, 2, 3]), ("b", [4, 5, 6])])
        table = load_binary(p)
        assert table.dim == 3
        assert len(table) == 2
        assert table.labels == ["a", "b"]
        np.testing.assert_array_equal(table.vector("a"), np.float32([1, 2, 3]))

    def test_empty_table(self, tmp_path):
        p = tmp_path / "t.bin"
        p.write_bytes(b"0 300\n")
        table = load_binary(p)
        assert len(table) == 0
        assert table.dim == 300

    def test_save_empty_table_is_header_only(self, tmp_path):
        p = tmp_path / "t.bin"
        save_binary(EmbeddingTable(300), p)
        assert p.read_bytes() == b"0 300\n"

    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        entries = [
            (f"w{i}", [float(np.float32(x)) for x in rng.standard_normal(5)])
            for i in range(20)
        ]
        src = tmp_path / "src.bin"
        dst = tmp_path / "dst.bin"
        write_reference_binary(src, entries)
        save_binary(load_binary(src), dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_per_entry_newlines_accepted_and_normalized(self, tmp_path):
        entries = [("a", [1.0, 2.0]), ("b", [3.0, 4.0])]
        with_nl = tmp_path / "nl.bin"
        plain = tmp_path / "plain.bin"
        write_reference_binary(with_nl, entries, per_entry_newline=True)
        write_reference_binary(plain, entries)
        t1 = load_binary(with_nl)
        t2 = load_binary(plain)
        assert t1 == t2
        out = tmp_path / "out.bin"
        save_binary(t1, out)
        assert out.read_bytes() == plain.read_bytes()

    def test_load_save_load_fixpoint(self, tmp_path, make_table):
        table = make_table(50, 7)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_binary(table, p1)
        again = load_binary(p1)
        assert again == table
        save_binary(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_headers(self, tmp_path):
        for payload in (b"", b"nope\nrest", b"2\n", b"2 3 4\n", b"-1 3\n", b"a b\n"):
            p = tmp_path / "bad.bin"
            p.write_bytes(payload)
            with pytest.raises(FormatError):
                load_binary(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
        whole = p.read_bytes()
        for cut in (len(whole) - 3, len(whole) - 9):
            p.write_bytes(whole[:cut])
            with pytest.raises(TruncatedError):
                load_binary(p)

    def test_header_count_bounded_by_file_size(self, tmp_path):
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
        body = p.read_bytes().split(b"\n", 1)[1]
        # 10^11 entries of dimension 300 would need ~112 TiB: refuse before allocating
        for header in (b"100000000000 300\n", b"3 2\n"):
            p.write_bytes(header + body)
            with pytest.raises(TruncatedError, match="entries"):
                load_binary(p)

    @pytest.mark.parametrize("header", [
        b"9" * 5000 + b" 3\n",  # beyond int()'s digit limit
        b"0 100000000000000000000\n",  # more dimensions than numpy can index
        b"0 4611686018427387904\n",  # a row of 2**62 floats overflows its byte size
    ], ids=["5000-digit-count", "dim-1e20", "dim-2**62"])
    def test_oversized_header_numbers(self, tmp_path, header):
        p = tmp_path / "t.bin"
        p.write_bytes(header)
        with pytest.raises(FormatError, match="malformed header"):
            load_binary(p)

    def test_table_errors_are_format_errors_with_path(self, tmp_path):
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [1.0]), ("a", [2.0])])
        with pytest.raises(DuplicateLabelError, match=re.escape(str(p))) as e:
            load_binary(p)
        assert isinstance(e.value, FormatError)
        write_reference_binary(p, [("a", [float("nan")])])
        with pytest.raises(NonFiniteError, match=re.escape(str(p))) as e:
            load_binary(p)
        assert isinstance(e.value, FormatError)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [1.0, 2.0])])
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_binary(p)

    def test_duplicate_label(self, tmp_path):
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [1.0]), ("a", [2.0])])
        with pytest.raises(DuplicateLabelError):
            load_binary(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [1.0, float("nan")])])
        with pytest.raises(ValueError):
            load_binary(p)
        write_reference_binary(p, [("a", [float("inf"), 0.0])])
        with pytest.raises(ValueError):
            load_binary(p)

    def test_label_bytes_survive_round_trip(self, tmp_path):
        # labels are raw bytes apart from space/newline
        raw = b"1 2\n" + b"caf\xe9\xff " + struct.pack("<2f", 1.0, 2.0)
        p = tmp_path / "t.bin"
        p.write_bytes(raw)
        table = load_binary(p)
        out = tmp_path / "o.bin"
        save_binary(table, out)
        assert out.read_bytes() == raw

    def test_save_rejects_whitespace_labels(self, tmp_path):
        table = EmbeddingTable.from_pairs([("a b", [1.0])])
        with pytest.raises(FormatError):
            save_binary(table, tmp_path / "x.bin")

    @pytest.mark.parametrize("save", [save_binary, save_text], ids=["binary", "text"])
    @pytest.mark.parametrize("label", [
        "a\ud800",  # a lone surrogate has no byte form
        "caf\udcc3\udca9",  # escaped bytes that spell "é" would read back as "café"
    ], ids=["lone-surrogate", "escaped-utf8"])
    def test_save_rejects_labels_that_cannot_read_back(self, tmp_path, save, label):
        table = EmbeddingTable.from_pairs([(label, [1.0])])
        with pytest.raises(FormatError):
            save(table, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_normalize_flag(self, tmp_path):
        # `embed convert --normalize` writes what `normalized()` gives on the loaded table
        p = tmp_path / "t.bin"
        write_reference_binary(p, [("a", [3.0, 4.0]), ("z", [0.0, 0.0])])
        r = CliRunner().invoke(cli, ["embed", "convert", "--in", str(p), "--out", str(tmp_path / "u.bin"),
                                     "--normalize"])
        assert r.exit_code == 0, r.output
        save_binary(load_binary(p).normalized(), tmp_path / "expected.bin")
        assert (tmp_path / "u.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()
        table = load_binary(tmp_path / "u.bin")
        np.testing.assert_allclose(table.vector("a"), [0.6, 0.8], atol=1e-7)
        np.testing.assert_array_equal(table.vector("z"), [0.0, 0.0])


class TestText:
    def test_simple_parse(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a 1.0 2.0\n", "utf-8")
        table = load_text(p)
        assert table.dim == 2
        np.testing.assert_array_equal(table.vector("a"), np.float32([1, 2]))

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a 1.0 2.0 3.0\nb 1.0 2.0\n", "utf-8")
        with pytest.raises(FormatError):
            load_text(p)

    def test_bad_float(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a 1.0 zap\n", "utf-8")
        with pytest.raises(FormatError):
            load_text(p)

    def test_text_round_trip_exact_for_float32(self, tmp_path, make_table):
        table = make_table(30, 6)
        p = tmp_path / "t.txt"
        save_text(table, p)
        again = load_text(p)
        # 9 significant digits round-trip float32 exactly
        assert again == table

    def test_text_binary_cross_round_trip(self, tmp_path, make_table):
        table = make_table(25, 4)
        pb, pt = tmp_path / "t.bin", tmp_path / "t.txt"
        save_binary(table, pb)
        save_text(table, pt)
        tb, tt = load_binary(pb), load_text(pt)
        assert tb.labels == tt.labels
        np.testing.assert_allclose(tb.matrix, tt.matrix, atol=1e-6)

    def test_empty_refused(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("", "utf-8")
        with pytest.raises(FormatError):
            load_text(p)


class TestLookup:
    def test_hit_and_miss(self):
        table = EmbeddingTable.from_pairs([("a", [1.0])])
        assert "a" in table
        np.testing.assert_array_equal(table.vector("a"), np.float32([1.0]))
        assert "b" not in table

    def test_lookup_matches_raw_bytes(self, tmp_path, rng):
        values = {f"w{i}": rng.standard_normal(3).astype(np.float32) for i in range(10)}
        entries = [(k, [float(x) for x in v]) for k, v in values.items()]
        p = tmp_path / "t.bin"
        write_reference_binary(p, entries)
        table = load_binary(p)
        raw = p.read_bytes()
        body = raw[raw.find(b"\n") + 1 :]
        offset = 0
        for label, _vals in entries:
            offset += len(label.encode()) + 1
            expected = np.frombuffer(body, dtype="<f4", count=3, offset=offset)
            np.testing.assert_array_equal(table.vector(label), expected)
            offset += 12

    def test_lookup_independent_of_insertion_order(self, rng):
        pairs = [(f"w{i}", rng.standard_normal(4)) for i in range(30)]
        want = {label: np.asarray(v, dtype=np.float32) for label, v in pairs}
        for _ in range(5):
            perm = rng.permutation(len(pairs))
            table = EmbeddingTable.from_pairs([pairs[i] for i in perm])
            for label, expected in want.items():
                np.testing.assert_array_equal(table.vector(label), expected)

    def test_vector_raises_missing_label(self):
        table = EmbeddingTable.from_pairs([("a", [1.0])])
        with pytest.raises(MissingLabelError):
            table.vector("nope")


class TestTableInvariants:
    def test_dim_mismatch_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingTable.from_pairs([("a", [1.0, 2.0]), ("b", [1.0])])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateLabelError):
            EmbeddingTable.from_pairs([("a", [1.0]), ("a", [2.0])])

    def test_non_finite_names_the_first_bad_row(self):
        matrix = np.ones((3 * BLOCK_ROWS, 2), dtype=np.float32)
        matrix[BLOCK_ROWS + 7, 1] = np.inf
        matrix[2 * BLOCK_ROWS + 1, 0] = np.nan
        labels = [f"w{i}" for i in range(len(matrix))]
        with pytest.raises(NonFiniteError, match=f"'w{BLOCK_ROWS + 7}'"):
            EmbeddingTable(2, labels, matrix)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 2])
    def test_one_non_finite_value_names_its_row(self, value, row):
        matrix = np.full((2 * BLOCK_ROWS + 3, 3), -2.0, dtype=np.float32)
        matrix[row, 1] = value
        labels = [f"w{i}" for i in range(len(matrix))]
        with pytest.raises(NonFiniteError) as e:
            EmbeddingTable(3, labels, matrix)
        assert str(e.value) == f"non-finite value in vector for label 'w{row}'"

    def test_extreme_finite_values_are_accepted(self):
        # finite, though a float32 sum of them overflows
        big = np.finfo(np.float32).max
        matrix = np.tile(np.array([big, -big, big], dtype=np.float32), (BLOCK_ROWS + 1, 1))
        table = EmbeddingTable(3, [f"w{i}" for i in range(len(matrix))], matrix)
        assert table.matrix.tobytes() == matrix.tobytes()

    def test_rows_are_read_only(self):
        table = EmbeddingTable.from_pairs([("a", [1.0])])
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Property tests: round-trips over arbitrary labels and shapes, and damaged
# binary files

# any code point, lone surrogates and whitespace included
ANY_CHAR = st.characters(exclude_categories=())
# what each format can carry: binary labels are bytes apart from 0x20/0x0A,
# text labels are split on any whitespace
BINARY_CHAR = st.characters(exclude_categories=("Cs",), exclude_characters=" \n")
TEXT_CHAR = st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace())
FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw, alphabet, min_rows=0):
    dim = draw(st.integers(1, 5))
    labels = draw(st.lists(
        st.text(alphabet, min_size=1, max_size=6), min_size=min_rows, max_size=6, unique=True
    ))
    values = draw(st.lists(FLOAT32, min_size=len(labels) * dim, max_size=len(labels) * dim))
    return EmbeddingTable(dim, labels, np.array(values, dtype=np.float32).reshape(-1, dim))


def same_table(a, b):
    # bit equality, so -0.0 and subnormals must survive too
    return a.dim == b.dim and a.labels == b.labels and a.matrix.tobytes() == b.matrix.tobytes()


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    # module-scoped: every example of a property test reuses one directory
    return tmp_path_factory.mktemp("io_properties")


def check_binary_round_trip(path, table):
    save_binary(table, path)
    raw = path.read_bytes()
    loaded = load_binary(path)
    assert same_table(loaded, table)
    save_binary(loaded, path)
    assert path.read_bytes() == raw


@given(table=tables(BINARY_CHAR))
def test_binary_round_trip(io_dir, table):
    check_binary_round_trip(io_dir / "t.bin", table)


# reads of a few bytes, so labels, vectors and per-entry newlines straddle them
SMALL_CHUNKS = [1, 2, 3, 5]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@given(table=tables(BINARY_CHAR))
def test_binary_round_trip_in_small_chunks(io_dir, chunk, table):
    path = io_dir / "t.bin"
    with mock.patch.object(embed_io, "_CHUNK", chunk):
        check_binary_round_trip(path, table)
        entries = [label.encode("utf-8") + b" " + row.tobytes() + b"\n"
                   for label, row in zip(table.labels, table.matrix)]
        path.write_bytes(f"{len(table)} {table.dim}\n".encode("ascii") + b"".join(entries))
        assert same_table(load_binary(path), table)


@given(table=tables(TEXT_CHAR))
def test_text_round_trip(io_dir, table):
    path = io_dir / "t.txt"
    path.unlink(missing_ok=True)
    if not len(table):
        with pytest.raises(FormatError, match="no rows has no text form"):
            save_text(table, path)
        assert not path.exists()
        return
    save_text(table, path)
    assert same_table(load_text(path), table)


@pytest.mark.parametrize("save, load", [(save_binary, load_binary), (save_text, load_text)], ids=["binary", "text"])
@given(table=tables(ANY_CHAR, min_rows=1))
def test_save_refuses_or_round_trips(io_dir, save, load, table):
    """A label the format cannot carry is refused on save, never written
    into a file that loads as something else or fails to load."""
    path = io_dir / "any"
    path.unlink(missing_ok=True)
    try:
        save(table, path)
    except FormatError:
        assert not path.exists()  # no partial file that loads as fewer rows
        return
    assert same_table(load(path), table)


DAMAGES = ["value", "repeat", "truncate", "overwrite", "copy", "insert", "header", "garbage"]


@st.composite
def damaged_binaries(draw):
    table = draw(tables(BINARY_CHAR, min_rows=1))
    entries = [label.encode("utf-8") + b" " + row.tobytes()
               for label, row in zip(table.labels, table.matrix)]
    raw = bytearray(f"{len(table)} {table.dim}\n".encode("ascii") + b"".join(entries))
    return damaged(draw, draw(st.sampled_from(DAMAGES)), raw, entries, len(table), table.dim)


def damaged(draw, damage, raw, entries, count, dim):
    """``raw``, the file of ``count`` ``entries`` of dimension ``dim``, with one ``damage``."""
    if damage == "value":  # one vector component becomes NaN, an infinity or any float
        at = len(raw) - draw(st.integers(1, count * dim)) * 4
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(width=32))
        raw[at:at + 4] = struct.pack("<f", value)
    elif damage == "repeat":  # an entry written twice, the count raised to match
        raw[:raw.index(b"\n")] = f"{count + 1} {dim}".encode("ascii")
        raw += draw(st.sampled_from(entries))
    elif damage == "truncate":
        del raw[draw(st.integers(raw.index(b"\n") + 1, len(raw) - 1)):]
    elif damage == "overwrite":
        at = draw(st.integers(0, len(raw) - 1))
        chunk = draw(st.binary(min_size=1, max_size=8))
        raw[at:at + len(chunk)] = chunk
    elif damage == "copy":  # a piece of the file over a later place in it
        start, stop, at = sorted(draw(st.integers(0, len(raw))) for _ in range(3))
        raw[at:at + stop - start] = raw[start:stop]
    elif damage == "insert":
        at = draw(st.integers(0, len(raw)))
        raw[at:at] = draw(st.binary(min_size=1, max_size=8))
    elif damage == "header":
        count, dim = draw(st.integers(0, 10**25)), draw(st.integers(0, 10**25))
        raw[:raw.index(b"\n") + 1] = f"{count} {dim}\n".encode("ascii")
    elif damage == "garbage":
        raw = bytearray(draw(st.binary(max_size=64)))
    return bytes(raw)


def load_outcome(path, load=load_binary):
    """The loaded table's bits, or the error's type and message."""
    try:
        table = load(path)
    except FormatError as e:
        return type(e), str(e)
    assert isinstance(table, EmbeddingTable)
    return table.dim, table.labels, table.matrix.tobytes()


@given(raw=damaged_binaries())
def test_damaged_binary_raises_only_format_errors(io_dir, raw):
    path = io_dir / "damaged.bin"
    path.write_bytes(raw)
    load_outcome(path)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@given(raw=damaged_binaries())
def test_damaged_binary_in_small_chunks_fails_the_same(io_dir, chunk, raw):
    """Read a few bytes at a time, a file loads to the same bits or fails with
    the same error as when it is read in one piece."""
    path = io_dir / "damaged.bin"
    path.write_bytes(raw)
    whole = load_outcome(path)
    with mock.patch.object(embed_io, "_CHUNK", chunk):
        assert load_outcome(path) == whole


# ---------------------------------------------------------------------------
# The block writer and the bulk label decoding against the per-entry writer
# and reader they replaced, kept here as the byte-level reference.  Long run:
#   pytest tests/test_embed_io.py -k per_entry --hypothesis-profile semlink-fuzz


def reference_save_binary(table, path):
    """One entry per write, each label encoded and checked on its own."""
    with open(path, "wb") as fh:
        fh.write(f"{len(table)} {table.dim}\n".encode("ascii"))
        for label, row in zip(table.labels, table.matrix):
            fh.write(embed_io._encode_label(label) + b" " + row.tobytes())


def reference_load_binary(path):
    """Each label decoded and each vector copied on its own, with the checks
    of `load_binary` in its order."""
    with open(path, "rb") as fh:
        count, dim = embed_io._read_header(fh, path)
        vec_bytes = dim * 4
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * (2 + vec_bytes) > body:
            raise TruncatedError(
                f"header promises {count} entries of dimension {dim}, but only {body} bytes follow it", path=path
            )
        labels = []
        matrix = np.empty((count, dim), dtype="<f4")
        buf, pos = b"", 0
        for i in range(count):
            sp = buf.find(b" ", pos)
            while sp < 0:
                searched = len(buf) - pos
                buf, pos = buf[pos:], 0
                buf += fh.read(embed_io._CHUNK)
                if len(buf) == searched:
                    raise TruncatedError(f"file ends inside entry {i}", path=path)
                sp = buf.find(b" ", searched)
            raw = buf[pos:sp]
            if not raw:
                raise FormatError(f"empty label in entry {i}", path=path)
            if b"\n" in raw:
                raise FormatError(f"label in entry {i} contains a newline", path=path)
            pos = sp + 1
            if len(buf) - pos < vec_bytes:
                buf, pos = buf[pos:], 0
                buf += fh.read(max(embed_io._CHUNK, vec_bytes - len(buf)))
                if len(buf) < vec_bytes:
                    raise TruncatedError(f"file ends inside vector of entry {i}", path=path)
            matrix[i] = np.frombuffer(buf, dtype="<f4", count=dim, offset=pos)
            labels.append(embed_io._decode_label(raw))
            pos += vec_bytes
            if pos == len(buf):
                buf, pos = fh.read(embed_io._CHUNK), 0
            if pos < len(buf) and buf[pos] == 0x0A:
                pos += 1
        trailing = len(buf) - pos
        while chunk := fh.read(embed_io._CHUNK):
            trailing += len(chunk)
    if trailing:
        raise FormatError(f"{trailing} trailing bytes after last entry", path=path)
    return embed_io._loaded_table(path, dim, labels, matrix)


# table sizes around one block
BLOCK_SIZES = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]
# ASCII, multi-byte characters and escaped bytes; "\udcc3\udca9" spells "é"
# in UTF-8 and does not read back, "\udce2\udc82" is a cut-off sequence that does
LABEL_PIECES = ["a", "é", "€", "𝄞", "\udcff", "\udce9", "\udcc3", "\udca9", "\udce2", "\udc82"]
REFUSED_LABELS = {"space": "a b", "newline": "a\nb", "empty": "", "unencodable": "a\ud800",
                  "not round-tripping": "caf\udcc3\udca9"}
# the same on disk, non-UTF-8 bytes and a UTF-8-encoded surrogate included
RAW_PIECES = [b"a", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9d\x84\x9e", b"\xff", b"\xc3", b"\xa9", b"\xe2\x82",
              b"\xed\xa0\x80"]


@st.composite
def block_tables(draw):
    """A table of a size around one block, with drawn labels at drawn places
    and maybe one label of each refused kind at a drawn place."""
    n = draw(st.sampled_from(BLOCK_SIZES))
    dim = draw(st.integers(1, 3))
    labels = [f"r{i}" for i in range(n)]
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, dim)).astype(np.float32)
    if not n:
        return EmbeddingTable(dim, labels, values)
    drawn = st.lists(st.sampled_from(LABEL_PIECES), min_size=1, max_size=3).map("".join)
    for label in draw(st.lists(drawn, max_size=4, unique=True)):
        labels[draw(st.integers(0, n - 1))] = label
    refused = draw(st.lists(st.sampled_from(sorted(REFUSED_LABELS)), max_size=2, unique=True))
    places = {kind: draw(st.integers(0, n - 1)) for kind in refused}
    for kind, at in places.items():
        if kind != "empty":
            labels[at] = REFUSED_LABELS[kind]
    table = EmbeddingTable(dim, labels, values)
    if "empty" in places:
        # the table refuses an empty label: put it where only a writer meets it
        table.labels[places["empty"]] = ""
    return table


def save_outcome(save, table, path):
    """The written bytes, or the error's type and message."""
    path.unlink(missing_ok=True)
    try:
        save(table, path)
    except FormatError as e:
        return type(e), str(e)
    return path.read_bytes()


@given(table=block_tables())
def test_block_save_writes_what_the_per_entry_writer_writes(io_dir, table):
    """The same bytes, or the same error naming the same first refused
    label, and then no file."""
    got = save_outcome(save_binary, table, io_dir / "block.bin")
    assert got == save_outcome(reference_save_binary, table, io_dir / "reference.bin")
    assert isinstance(got, bytes) == (io_dir / "block.bin").exists()


@st.composite
def block_binaries(draw):
    """The file of a table of a size around one block, labels of any bytes
    but 0x20 and 0x0A, maybe with per-entry newlines, intact or damaged."""
    n = draw(st.sampled_from(BLOCK_SIZES))
    dim = draw(st.integers(1, 3))
    labels = [b"r%d" % i for i in range(n)]
    if n:
        drawn = st.lists(st.sampled_from(RAW_PIECES), min_size=1, max_size=3).map(b"".join)
        for label in draw(st.lists(drawn, max_size=4, unique=True)):
            labels[draw(st.integers(0, n - 1))] = label
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, dim)).astype(np.float32)
    end = b"\n" if draw(st.booleans()) else b""
    entries = [label + b" " + row.tobytes() + end for label, row in zip(labels, values)]
    raw = bytearray(f"{n} {dim}\n".encode("ascii") + b"".join(entries))
    return damaged(draw, draw(st.sampled_from([None, *DAMAGES])) if n else None, raw, entries, n, dim)


@pytest.mark.parametrize("chunk", [embed_io._CHUNK, 5])
@given(raw=block_binaries())
def test_load_reads_what_the_per_entry_reader_reads(io_dir, chunk, raw):
    """The same table bit for bit, or the same error naming the same entry."""
    path = io_dir / "block.bin"
    path.write_bytes(raw)
    with mock.patch.object(embed_io, "_CHUNK", chunk):
        assert load_outcome(path) == load_outcome(path, reference_load_binary)


@pytest.mark.parametrize("n", [0, 1, 5, 6])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_read_blocks_are_the_table_in_consecutive_blocks(tmp_path, rng, n, rows):
    table = EmbeddingTable(3, [f"v{i}" for i in range(n)], rng.standard_normal((n, 3)).astype(np.float32))
    save_binary(table, tmp_path / "t.bin")
    if n:  # an empty table has no text form
        save_text(table, tmp_path / "t.txt")
    with mock.patch.object(embed_io, "BLOCK_ROWS", rows):
        blocks = list(embed_io.read_blocks(tmp_path / "t.bin"))
        text_blocks = list(embed_io.read_blocks(tmp_path / "t.txt")) if n else None
    # an empty table is one empty block
    assert [len(b) for b in blocks] == [min(rows, n - start) for start in range(0, max(n, 1), rows)]
    assert sum((b.labels for b in blocks), []) == table.labels
    assert np.concatenate([b.matrix for b in blocks]).tobytes() == table.matrix.tobytes()
    if n:  # an empty text table has no dimension to read back
        assert text_blocks == [table]  # a text table is one block


@pytest.mark.parametrize("labels, rows", [(b"a b a", 2), (b"a b a", 3), (b"a b c b", 2)])
def test_read_blocks_refuse_a_label_of_an_earlier_block(tmp_path, labels, rows):
    labels = labels.split()
    path = tmp_path / "t.bin"
    path.write_bytes(f"{len(labels)} 1\n".encode() + b"".join(label + b" " + struct.pack("<f", 1.0) for label in labels))
    with mock.patch.object(embed_io, "BLOCK_ROWS", rows), pytest.raises(DuplicateLabelError) as e:
        list(embed_io.read_blocks(path))
    assert e.value.path == path


# ---------------------------------------------------------------------------
# Memory: no load, save, normalisation or blend holds a second copy of a table

MiB = 1 << 20


def traced(fn):
    """``(result, bytes held after, peak bytes)`` of ``fn()``, from a zero start."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def big_table_path(tmp_path_factory):
    rng = np.random.default_rng(5)
    n, dim = 3000, 300
    table = EmbeddingTable(dim, [f"ent{i:06d}" for i in range(n)], rng.standard_normal((n, dim)).astype(np.float32))
    path = tmp_path_factory.mktemp("big") / "t.bin"
    save_binary(table, path)
    return path


def test_load_binary_holds_the_table_and_a_chunk(big_table_path):
    table, held, peak = traced(lambda: load_binary(big_table_path))
    # the table (matrix, labels and index) is what stays held
    assert table.matrix.nbytes <= held <= table.matrix.nbytes + 1 * MiB
    # one chunk read, and the buffer it is joined onto
    assert peak <= held + 2 * embed_io._CHUNK + MiB // 2


def test_save_binary_holds_no_copy_of_the_file(big_table_path, tmp_path):
    table = load_binary(big_table_path)
    _, _, peak = traced(lambda: save_binary(table, tmp_path / "o.bin"))
    assert peak <= 1 * MiB
    assert (tmp_path / "o.bin").read_bytes() == big_table_path.read_bytes()


def test_normalized_holds_its_result_and_one_float64_block(big_table_path):
    table = load_binary(big_table_path)
    table.row_norms()
    unit, held, peak = traced(table.normalized)
    assert unit.matrix.nbytes <= held
    assert peak <= held + BLOCK_ROWS * table.dim * 8 + MiB // 4
    expected = (table.matrix / table.row_norms()[:, None]).astype(np.float32)
    assert unit.matrix.tobytes() == expected.tobytes()


def test_aggregate_stage_holds_one_entity_table(big_table_path, tmp_path):
    """The stage blends each block of the semantic table into the base table
    it loads, so its peak stays within that table, the word table and the
    assignments the semantic table comes from, and a few blocks: not two
    tables."""
    table = load_binary(big_table_path)
    rng = np.random.default_rng(6)
    words = EmbeddingTable(table.dim, [f"w{i}" for i in range(200)],
                           rng.standard_normal((200, table.dim)).astype(np.float32))
    save_binary(words, tmp_path / "words.bin")
    # 0 to 11 type words each, so some entities have none
    assignments = {label: EntityTypeAssignment(label, [f"w{j}" for j in rng.choice(200, i % 12, replace=False)])
                   for i, label in enumerate(table.labels)}
    write_assignments(assignments, tmp_path / "types.tsv")
    _, words_held, _ = traced(lambda: load_binary(tmp_path / "words.bin"))
    _, types_held, _ = traced(lambda: read_assignments(tmp_path / "types.tsv"))
    pipeline.run_stage("semantic", {"words": tmp_path / "words.bin", "types_file": tmp_path / "types.tsv"},
                       {"T": 11, "alpha": 0.2}, [tmp_path / "semantic.bin"])
    inputs = {"wikitext": big_table_path, "semantic": tmp_path / "semantic.bin"}
    reinforced, _, peak = traced(
        lambda: pipeline.run_stage("aggregate", inputs, {"alpha": 0.2}, [tmp_path / "r.bin"])
    )
    assert peak <= table.matrix.nbytes + words_held + types_held + 3 * MiB
    assert reinforced.labels == table.labels


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="fixes glibc malloc's thresholds")
def test_a_freed_table_stays_resident_nowhere():
    """Importing embed_io fixes glibc's mmap threshold below a table's size.
    With the threshold sliding up to each freed mapping, the second table
    would land on the heap, and its pages would stay after the free."""
    def resident_mb():
        return int(re.search(r"VmRSS:\s+(\d+)", Path("/proc/self/status").read_text())[1]) / 1024

    for _ in range(3):
        before = resident_mb()
        matrix = np.ones((10_000, 300), dtype=np.float32)  # 12 MB, every page touched
        del matrix
        assert resident_mb() - before < 2


FREE_HEAP_CHILD = """
import re, sys
import numpy as np
from semlink.embed_io import load_binary

def resident_mb():
    return int(re.search(r"VmRSS:\\s+(\\d+)", open("/proc/self/status").read())[1]) / 1024

blocks = [np.ones(25_000) for _ in range(40)]  # 8 MB in 200 kB heap blocks, every page touched
pin = np.ones(1_000)  # a live block above them, so their free pages are not the heap's top
held = resident_mb()
del blocks
kept = held - resident_mb()
load_binary(sys.argv[1])
print(kept, held - resident_mb())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="returns glibc's free heap pages")
def test_a_binary_load_returns_the_free_heap_pages(tmp_path):
    """Free heap below a block still in use stays resident at any trim
    threshold; a binary load hands those pages back before it reads its table."""
    save_binary(EmbeddingTable(2, ["a"], np.ones((1, 2), dtype=np.float32)), tmp_path / "t.bin")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", FREE_HEAP_CHILD, str(tmp_path / "t.bin")],
                         env=env, capture_output=True, text=True, check=True)
    freed, returned = map(float, out.stdout.split())
    assert freed < 1 and returned > 6
