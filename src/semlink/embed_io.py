"""Reading, writing, and lookup of word/entity embedding tables.

Two on-disk formats are supported:

* binary (word2vec-compatible): an ASCII header line ``"<count> <dim>\\n"``
  followed by ``count`` entries of ``label bytes, 0x20, dim little-endian
  float32``.  A single 0x0A after an entry is tolerated on read; writes never
  emit it, so round-trips are byte-identical for files in that canonical
  form.  A load reads the file in chunks of `_CHUNK` bytes, copies each
  vector's bytes straight into the table's matrix, so it holds the table
  plus one chunk, and decodes all labels in one call at the end.  A save
  writes one block of `BLOCK_ROWS` entries at a time, its labels encoded
  and checked in one call and its vectors sliced from the matrix's bytes,
  into a temp file that replaces the target only once the table is whole
  (`_text.replacing`), so a save that fails, on a refused label or a
  failed write, leaves the old file.
* text: one ``"<label> v1 v2 ... vd"`` line per entry, floats printed with 9
  significant digits (enough to round-trip float32 exactly); a save writes
  one line at a time into a temp file that replaces the target the same way.

Labels are raw bytes apart from 0x20/0x0A; they are decoded with
surrogateescape so arbitrary dump artifacts survive a load/save cycle.
Tables are immutable after construction, so each caches its float64 row
norms on first use.  Cosine scoring (`EmbeddingTable.cosines`) and the
top-k selection over labelled scores (`top_k`) live here, shared by the
neighbour report and seed expansion.  Float64 work over a whole table, the
finiteness check and normalisation included, runs in row blocks of
`BLOCK_ROWS`, so no full-size float64 (or bool) copy is ever made.

`row_means` is the package's one mean of listed rows, shared by context
features and semantic means.  It builds one index of every item's rows per
call, padded to the longest list with row 0, gathers a chunk of items' rows
with one ``take`` of it, cut to the chunk's longest list, zeroes the pad
cells (the counts are the list lengths), and sums the chunk's positions
in one float64 ``np.add.reduce`` over the position axis, starting from
+0.0, so each mean is the same sequential ``acc += row`` chain as a loop
over the item's rows, bit for bit: numpy adds along an axis that is not its
innermost loop in sequence, and a padding row adds +0.0 to a sum that is
never -0.0.  At dimension 1 the position axis is the contiguous, innermost
one, where numpy sums pairwise (from 9 rows up), so there the positions are
added one slice at a time.  (``np.add.reduceat`` would not do: it adds a
segment's first row to the sum of the others, which rounds differently
wherever a partial sum is inexact in float64.)
"""

from __future__ import annotations

import ctypes
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._text import COUNT_FIELD, replacing
from .errors import (
    DuplicateLabelError,
    FormatError,
    MissingLabelError,
    NonFiniteError,
    TruncatedError,
)

_F32 = np.dtype("<f4")

# rows per temporary, a float64 block or the rows one `row_means` chunk
# gathers: 1.2 MB of float64 at dimension 300
BLOCK_ROWS = 512
# bytes per read of a binary table
_CHUNK = 1 << 20

# Fix glibc malloc's mmap and trim thresholds for this process.  By default
# glibc raises both each time it frees a mapped block, up to 32 MiB, so once
# one table has been freed the next ones go on the heap, where a small live
# block above a freed table keeps its pages resident.  How much stays
# resident then turns on the order of allocations, down to the length of an
# output path: one ingest run of the benchmark peaked at 72 MB or 81 MB for
# work paths 2 characters apart.  With fixed thresholds a table (12 MB at
# 10k x 300) lives in a mapping of its own, unmapped when it is freed, while
# the `BLOCK_ROWS` float64 temporaries reuse a heap that keeps up to 8 MiB
# free at its top.  Free heap below a block still in use stays resident
# whatever the threshold, so a binary load first hands the heap's free
# pages back (`malloc_trim`): a new table never adds to pages held free.
# Without that, one ingest run of the benchmark peaked at 73 MB or 79 MB
# depending on the length of its work path.  Other C libraries are left alone.
_malloc_trim = None
if sys.platform == "linux" and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD
    _libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _malloc_trim = getattr(_libc, "malloc_trim", None)


class EmbeddingTable:
    """Named dense vectors of a fixed dimension, in insertion order."""

    def __init__(self, dim: int, labels: Iterable[str] = (), matrix: Optional[np.ndarray] = None):
        if int(dim) < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        labels = list(labels)
        if matrix is None:
            matrix = np.empty((0, self.dim), dtype=_F32)
        matrix = np.ascontiguousarray(matrix, dtype=_F32)
        if matrix.shape != (len(labels), self.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(labels)} labels of dimension {self.dim}"
            )
        for start in range(0, len(matrix), BLOCK_ROWS):
            block = matrix[start : start + BLOCK_ROWS]
            # min and max carry NaN and show inf: search the rows only then
            if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                bad = start + int(np.argmin(np.isfinite(block).all(axis=1)))
                raise NonFiniteError(f"non-finite value in vector for label {labels[bad]!r}")
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not label:
                raise FormatError("empty label")
            if label in index:
                raise DuplicateLabelError(f"duplicate label {label!r}")
            index[label] = i
        self.labels = labels
        self.matrix = matrix
        self.matrix.flags.writeable = False
        self._index = index
        self._norms: Optional[np.ndarray] = None

    @classmethod
    def from_pairs(cls, pairs, dim: Optional[int] = None) -> "EmbeddingTable":
        labels, rows = [], []
        for label, values in pairs:
            labels.append(label)
            rows.append(np.asarray(values, dtype=np.float64))
        if dim is None:
            if not rows:
                raise ValueError("cannot infer dimension from an empty table")
            dim = len(rows[0])
        for label, row in zip(labels, rows):
            if row.shape != (dim,):
                raise FormatError(f"vector for {label!r} has length {row.size}, expected {dim}")
        matrix = np.array(rows, dtype=_F32).reshape(len(rows), dim)
        return cls(dim, labels, matrix)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.labels == other.labels
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self) -> str:
        return f"EmbeddingTable(entries={len(self)}, dim={self.dim})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise MissingLabelError(f"label {label!r} not in table") from None

    def vector(self, label: str) -> np.ndarray:
        """Row for ``label``; raises MissingLabelError when absent."""
        return self.matrix[self.index(label)]

    def row_norms(self) -> np.ndarray:
        """Read-only float64 L2 norm of every row, computed once per table."""
        if self._norms is None:
            norms = np.empty(len(self))
            for start in range(0, len(self), BLOCK_ROWS):
                block = self.matrix[start : start + BLOCK_ROWS].astype(np.float64)
                norms[start : start + len(block)] = np.linalg.norm(block, axis=1)
            norms.flags.writeable = False
            self._norms = norms
        return self._norms

    def cosines(self, query, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Float64 cosine of every row (or of ``rows``) to ``query``.

        Zero rows and a zero query score 0.
        """
        norms = self.row_norms() if rows is None else self.row_norms()[rows]
        q = np.asarray(query, dtype=np.float64)
        qn = np.linalg.norm(q)
        if qn == 0.0:
            return np.zeros(len(norms))
        dots = np.empty(len(norms))
        for start in range(0, len(norms), BLOCK_ROWS):
            part = slice(start, start + BLOCK_ROWS)
            block = self.matrix[part] if rows is None else self.matrix[rows[part]]
            dots[part] = block.astype(np.float64) @ q
        scores = dots / (_zero_safe(norms) * qn)
        scores[norms == 0.0] = 0.0
        return scores

    def normalized(self) -> "EmbeddingTable":
        """Copy with L2-normalized rows; zero rows are left untouched.

        Each row is divided by its float64 norm in float64, then rounded to
        float32, one block of rows at a time.
        """
        norms = _zero_safe(self.row_norms())
        rows = np.empty_like(self.matrix)
        for start in range(0, len(self), BLOCK_ROWS):
            part = slice(start, start + BLOCK_ROWS)
            rows[part] = self.matrix[part] / norms[part, None]
        return EmbeddingTable(self.dim, list(self.labels), rows)


def row_means(
    matrix: np.ndarray, rows: Sequence[Sequence[int]]
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Float64 means of the rows of ``matrix`` that ``rows`` lists per item,
    ``(items, means, counts)`` per chunk of items.

    An item's mean adds its rows in order into a zero float64 sum and divides
    by ``max(count, 1)``, so an item with no rows gets a zero mean.  A chunk
    takes as many items as fit `BLOCK_ROWS` gathered rows at the widest item.
    """
    lengths = list(map(len, rows))
    width = max(lengths, default=0)
    all_counts = np.array(lengths, dtype=np.intp)
    # every item's rows, padded with row 0 to the widest item; the pad cells are zeroed once gathered
    index = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=sum(lengths))
    is_pad = None
    if len(index) < len(rows) * width:
        is_pad = np.arange(width) >= all_counts[:, None]
        padded = np.zeros(is_pad.shape, dtype=np.intp)
        padded[~is_pad] = index
        index = padded
    index = index.reshape(len(rows), width)
    step = max(1, BLOCK_ROWS // max(width, 1))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        used = max(lengths[part], default=0)
        gathered = matrix.take(index[part, :used], axis=0)
        if is_pad is not None:
            gathered[is_pad[part, :used]] = 0
        counts = all_counts[part]
        if matrix.shape[1] > 1:
            acc = np.add.reduce(gathered, axis=1, dtype=np.float64, initial=0.0)
        else:
            # at dim 1 the position axis is the contiguous one, which numpy sums pairwise
            acc = np.zeros((len(counts), 1))
            for k in range(used):
                acc += gathered[:, k]
        acc /= np.maximum(counts, 1)[:, None]
        yield slice(start, start + len(counts)), acc, counts


def _zero_safe(norms: np.ndarray) -> np.ndarray:
    """Norms with zeros replaced by 1, so zero vectors divide to zero."""
    return np.where(norms == 0.0, 1.0, norms)


def top_k(
    labels: Sequence[str], scores: np.ndarray, k: int, skip: Optional[int] = None
) -> list[tuple[str, float]]:
    """The ``k`` best ``(label, score)`` pairs, best first, ties by label.

    Position ``skip`` never appears.  Only the candidates scoring at or above
    the k-th best score are sorted, so ties across rank k resolve exactly as
    a full sort would.
    """
    candidates = np.arange(len(labels))
    if skip is not None:
        candidates = np.delete(candidates, skip)
    if k < len(candidates):
        kept = scores[candidates]
        kth = np.partition(kept, len(kept) - k)[len(kept) - k]
        candidates = candidates[kept >= kth]
    order = sorted(candidates.tolist(), key=lambda i: (-scores[i], labels[i]))
    return [(labels[i], float(scores[i])) for i in order[:k]]


def _decode_label(raw: bytes) -> str:
    return raw.decode("utf-8", errors="surrogateescape")


def _encode_label(label: str) -> bytes:
    try:
        raw = label.encode("utf-8", errors="surrogateescape")
    except UnicodeEncodeError:
        raise FormatError(f"label {label!r} has no byte form") from None
    if not raw:
        raise FormatError("empty label")
    if b" " in raw or b"\n" in raw:
        raise FormatError(f"label {label!r} contains whitespace")
    # escaped bytes that spell valid UTF-8 would read back as other text
    if _decode_label(raw) != label:
        raise FormatError(f"label {label!r} would not read back as itself")
    return raw


def load_binary(path) -> EmbeddingTable:
    """Load a word2vec-style binary embedding file, as one block of `_binary_blocks`."""
    (table,) = _binary_blocks(path, None)  # to the end, so the file is closed here
    return table


def read_blocks(path) -> Iterator[EmbeddingTable]:
    """The table at ``path`` as consecutive tables of at most `BLOCK_ROWS`
    entries; a text table comes as one."""
    return iter([load_text(path)]) if _is_text(path) else _binary_blocks(path, BLOCK_ROWS)


def _binary_blocks(path, rows: Optional[int]) -> Iterator[EmbeddingTable]:
    """A binary table as consecutive tables of ``rows`` entries (of all of
    them for None; an empty table is one empty block), the last one shorter.

    The file is read in chunks of `_CHUNK` bytes, and each vector's bytes are
    copied straight into its block's matrix, so a read holds one block plus
    about one chunk and one entry.  A block's labels are decoded together
    once its last entry is read, and the block is then checked as any table
    is; the last block only once no byte is found past its last entry.  A
    label repeated in a later block is a `DuplicateLabelError` naming the
    file.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)
    with open(path, "rb") as fh:
        count, dim = _read_header(fh, path)
        vec_bytes = dim * 4
        end = os.fstat(fh.fileno()).st_size
        body = end - fh.tell()
        # every entry takes at least a 1-byte label, the space and its vector
        if count * (2 + vec_bytes) > body:
            raise TruncatedError(
                f"header promises {count} entries of dimension {dim}, "
                f"but only {body} bytes follow it",
                path=path,
            )
        size, seen = rows or count, set()
        buf, pos = b"", 0
        for start in range(0, max(count, 1), max(size, 1)):
            raws: list[bytes] = []
            matrix = np.empty((min(size, count - start), dim), dtype=_F32)
            out = memoryview(matrix.reshape(-1).view(np.uint8))
            for j in range(len(matrix)):
                sp = buf.find(b" ", pos)
                while sp < 0:
                    # buf[pos:] is the start of a label: keep it and read on; the
                    # consumed bytes are dropped before the next chunk is read
                    searched = len(buf) - pos
                    buf, pos = buf[pos:], 0
                    buf += fh.read(_CHUNK)
                    if len(buf) == searched:
                        raise TruncatedError(f"file ends inside entry {start + j}", path=path)
                    sp = buf.find(b" ", searched)
                raw = buf[pos:sp]
                if not raw:
                    raise FormatError(f"empty label in entry {start + j}", path=path)
                if b"\n" in raw:
                    raise FormatError(f"label in entry {start + j} contains a newline", path=path)
                pos = sp + 1
                if len(buf) - pos < vec_bytes:
                    buf, pos = buf[pos:], 0
                    buf += fh.read(max(_CHUNK, vec_bytes - len(buf)))
                    if len(buf) < vec_bytes:
                        raise TruncatedError(f"file ends inside vector of entry {start + j}", path=path)
                out[j * vec_bytes : (j + 1) * vec_bytes] = memoryview(buf)[pos : pos + vec_bytes]
                raws.append(raw)
                pos += vec_bytes
                if pos == len(buf):
                    buf, pos = fh.read(_CHUNK), 0
                # entries may carry a single trailing newline
                if pos < len(buf) and buf[pos] == 0x0A:
                    pos += 1
            # after the last entry: what buf holds past pos and what is unread
            if start + size >= count and (trailing := end - fh.tell() + len(buf) - pos):
                raise FormatError(f"{trailing} trailing bytes after last entry", path=path)
            # no label holds 0x20, and 0x20 never sits inside a UTF-8 sequence, so
            # this splits into each label's own decoding
            labels = _decode_label(b" ".join(raws)).split(" ") if raws else []
            table = _loaded_table(path, dim, labels, matrix)
            if repeated := seen.intersection(table.labels):
                raise DuplicateLabelError(f"duplicate label {min(repeated)!r}", path=path)
            if rows:
                seen.update(table.labels)
            yield table


def _read_header(fh, path) -> tuple[int, int]:
    """``(count, dim)`` from the header line, holding at most a chunk of it."""
    head, part, is_ascii = b"", b"", True
    while not part.endswith(b"\n"):
        part = fh.readline(_CHUNK)
        if not part:
            raise FormatError("missing header line", path=path)
        is_ascii = is_ascii and part.isascii()
        # a valid header has at most 37 bytes; the error message shows 60
        head += part[: 64 - len(head)]
    if not is_ascii:
        raise FormatError("header is not ASCII", path=path)
    header = head.decode("ascii").removesuffix("\n")
    parts = header.split(" ")
    if len(parts) != 2 or not all(COUNT_FIELD.fullmatch(p) for p in parts):
        raise FormatError(f"malformed header {header[:60]!r}", path=path)
    count, dim = int(parts[0]), int(parts[1])
    if dim < 1:
        raise FormatError(f"dimension must be positive, got {dim}", path=path)
    return count, dim


def _loaded_table(path, dim, labels, matrix) -> EmbeddingTable:
    try:
        return EmbeddingTable(dim, labels, matrix)
    except FormatError as e:
        # duplicate labels or non-finite values: name the file they came from
        raise type(e)(str(e), path=path) from None


def save_binary(table: EmbeddingTable, path) -> None:
    """Write the canonical binary form (no per-entry newlines), one block of
    `BLOCK_ROWS` entries per write."""
    vec_bytes = table.dim * 4
    rows = memoryview(table.matrix.reshape(-1).view(np.uint8))
    with replacing([path]) as (fh,):
        fh.write(f"{len(table)} {table.dim}\n".encode("ascii"))
        for start in range(0, len(table), BLOCK_ROWS):
            raws = _encode_labels(table.labels[start : start + BLOCK_ROWS])
            at = range(start * vec_bytes, (start + len(raws)) * vec_bytes, vec_bytes)
            fh.write(b"".join(chain.from_iterable(
                (raw, b" ", rows[offset : offset + vec_bytes]) for raw, offset in zip(raws, at)
            )))


def _encode_labels(labels: list[str]) -> list[bytes]:
    """`_encode_label` of each label, checked together on one joined blob.

    Encoding and decoding act character by character and byte by byte
    around 0x20, so the blob passes exactly when every label would; when it
    does not, `_encode_label` finds and names the first label at fault.
    """
    joined = " ".join(labels)
    try:
        blob = joined.encode("utf-8", errors="surrogateescape")
    except UnicodeEncodeError:
        pass
    else:
        raws = blob.split(b" ")
        if len(raws) == len(labels) and all(raws) and b"\n" not in blob and _decode_label(blob) == joined:
            return raws
    return [_encode_label(label) for label in labels]


def load_text(path, dim: Optional[int] = None) -> EmbeddingTable:
    """Load a one-entry-per-line text embedding file."""
    labels: list[str] = []
    rows: list[np.ndarray] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            label, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise FormatError("entry has no values", path=path, line=line_no)
            if len(values) != dim:
                raise FormatError(
                    f"ragged row: {len(values)} values, expected {dim}",
                    path=path,
                    line=line_no,
                )
            try:
                rows.append(np.array([float(v) for v in values], dtype=_F32))
            except ValueError:
                raise FormatError("unparseable float", path=path, line=line_no) from None
            labels.append(label)
    if dim is None:
        raise FormatError("empty text table and no dimension given", path=path)
    matrix = np.array(rows, dtype=_F32).reshape(len(rows), dim)
    return _loaded_table(path, dim, labels, matrix)


def save_text(table: EmbeddingTable, path) -> None:
    """Write the text form with 9 significant digits per component.  A table
    with no rows is refused before anything is written: the text form has no
    header, so its dimension would be lost and `load_text` would refuse it."""
    if not len(table):
        raise FormatError(f"a table with no rows has no text form (dim {table.dim})", path=path)
    with replacing([path]) as (fh,):
        for label, row in zip(table.labels, table.matrix):
            # the binary format's rules, and no whitespace of any kind, since
            # the reader splits lines with str.split()
            raw = _encode_label(label)
            if any(ch.isspace() for ch in label):
                raise FormatError(f"label {label!r} contains whitespace")
            fh.write(raw + b" " + " ".join(format(float(v), ".9g") for v in row).encode("ascii") + b"\n")


def _is_text(path) -> bool:
    """Whether ``path`` names a text table (.txt/.tsv/.text); all else is binary."""
    return Path(path).suffix.lower() in (".txt", ".tsv", ".text")


def load_table(path) -> EmbeddingTable:
    return (load_text if _is_text(path) else load_binary)(path)


def save_table(table: EmbeddingTable, path) -> None:
    (save_text if _is_text(path) else save_binary)(table, path)
