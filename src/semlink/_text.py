"""Text input, output and tokenization shared by every text file.

Text inputs are UTF-8 with universal newlines.  `read_lines` streams a
file's non-empty lines, `tsv_fields` splits one, and `read_all` reads a
small file whole; a byte that is not UTF-8 is a `FormatError` naming the
file and line.  `unbroken` refuses a field that holds a tab or a line
break, and `COUNT_FIELD` is the one form of a count in a header or a field.

Every output file is written through `replacing`: each target gets a temp
file beside it, renamed over the target only once every temp file is
written and synced, so a failure that raises leaves every target as it was.
Each target's directory is synced after the renames, so a rename is on
disk before anything written later, such as the manifest entry that
records it.  A killed process may leave some targets renamed and others
not; the pipeline's manifest has not recorded such a stage, so its rerun
writes every output of the stage again.  Text outputs are UTF-8 with ``\n``
newlines; `write_lines` and `write_files` (several outputs, all or nothing)
encode the whole text first, so a line with no UTF-8 form is a
`FormatError` naming the file, line and text.
`json_lines` gives one JSON value, indented and with sorted keys, as lines.

A token is a maximal run of ``[a-z0-9_']`` in the lowercased text; every
other character separates tokens.  `tokenize` applies that rule without a
regex: it lowercases, encodes to UTF-8 and maps each byte through a
256-entry table that keeps the token bytes and turns every other byte into
a space, then splits on the spaces.  Every byte of a non-ASCII character's
UTF-8 form is >= 0x80, so such a character separates tokens exactly as the
regex ``[a-z0-9_']+`` treats it; case mappings onto ASCII (KELVIN SIGN ->
``k``) happen in ``lower()`` before the table is applied.
"""

import contextlib
import errno
import hashlib
import json
import os
import re

from .errors import FormatError

_TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789_'"
_TOKEN_TABLE = bytes(b if b in _TOKEN_BYTES else 0x20 for b in range(256))

# Deliberately split at the first terminator; fixtures are pre-stripped plain
# text, so abbreviation handling is out of scope here.
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+")
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# what splits a TSV field or line as `read_lines` reads it
FIELD_BREAK = re.compile("[\t\n\r]")
# a count field of a header or a TSV line: ASCII digits only, since int() also
# reads '+1', '1_0' and other scripts' digits, and at most 18 of them, so that
# neither int() (which refuses over 4300) nor a size computed from it overflows
COUNT_FIELD = re.compile("[0-9]{1,18}")


def tokenize(text):
    """Lowercase and split on whitespace/punctuation, keeping _ and '."""
    # surrogatepass: a lone surrogate encodes to three bytes >= 0x80, which
    # the table turns into separators
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_TABLE).decode("ascii").split()


def split_first_sentence(text):
    """Return (first_sentence, remainder) of a plain-text article body."""
    text = text.strip()
    m = _SENTENCE_END_RE.search(text)
    if m is None:
        return text, ""
    return text[: m.start()], text[m.end() :]


def read_lines(path, comments=False):
    """``(line_no, line)`` of each non-empty line, newline dropped; with
    ``comments``, ``#`` to the end of the line and the whitespace before it too."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if comments:
                    line = line.split("#", 1)[0].rstrip()
                if line:
                    yield line_no, line
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def read_all(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def write_lines(path, lines) -> None:
    """Write each of ``lines`` and a newline to ``path``, once all are built and encoded."""
    write_files([(path, lines)])


def write_files(outputs) -> None:
    """Write each ``(path, lines)`` of ``outputs`` as `write_lines` does, all
    or nothing: every text is built and encoded before the first is written."""
    encoded = [(path, _encoded(path, lines)) for path, lines in outputs]
    with replacing([path for path, _ in encoded]) as handles:
        for fh, (_, data) in zip(handles, encoded):
            fh.write(data)


@contextlib.contextmanager
def replacing(paths):
    """One binary handle per target of ``paths``, each on a new temp file beside
    it.  Once the body has written them, each is synced and renamed over its
    target, and then each target's directory is synced once (on POSIX); on
    any failure that raises before the renames, every temp file goes, and
    every target stays.  A directory sync that fails raises its `OSError`
    with the targets renamed.

    A target's temp name is fixed by the target's name, and a stale file of
    that name, left by a killed writer, is removed first.  So a kill leaves
    at most one temp file per target, which the next write of that target
    removes; and only one writer may use a target at a time.
    """
    targets = [os.path.realpath(p) for p in paths]
    for k, target in enumerate(targets):
        if target in targets[:k]:
            raise OSError(errno.EINVAL, "output named twice", target)
        if os.path.exists(target) and not os.path.isfile(target):
            raise OSError(errno.EISDIR if os.path.isdir(target) else errno.EINVAL, "not a regular file", target)
    handles = []
    try:
        for head, tail in map(os.path.split, targets):
            # a short name, so that a target at the name length limit fits, and
            # a digest of the whole name, so that long names sharing a start differ
            temp = os.path.join(head, f".{tail[:32]}.{hashlib.sha256(os.fsencode(tail)).hexdigest()[:16]}.tmp")
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)  # a symlink goes, not the file it points to
            # created exclusively, with the permissions `open(target, "wb")` gives
            handles.append(open(temp, "xb"))
        yield handles
        for fh in handles:
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
        for fh, target in zip(handles, targets):
            os.replace(fh.name, target)
        if os.name == "posix":
            # a rename is durable only once its directory is synced
            for head in dict.fromkeys(map(os.path.dirname, targets)):
                fd = os.open(head, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
    except BaseException:
        for fh in handles:
            with contextlib.suppress(OSError):  # close may flush into a full disk
                fh.close()
            with contextlib.suppress(FileNotFoundError):  # renamed already
                os.unlink(fh.name)
        raise


def _encoded(path, lines) -> bytes:
    text = "".join(f"{line}\n" for line in lines)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as e:
        line_no = text.count("\n", 0, e.start) + 1
        line = text.split("\n", line_no)[line_no - 1]
        raise FormatError(f"text with no UTF-8 form: {line!r}", path=path, line=line_no) from None


def json_lines(payload) -> list[str]:
    """One JSON value, indented and with sorted keys, as the lines to write."""
    return [json.dumps(payload, indent=2, sort_keys=True)]


def tsv_fields(line, count, path, line_no, expected=None) -> list[str]:
    """The ``count`` tab-separated fields of ``line``, else a `FormatError` saying ``expected``."""
    fields = line.split("\t")
    if len(fields) != count:
        expected = expected or f"expected {count} tab-separated fields, found {len(fields)}"
        raise FormatError(expected, path=path, line=line_no)
    return fields


def unbroken(text: str, what: str, path=None, line=None) -> str:
    """``text``; one holding a tab or a line break, which would split the TSV
    field or line it is written to, is a `FormatError` naming it as ``what``."""
    if FIELD_BREAK.search(text):
        raise FormatError(f"{what} {text!r} holds a tab or a line break", path=path, line=line)
    return text


def _not_utf8(path) -> FormatError:
    """The error at the first byte of ``path`` that is not UTF-8.  Decoded with
    surrogateescape, lines split as before and each bad byte is one surrogate."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if bad := _ESCAPED_BYTE.search(line):
                return FormatError(f"not UTF-8 text (byte 0x{ord(bad[0]) - 0xDC00:02x})", path=path, line=line_no)
    return FormatError("not UTF-8 text", path=path)
