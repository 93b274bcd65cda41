"""Text input, output and tokenization shared by every text file.

Text inputs are UTF-8 with universal newlines.  `read_lines` streams a
file's non-empty lines, `tsv_fields` splits one, and `read_all` reads a
small file whole; a byte that is not UTF-8 is a `FormatError` naming the
file and line.

Text outputs are UTF-8 with ``\n`` newlines.  `write_lines` builds and
encodes the whole text before it opens the file, so a failure while the
lines are computed, or a line with no UTF-8 form (a `FormatError` naming
the file, line and text), leaves the file as it was.  `write_files` does
the same for the several outputs of one command, and opens every target
before it writes the first, so one output that cannot be written leaves
none behind.  `write_json` writes one JSON value (`json_lines`) through
`write_lines`, indented and with sorted keys.

A token is a maximal run of ``[a-z0-9_']`` in the lowercased text; every
other character separates tokens.  `tokenize` applies that rule without a
regex: it lowercases, encodes to UTF-8 and maps each byte through a
256-entry table that keeps the token bytes and turns every other byte into
a space, then splits on the spaces.  Every byte of a non-ASCII character's
UTF-8 form is >= 0x80, so such a character separates tokens exactly as the
regex ``[a-z0-9_']+`` treats it; case mappings onto ASCII (KELVIN SIGN ->
``k``) happen in ``lower()`` before the table is applied.
"""

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
    or nothing: every text is built and encoded, and every file opened, before
    the first is written.  A file that cannot be opened leaves no new file."""
    encoded = [(path, _encoded(path, lines)) for path, lines in outputs]
    created = []
    try:
        for path, _ in encoded:
            new = not os.path.lexists(path)
            open(path, "ab").close()
            if new:
                created.append(path)
    except OSError:
        for path in created:
            os.unlink(path)
        raise
    for path, data in encoded:
        with open(path, "wb") as fh:
            fh.write(data)


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


def write_json(payload, path) -> None:
    write_lines(path, json_lines(payload))


def tsv_fields(line, count, path, line_no, expected=None) -> list[str]:
    """The ``count`` tab-separated fields of ``line``, else a `FormatError` saying ``expected``."""
    fields = line.split("\t")
    if len(fields) != count:
        expected = expected or f"expected {count} tab-separated fields, found {len(fields)}"
        raise FormatError(expected, path=path, line=line_no)
    return fields


def _not_utf8(path) -> FormatError:
    """The error at the first byte of ``path`` that is not UTF-8.  Decoded with
    surrogateescape, lines split as before and each bad byte is one surrogate."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if bad := _ESCAPED_BYTE.search(line):
                return FormatError(f"not UTF-8 text (byte 0x{ord(bad[0]) - 0xDC00:02x})", path=path, line=line_no)
    return FormatError("not UTF-8 text", path=path)
