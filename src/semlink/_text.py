"""Tokenization helpers shared by dictionary mining and type extraction.

A token is a maximal run of ``[a-z0-9_']`` in the lowercased text; every
other character separates tokens.  `tokenize` applies that rule without a
regex: it lowercases, encodes to UTF-8 and maps each byte through a
256-entry table that keeps the token bytes and turns every other byte into
a space, then splits on the spaces.  Every byte of a non-ASCII character's
UTF-8 form is >= 0x80, so such a character separates tokens exactly as the
regex ``[a-z0-9_']+`` treats it; case mappings onto ASCII (KELVIN SIGN ->
``k``) happen in ``lower()`` before the table is applied.
"""

import re

_TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789_'"
_TOKEN_TABLE = bytes(b if b in _TOKEN_BYTES else 0x20 for b in range(256))

# Deliberately split at the first terminator; fixtures are pre-stripped plain
# text, so abbreviation handling is out of scope here.
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+")


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
