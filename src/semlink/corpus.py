"""Linking documents and their file formats: the JSONL reader and writer and
the simplified CoNLL/AIDA-style TSV reader.

A document is a doc id and its mentions, each a surface form, a context
window, a candidate list and an optional gold label.  Every reader refuses a
malformed record with a `FormatError` naming the file and line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from ._text import read_lines, unbroken, write_lines
from .errors import ConfigError, FormatError, InvalidDocumentError


@dataclass
class Mention:
    """A text span with its context window, candidate set, and optional gold."""

    surface: str
    context: list[str] = field(default_factory=list)
    candidates: list[str] = field(default_factory=list)
    gold: Optional[str] = None

    def gold_in_candidates(self) -> bool:
        return self.gold is not None and self.gold in self.candidates


@dataclass
class LinkingDocument:
    doc_id: str
    mentions: list[Mention]

    def __post_init__(self):
        if not self.mentions:
            raise InvalidDocumentError(f"document {self.doc_id!r} has no mentions")


def save_linking_jsonl(docs: Iterable[LinkingDocument], path) -> None:
    """One JSON document per line: doc_id plus mention records.  A candidate
    that would read back with its ':'-suffix taken for a prior is written as
    a ``[label, prior]`` pair, whose label reads back unchanged."""
    write_lines(path, (
        json.dumps({
            "doc_id": doc.doc_id,
            "mentions": [
                {"surface": m.surface, "context": m.context, "gold": m.gold,
                 "candidates": [c if _strip_prior(c) == c else [c, 1.0] for c in m.candidates]}
                for m in doc.mentions
            ],
        }, sort_keys=True)
        for doc in docs
    ))


def load_linking_jsonl(path) -> list[LinkingDocument]:
    """One document per line; a repeated ``doc_id`` or one holding a tab or a
    line break, or a candidate listed twice in one mention once priors are
    stripped, is a `FormatError` naming the line."""
    docs: dict[str, LinkingDocument] = {}
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise FormatError("invalid JSON", path=path, line=line_no) from None
        try:
            doc = _document_from(record)
        except KeyError as e:
            raise FormatError(f"missing field {e}", path=path, line=line_no) from None
        except (FormatError, InvalidDocumentError) as e:
            raise FormatError(str(e), path=path, line=line_no) from None
        if doc.doc_id in docs:
            raise FormatError(f"repeated doc_id {doc.doc_id!r}", path=path, line=line_no)
        docs[doc.doc_id] = doc
    return list(docs.values())


_JSON_NAMES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


def _checked(value, kind: type, what: str):
    """``value`` if it is a ``kind``; a `FormatError` naming ``what`` otherwise."""
    if not isinstance(value, kind):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise FormatError(f"{what} must be a JSON {_JSON_NAMES[kind]}, not {got}")
    return value


def _document_from(record) -> LinkingDocument:
    """The document of one JSONL record; a `FormatError` names a mistyped
    field, and `LinkingDocument` refuses a record of no mention.

    Context tokens are hashed as they are and candidate lists are iterated,
    so a string in place of a list, or a non-string token, would otherwise
    pass as characters or as out-of-vocabulary words.
    """
    _checked(record, dict, "record")
    mentions = []
    for m in _checked(record["mentions"], list, "mentions"):
        _checked(m, dict, "mention")
        gold = m.get("gold")
        if gold is not None:
            _checked(gold, str, "gold")
        context = _checked(m.get("context", []), list, "context")
        for token in context:
            _checked(token, str, "context token")
        mentions.append(Mention(
            surface=_checked(m["surface"], str, "surface"),
            context=context,
            candidates=_checked_candidates([_strip_prior(c) for c in _checked(m["candidates"], list, "candidates")]),
            gold=gold,
        ))
    return LinkingDocument(unbroken(_checked(record["doc_id"], str, "doc_id"), "doc_id"), mentions)


def _checked_candidates(candidates: list[str]) -> list[str]:
    """``candidates``; a label listed twice, after prior stripping, or one
    holding a tab or a line break is a `FormatError` naming it."""
    for c in candidates:
        unbroken(c, "candidate")
    seen: set[str] = set()
    for c in candidates:
        if c in seen:
            raise FormatError(f"repeated candidate {c!r}")
        seen.add(c)
    return candidates


def _strip_prior(candidate) -> str:
    """Candidates may arrive as ``[label, prior]`` or as 'label:prior' with a
    prior in [0, 1]; priors are ignored.  Any other ':'-suffix is part of
    the label.  A label that is not a string is a `FormatError`."""
    if isinstance(candidate, (list, tuple)):
        if not candidate:
            raise FormatError("candidate pair must be [label, prior], got []")
        return _checked(candidate[0], str, "candidate label")
    text = _checked(candidate, str, "candidate")
    head, sep, tail = text.rpartition(":")
    if sep and head:
        try:
            prior = float(tail)
        except ValueError:
            return text
        if 0.0 <= prior <= 1.0:  # false for nan
            return head
    return text


def load_documents(path, window: int = 25) -> list[LinkingDocument]:
    """`load_aida_tsv` with ``window`` for a ``.tsv`` or ``.conll`` file, else `load_linking_jsonl`."""
    if Path(path).suffix.lower() in (".tsv", ".conll"):
        return load_aida_tsv(path, window=window)
    return load_linking_jsonl(path)


def load_aida_tsv(path, window: int = 25) -> list[LinkingDocument]:
    """Load a simplified CoNLL-style linking TSV.

    Lines are either ``-DOCSTART- (<doc_id>)``, a bare token, or a mention
    line ``<token>\\tB\\t<surface>\\t<gold>\\t<cand1,cand2,...>``; a
    ``<token>\\tI`` line right after a mention's last token extends the
    mention, and is a plain token anywhere else.  Context windows take
    ``window`` tokens from each side of the mention, excluding the mention
    itself.  A gold of ``--NME--`` becomes None (out-of-KB).  A document
    with no mention line is dropped.  An id wrapped in parentheses loses
    that one pair, and any other id is kept as written.  A bare
    ``-DOCSTART-`` is named ``doc<n>``, after its place among the kept
    documents, with ``n`` raised past every id the file writes and every
    name already given.  A negative ``window`` is a `ConfigError`; a
    repeated doc id, or one holding a tab, is a `FormatError` naming its
    ``-DOCSTART-`` line, and a candidate listed twice on a mention line,
    once priors are stripped, one naming that line.  The whole file is
    parsed before any document is built, so of a bad line and a repeated
    id, the bad line is reported.
    """
    if window < 0:
        raise ConfigError(f"window must be >= 0, got {window}")
    # one record per -DOCSTART-: its id ("" if bare), its line, its tokens and
    # its spans, each [start, end, surface, gold, candidates]
    records: list[tuple[str, int, list[str], list[list]]] = []
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        if line.startswith("-DOCSTART-"):
            doc_id = line[len("-DOCSTART-") :].strip()
            if doc_id.startswith("(") and doc_id.endswith(")"):
                doc_id = doc_id[1:-1]
            unbroken(doc_id, "doc_id", path, line_no)
            records.append((doc_id, line_no, tokens := [], spans := []))
            continue
        if not records:
            raise FormatError("token line before any -DOCSTART-", path=path, line=line_no)
        parts = line.split("\t")
        if len(parts) > 1 and parts[1] == "I":
            if spans and spans[-1][1] == len(tokens):  # an I line right after a span extends it
                spans[-1][1] += 1
        elif len(parts) > 1:
            if parts[1] != "B" or len(parts) < 5:
                raise FormatError("expected '<token>\\tB\\t<surface>\\t<gold>\\t<cands>'", path=path, line=line_no)
            try:
                cands = _checked_candidates([_strip_prior(c) for c in parts[4].split(",") if c])
            except FormatError as e:
                raise FormatError(e.reason, path=path, line=line_no) from None
            gold = parts[3] if parts[3] != "--NME--" else None
            spans.append([len(tokens), len(tokens) + 1, parts[2], gold, cands])
        tokens.append(parts[0].lower())
    written = {doc_id for doc_id, *_ in records}
    docs: dict[str, LinkingDocument] = {}
    for doc_id, doc_line, tokens, spans in records:
        if not spans:
            continue
        if not doc_id:
            n = len(docs)
            while f"doc{n}" in written or f"doc{n}" in docs:
                n += 1
            doc_id = f"doc{n}"
        elif doc_id in docs:
            raise FormatError(f"repeated doc_id {doc_id!r}", path=path, line=doc_line)
        docs[doc_id] = LinkingDocument(doc_id, [
            Mention(surface, tokens[max(0, start - window) : start] + tokens[end : end + window], cands, gold)
            for start, end, surface, gold, cands in spans
        ])
    return list(docs.values())
