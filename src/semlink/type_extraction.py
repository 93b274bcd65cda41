"""Extract at most ``cap`` dictionary type words per entity from article text.

Scanning walks the first sentence, then the body, in token order.  At each
position the longest matching dictionary phrase wins (dictionary phrases are
underscore-joined; they match the corresponding token sequence in text).
Only positions whose token starts some dictionary phrase are tried, so a
token that starts none costs one hash lookup.  Collected words are remapped, deduplicated on
the remapped form keeping first occurrence, and capped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from ._text import FIELD_BREAK, read_all, read_lines, split_first_sentence, tokenize, tsv_fields, unbroken, write_lines
from .errors import ConfigError, DuplicateEntityError, FormatError
from .type_dictionary import SemanticTypeDictionary, apply_remap


@dataclass
class ArticleRecord:
    """One plain-text article: id, title, first sentence, optional body."""

    entity_id: str
    title: str = ""
    first_sentence: str = ""
    body: str = ""

    def __post_init__(self):
        if not self.entity_id:
            raise FormatError("article with empty entity_id")

    @classmethod
    def from_text(cls, entity_id: str, title: str, text: str) -> "ArticleRecord":
        first, rest = split_first_sentence(text)
        return cls(entity_id=entity_id, title=title, first_sentence=first, body=rest)


@dataclass
class EntityTypeAssignment:
    """Ordered extracted type words for one entity, length <= cap."""

    entity_id: str
    type_words: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.type_words)


class PhraseMatcher:
    """Token trie over dictionary words for greedy longest-first matching."""

    _WORD = object()  # terminal marker key

    def __init__(self, dictionary: SemanticTypeDictionary):
        root: dict = {}
        for word in dictionary.words:
            node = root
            for token in word.split("_"):
                node = node.setdefault(token, {})
            node[PhraseMatcher._WORD] = word
        self._root = root

    def starts(self, tokens: list[str]) -> list[int]:
        """Positions whose token is the first token of some dictionary word."""
        root = self._root
        return [i for i, token in enumerate(tokens) if token in root]

    def match_at(self, tokens: list[str], i: int) -> Optional[tuple[str, int]]:
        """Longest dictionary word starting at tokens[i] -> (word, n_tokens)."""
        node = self._root
        best = None
        j = i
        while j < len(tokens) and tokens[j] in node:
            node = node[tokens[j]]
            j += 1
            if PhraseMatcher._WORD in node:
                best = (node[PhraseMatcher._WORD], j - i)
        return best


def _check_settings(dictionary: SemanticTypeDictionary, cap: int) -> None:
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    if not dictionary.words:
        raise ConfigError("dictionary is empty")


def extract_types(
    article: ArticleRecord,
    dictionary: SemanticTypeDictionary,
    cap: int = 11,
    matcher: Optional[PhraseMatcher] = None,
) -> EntityTypeAssignment:
    """Collect up to ``cap`` distinct (post-remap) type words in text order."""
    _check_settings(dictionary, cap)
    matcher = matcher or PhraseMatcher(dictionary)

    tokens = tokenize(article.first_sentence)
    tokens += tokenize(article.body)

    collected: list[str] = []
    seen: set[str] = set()
    free = 0  # first position not consumed by an earlier match
    for i in matcher.starts(tokens):
        if i < free:
            continue
        hit = matcher.match_at(tokens, i)
        if hit is None:
            continue
        word, consumed = hit
        free = i + consumed
        mapped = apply_remap(dictionary, word)
        if mapped not in seen:
            seen.add(mapped)
            collected.append(mapped)
            if len(collected) == cap:
                break
    return EntityTypeAssignment(article.entity_id, collected)


def extract_corpus(
    corpus: Iterable[ArticleRecord],
    dictionary: SemanticTypeDictionary,
    cap: int = 11,
) -> dict[str, EntityTypeAssignment]:
    """One assignment per article, in stream order; duplicate ids are
    rejected.  ``cap`` and ``dictionary`` are checked before the first
    article is read, so an empty corpus is refused as any other."""
    _check_settings(dictionary, cap)
    matcher = PhraseMatcher(dictionary)
    out: dict[str, EntityTypeAssignment] = {}
    for article in corpus:
        assignment = extract_types(article, dictionary, cap, matcher)
        if assignment.entity_id in out:
            raise DuplicateEntityError(f"duplicate entity id {assignment.entity_id!r}")
        out[assignment.entity_id] = assignment
    return out


def read_article_corpus(path) -> Iterator[ArticleRecord]:
    """Read articles from a TSV file or a directory of per-entity text files.

    TSV lines are ``<entity_id>\\t<title>\\t<text>``.  In directory mode the
    file stem doubles as entity id and title.
    """
    path = Path(path)
    if path.is_dir():
        for child in sorted(path.iterdir()):
            if child.is_file():
                yield ArticleRecord.from_text(child.stem, child.stem, read_all(child))
        return
    for line_no, line in read_lines(path):
        fields = tsv_fields(line, 3, path, line_no, "expected '<entity_id>\\t<title>\\t<text>'")
        try:
            article = ArticleRecord.from_text(*fields)
        except FormatError as e:
            raise FormatError(e.reason, path=path, line=line_no) from None
        yield article


def write_assignments(assignments, path) -> None:
    """Write '<entity_id>\\t<w1,w2,...>' lines in mapping order.

    Each line must read back as the assignment it came from, so an entity id
    holding a tab or a line break, or a type word that is empty or holds a
    comma, a tab or a line break, is a `FormatError` naming the entity and
    the word, raised before anything is written.
    """
    items = list(assignments.values() if hasattr(assignments, "values") else assignments)
    for a in items:
        _check_writable(a, path)
    write_lines(path, [f"{a.entity_id}\t{','.join(a.type_words)}" for a in items])


def _check_writable(a: EntityTypeAssignment, path) -> None:
    unbroken(a.entity_id, "entity id", path)
    for word in a.type_words:
        if not word or "," in word or FIELD_BREAK.search(word):
            raise FormatError(
                f"type word {word!r} of entity {a.entity_id!r} is empty or holds a comma, "
                "a tab or a line break",
                path=path,
            )


def read_assignments(path) -> dict[str, EntityTypeAssignment]:
    out: dict[str, EntityTypeAssignment] = {}
    for line_no, line in read_lines(path):
        entity_id, words = tsv_fields(line, 2, path, line_no, "expected '<entity_id>\\t<w1,w2,...>'")
        if entity_id in out:
            raise DuplicateEntityError(f"duplicate entity id {entity_id!r}", path=path, line=line_no)
        out[entity_id] = EntityTypeAssignment(entity_id, [w for w in words.split(",") if w])
    return out
