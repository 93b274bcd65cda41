"""Build and manage the fine-grained semantic-type dictionary.

The dictionary is a flat list of lowercase type words (multi-word phrases are
underscore-joined at build time) plus a remap table that redirects rare or
unembeddable type words to common near-synonyms, e.g. conchologist ->
zoologist.  Candidate words are mined as noun frequencies over article first
sentences; seed words are expanded via embedding similarity; the manual
curation steps happen outside this code and arrive as plain text files.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ._text import tokenize
from .embed_io import EmbeddingTable, top_k
from .errors import FormatError, MissingSeedError, RemapTargetError

log = logging.getLogger(__name__)

CATEGORIES = (
    "profession/subject",
    "title",
    "industry/genre",
    "geospatial",
    "ideology/religion",
    "miscellaneous",
)

# Crude closed-class stoplist for the fallback noun predicate.
_STOPWORDS = frozenset(
    """
    a an the this that these those some any each every no
    i you he she it we they me him her us them my your his its our their
    who whom whose which what where when why how
    and or but nor so yet if then else than as because while although
    of in on at by for with from to into onto over under between among
    about against during before after above below up down out off near
    is are was were be been being am do does did done have has had having
    will would shall should can could may might must not
    very too also just only even still more most less least much many few
    there here now then once never always often
    """.split()
)

_NON_NOUN_SUFFIXES = ("ly", "ing", "ed")


def default_noun_predicate(token: str) -> bool:
    """Rule-based fallback noun test: stoplist plus suffix heuristics.

    Deliberately coarse; a real tagger can be injected wherever this is
    accepted.
    """
    if len(token) < 3 or token in _STOPWORDS:
        return False
    if not token[0].isalpha():
        return False
    if token.endswith(_NON_NOUN_SUFFIXES[0]):
        return False
    if len(token) > 4 and token.endswith(_NON_NOUN_SUFFIXES[1:]):
        return False
    return True


def normalize_type_word(word: str) -> str:
    """Lowercase and underscore-join a word or phrase."""
    return "_".join(word.lower().split())


@dataclass
class NounFrequencyReport:
    """Noun occurrence counts over article first sentences."""

    counts: dict[str, int] = field(default_factory=dict)
    total_sentences: int = 0

    def frequent(self, min_count: int = 10) -> list[tuple[str, int]]:
        """(noun, count) pairs with count >= min_count, most frequent first."""
        items = [(w, c) for w, c in self.counts.items() if c >= min_count]
        items.sort(key=lambda wc: (-wc[1], wc[0]))
        return items

    def save_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#total_sentences\t{self.total_sentences}\n")
            for word, count in sorted(self.counts.items(), key=lambda wc: (-wc[1], wc[0])):
                fh.write(f"{word}\t{count}\n")

    @classmethod
    def load_tsv(cls, path) -> "NounFrequencyReport":
        counts: dict[str, int] = {}
        total = 0
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#total_sentences\t"):
                    total = int(line.split("\t")[1])
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise FormatError("expected '<word>\\t<count>'", path=path, line=line_no)
                counts[parts[0]] = int(parts[1])
        return cls(counts, total)


@dataclass
class SeedExpansion:
    """Nearest embedding neighbours of one seed word, best first."""

    seed: str
    neighbors: list[tuple[str, float]]


@dataclass
class SemanticTypeDictionary:
    """Flat type-word list plus remap table and optional category tags."""

    words: set[str] = field(default_factory=set)
    remap: dict[str, str] = field(default_factory=dict)
    categories: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self, embedding_vocab=None) -> None:
        for word in self.words:
            if not word or word != word.lower():
                raise FormatError(f"dictionary word {word!r} must be non-empty lowercase")
        for word, cat in self.categories.items():
            if cat not in CATEGORIES:
                raise FormatError(f"unknown category {cat!r} for {word!r}")
        for src, dst in self.remap.items():
            if src == dst:
                raise RemapTargetError(f"remap {src!r} maps to itself")
            if dst in self.remap:
                raise RemapTargetError(f"remap {src!r} -> {dst!r} chains onto another remap")
            if dst not in self.words and embedding_vocab is not None and dst not in embedding_vocab:
                raise RemapTargetError(
                    f"remap target {dst!r} is neither a dictionary word nor embeddable"
                )

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    def save(self, words_path, remap_path=None) -> None:
        """Serialize deterministically: sorted words, sorted remap pairs."""
        with open(words_path, "w", encoding="utf-8") as fh:
            for word in sorted(self.words):
                cat = self.categories.get(word)
                fh.write(f"{word}\t{cat}\n" if cat else f"{word}\n")
        if remap_path is not None:
            with open(remap_path, "w", encoding="utf-8") as fh:
                for src in sorted(self.remap):
                    fh.write(f"{src}\t{self.remap[src]}\n")

    @classmethod
    def load(cls, words_path, remap_path=None) -> "SemanticTypeDictionary":
        words: set[str] = set()
        categories: dict[str, str] = {}
        for token, extra, _line in _read_word_lines(words_path):
            words.add(token)
            if extra:
                categories[token] = extra
        remap = _read_remap_file(remap_path) if remap_path else {}
        return cls(words=words, remap=remap, categories=categories)


def apply_remap(dictionary: SemanticTypeDictionary, word: str) -> str:
    """Replace a rare type word by its common stand-in; identity otherwise.

    Chains are never followed; validation forbids them, so one application
    is a fixed point.
    """
    return dictionary.remap.get(word, word)


def _iter_first_sentences(corpus):
    for item in corpus:
        if hasattr(item, "first_sentence"):
            yield item.entity_id, item.first_sentence
        else:
            entity_id, sentence = item
            yield entity_id, sentence


def mine_noun_frequency(
    corpus,
    tagger: Optional[Callable[[str], bool]] = None,
) -> NounFrequencyReport:
    """Count noun tokens (lowercased) over the first sentence of each article.

    ``corpus`` yields (entity_id, first_sentence) pairs or article records
    exposing those attributes.  Every token is counted first and ``tagger``
    is then called once per distinct token, so it must judge a token alone,
    without its sentence.  Nouns keep the order of their first occurrence.
    """
    tagger = tagger or default_noun_predicate
    counts: Counter = Counter()
    total = 0
    for _entity_id, sentence in _iter_first_sentences(corpus):
        total += 1
        counts.update(tokenize(sentence))
    return NounFrequencyReport({t: c for t, c in counts.items() if tagger(t)}, total)


def expand_seeds(
    seeds: Iterable[str],
    words_in_articles,
    embeddings: EmbeddingTable,
    k: int = 100,
) -> list[SeedExpansion]:
    """Top-k cosine neighbours of each seed, restricted to article words.

    The seed itself is never returned; ties break lexicographically so a
    rebuild is reproducible byte for byte.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    seeds = list(seeds)
    for seed in seeds:
        if seed not in embeddings:
            raise MissingSeedError(f"seed {seed!r} has no embedding")

    members = set(words_in_articles)
    pool_labels = [label for label in embeddings.labels if label in members]
    pool_rows = np.array([embeddings.index(l) for l in pool_labels], dtype=np.intp)
    position = {label: i for i, label in enumerate(pool_labels)}

    expansions = []
    for seed in seeds:
        scores = embeddings.cosines(embeddings.vector(seed), rows=pool_rows)
        neighbors = top_k(pool_labels, scores, k, skip=position.get(seed))
        expansions.append(SeedExpansion(seed, neighbors))
    return expansions


def _read_word_lines(path):
    """Yield (token, optional_category, line_no) from a curated word file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) > 2:
                raise FormatError("expected '<word>' or '<word>\\t<category>'", path=path, line=line_no)
            token = normalize_type_word(parts[0])
            if not token:
                raise FormatError("empty word", path=path, line=line_no)
            extra = parts[1].strip() if len(parts) == 2 else None
            if extra is not None and extra not in CATEGORIES:
                raise FormatError(f"unknown category {extra!r}", path=path, line=line_no)
            yield token, extra, line_no


def _read_remap_file(path) -> dict[str, str]:
    remap: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise FormatError("expected '<from>\\t<to>'", path=path, line=line_no)
            # keys keep their surface form (possibly spaced); targets must be
            # single embeddable labels
            src = parts[0].strip().lower()
            dst = normalize_type_word(parts[1])
            remap[src] = dst
    return remap


def build_dictionary(
    frequent_nouns: Optional[NounFrequencyReport],
    curated_seeds,
    curated_extensions,
    remap_file=None,
    embedding_vocab=None,
) -> SemanticTypeDictionary:
    """Merge curated seed and extension files into a validated dictionary.

    ``frequent_nouns`` is advisory context from the mining step; it does not
    gate membership, but seeds missing from it are logged since that usually
    means a typo.  ``embedding_vocab`` (a table or label set) widens remap
    validation to words that are embeddable without being dictionary members.
    """
    words: set[str] = set()
    categories: dict[str, str] = {}
    for path in (curated_seeds, curated_extensions):
        if path is None:
            continue
        for token, cat, _line in _read_word_lines(path):
            words.add(token)
            if cat:
                categories[token] = cat

    remap = _read_remap_file(remap_file) if remap_file else {}

    if frequent_nouns is not None and frequent_nouns.counts:
        missing = sorted(w for w in words if "_" not in w and w not in frequent_nouns.counts)
        if missing:
            log.info("%d dictionary words not among mined nouns (first: %s)",
                     len(missing), missing[:5])

    dictionary = SemanticTypeDictionary(words=words, remap=remap, categories=categories)
    dictionary.validate(embedding_vocab=embedding_vocab)
    return dictionary


def words_in_corpus(corpus) -> set[str]:
    """All tokens appearing in article text; the membership set for expansion."""
    seen: set[str] = set()
    for item in corpus:
        if hasattr(item, "first_sentence"):
            seen.update(tokenize(item.first_sentence))
            seen.update(tokenize(getattr(item, "body", "") or ""))
        else:
            seen.update(tokenize(item[1]))
    return seen
