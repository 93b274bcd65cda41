"""Semantic entity embeddings and their linear aggregation with base vectors.

The semantic embedding of an entity is the arithmetic mean of the word
vectors of its first ``min(T, |types|)`` extracted type words; when an entity
has fewer type words than T, the divisor shrinks with it.  The reinforced
embedding is the weighted sum

    reinforced = (1 - alpha) * base + alpha * semantic

where ``alpha`` trades heterogeneity of the base vectors against homogeneity
of the type-driven ones.  Accumulation happens in float64 in extraction
order; table storage stays float32.  Vectors are plain arrays: `aggregate`
and `cosine` take array-likes, such as the rows `EmbeddingTable.vector`
returns, and work in float64.

The two steps of the method are two table functions.  `semantic_table`
maps each entity's type words to word-table rows and takes their means with
`embed_io.row_means`, which adds the rows in the same order as
`semantic_embedding`, the scalar reference, so both give the same bits; it
stores them as float32, as the pipeline's ``semantic`` stage writes them.
`blend_into` is the one blend: it writes `aggregate` of each base row and
its float32 semantic row, matched by label, into a matrix in place.  The
``aggregate`` stage blends each block of ``semantic.bin`` into the base
table it loaded, and `aggregate_table` runs `semantic_table` and then the
blend on a copy, so the library and the pipeline share one rule.  Cosines
and top-k neighbours use the table's cached row norms
(`EmbeddingTable.cosines`, `embed_io.top_k`).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import embed_io
from .embed_io import EmbeddingTable, row_means, top_k
from .errors import ConfigError, DimensionError, MissingWordVectorError
from .type_extraction import EntityTypeAssignment

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AggregationConfig:
    """T = max type words per entity; alpha = semantic weight in [0, 1]."""

    T: int = 11
    alpha: float = 0.2

    def __post_init__(self):
        if int(self.T) < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if not 0.0 <= float(self.alpha) <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass
class SemanticEmbeddingResult:
    entity_id: str
    used_words: list[str]
    vector: np.ndarray
    coverage_flag: bool = False  # True when the entity had no type words

    def __post_init__(self):
        if not np.isfinite(self.vector).all():
            raise ValueError(f"non-finite semantic vector for {self.entity_id!r}")


def semantic_embedding(
    assignment: EntityTypeAssignment,
    words: EmbeddingTable,
    cfg: AggregationConfig,
) -> SemanticEmbeddingResult:
    """Mean of the first min(T, len(type_words)) word vectors, float64.

    Entities without type words get a zero vector and a raised coverage
    flag so callers can fall back to the base embedding.
    """
    used = list(assignment.type_words[: cfg.T])
    if not used:
        return SemanticEmbeddingResult(
            assignment.entity_id, [], np.zeros(words.dim, dtype=np.float64), coverage_flag=True
        )
    acc = np.zeros(words.dim, dtype=np.float64)
    for word in used:
        if word not in words:
            raise MissingWordVectorError(
                f"no vector for type word {word!r} of entity {assignment.entity_id!r}"
            )
        acc += words.vector(word).astype(np.float64)
    return SemanticEmbeddingResult(assignment.entity_id, used, acc / len(used))


def aggregate(wikitext, semantic, alpha: float) -> np.ndarray:
    """Componentwise (1 - alpha) * base + alpha * semantic, in float64."""
    if not 0.0 <= float(alpha) <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    base = np.asarray(wikitext, dtype=np.float64)
    sem = np.asarray(semantic, dtype=np.float64)
    if base.shape != sem.shape:
        raise DimensionError(f"dimension mismatch: {base.shape} vs {sem.shape}")
    return (1.0 - alpha) * base + alpha * sem


def semantic_table(
    assignments: Mapping[str, EntityTypeAssignment], words: EmbeddingTable, T: int
) -> EmbeddingTable:
    """Float32 semantic means of the entities that have type words, in order.

    Each entity's first ``T`` type words are looked up as word-table rows, and
    a missing word vector raises before any mean is taken.  A coverage
    histogram (how many type words each entity contributed, 0 for none) is
    logged, since the same alpha applies regardless of coverage.
    """
    typed = [(entity_id, a) for entity_id, a in assignments.items() if a.type_words]
    rows = [list(map(words._index.get, a.type_words[:T])) for _, a in typed]
    for (_, a), found in zip(typed, rows):
        if None in found:
            word = a.type_words[found.index(None)]
            raise MissingWordVectorError(f"no vector for type word {word!r} of entity {a.entity_id!r}")
    matrix = np.empty((len(typed), words.dim), dtype=np.float32)
    coverage = Counter({0: len(assignments) - len(typed)})
    for part, means, counts in row_means(words.matrix, rows):
        matrix[part] = means
        coverage.update(counts.tolist())
    if assignments:
        log.info("semantic means of %d entities (T=%d); coverage histogram %s",
                 len(assignments), T, dict(sorted((+coverage).items())))
    return EmbeddingTable(words.dim, [entity_id for entity_id, _ in typed], matrix)


def aggregate_table(
    wikitext: EmbeddingTable,
    assignments: Mapping[str, EntityTypeAssignment],
    words: EmbeddingTable,
    cfg: AggregationConfig,
) -> EmbeddingTable:
    """`semantic_table` of the entities in ``wikitext``, blended into a copy
    of it by `blend_into`; rows without type words pass through bit-exact,
    and ``wikitext`` is left as it was.

    Output labels and order are identical to the input table.
    """
    matrix = wikitext.matrix.copy()
    semantic = semantic_table({k: a for k, a in assignments.items() if k in wikitext}, words, cfg.T)
    blend_into(matrix, wikitext, semantic, cfg.alpha)
    return EmbeddingTable(wikitext.dim, list(wikitext.labels), matrix)


def blend_into(matrix: np.ndarray, base: EmbeddingTable, semantic: EmbeddingTable, alpha: float) -> None:
    """Overwrite each row of the writable float32 ``matrix``, laid out as the
    rows of ``base``, whose label has a row in ``semantic`` with `aggregate`
    of the two, rounded to float32.  Other rows keep their bits, and a
    semantic label that ``base`` lacks is skipped.  The float64 temporaries
    of `aggregate` cover a quarter of `embed_io.BLOCK_ROWS` rows at a time.
    """
    if matrix.shape[1] != semantic.dim:
        raise DimensionError(
            f"entity table dim {matrix.shape[1]} != semantic table dim {semantic.dim}"
        )
    found = map(base._index.get, semantic.labels)
    pairs = [(row, i) for i, row in enumerate(found) if row is not None]
    targets, sources = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2).T
    step = max(1, embed_io.BLOCK_ROWS // 4)
    for start in range(0, len(pairs), step):
        into = targets[start : start + step]
        matrix[into] = aggregate(matrix[into], semantic.matrix[sources[start : start + step]], alpha)


def cosine(u, v) -> float:
    """Cosine similarity; zero vectors yield 0 by convention."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def neighbor_report(
    table: EmbeddingTable, query: str, k: int = 10
) -> list[tuple[str, float]]:
    """Top-k labels by cosine to the query row, ties lexicographic."""
    qi = table.index(query)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return top_k(table.labels, table.cosines(table.matrix[qi]), k, skip=qi)
