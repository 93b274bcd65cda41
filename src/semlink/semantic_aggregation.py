"""Semantic entity embeddings and their linear aggregation with base vectors.

The semantic embedding of an entity is the arithmetic mean of the word
vectors of its first ``min(T, |types|)`` extracted type words; when an entity
has fewer type words than T, the divisor shrinks with it.  The reinforced
embedding is the weighted sum

    reinforced = (1 - alpha) * base + alpha * semantic

where ``alpha`` trades heterogeneity of the base vectors against homogeneity
of the type-driven ones.  Accumulation happens in float64 in extraction
order; table storage stays float32.

Whole tables go through `semantic_means`: the assignments are compiled once
into an (N, T) matrix of word-row indices, padded with a zero row, and the
float64 means are accumulated in blocks of rows, one type-word column at a
time.  Each row sees the same float64 additions in the same order as
`semantic_embedding`, which stays as the scalar reference, so both give the
same bits.  Cosines and top-k neighbours use the table's cached row norms
(`EmbeddingTable.cosines`, `embed_io.top_k`).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .embed_io import BLOCK_ROWS, EmbeddingTable, VectorRef, top_k
from .errors import DimensionError, MissingWordVectorError
from .type_extraction import EntityTypeAssignment

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AggregationConfig:
    """T = max type words per entity; alpha = semantic weight in [0, 1]."""

    T: int = 11
    alpha: float = 0.2

    def __post_init__(self):
        if int(self.T) < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 0.0 <= float(self.alpha) <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


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
        ref = words.lookup(word)
        if ref is None:
            raise MissingWordVectorError(
                f"no vector for type word {word!r} of entity {assignment.entity_id!r}"
            )
        acc += ref.values.astype(np.float64)
    return SemanticEmbeddingResult(assignment.entity_id, used, acc / len(used))


def _as_array(v) -> np.ndarray:
    if isinstance(v, VectorRef):
        v = v.values
    return np.asarray(v, dtype=np.float64)


def aggregate(wikitext, semantic, alpha: float) -> np.ndarray:
    """Componentwise (1 - alpha) * base + alpha * semantic, in float64."""
    if not 0.0 <= float(alpha) <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    base = _as_array(wikitext)
    sem = _as_array(semantic)
    if base.shape != sem.shape:
        raise DimensionError(f"dimension mismatch: {base.shape} vs {sem.shape}")
    return (1.0 - alpha) * base + alpha * sem


def semantic_means(
    assignments: Sequence[Optional[EntityTypeAssignment]],
    words: EmbeddingTable,
    T: int,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Semantic means of many entities, ``(rows, means, counts)`` per row block.

    ``means`` is the float64 ``(rows, dim)`` block of what `semantic_embedding`
    returns for each assignment, bit for bit; ``counts`` holds how many type
    words each row used.  A ``None`` or empty assignment gets a zero row and
    count 0.  Missing word vectors raise before any block is produced.
    """
    positions: dict[str, int] = {}  # word -> row of `vectors`; row 0 is zero
    index_rows = []
    for assignment in assignments:
        used = assignment.type_words[:T] if assignment is not None else []
        row = []
        for word in used:
            p = positions.get(word)
            if p is None:
                if word not in words:
                    raise MissingWordVectorError(
                        f"no vector for type word {word!r} of entity {assignment.entity_id!r}"
                    )
                p = positions[word] = len(positions) + 1
            row.append(p)
        index_rows.append(row + [0] * (T - len(row)))
    index = np.array(index_rows, dtype=np.intp).reshape(len(index_rows), T)
    counts = np.count_nonzero(index, axis=1)
    vectors = np.zeros((len(positions) + 1, words.dim), dtype=np.float32)
    vectors[1:] = words.matrix[[words.index(w) for w in positions]]

    for start in range(0, len(index), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        block, n = index[rows], counts[rows]
        acc = np.zeros((len(block), words.dim))
        for t in range(int(n.max())):
            acc += vectors[block[:, t]]  # adding the zero row changes nothing
        acc /= np.maximum(n, 1)[:, None]
        yield rows, acc, n


def semantic_table(
    assignments: Mapping[str, EntityTypeAssignment], words: EmbeddingTable, T: int
) -> EmbeddingTable:
    """Float32 semantic means of the entities that have type words, in order."""
    typed = [(entity_id, a) for entity_id, a in assignments.items() if a.type_words]
    matrix = np.empty((len(typed), words.dim), dtype=np.float32)
    for rows, means, _counts in semantic_means([a for _, a in typed], words, T):
        matrix[rows] = means
    return EmbeddingTable(words.dim, [entity_id for entity_id, _ in typed], matrix)


def aggregate_table(
    wikitext: EmbeddingTable,
    assignments: Mapping[str, EntityTypeAssignment],
    words: EmbeddingTable,
    cfg: AggregationConfig,
) -> EmbeddingTable:
    """Reinforce every covered entity; uncovered rows pass through bit-exact.

    Output labels and order are identical to the input table.  A coverage
    histogram (how many type words each entity contributed) is logged since
    the same alpha applies regardless of coverage.
    """
    if wikitext.dim != words.dim:
        raise DimensionError(
            f"entity table dim {wikitext.dim} != word table dim {words.dim}"
        )
    out = np.empty_like(wikitext.matrix)
    coverage: Counter = Counter()
    rows_in_order = [assignments.get(label) for label in wikitext.labels]
    for rows, means, counts in semantic_means(rows_in_order, words, cfg.T):
        base = wikitext.matrix[rows]
        out[rows] = aggregate(base, means, cfg.alpha)
        np.copyto(out[rows], base, where=(counts == 0)[:, None])
        coverage.update(counts.tolist())
    if coverage:
        log.info(
            "reinforced %d entities (T=%d, alpha=%g); coverage histogram %s",
            len(wikitext), cfg.T, cfg.alpha, dict(sorted(coverage.items())),
        )
    return EmbeddingTable(wikitext.dim, list(wikitext.labels), out)


def cosine(u, v) -> float:
    """Cosine similarity; zero vectors yield 0 by convention."""
    u = _as_array(u)
    v = _as_array(v)
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
        raise ValueError(f"k must be >= 1, got {k}")
    return top_k(table.labels, table.cosines(table.matrix[qi]), k, skip=qi)


@dataclass
class HomogeneityStats:
    """Mean/std of cosine over sampled distinct entity pairs."""

    mean: float
    std: float
    pairs_sampled: int


def homogeneity_stats(
    table: EmbeddingTable, sample_pairs: int, seed: int = 0
) -> HomogeneityStats:
    """Deterministic pairwise-cosine summary; exhaustive when sample covers all."""
    n = len(table)
    if n < 2:
        raise ValueError("need at least 2 entries")
    if sample_pairs < 1:
        raise ValueError("sample_pairs must be >= 1")
    total = n * (n - 1) // 2

    unit = table.unit_rows()
    unit[table.row_norms() == 0.0] = 0.0

    if sample_pairs >= total:
        gram = unit @ unit.T
        iu = np.triu_indices(n, k=1)
        values = gram[iu]
    else:
        rng = np.random.default_rng(seed)
        seen: set[tuple[int, int]] = set()
        values_list = []
        while len(values_list) < sample_pairs:
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if i == j:
                continue
            pair = (min(i, j), max(i, j))
            if pair in seen:
                continue
            seen.add(pair)
            values_list.append(float(np.dot(unit[pair[0]], unit[pair[1]])))
        values = np.asarray(values_list)
    return HomogeneityStats(float(values.mean()), float(values.std()), len(values))

