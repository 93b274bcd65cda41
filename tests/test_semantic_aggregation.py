"""Mean-of-type-words embeddings, linear aggregation, and geometry helpers."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlink import embed_io, semantic_aggregation
from semlink.embed_io import EmbeddingTable
from semlink.errors import DimensionError, MissingLabelError, MissingWordVectorError
from semlink.fixtures import FixtureSizes, generate_fixture
from semlink.semantic_aggregation import (
    AggregationConfig,
    aggregate,
    aggregate_table,
    cosine,
    neighbor_report,
    semantic_embedding,
    semantic_table,
)
from semlink.type_extraction import EntityTypeAssignment


def word_table(rng, n, dim, prefix="w"):
    labels = [f"{prefix}{i:03d}" for i in range(n)]
    return EmbeddingTable(dim, labels, rng.standard_normal((n, dim)).astype(np.float32))


class TestSemanticEmbedding:
    def test_single_word_is_its_vector(self):
        words = EmbeddingTable.from_pairs([("w", [2.0, -1.0, 0.5])])
        a = EntityTypeAssignment("e", ["w"])
        for T in (1, 6, 11):
            result = semantic_embedding(a, words, AggregationConfig(T=T, alpha=0.2))
            np.testing.assert_array_equal(result.vector, np.float32([2.0, -1.0, 0.5]).astype(np.float64))
            assert result.used_words == ["w"]
            assert not result.coverage_flag

    def test_hand_mean(self):
        words = EmbeddingTable.from_pairs([("a", [2.0, 0.0]), ("b", [0.0, 2.0])])
        result = semantic_embedding(
            EntityTypeAssignment("e", ["a", "b"]), words, AggregationConfig(T=2)
        )
        np.testing.assert_allclose(result.vector, [1.0, 1.0], atol=0)

    def test_uses_first_T_words_only(self, rng):
        words = word_table(rng, 7, 300)
        a = EntityTypeAssignment("e", list(words.labels))
        result = semantic_embedding(a, words, AggregationConfig(T=6))
        assert result.used_words == list(words.labels)[:6]
        # independent oracle: reversed-order float64 summation over first 6
        oracle = np.zeros(300)
        for label in reversed(list(words.labels)[:6]):
            oracle += words.vector(label).astype(np.float64)
        oracle /= 6
        np.testing.assert_allclose(result.vector, oracle, atol=1e-7)

    def test_fewer_words_than_T_shrinks_divisor(self, rng):
        words = word_table(rng, 3, 10)
        a = EntityTypeAssignment("e", list(words.labels))
        result = semantic_embedding(a, words, AggregationConfig(T=11))
        oracle = words.matrix.astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(result.vector, oracle, atol=1e-12)
        assert result.used_words == list(words.labels)

    def test_empty_assignment_zero_vector_flagged(self):
        words = EmbeddingTable.from_pairs([("w", [1.0, 2.0])])
        result = semantic_embedding(EntityTypeAssignment("e", []), words, AggregationConfig())
        np.testing.assert_array_equal(result.vector, [0.0, 0.0])
        assert result.coverage_flag

    def test_missing_word_names_word_and_entity(self):
        words = EmbeddingTable.from_pairs([("w", [1.0])])
        with pytest.raises(MissingWordVectorError, match="ghost.*e42"):
            semantic_embedding(EntityTypeAssignment("e42", ["ghost"]), words, AggregationConfig())

    def test_mean_permutation_invariance_within_prefix(self, rng):
        words = word_table(rng, 6, 50)
        labels = list(words.labels)
        base = semantic_embedding(
            EntityTypeAssignment("e", labels), words, AggregationConfig(T=6)
        ).vector
        for _ in range(10):
            perm = [labels[i] for i in rng.permutation(6)]
            v = semantic_embedding(
                EntityTypeAssignment("e", perm), words, AggregationConfig(T=6)
            ).vector
            np.testing.assert_allclose(v, base, atol=1e-7)


class TestAggregate:
    def test_alpha_zero_is_base_exactly(self, rng):
        base = rng.standard_normal(20)
        sem = rng.standard_normal(20)
        np.testing.assert_array_equal(aggregate(base, sem, 0.0), base)

    def test_alpha_one_is_semantic_exactly(self, rng):
        base = rng.standard_normal(20)
        sem = rng.standard_normal(20)
        np.testing.assert_array_equal(aggregate(base, sem, 1.0), sem)

    def test_hand_arithmetic_at_point_two(self):
        np.testing.assert_allclose(
            aggregate([1.0, 0.0], [0.0, 1.0], 0.2), [0.8, 0.2], atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            aggregate([1.0, 2.0], [1.0], 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            aggregate([1.0], [1.0], 1.5)

    def test_affine_in_alpha(self, rng):
        u = rng.standard_normal(12)
        v = rng.standard_normal(12)
        for _ in range(20):
            a, b, lam = rng.uniform(0, 1, 3)
            mixed = aggregate(u, v, lam * a + (1 - lam) * b)
            combo = lam * aggregate(u, v, a) + (1 - lam) * aggregate(u, v, b)
            np.testing.assert_allclose(mixed, combo, atol=1e-6)

    def test_norm_triangle_bound(self, rng):
        for _ in range(50):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            alpha = float(rng.uniform(0, 1))
            mixed = aggregate(u, v, alpha)
            bound = (1 - alpha) * np.linalg.norm(u) + alpha * np.linalg.norm(v)
            assert np.linalg.norm(mixed) <= bound + 1e-9

    def test_shared_semantic_distance_identity(self, rng):
        # with identical semantic vectors the pair distance scales by (1-alpha)
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        s = rng.standard_normal(16)
        for alpha in (0.0, 0.1, 0.2, 0.7, 1.0):
            da = np.linalg.norm(aggregate(u, s, alpha) - aggregate(v, s, alpha))
            np.testing.assert_allclose(da, (1 - alpha) * np.linalg.norm(u - v), atol=1e-9)

    def test_shared_semantic_cosine_endpoints(self, rng):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        s = rng.standard_normal(16)
        assert cosine(aggregate(u, s, 1.0), aggregate(v, s, 1.0)) == pytest.approx(1.0)
        assert cosine(aggregate(u, s, 0.0), aggregate(v, s, 0.0)) == pytest.approx(cosine(u, v))


class TestAggregateTable:
    def _setup(self, rng, n=100, dim=30):
        words = word_table(rng, 40, dim)
        entities = EmbeddingTable(
            dim,
            [f"e{i:03d}" for i in range(n)],
            rng.standard_normal((n, dim)).astype(np.float32),
        )
        assignments = {}
        for i, label in enumerate(entities.labels):
            if i % 5 == 0:
                continue  # leave every fifth entity untyped
            count = 1 + (i % 13)
            chosen = [words.labels[(i * 7 + j) % len(words.labels)] for j in range(count)]
            # sampled with possible repeats; keep unique order-preserving
            seen = []
            for w in chosen:
                if w not in seen:
                    seen.append(w)
            assignments[label] = EntityTypeAssignment(label, seen)
        return words, entities, assignments

    def test_untyped_rows_pass_through_bit_exact(self, rng):
        words, entities, assignments = self._setup(rng)
        out = aggregate_table(entities, assignments, words, AggregationConfig(T=11, alpha=0.2))
        assert out.labels == entities.labels
        for i, label in enumerate(entities.labels):
            if label not in assignments:
                np.testing.assert_array_equal(out.matrix[i], entities.matrix[i])

    def test_alpha_zero_table_identical(self, rng):
        words, entities, assignments = self._setup(rng)
        out = aggregate_table(entities, assignments, words, AggregationConfig(T=11, alpha=0.0))
        assert out == entities

    def test_compositional_oracle(self, rng):
        words, entities, assignments = self._setup(rng)
        cfg = AggregationConfig(T=11, alpha=0.2)
        out = aggregate_table(entities, assignments, words, cfg)
        for i, label in enumerate(entities.labels):
            if label not in assignments:
                continue
            # the semantic vector as the semantic table stores it, in float32
            sem = semantic_embedding(assignments[label], words, cfg).vector.astype(np.float32)
            expected = aggregate(entities.matrix[i].astype(np.float64), sem, 0.2)
            np.testing.assert_array_equal(out.matrix[i], expected.astype(np.float32))

    def test_dimension_mismatch(self, rng):
        words = word_table(rng, 5, 4)
        entities = word_table(rng, 5, 6, prefix="e")
        with pytest.raises(DimensionError):
            aggregate_table(entities, {}, words, AggregationConfig())

    def test_input_table_is_left_as_it_was(self, rng):
        # the blend runs on a copy: the input keeps its bytes and stays read-only
        words, entities, assignments = self._setup(rng)
        before = entities.matrix.tobytes()
        for alpha in (0.0, 0.2, 1.0):
            out = aggregate_table(entities, assignments, words, AggregationConfig(T=11, alpha=alpha))
            assert not np.shares_memory(out.matrix, entities.matrix)
            assert entities.matrix.tobytes() == before
            assert not entities.matrix.flags.writeable
            with pytest.raises(ValueError):
                entities.matrix[0, 0] = 1.0


class TestCosine:
    def test_unit_cases(self):
        assert cosine([1, 0], [1, 0]) == 1.0
        assert cosine([1, 0], [0, 1]) == 0.0
        assert cosine([0, 0], [1, 0]) == 0.0

    def test_against_high_precision_oracle(self, rng):
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        for _ in range(30):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            du = [Decimal(float(x)) for x in u]
            dv = [Decimal(float(x)) for x in v]
            dot = sum(a * b for a, b in zip(du, dv))
            nu = sum(a * a for a in du).sqrt()
            nv = sum(b * b for b in dv).sqrt()
            assert cosine(u, v) == pytest.approx(float(dot / (nu * nv)), abs=1e-6)


class TestNeighborReport:
    def test_duplicate_vector_ranks_first(self):
        table = EmbeddingTable.from_pairs(
            [("a", [1.0, 0.0]), ("dup", [2.0, 0.0]), ("c", [0.0, 1.0])]
        )
        report = neighbor_report(table, "a", k=2)
        assert report[0] == ("dup", pytest.approx(1.0))
        assert report[1][0] == "c"

    def test_k_beyond_table_returns_all_others(self, make_table):
        table = make_table(5, 3)
        assert len(neighbor_report(table, table.labels[0], k=50)) == 4

    def test_matches_brute_force(self, rng):
        table = EmbeddingTable(
            8,
            [f"x{i:04d}" for i in range(200)],
            rng.standard_normal((200, 8)).astype(np.float32),
        )
        query = "x0042"
        got = neighbor_report(table, query, k=10)
        qv = table.vector(query).astype(np.float64)
        scored = [
            (label, cosine(table.vector(label).astype(np.float64), qv))
            for label in table.labels
            if label != query
        ]
        scored.sort(key=lambda ls: (-ls[1], ls[0]))
        assert [l for l, _ in got] == [l for l, _ in scored[:10]]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in scored[:10]], atol=1e-12)

    def test_missing_query(self, make_table):
        with pytest.raises(MissingLabelError):
            neighbor_report(make_table(3, 2), "nope", k=1)

    def test_ties_break_lexicographically(self):
        table = EmbeddingTable.from_pairs(
            [("q", [1.0, 0.0]), ("bbb", [3.0, 0.0]), ("aaa", [2.0, 0.0])]
        )
        assert [l for l, _ in neighbor_report(table, "q", k=2)] == ["aaa", "bbb"]


class TestAggregationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggregationConfig(T=0)
        with pytest.raises(ValueError):
            AggregationConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            AggregationConfig(alpha=1.1)


# ---------------------------------------------------------------------------
# Property tests: the blocked whole-table paths against their scalar references.


def same_bits(a, b) -> bool:
    """Equal arrays of one dtype, with -0.0 and 0.0 told apart."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_aggregate_table(wikitext, assignments, words, cfg):
    """Row-at-a-time reinforcement through `semantic_embedding`, rounded to
    float32 as the semantic table stores it, and `aggregate`."""
    out = wikitext.matrix.copy()
    for i, label in enumerate(wikitext.labels):
        assignment = assignments.get(label)
        if assignment is not None and assignment.type_words:
            sem = semantic_embedding(assignment, words, cfg).vector.astype(np.float32)
            out[i] = aggregate(wikitext.matrix[i], sem, cfg.alpha).astype(np.float32)
    return out


@st.composite
def aggregation_worlds(draw):
    # vectors come from a seeded generator over a wide exponent range, so the
    # float64 sums round and any change in the order of the additions shows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vectors(n, dim):
        return rng.standard_normal((n, dim)) * 2.0 ** rng.integers(-30, 30, (n, dim))

    # dim 1, where a row's positions are numpy's contiguous axis, half the time
    dim = draw(st.just(1) | st.integers(2, 4))
    # half the worlds let an entity use 9-11 type words: from 9 rows on, a
    # pairwise sum (numpy's along a contiguous axis) would differ
    wide = draw(st.booleans())
    n_words = draw(st.integers(9, 12) if wide else st.integers(1, 7))
    words = EmbeddingTable(dim, [f"w{i}" for i in range(n_words)], vectors(n_words, dim))
    n = draw(st.integers(0, 13))
    entities = EmbeddingTable(dim, [f"e{i:02d}" for i in range(n)], vectors(n, dim))
    # absent, empty, shorter than T, exactly T and longer than T assignments;
    # one world in four has a type word without a vector
    vocabulary = words.labels + (["ghost"] if draw(st.integers(0, 3)) == 0 else [])
    assignments = {}
    for label in entities.labels:
        count = draw(st.integers(-1, 12 if wide else 8))
        if count >= 0:
            chosen = draw(st.permutations(vocabulary))[:count]
            assignments[label] = EntityTypeAssignment(label, chosen)
    cfg = AggregationConfig(
        T=draw(st.integers(9, 11) if wide else st.integers(1, 5)),
        alpha=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99)),
    )
    block = draw(st.integers(1, 5))  # rows per block, so blocks straddle the table
    return words, entities, assignments, cfg, block


def block_rows(block, assignments, T):
    """A gather bound that makes `embed_io.row_means` take ``block`` entities at a time."""
    width = max((len(a.type_words[:T]) for a in assignments.values()), default=0)
    return block * max(width, 1)


def _outcome(fn):
    try:
        return fn(), None
    except MissingWordVectorError as e:
        return None, str(e)


@given(aggregation_worlds())
def test_blocked_aggregate_table_matches_scalar_reference(world):
    words, entities, assignments, cfg, block = world
    with mock.patch.object(embed_io, "BLOCK_ROWS", block_rows(block, assignments, cfg.T)):
        got, got_error = _outcome(lambda: aggregate_table(entities, assignments, words, cfg))
    want, want_error = _outcome(lambda: reference_aggregate_table(entities, assignments, words, cfg))
    assert got_error == want_error
    if want_error is None:
        assert got.labels == entities.labels
        assert same_bits(got.matrix, want)


@given(aggregation_worlds())
def test_blocked_semantic_table_matches_semantic_embedding(world):
    words, entities, assignments, cfg, block = world
    parts = []

    def spied_row_means(matrix, rows):
        for part, means, counts in embed_io.row_means(matrix, rows):
            parts.append(part.stop - part.start)
            yield part, means, counts

    def scalar():
        typed = [a for a in assignments.values() if a.type_words]
        vectors = [semantic_embedding(a, words, cfg).vector for a in typed]
        return [a.entity_id for a in typed], np.array(vectors, dtype=np.float32).reshape(len(typed), words.dim)

    with mock.patch.object(embed_io, "BLOCK_ROWS", block_rows(block, assignments, cfg.T)), \
            mock.patch.object(semantic_aggregation, "row_means", spied_row_means):
        got, got_error = _outcome(lambda: semantic_table(assignments, words, cfg.T))
    want, want_error = _outcome(scalar)
    assert got_error == want_error
    if want_error is None:
        assert parts[:-1] == [block] * (len(parts) - 1) and parts[-1:] <= [block]
        labels, vectors = want
        assert got.labels == labels
        # the float64 means rounded once to float32: same additions in the same order
        assert same_bits(got.matrix, vectors)


def reference_neighbor_report(table, query, k):
    """Full float64 copy, full norms and a full sort over every other label."""
    m = table.matrix.astype(np.float64)
    q = table.vector(query).astype(np.float64)
    norms = np.linalg.norm(m, axis=1)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        scores = np.zeros(len(table))
    else:
        scores = (m @ q) / (np.where(norms == 0.0, 1.0, norms) * qn)
        scores[norms == 0.0] = 0.0
    order = sorted(
        (i for i, label in enumerate(table.labels) if label != query),
        key=lambda i: (-scores[i], table.labels[i]),
    )
    return [(table.labels[i], float(scores[i])) for i in order[:k]]


@st.composite
def tied_tables(draw):
    # small integer components: many rows share a direction (exact cosine
    # ties), some rows are zero, and every dot product is exact
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 14))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=n, max_size=n))
    labels = draw(st.permutations([f"x{i:02d}" for i in range(n)]))
    table = EmbeddingTable.from_pairs(list(zip(labels, rows)), dim)
    query = draw(st.sampled_from(labels))
    k = draw(st.integers(1, n + 1))
    return table, query, k, draw(st.integers(1, 4))


@given(tied_tables())
def test_neighbor_report_matches_full_sort(world):
    table, query, k, block = world
    with mock.patch.object(embed_io, "BLOCK_ROWS", block):
        got = neighbor_report(table, query, k)
    assert got == reference_neighbor_report(table, query, k)


def test_row_norms_cached_and_read_only(make_table):
    table = make_table(7, 5)
    norms = table.row_norms()
    assert norms is table.row_norms()
    np.testing.assert_array_equal(norms, np.linalg.norm(table.matrix.astype(np.float64), axis=1))
    with pytest.raises(ValueError):
        norms[0] = 1.0


def test_huge_T_allocates_only_the_type_words_used():
    # T bounds how many type words an entity may use, not how many it has, so
    # it must not size an allocation: at T = 10**6 the 18 entities of the test
    # fixture used to pad their index rows to a million columns each
    bundle = generate_fixture(7, FixtureSizes(
        entities=18, groups=6, train_docs=6, dev_docs=3, eval_docs=3,
        mentions_per_doc=3, dim=16, filler_words=40,
    ))
    cfg = AggregationConfig(T=10**6, alpha=0.2)
    tracemalloc.start()
    try:
        semantic = semantic_table(bundle.assignments, bundle.words, cfg.T)
        table = aggregate_table(bundle.wikitext, bundle.assignments, bundle.words, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    typed = [a for a in bundle.assignments.values() if a.type_words]
    want = [semantic_embedding(a, bundle.words, cfg).vector for a in typed]
    assert semantic.labels == [a.entity_id for a in typed]
    assert same_bits(semantic.matrix, np.array(want, dtype=np.float32))
    assert same_bits(table.matrix, reference_aggregate_table(bundle.wikitext, bundle.assignments, bundle.words, cfg))
