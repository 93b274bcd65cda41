"""Bilinear scores vs naive oracles, inference vs enumeration, trainer checks."""

import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlink import embed_io, linking_core
from semlink.embed_io import EmbeddingTable
from semlink.errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    EmptyTrainingError,
    FormatError,
    InvalidDocumentError,
    MissingLabelError,
    NonFiniteError,
    RelationArityError,
)
from semlink.evaluation import gold_map, micro_f1
from semlink.corpus import LinkingDocument, Mention
from semlink.linking_core import (
    LinkingModel,
    STRATEGIES,
    TrainConfig,
    TrainResult,
    context_feature,
    document_score,
    infer,
    local_score,
    margin_loss_and_gradient,
    pairwise_score,
    relation_pairwise_score,
    relation_weights,
    train,
    train_runs,
    _build_instances,
    _features,
    _CandidateBlock,
    _greedy_picks,
    _hinges,
    _local_scores,
    _pack_candidates,
    _TrainingSet,
    _usable,
)

from conftest import identity_model, random_doc, toy_world


def table_from(rows):
    return EmbeddingTable.from_pairs(list(rows.items()))


class TestContextFeature:
    def test_single_known_word(self):
        words = table_from({"w": [1.0, -2.0]})
        f = context_feature(Mention("m", context=["w"]), words)
        assert f.dtype == np.float64
        np.testing.assert_array_equal(f, [1.0, -2.0])

    def test_all_oov_window(self):
        words = table_from({"w": [1.0, -2.0]})
        f = context_feature(Mention("m", context=["x", "y", "z"]), words)
        np.testing.assert_array_equal(f, [0.0, 0.0])

    def test_mean_matches_oracle(self, rng):
        labels = [f"w{i}" for i in range(10)]
        words = EmbeddingTable(6, labels, rng.standard_normal((10, 6)).astype(np.float32))
        window = labels[2:9] + ["oov1", "oov2"]
        f = context_feature(Mention("m", context=window), words)
        oracle = np.mean([words.vector(l).astype(np.float64) for l in labels[2:9]], axis=0)
        np.testing.assert_allclose(f, oracle, atol=1e-7)


# ---------------------------------------------------------------------------
# Bit-exact oracle for the batched gathers: the per-token context mean and the
# per-mention candidate rows they replaced.


def per_token_feature(mention, words):
    """The context mean one token at a time, in a zero-initialised float64 sum."""
    acc = np.zeros(words.dim, dtype=np.float64)
    found = 0
    for token in mention.context:
        if token not in words:
            continue
        acc += words.vector(token).astype(np.float64)
        found += 1
    return acc / found if found else acc


def per_mention_candidates(mentions, entities):
    """(N, M, d) sorted candidate rows, zero-padded to M, and their (N, M) mask."""
    width = max((len(m.candidates) for m in mentions), default=0)
    vectors = np.zeros((len(mentions), width, entities.dim))
    mask = np.zeros((len(mentions), width), dtype=bool)
    for n, m in enumerate(mentions):
        for k, label in enumerate(sorted(m.candidates)):
            vectors[n, k] = entities.vector(label).astype(np.float64)
            mask[n, k] = True
    return vectors, mask


# float32 values of every magnitude, so the summation order shows in the bits
_f32 = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0, width=32),
)


@st.composite
def gather_worlds(draw):
    """Mentions of 0-24 context tokens, known, unknown and repeated, with 0-3
    candidates each, over word and entity tables that share a dimension."""
    dim = draw(st.integers(1, 4))
    vector = st.lists(_f32, min_size=dim, max_size=dim)
    words = EmbeddingTable.from_pairs([(f"w{i}", draw(vector)) for i in range(draw(st.integers(1, 5)))], dim)
    entities = EmbeddingTable.from_pairs([(f"e{i}", draw(vector)) for i in range(4)], dim)
    tokens = st.sampled_from(words.labels + ["oov", "w99"])
    contexts = st.one_of(
        st.lists(tokens, max_size=24),
        st.lists(tokens, min_size=1, max_size=1),
        st.lists(st.sampled_from(["oov", "w99"]), max_size=3),
    )
    mentions = [
        Mention("m", draw(contexts), draw(st.lists(st.sampled_from(entities.labels), max_size=3, unique=True)))
        for _ in range(draw(st.integers(0, 9)))
    ]
    # mentions per gather; None keeps the default row bound
    chunk = draw(st.sampled_from([1, 2, 3, None]))
    return mentions, entities, words, chunk


@given(gather_worlds())
def test_batched_gathers_equal_per_token_and_per_mention_loops(world):
    mentions, entities, words, chunk = world
    width = max((sum(t in words for t in m.context) for m in mentions), default=0)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            # a gather of `chunk` mentions at the widest context
            mp.setattr(embed_io, "BLOCK_ROWS", chunk * max(width, 1))
        features = _features(mentions, words)
        block = _pack_candidates([LinkingDocument(str(n), [m]) for n, m in enumerate(mentions)], entities, words)
        singles = [context_feature(m, words) for m in mentions]
    want = np.zeros((len(mentions), words.dim))
    for n, m in enumerate(mentions):
        want[n] = per_token_feature(m, words)
    assert features.tobytes() == want.tobytes()
    assert block.features.tobytes() == want.tobytes()
    for f, w in zip(singles, want):
        assert f.tobytes() == w.tobytes()
    vectors, mask = per_mention_candidates(mentions, entities)
    # the flat block holds the padded block's real rows, mention by mention
    assert block.vectors.shape == (mask.sum(), entities.dim)
    assert block.vectors.tobytes() == vectors[mask].tobytes()
    assert block.offsets == [0, *np.cumsum(mask.sum(axis=1)).tolist()]
    assert block.labels == [sorted(m.candidates) for m in mentions]


def test_features_add_context_rows_in_sequence():
    # in sequence 2**53 + 1 rounds back to 2**53 twice; summing the ones
    # first (as np.add.reduceat does after a segment's first row) gives 2**53 + 2
    words = table_from({"big": [2.0**53], "one": [1.0]})
    mention = Mention("m", ["big", "one", "one"])
    assert _features([mention], words).tobytes() == per_token_feature(mention, words).tobytes()
    assert context_feature(mention, words)[0] == 2.0**53 / 3


def test_long_contexts_add_rows_in_sequence(rng):
    # at d = 1 the context axis is the contiguous one, where numpy's own sums
    # (sum, reduceat) add 9 or more rows pairwise, not in sequence
    words = EmbeddingTable(1, [f"w{i}" for i in range(40)], (
        rng.standard_normal((40, 1)) * 2.0 ** rng.integers(-30, 30, (40, 1))
    ).astype(np.float32))
    mentions = [Mention("m", list(rng.choice(words.labels, size=n))) for n in (9, 17, 40, 64)]
    want = np.array([per_token_feature(m, words) for m in mentions])
    assert _features(mentions, words).tobytes() == want.tobytes()


def per_mention_instances(docs, entities, words, train_pairwise):
    """`_build_instances`' FD, PD, mask and skipped count, one mention at a time."""
    trainable = [m for doc in docs for m in doc.mentions if m.gold_in_candidates()]
    negatives = [[c for c in sorted(m.candidates) if c != m.gold] for m in trainable]
    width = max((len(negs) for negs in negatives), default=0)
    FD = np.zeros((len(trainable), width, entities.dim))
    PD = np.zeros_like(FD) if train_pairwise else None
    mask = np.zeros((len(trainable), width), dtype=bool)
    n = 0
    for doc in docs:
        golds = [
            entities.vector(m.gold).astype(np.float64) if m.gold_in_candidates() else None
            for m in doc.mentions
        ]
        for i, gold in enumerate(golds):
            if gold is None:
                continue
            rows = [entities.vector(c).astype(np.float64) for c in negatives[n]]
            diff = np.array(rows).reshape(len(rows), entities.dim) - gold
            FD[n, : len(diff)] = diff * per_token_feature(doc.mentions[i], words)
            others = [g for j, g in enumerate(golds) if j != i and g is not None]
            if PD is not None and others:
                PD[n, : len(diff)] = diff * (np.sum(others, axis=0) / (len(golds) - 1))
            mask[n, : len(diff)] = True
            n += 1
    skipped = sum(len(doc.mentions) for doc in docs) - len(trainable)
    return FD, PD, mask, skipped


@st.composite
def instance_worlds(draw):
    """Ragged documents of 1-4 mentions with 0-5 negatives each, golds absent,
    outside the candidates or outside the table, over float32 values of
    every magnitude; both ``train_pairwise`` values."""
    dim = draw(st.integers(1, 4))
    vector = st.lists(_f32, min_size=dim, max_size=dim)
    words = EmbeddingTable.from_pairs([(f"w{i}", draw(vector)) for i in range(3)], dim)
    entities = EmbeddingTable.from_pairs([(f"e{i}", draw(vector)) for i in range(8)], dim)

    def mention():
        candidates = draw(st.lists(st.sampled_from(entities.labels), min_size=1, max_size=6, unique=True))
        gold = draw(st.one_of(
            st.sampled_from(candidates), st.none(), st.sampled_from(entities.labels + ["ghost"])
        ))
        return Mention("m", draw(st.lists(st.sampled_from(words.labels + ["oov"]), max_size=4)), candidates, gold)

    docs = [
        LinkingDocument(f"d{k}", [mention() for _ in range(draw(st.integers(1, 4)))])
        for k in range(draw(st.integers(0, 5)))
    ]
    return docs, entities, words, draw(st.booleans())


def test_pair_context_adds_other_golds_in_sequence():
    # in sequence 2**53 + 1 + 1 rounds back to 2**53; in any other order the
    # ones add up first and the sum is 2**53 + 2
    entities = table_from({"g0": [0.0], "big": [2.0**53], "one": [1.0], "one'": [1.0], "neg": [3.0]})
    words = table_from({"w": [1.0]})
    doc = LinkingDocument("d", [
        Mention("m", ["w"], [gold, "neg"], gold) for gold in ("g0", "big", "one", "one'")
    ])
    got, _ = _build_instances([doc], entities, words, True)
    _FD, PD, _mask, _skipped = per_mention_instances([doc], entities, words, True)
    assert got.PD.tobytes() == PD.tobytes()
    assert got.PD[0, 0, 0] == (3.0 - 0.0) * (2.0**53 / 3)


@given(instance_worlds())
def test_build_instances_equal_per_mention_builder(world):
    docs, entities, words, train_pairwise = world
    got, skipped = _build_instances(docs, entities, words, train_pairwise)
    FD, PD, mask, want_skipped = per_mention_instances(docs, entities, words, train_pairwise)
    assert got.FD.shape == FD.shape and got.FD.tobytes() == FD.tobytes()
    if train_pairwise:
        assert got.PD.shape == PD.shape and got.PD.tobytes() == PD.tobytes()
    else:
        assert got.PD is None
    assert got.mask.shape == mask.shape and got.mask.tobytes() == mask.tobytes()
    assert skipped == want_skipped


class TestLocalScore:
    def test_identity_diag_is_dot_product(self, rng):
        e = rng.standard_normal(8)
        f = rng.standard_normal(8)
        assert local_score(e, np.ones(8), f) == pytest.approx(float(e @ f), abs=1e-12)

    def test_hand_arithmetic(self):
        assert local_score([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]) == pytest.approx(63.0)

    def test_zero_diag(self, rng):
        assert local_score(rng.standard_normal(5), np.zeros(5), rng.standard_normal(5)) == 0.0

    def test_triple_loop_oracle(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 17))
            e, B, f = rng.standard_normal((3, d))
            expected = sum(e[j] * B[j] * f[j] for j in range(d))
            assert local_score(e, B, f) == pytest.approx(expected, abs=1e-9)

    def test_bilinear(self, rng):
        e, B, f = rng.standard_normal((3, 6))
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        assert local_score(a * e, B, f) == pytest.approx(a * local_score(e, B, f), rel=1e-6)
        assert local_score(e, B, b * f) == pytest.approx(b * local_score(e, B, f), rel=1e-6)
        e2 = rng.standard_normal(6)
        assert local_score(e + e2, B, f) == pytest.approx(
            local_score(e, B, f) + local_score(e2, B, f), rel=1e-6, abs=1e-9
        )

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            local_score([1.0], [1.0, 2.0], [1.0])

    def test_accepts_context_feature(self):
        f = context_feature(Mention("m", context=["w", "w"]), table_from({"w": [1.0, 1.0]}))
        assert local_score([1.0, 2.0], [1.0, 1.0], f) == pytest.approx(3.0)


class TestPairwiseScore:
    def test_n2_reduces_to_plain_bilinear(self, rng):
        e1, e2, C = rng.standard_normal((3, 5))
        expected = float(np.sum(e1 * C * e2))
        assert pairwise_score(e1, e2, C, 2) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_vectors(self, rng):
        C = rng.standard_normal(2)
        assert pairwise_score([1.0, 0.0], [0.0, 1.0], C, 3) == 0.0

    def test_hand_arithmetic(self):
        assert pairwise_score([1.0, 2.0], [3.0, 4.0], [1.0, 1.0], 3) == pytest.approx(5.5)

    def test_triple_loop_oracle(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 17))
            n = int(rng.integers(2, 8))
            ei, ej, C = rng.standard_normal((3, d))
            expected = sum(ei[k] * C[k] * ej[k] for k in range(d)) / (n - 1)
            assert pairwise_score(ei, ej, C, n) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_exact(self, rng):
        for _ in range(50):
            ei, ej, C = rng.standard_normal((3, 12))
            assert pairwise_score(ei, ej, C, 4) == pairwise_score(ej, ei, C, 4)

    def test_small_document_rejected(self):
        with pytest.raises(InvalidDocumentError):
            pairwise_score([1.0], [1.0], [1.0], 1)


class TestRelationScore:
    def test_single_relation_reduces_to_unscaled_pairwise(self, rng):
        ei, ej, C = rng.standard_normal((3, 6))
        model = LinkingModel(6, np.ones(6), C, relations=[C])
        for n in (2, 3, 7):
            got = relation_pairwise_score(ei, ej, model, [1.0])
            assert got == pytest.approx((n - 1) * pairwise_score(ei, ej, C, n), rel=1e-12)

    def test_zero_weights(self, rng):
        ei, ej = rng.standard_normal((2, 4))
        model = LinkingModel(4, np.ones(4), np.ones(4),
                             relations=[rng.standard_normal(4) for _ in range(3)])
        assert relation_pairwise_score(ei, ej, model, [0.0, 0.0, 0.0]) == 0.0

    def test_triple_loop_oracle(self, rng):
        for _ in range(20):
            d = 4
            K = 2
            ei, ej = rng.standard_normal((2, d))
            relations = [rng.standard_normal(d) for _ in range(K)]
            weights = rng.uniform(0, 1, K)
            model = LinkingModel(d, np.ones(d), np.ones(d), relations=relations)
            expected = 0.0
            for k in range(K):
                for j in range(d):
                    expected += weights[k] * ei[j] * relations[k][j] * ej[j]
            got = relation_pairwise_score(ei, ej, model, weights)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_weight_arity_mismatch(self, rng):
        model = LinkingModel(3, np.ones(3), np.ones(3), relations=[np.ones(3)])
        with pytest.raises(RelationArityError):
            relation_pairwise_score(np.ones(3), np.ones(3), model, [0.5, 0.5])

    def test_uniform_weights(self):
        model = LinkingModel(2, np.ones(2), np.ones(2),
                             relations=[np.ones(2), np.ones(2), np.ones(2)])
        np.testing.assert_allclose(relation_weights(model, np.ones(2), np.ones(2)), [1 / 3] * 3)

    def test_softmax_weights_sum_to_one(self, rng):
        model = LinkingModel(
            5, np.ones(5), np.ones(5),
            relations=[rng.standard_normal(5) for _ in range(4)],
            relation_weighting="softmax",
        )
        w = relation_weights(model, rng.standard_normal(5), rng.standard_normal(5))
        assert w.sum() == pytest.approx(1.0)
        assert (w > 0).all()


class TestDocumentScore:
    def test_single_mention_is_local_only(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 1, 3)
        model = identity_model(4)
        choice = [doc.mentions[0].candidates[0]]
        f = context_feature(doc.mentions[0], words)
        expected = local_score(entities.vector(choice[0]).astype(np.float64), model.B, f)
        assert document_score(choice, doc, model, entities, words) == pytest.approx(expected)

    def test_zero_coupling_is_sum_of_locals(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 2, 3)
        model = LinkingModel(4, np.ones(4), np.zeros(4))
        choice = [m.candidates[0] for m in doc.mentions]
        feats = [context_feature(m, words) for m in doc.mentions]
        expected = sum(
            local_score(entities.vector(c).astype(np.float64), model.B, f)
            for c, f in zip(choice, feats)
        )
        assert document_score(choice, doc, model, entities, words) == pytest.approx(expected)

    def test_full_enumeration_oracle(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 3, 2)
        model = LinkingModel(4, rng.standard_normal(4), rng.standard_normal(4))
        feats = [context_feature(m, words) for m in doc.mentions]
        n = 3
        for choice in itertools.product(*(m.candidates for m in doc.mentions)):
            vecs = [entities.vector(c).astype(np.float64) for c in choice]
            expected = sum(
                local_score(v, model.B, f) for v, f in zip(vecs, feats)
            ) + sum(
                pairwise_score(vecs[i], vecs[j], model.C, n)
                for i, j in itertools.combinations(range(n), 2)
            )
            got = document_score(list(choice), doc, model, entities, words)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_features_as_none_rows_or_one_array(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 3, 2)
        model = LinkingModel(4, rng.standard_normal(4), rng.standard_normal(4))
        choice = [m.candidates[0] for m in doc.mentions]
        rows = [context_feature(m, words) for m in doc.mentions]
        scores = [document_score(choice, doc, model, entities, words, features=f)
                  for f in (None, rows, np.stack(rows))]
        assert scores[0] == scores[1] == scores[2]

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_unknown_pairwise_mode_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        choice = [m.candidates[0] for m in doc.mentions]
        with pytest.raises(ValueError, match="pairwise"):
            document_score(choice, doc, identity_model(4), entities, words, pairwise="bogus")

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_relations_without_relations_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        choice = [m.candidates[0] for m in doc.mentions]
        with pytest.raises(RelationArityError):
            document_score(
                choice, doc, identity_model(4), entities, words, pairwise="relations"
            )


class TestInfer:
    def test_single_candidate_everywhere(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 3, 1)
        model = identity_model(4)
        expected = [m.candidates[0] for m in doc.mentions]
        assert infer(doc, model, entities, words, "exhaustive") == expected
        assert infer(doc, model, entities, words, "greedy-local") == expected

    def test_zero_coupling_matches_greedy(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        model = LinkingModel(4, rng.standard_normal(4), np.zeros(4))
        for i in range(10):
            doc = random_doc(rng, labels, wlabels, 3, 3, doc_id=f"d{i}")
            assert infer(doc, model, entities, words, "exhaustive") == infer(
                doc, model, entities, words, "greedy-local"
            )

    def test_exhaustive_matches_enumeration(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        model = LinkingModel(4, rng.standard_normal(4), rng.standard_normal(4))
        doc = random_doc(rng, labels, wlabels, 3, 3)
        got = infer(doc, model, entities, words, "exhaustive")
        assert got == enumeration_argmax(doc, model, entities, words)[0]

    @pytest.mark.parametrize("weighting", ["uniform", "softmax"])
    def test_relations_exhaustive_matches_enumeration(self, rng, weighting):
        entities, words, labels, wlabels = toy_world(rng, n_entities=8)
        for trial in range(5):
            model = LinkingModel(
                4, rng.standard_normal(4), rng.standard_normal(4),
                relations=[rng.standard_normal(4) for _ in range(3)],
                relation_weighting=weighting,
            )
            doc = random_doc(rng, labels, wlabels, 3 + trial % 2, 3, doc_id=f"d{trial}")
            got = infer(doc, model, entities, words, "exhaustive", pairwise="relations")
            assert got == enumeration_argmax(doc, model, entities, words, "relations")[0]

    def test_scaling_invariance_of_argmax(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        B = rng.standard_normal(4)
        C = rng.standard_normal(4)
        doc = random_doc(rng, labels, wlabels, 3, 3)
        base = infer(doc, LinkingModel(4, B, C), entities, words, "exhaustive")
        for scale in (0.25, 3.0, 117.0):
            scaled = infer(doc, LinkingModel(4, scale * B, scale * C), entities, words, "exhaustive")
            assert scaled == base

    def test_capacity_guard(self, rng):
        entities, words, labels, wlabels = toy_world(rng, n_entities=60)
        mentions = [
            Mention("m", context=["w0"], candidates=list(labels[:40]))
            for _ in range(4)
        ]  # 40^4 = 2.56e6 > 1e6
        doc = LinkingDocument("big", mentions)
        model = identity_model(4)
        with pytest.raises(CapacityError):
            infer(doc, model, entities, words, "exhaustive")
        assert len(infer(doc, model, entities, words, "greedy-local")) == 4

    def test_empty_candidates_rejected(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = LinkingDocument("d", [Mention("m", context=[], candidates=[])])
        for strategy in STRATEGIES:
            with pytest.raises(InvalidDocumentError):
                infer(doc, identity_model(4), entities, words, strategy)

    def test_entity_word_dimension_mismatch(self, rng):
        entities, _, labels, wlabels = toy_world(rng, dim=4)
        words = EmbeddingTable(3, wlabels, rng.standard_normal((10, 3)).astype(np.float32))
        doc = random_doc(rng, labels, wlabels, 2, 3)
        with pytest.raises(DimensionError):
            infer(doc, identity_model(4), entities, words, "greedy-local")
        for pairwise in ("diagonal", "relations"):
            with pytest.raises(DimensionError):
                infer(doc, identity_model(4, 1), entities, words, "exhaustive", pairwise)
        with pytest.raises(DimensionError):
            train([doc], entities, words, TrainConfig(epochs=1))

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy-local"])
    @pytest.mark.parametrize("pairwise", ["diagonal", "relations"])
    def test_model_entity_dimension_mismatch(self, rng, strategy, pairwise):
        entities, words, labels, wlabels = toy_world(rng, dim=4)
        doc = random_doc(rng, labels, wlabels, 2, 3)
        with pytest.raises(DimensionError):
            infer(doc, identity_model(3, 1), entities, words, strategy, pairwise)

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_relations_without_relations_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        with pytest.raises(RelationArityError):
            infer(doc, identity_model(4), entities, words, "exhaustive", pairwise="relations")

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_unknown_pairwise_mode_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        with pytest.raises(ValueError, match="pairwise"):
            infer(doc, identity_model(4), entities, words, "exhaustive", pairwise="dense")

    def test_tie_breaks_lexicographic(self, rng):
        # identical candidate vectors -> tie; smallest label must win
        entities = EmbeddingTable.from_pairs(
            [("zz", [1.0, 0.0]), ("aa", [1.0, 0.0]), ("mm", [1.0, 0.0])]
        )
        words = EmbeddingTable.from_pairs([("w", [1.0, 1.0])])
        doc = LinkingDocument(
            "d", [Mention("m", context=["w"], candidates=["zz", "aa", "mm"])]
        )
        model = identity_model(2)
        assert infer(doc, model, entities, words, "exhaustive") == ["aa"]
        assert infer(doc, model, entities, words, "greedy-local") == ["aa"]

    def test_tie_breaks_lexicographic_across_mentions(self):
        # "zz" and "aa" share a vector, so the four best assignments tie; the
        # coherence term moves mention 1 from its local best "mm" to "bb"
        entities = EmbeddingTable.from_pairs(
            [("zz", [1.0, 0.5]), ("aa", [1.0, 0.5]), ("mm", [0.2, -1.0]), ("bb", [-0.5, 0.3])]
        )
        words = EmbeddingTable.from_pairs([("w", [1.0, 1.0])])
        doc = LinkingDocument("d", [
            Mention("m0", context=["w"], candidates=["zz", "mm", "aa"]),
            Mention("m1", context=["w"], candidates=["bb", "mm"]),
            Mention("m2", context=["w"], candidates=["aa", "bb", "zz"]),
        ])
        model = LinkingModel(2, np.array([1.0, 0.5]), np.array([0.75, 2.0]))
        got = infer(doc, model, entities, words, "exhaustive")
        assert got == ["aa", "bb", "aa"]
        assert got == enumeration_argmax(doc, model, entities, words)[0]


def enumeration_argmax(doc, model, entities, words, pairwise="diagonal"):
    """First maximum of ``document_score`` over the sorted candidate product."""
    best, best_score = None, -np.inf
    for choice in itertools.product(*(sorted(m.candidates) for m in doc.mentions)):
        s = document_score(list(choice), doc, model, entities, words, pairwise=pairwise)
        if s > best_score:
            best, best_score = list(choice), s
    return best, best_score


# Quarter-step values, one, two or four context tokens per mention: every
# context mean and local term is then exact, and every pairwise term is
# computed exactly or rounded once, identically, by the packed and the
# scalar path, so their argmaxes agree bit for bit.  (A three-token mean is
# inexact, and then the two paths' different addition orders may round a
# tie apart: see the fixed world below.)
_quarters = st.integers(-8, 8).map(lambda q: q / 4)


@st.composite
def small_linking_worlds(draw):
    dim = draw(st.integers(1, 3))
    vector = st.lists(_quarters, min_size=dim, max_size=dim)
    n_entities = draw(st.integers(2, 5))
    labels = [f"e{i}" for i in range(n_entities)]
    entities = EmbeddingTable.from_pairs([(l, draw(vector)) for l in labels], dim)
    words = EmbeddingTable.from_pairs([(f"w{i}", draw(vector)) for i in range(3)], dim)
    mentions = [
        Mention(
            "m",
            context=draw(st.sampled_from([1, 2, 4]).flatmap(
                lambda n: st.lists(st.sampled_from(words.labels), min_size=n, max_size=n))),
            candidates=draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    mode = draw(st.sampled_from(["diagonal", "uniform", "softmax"]))
    K = draw(st.sampled_from([1, 2, 4]))
    model = LinkingModel(
        dim, np.array(draw(vector)), np.array(draw(vector)),
        relations=[np.array(draw(vector)) for _ in range(K)],
        relation_weighting="softmax" if mode == "softmax" else "uniform",
    )
    return LinkingDocument("d", mentions), model, entities, words, mode


@given(small_linking_worlds())
def test_exhaustive_infer_equals_enumeration(world):
    doc, model, entities, words, mode = world
    pairwise = "diagonal" if mode == "diagonal" else "relations"
    got = infer(doc, model, entities, words, "exhaustive", pairwise)
    best, best_score = enumeration_argmax(doc, model, entities, words, pairwise)
    if mode == "softmax" and got != best:
        # softmax weights are transcendental, and the two paths may round
        # them differently: only a tie up to rounding may separate the answers
        got_score = document_score(got, doc, model, entities, words, pairwise=pairwise)
        assert got_score == pytest.approx(best_score, rel=1e-12, abs=1e-12)
    else:
        assert got == best


def test_exhaustive_infer_on_an_inexact_tie_scores_within_rounding_of_enumeration():
    # three-token contexts make the features inexact; (e2, e2, e2) and
    # (e2, e3, e2) then tie in the score tensor at 4.458333333333334, while
    # `document_score`, adding the relation terms in another order, puts
    # the first one ulp lower
    entities = EmbeddingTable.from_pairs([("e0", [0.0, 0.0]), ("e1", [0.0, 0.0]), ("e2", [-1.0, -1.5]),
                                          ("e3", [0.0, -0.25])])
    words = EmbeddingTable.from_pairs([("w0", [-1.0, 1.75]), ("w1", [0.0, 0.0]), ("w2", [-0.5, -0.75])])
    model = LinkingModel(2, np.array([-0.5, -2.0]), np.zeros(2),
                         relations=[np.zeros(2), np.zeros(2), np.zeros(2), np.array([0.0, -2.0])])
    doc = LinkingDocument("d", [Mention("m", ["w0", "w0", "w1"], ["e0", "e2"]),
                                Mention("m", ["w0", "w0", "w2"], ["e0", "e2", "e3"]),
                                Mention("m", ["w0", "w0", "w2"], ["e0", "e1", "e2"])])
    got = infer(doc, model, entities, words, "exhaustive", "relations")
    best, best_score = enumeration_argmax(doc, model, entities, words, "relations")
    assert best == ["e2", "e3", "e2"] and got in (["e2", "e2", "e2"], best)
    got_score = document_score(got, doc, model, entities, words, pairwise="relations")
    assert got_score == pytest.approx(best_score, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_infer_names_a_candidate_missing_from_the_table(rng, strategy):
    entities, words, labels, wlabels = toy_world(rng)
    doc = LinkingDocument("d", [
        Mention("m", ["w0"], [labels[0], "ghost"]), Mention("n", ["w1"], [labels[1], labels[2]]),
    ])
    with pytest.raises(MissingLabelError, match="^label 'ghost' not in table: mention 0 of 'd'$"):
        infer(doc, identity_model(entities.dim), entities, words, strategy)


def test_document_score_names_an_assigned_label_missing_from_the_table(rng):
    entities, words, labels, wlabels = toy_world(rng)
    doc = random_doc(rng, labels, wlabels, 3, 3)
    choice = [doc.mentions[0].candidates[0], "ghost", "ghost"]
    with pytest.raises(MissingLabelError, match="^label 'ghost' not in table: mention 1 of 'd'$"):
        document_score(choice, doc, identity_model(entities.dim), entities, words)


def test_dev_packing_names_a_candidate_missing_from_the_table(rng):
    entities, words, labels, wlabels = toy_world(rng)
    docs = [random_doc(rng, labels, wlabels, 2, 3)]
    dev = [LinkingDocument("dev", [Mention("m", ["w0"], [labels[0], labels[1]], labels[0]),
                                   Mention("m", ["w0"], [labels[0], "ghost"], labels[0])])]
    with pytest.raises(MissingLabelError, match="^label 'ghost' not in table: mention 1 of 'dev'$"):
        train(docs, entities, words, TrainConfig(epochs=1), dev)


def test_training_packs_name_the_mention_of_a_missing_candidate(rng):
    """Only mentions with their gold among their candidates are packed, one
    table after another; the error names the mention that packing met."""
    entities, words, labels, wlabels = toy_world(rng)
    partial = EmbeddingTable.from_pairs([(label, entities.vector(label)) for label in labels[:2]])
    docs = [
        LinkingDocument("a", [Mention("m", ["w0"], [labels[2], labels[0]])]),  # no gold: not packed
        LinkingDocument("b", [Mention("m", ["w0"], [labels[0], labels[1]], labels[0]),
                              Mention("n", ["w1"], [labels[1], labels[2]], labels[1])]),
    ]
    train_runs(docs, [entities], words, TrainConfig(epochs=1), [0])
    with pytest.raises(MissingLabelError, match=f"^label '{labels[2]}' not in table: mention 1 of 'b'$"):
        train_runs(docs, [entities, partial], words, TrainConfig(epochs=1), [0])


# ---------------------------------------------------------------------------
# Bit-exact reference for the exhaustive score tensor: the scorer it replaced,
# a zero tensor, one broadcast add per local vector and one per pair block,
# each pair's factors taken afresh.


def reference_pair_block(Vi, Vj, model, n, pairwise):
    """(k_i, k_j) pairwise scores of every candidate pair of mentions i and j."""
    if pairwise == "diagonal":
        return (Vi * model.C) @ Vj.T / (n - 1)
    S = (Vi[:, None] * Vj[None]) @ np.stack(model.relations).T
    if model.relation_weighting == "uniform":
        return S @ np.full(model.K, 1.0 / model.K)
    w = np.exp(S - S.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return (w * S).sum(axis=-1)


def reference_score_tensor(doc, model, entities, words, pairwise):
    # its own zero-padded block, features and local scores, none from the code it judges
    vectors, mask = per_mention_candidates(doc.mentions, entities)
    features = np.array([per_token_feature(m, words) for m in doc.mentions])
    local = np.einsum("nmd,d,nd->nm", vectors, model.B, features)
    shape = tuple(mask.sum(axis=1))
    n = len(shape)

    def along(*axes):
        return tuple(k if a in axes else 1 for a, k in enumerate(shape))

    vecs = [vectors[i, :k] for i, k in enumerate(shape)]
    score = np.zeros(shape)
    for i, k in enumerate(shape):
        score += local[i, :k].reshape(along(i))
    for i, j in itertools.combinations(range(n), 2):
        score += reference_pair_block(vecs[i], vecs[j], model, n, pairwise).reshape(along(i, j))
    return score


def assert_same_score_tensor(doc, model, entities, words, pairwise):
    block = _pack_candidates([doc], entities, words)
    got = linking_core._score_tensor(block, model, pairwise)
    want = reference_score_tensor(doc, model, entities, words, pairwise)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(small_linking_worlds())
def test_score_tensor_equals_reference_on_small_worlds(world):
    doc, model, entities, words, mode = world
    assert_same_score_tensor(doc, model, entities, words, "diagonal" if mode == "diagonal" else "relations")


@pytest.mark.parametrize("mode", ["diagonal", "uniform", "softmax"])
@pytest.mark.parametrize("n_mentions", [2, 3, 4, 5])
def test_score_tensor_equals_reference_on_random_documents(rng, mode, n_mentions):
    # random-normal vectors and diagonals: every sum rounds, so a change in
    # the order or grouping of any addition shows in the bytes
    dim = 7
    entities, words, labels, wlabels = toy_world(rng, n_entities=9, dim=dim)
    for trial in range(4):
        model = LinkingModel(
            dim, rng.standard_normal(dim), rng.standard_normal(dim),
            relations=[rng.standard_normal(dim) for _ in range(3)],
            relation_weighting="softmax" if mode == "softmax" else "uniform",
        )
        doc = random_doc(rng, labels, wlabels, n_mentions, 1 + (trial + n_mentions) % 4, doc_id=f"d{trial}")
        assert_same_score_tensor(doc, model, entities, words, "diagonal" if mode == "diagonal" else "relations")


# ---------------------------------------------------------------------------
# `infer` checks one document in a fixed order, packs it alone, and picks
# what the scalar scores pick; a loop of it holds one document's pack.


def random_model(rng, dim, mode):
    return LinkingModel(
        dim, rng.standard_normal(dim), rng.standard_normal(dim),
        relations=[rng.standard_normal(dim) for _ in range(3)],
        relation_weighting="softmax" if mode == "softmax" else "uniform",
    )


def local_argmax(doc, model, entities, words):
    """Each mention's first sorted candidate with the highest `local_score`."""
    picks = []
    for m in doc.mentions:
        f = context_feature(m, words)
        scores = [local_score(entities.vector(c), model.B, f) for c in sorted(m.candidates)]
        picks.append(sorted(m.candidates)[int(np.argmax(scores))])
    return picks


@given(small_linking_worlds())
def test_greedy_infer_equals_the_local_argmax_on_small_worlds(world):
    # quarter-step values: every local score is exact, so ties agree too
    doc, model, entities, words, mode = world
    pairwise = "diagonal" if mode == "diagonal" else "relations"
    assert infer(doc, model, entities, words, "greedy-local", pairwise) == local_argmax(doc, model, entities, words)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("mode", ["diagonal", "uniform", "softmax"])
def test_infer_equals_the_scalar_argmax_on_random_documents(rng, strategy, mode):
    entities, words, labels, wlabels = toy_world(rng, n_entities=9, dim=7)
    model, pairwise = random_model(rng, 7, mode), "diagonal" if mode == "diagonal" else "relations"
    for i in range(6):
        doc = random_doc(rng, labels, wlabels, int(rng.integers(1, 5)), int(rng.integers(1, 6)), doc_id=f"d{i}")
        got = infer(doc, model, entities, words, strategy, pairwise)
        if strategy == "greedy-local":
            assert got == local_argmax(doc, model, entities, words)
        else:
            assert got == enumeration_argmax(doc, model, entities, words, pairwise)[0]


# the mentions of a document with one fault, and the same mentions without
# it, given the table's labels
_DOCUMENT_FAULTS = {
    "missing-label": (lambda labels: [Mention("m", ["w0"], [labels[0]]), Mention("n", ["w1"], [labels[1], "ghost"])],
                      lambda labels: [Mention("m", ["w0"], [labels[0]]), Mention("n", ["w1"], [labels[1]])]),
    "no-candidates": (lambda labels: [Mention("m", ["w0"], [labels[0]]), Mention("n", ["w1"], [])],
                      lambda labels: [Mention("m", ["w0"], [labels[0]]), Mention("n", ["w1"], [labels[1]])]),
    # 8 ** 7 assignments, over EXHAUSTIVE_CAPACITY
    "over-capacity": (lambda labels: [Mention("m", ["w0"], list(labels)) for _ in range(7)],
                      lambda labels: [Mention("m", ["w0"], [labels[0]]) for _ in range(7)]),
}
# `infer`'s checks in their order, and the error of each
_FAULT_ERRORS = {"no-candidates": InvalidDocumentError, "over-capacity": CapacityError,
                 "missing-label": MissingLabelError}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("first, second", [(a, b) for a in _DOCUMENT_FAULTS for b in _DOCUMENT_FAULTS if a != b])
def test_infer_raises_the_fault_its_checks_meet_first(rng, strategy, first, second):
    """A document with two faults raises the error of the one that `infer`
    checks first, wherever its mentions stand; greedy inference has no
    capacity, so there an over-capacity document is no fault."""
    entities, words, labels, wlabels = toy_world(rng, n_entities=8)
    model = identity_model(entities.dim)
    faults = [f for f in _FAULT_ERRORS if f in (first, second) and (f, strategy) != ("over-capacity", "greedy-local")]

    def raised(*kept):
        mentions = [m for f in (first, second) for m in _DOCUMENT_FAULTS[f][f not in kept](labels)]
        with pytest.raises(_FAULT_ERRORS[faults[0]]) as e:
            infer(LinkingDocument("d", mentions), model, entities, words, strategy)
        return str(e.value)

    # the message is that of the document with only that fault
    assert raised(first, second) == raised(faults[0])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("mode", ["diagonal", "uniform", "softmax"])
def test_infer_packs_its_document_alone_and_looks_up_its_labels_once(rng, monkeypatch, strategy, mode):
    entities, words, labels, wlabels = toy_world(rng, n_entities=9, dim=7)
    model, pairwise = random_model(rng, 7, mode), "diagonal" if mode == "diagonal" else "relations"
    docs = [random_doc(rng, labels, wlabels, int(rng.integers(1, 4)), int(rng.integers(1, 5)), doc_id=f"d{i}")
            for i in range(8)]
    want = [infer(doc, model, entities, words, strategy, pairwise) for doc in docs]
    calls = []  # (function, the documents it was given)
    for name in ("_pack_candidates", "_candidate_rows"):
        wrapped = getattr(linking_core, name)
        monkeypatch.setattr(linking_core, name, lambda docs, *a, _f=wrapped, _n=name, **kw:
                            calls.append((_n, list(docs))) or _f(docs, *a, **kw))
    for doc, picks in zip(docs, want):
        calls.clear()
        assert infer(doc, model, entities, words, strategy, pairwise) == picks
        assert calls == [("_pack_candidates", [doc]), ("_candidate_rows", [doc])]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_infer_loop_memory_does_not_grow_with_the_set(rng, strategy):
    entities, words, labels, wlabels = toy_world(rng, n_entities=40, dim=256)
    model = identity_model(256)
    docs = [random_doc(rng, labels, wlabels, 2, 10, doc_id=f"d{i}") for i in range(1000)]

    def peak(n_docs):
        """The peak traced memory of a loop over ``n_docs`` documents, above
        the picks it returns."""
        tracemalloc.start()
        try:
            picks = [infer(doc, model, entities, words, strategy) for doc in docs[:n_docs]]
            held, top = tracemalloc.get_traced_memory()
            assert len(picks) == n_docs
            return top - held
        finally:
            tracemalloc.stop()

    # each document is packed alone: a whole-set pack would hold ten times
    # the rows at 1000 documents as at 100 (20,000 of 2 KB each, twice over)
    assert peak(1000) < 1.25 * peak(100)


def separable_world(dim=8, n_groups=4):
    """Gold vectors aligned with their contexts, negatives orthogonal."""
    entity_rows = {}
    word_rows = {}
    docs = []
    for g in range(n_groups):
        axis = np.zeros(dim)
        axis[g] = 1.0
        entity_rows[f"gold{g}"] = axis
        off_axis = np.zeros(dim)
        off_axis[n_groups + g] = 1.0
        entity_rows[f"neg{g}"] = off_axis
        word_rows[f"cue{g}"] = axis
    entities = EmbeddingTable.from_pairs(list(entity_rows.items()))
    words = EmbeddingTable.from_pairs(list(word_rows.items()))
    for g in range(n_groups):
        mentions = [
            Mention(
                "m",
                context=[f"cue{g}"] * 4,
                candidates=sorted([f"gold{g}", f"neg{(g + 1) % n_groups}"]),
                gold=f"gold{g}",
            )
            for _ in range(3)
        ]
        docs.append(LinkingDocument(f"doc{g}", mentions))
    return entities, words, docs


class TestTrain:
    @pytest.mark.parametrize("field, value, message", [
        ("margin", float("nan"), "margin must be a finite number, got nan"),
        ("margin", float("-inf"), "margin must be a finite number, got -inf"),
        ("lr", float("inf"), "lr must be a finite number, got inf"),
        ("epochs", -1, "epochs must be >= 0, got -1"),
        ("seed", -2, "seed must be >= 0, got -2"),
    ])
    def test_config_checks_its_fields(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{field: value})
        TrainConfig(margin=0.0, lr=0.0, epochs=0, seed=0)  # the edges are valid

    def test_zero_epochs_leaves_identity(self):
        entities, words, docs = separable_world()
        result = train(docs, entities, words, TrainConfig(epochs=0))
        np.testing.assert_array_equal(result.model.B, np.ones(8))
        np.testing.assert_array_equal(result.model.C, np.ones(8))
        assert result.loss_trace == []

    def test_separable_fixture_reaches_zero_loss_and_perfect_dev(self):
        entities, words, docs = separable_world()
        cfg = TrainConfig(margin=0.5, lr=0.05, epochs=50, seed=1)
        result = train(docs, entities, words, cfg, dev_docs=docs)
        assert result.loss_trace[-1] == pytest.approx(0.0, abs=1e-12)
        assert result.dev_f1_trace[-1] == 1.0

    def test_loss_non_increasing_on_separable_fixture(self):
        entities, words, docs = separable_world()
        cfg = TrainConfig(margin=0.5, lr=0.01, epochs=30, seed=3)
        result = train(docs, entities, words, cfg)
        trace = [result.initial_loss] + result.loss_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic_given_seed(self):
        entities, words, docs = separable_world()
        cfg = TrainConfig(margin=0.5, lr=0.02, epochs=10, seed=42)
        r1 = train(docs, entities, words, cfg, dev_docs=docs)
        r2 = train(docs, entities, words, cfg, dev_docs=docs)
        np.testing.assert_array_equal(r1.model.B, r2.model.B)
        assert r1.loss_trace == r2.loss_trace
        assert r1.dev_f1_trace == r2.dev_f1_trace

    def test_no_trainable_mentions(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 2, 2, with_gold=False)
        with pytest.raises(EmptyTrainingError):
            train([doc], entities, words, TrainConfig(epochs=1))

    def test_mentions_with_bad_gold_are_skipped_not_fatal(self, rng):
        entities, words, docs = separable_world()
        broken = LinkingDocument(
            "broken",
            [Mention("m", context=["cue0"], candidates=["gold0"], gold="gold1")],
        )
        result = train(docs + [broken], entities, words, TrainConfig(epochs=1))
        assert result.skipped_mentions == 1

    @pytest.mark.parametrize("train_pairwise", [False, True])
    def test_gradient_matches_finite_differences(self, rng, train_pairwise):
        entities, words, labels, wlabels = toy_world(rng, n_entities=8, dim=5)
        docs = [random_doc(rng, labels, wlabels, 3, 3, doc_id=f"d{i}") for i in range(3)]
        instances, _ = _build_instances(docs, entities, words, train_pairwise)
        B = rng.standard_normal(5)
        C = rng.standard_normal(5)
        margin = 0.7
        loss, gB, gC = margin_loss_and_gradient(instances, B, C, margin)
        h = 1e-6
        for diag, grad in ((B, gB), (C, gC)) if train_pairwise else ((B, gB),):
            for j in range(5):
                bump = np.zeros(5)
                bump[j] = h
                if diag is B:
                    lp = margin_loss_and_gradient(instances, B + bump, C, margin)[0]
                    lm = margin_loss_and_gradient(instances, B - bump, C, margin)[0]
                else:
                    lp = margin_loss_and_gradient(instances, B, C + bump, margin)[0]
                    lm = margin_loss_and_gradient(instances, B, C - bump, margin)[0]
                fd = (lp - lm) / (2 * h)
                denom = max(abs(grad[j]), abs(fd), 1e-8)
                assert abs(grad[j] - fd) / denom < 1e-4


# ---------------------------------------------------------------------------
# Reference oracle: the per-instance, per-negative trainer and the per-mention
# greedy dev F1 that the packed training core replaced.


def _reference_instances(docs, entities, words, train_pairwise):
    """(feature, gold, negatives, pair context) per trainable mention."""
    out = []
    for doc in docs:
        n = len(doc.mentions)
        golds = [
            entities.vector(m.gold).astype(np.float64) if m.gold_in_candidates() else None
            for m in doc.mentions
        ]
        for i, m in enumerate(doc.mentions):
            if golds[i] is None:
                continue
            negs = [entities.vector(c).astype(np.float64) for c in sorted(m.candidates) if c != m.gold]
            others = [g for j, g in enumerate(golds) if j != i and g is not None]
            if train_pairwise and others:
                pair_ctx = np.sum(others, axis=0) / (n - 1)
            else:
                pair_ctx = np.zeros(entities.dim)
            out.append((context_feature(m, words), golds[i], negs, pair_ctx))
    return out


def _reference_score(inst, e, B, C, train_pairwise):
    s = float(np.dot(e * B, inst[0]))
    if train_pairwise:
        s += float(np.dot(e * C, inst[3]))
    return s


def _reference_loss(instances, B, C, margin, train_pairwise):
    loss = 0.0
    for inst in instances:
        s_gold = _reference_score(inst, inst[1], B, C, train_pairwise)
        for neg in inst[2]:
            violation = margin - s_gold + _reference_score(inst, neg, B, C, train_pairwise)
            if violation > 0.0:
                loss += violation
    return loss


def _reference_dev_f1(dev_docs, B, entities, words):
    correct = total = 0
    for doc in dev_docs:
        for m in doc.mentions:
            if not m.gold_in_candidates():
                continue
            f = context_feature(m, words)
            best, best_score = None, None
            for label in sorted(m.candidates):
                s = local_score(entities.vector(label).astype(np.float64), B, f)
                if best_score is None or s > best_score:
                    best, best_score = label, s
            total += 1
            correct += best == m.gold
    return correct / total if total else 0.0


def reference_train(train_docs, entities, words, config, dev_docs):
    """Returns (B, C, initial loss, loss trace, initial dev F1, dev trace)."""
    pairwise = config.train_pairwise
    instances = _reference_instances(train_docs, entities, words, pairwise)
    B, C = np.ones(entities.dim), np.ones(entities.dim)
    rng = np.random.default_rng(config.seed)
    initial_loss = _reference_loss(instances, B, C, config.margin, pairwise)
    initial_dev = _reference_dev_f1(dev_docs, B, entities, words)
    losses, devs = [], []
    for _epoch in range(config.epochs):
        for idx in rng.permutation(len(instances)):
            inst = instances[idx]
            feature, gold, negs, pair_ctx = inst
            s_gold = _reference_score(inst, gold, B, C, pairwise)
            gB, gC = np.zeros(entities.dim), np.zeros(entities.dim)
            active = False
            for neg in negs:
                if config.margin - s_gold + _reference_score(inst, neg, B, C, pairwise) > 0.0:
                    active = True
                    gB += feature * (neg - gold)
                    if pairwise:
                        gC += pair_ctx * (neg - gold)
            if active:
                B -= config.lr * gB
                if pairwise:
                    C -= config.lr * gC
        losses.append(_reference_loss(instances, B, C, config.margin, pairwise))
        devs.append(_reference_dev_f1(dev_docs, B, entities, words))
    return B, C, initial_loss, losses, initial_dev, devs


def ragged_docs(rng, labels, wlabels, n_docs, prefix):
    """Documents of 1-4 mentions with 1-5 candidates; some golds missing or unusable."""
    docs = []
    for d in range(n_docs):
        mentions = []
        for _ in range(int(rng.integers(1, 5))):
            cands = list(rng.choice(labels, size=int(rng.integers(1, 6)), replace=False))
            roll = rng.random()
            if roll < 0.1:
                gold = None
            elif roll < 0.2:
                gold = next(l for l in labels if l not in cands)
            else:
                gold = cands[int(rng.integers(len(cands)))]
            mentions.append(Mention("m", list(rng.choice(wlabels, size=5)), cands, gold))
        docs.append(LinkingDocument(f"{prefix}{d}", mentions))
    return docs


class TestPackedTrainingOracle:
    @pytest.mark.parametrize("train_pairwise", [False, True])
    @pytest.mark.parametrize("world", range(4))
    def test_train_matches_reference(self, train_pairwise, world):
        rng = np.random.default_rng(1000 + world)
        entities, words, labels, wlabels = toy_world(rng, n_entities=12, dim=6)
        train_docs = ragged_docs(rng, labels, wlabels, 8, "t")
        dev_docs = ragged_docs(rng, labels, wlabels, 5, "v")
        cfg = TrainConfig(margin=1.0, lr=0.05, epochs=12, seed=world, train_pairwise=train_pairwise)
        result = train(train_docs, entities, words, cfg, dev_docs=dev_docs)
        B, C, initial_loss, losses, initial_dev, devs = reference_train(
            train_docs, entities, words, cfg, dev_docs
        )
        unusable = [m for d in train_docs for m in d.mentions if not m.gold_in_candidates()]
        assert result.skipped_mentions == len(unusable) > 0
        for got, want in ((result.model.B, B), (result.model.C, C)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert result.initial_dev_f1 == initial_dev
        assert result.dev_f1_trace == devs
        assert all(type(f1) is float for f1 in result.dev_f1_trace)
        np.testing.assert_allclose([result.initial_loss] + result.loss_trace,
                                   [initial_loss] + losses, rtol=1e-9, atol=1e-9)

    def test_default_fixture_study_epochs(self):
        from semlink.evaluation import convergence_experiment
        from semlink.fixtures import FixtureSizes, generate_fixture
        from semlink.semantic_aggregation import AggregationConfig, aggregate_table

        bundle = generate_fixture(7, FixtureSizes())
        reinforced = aggregate_table(
            bundle.wikitext, bundle.assignments, bundle.words, AggregationConfig(T=11, alpha=0.2)
        )
        with pytest.warns(UserWarning, match="seeds only reorder the SGD steps"):
            report = convergence_experiment(
                bundle.train_docs, bundle.dev_docs, bundle.words, bundle.wikitext, reinforced,
                TrainConfig(margin=1.0, lr=0.01, epochs=120), [1, 2, 3, 4, 5], theta=0.95,
            )
        assert report.sets["baseline"].epochs_to_threshold == [30] * 5
        assert report.sets["reinforced"].epochs_to_threshold == [8] * 5


@st.composite
def lockstep_studies(draw):
    """Ragged worlds with 1-3 entity tables over the same labels, 1-4 seeds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    tables = [entities] + [
        EmbeddingTable(5, labels, rng.standard_normal((10, 5)).astype(np.float32))
        for _ in range(draw(st.integers(0, 2)))
    ]
    train_docs = ragged_docs(rng, labels, wlabels, 6, "t")
    dev_docs = ragged_docs(rng, labels, wlabels, 3, "v") if draw(st.booleans()) else None
    seeds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    config = TrainConfig(
        margin=draw(st.sampled_from([0.5, 1.0])), lr=0.05, epochs=draw(st.integers(0, 4)),
        train_pairwise=draw(st.booleans()),
    )
    return train_docs, tables, words, config, seeds, dev_docs


@given(lockstep_studies())
def test_train_runs_equal_separate_train_calls(study):
    train_docs, tables, words, config, seeds, dev_docs = study
    runs = train_runs(train_docs, tables, words, config, seeds, dev_docs)
    assert len(runs) == len(tables) * len(seeds)
    for r, got in enumerate(runs):
        table, seed = tables[r // len(seeds)], seeds[r % len(seeds)]
        want = train(train_docs, table, words, replace(config, seed=seed), dev_docs)
        assert got.model.B.tobytes() == want.model.B.tobytes()
        assert got.model.C.tobytes() == want.model.C.tobytes()
        assert got.trace() == want.trace()


@given(seed=st.integers(0, 2**16), n_tables=st.integers(1, 2), epochs=st.integers(0, 4))
def test_dev_f1_is_the_precision_of_greedy_inference(seed, n_tables, epochs):
    """When every dev mention has gold among its candidates, a run's dev F1 is
    the micro-precision of `infer`'s greedy picks under its model."""
    rng = np.random.default_rng(seed)
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    tables = [entities] + [EmbeddingTable(5, labels, rng.standard_normal((10, 5)).astype(np.float32))
                           for _ in range(n_tables - 1)]
    train_docs = [random_doc(rng, labels, wlabels, 3, 4, doc_id=f"t{d}") for d in range(4)]
    dev_docs = [random_doc(rng, labels, wlabels, int(rng.integers(1, 5)), int(rng.integers(1, 6)), doc_id=f"v{d}")
                for d in range(int(rng.integers(1, 5)))]
    runs = train_runs(train_docs, tables, words, TrainConfig(lr=0.05, epochs=epochs), [0, 1], dev_docs)
    for r, result in enumerate(runs):
        picks = [infer(doc, result.model, tables[r // 2], words, "greedy-local") for doc in dev_docs]
        report = micro_f1({doc.doc_id: p for doc, p in zip(dev_docs, picks)}, gold_map(dev_docs))
        dev_f1 = result.dev_f1_trace[-1] if epochs else result.initial_dev_f1
        assert dev_f1 == report.tp / (report.tp + report.fp)


def test_train_runs_rejects_tables_of_different_dims(rng):
    entities, words, labels, wlabels = toy_world(rng, dim=4)
    wide = EmbeddingTable(5, labels, rng.standard_normal((len(labels), 5)).astype(np.float32))
    docs = ragged_docs(rng, labels, wlabels, 4, "t")
    with pytest.raises(DimensionError):
        train_runs(docs, [entities, wide], words, TrainConfig(epochs=1), [0])


# ---------------------------------------------------------------------------
# Bit-exact oracle for the speculative blocks: the lockstep loop they replaced,
# one gather, hinge test and update per SGD step.


def per_step_train_runs(train_docs, tables, words, config, seeds, dev_docs):
    """`train_runs`' results, computed one numpy step at a time."""
    built = [_build_instances(train_docs, t, words, config.train_pairwise) for t in tables]
    sets = [instances for instances, _ in built]
    devs = None
    if dev_docs is not None:
        usable = _usable(dev_docs)
        devs = [_pack_candidates(dev_docs, t, words, usable=True) for t in tables]
        gold = devs[0].gold_positions(usable)
    N, R = len(sets[0]), len(tables) * len(seeds)
    table_of = [r // len(seeds) for r in range(R)]
    FD = np.concatenate([s.FD for s in sets])
    PD = np.concatenate([s.PD for s in sets]) if config.train_pairwise else None
    offsets = np.array(table_of)[:, None] * N
    B, C = np.ones((R, words.dim)), np.ones((R, words.dim))
    Bcol, Ccol = B[:, :, None], C[:, :, None]
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def evaluate(r):
        t = table_of[r]
        loss = margin_loss_and_gradient(sets[t], B[r], C[r], config.margin)[0]
        f1 = None if devs is None else int(np.count_nonzero(_greedy_picks(devs[t], B[r]) == gold)) / max(len(gold), 1)
        return loss, f1

    history = [[evaluate(r)] for r in range(R)]
    for _epoch in range(config.epochs):
        order = np.stack([rng.permutation(N) for rng in rngs] * len(tables))
        for rows in (order + offsets).T:
            F = FD.take(rows, axis=0)
            if PD is None:
                active = np.matmul(F, Bcol) > -config.margin
            else:
                P = PD.take(rows, axis=0)
                v = np.matmul(F, Bcol)
                v += config.margin
                v += np.matmul(P, Ccol)
                active = v > 0.0
            if np.count_nonzero(active):
                active = active.transpose(0, 2, 1)
                B -= config.lr * np.matmul(active, F)[:, 0]
                if PD is not None:
                    C -= config.lr * np.matmul(active, P)[:, 0]
        for r in range(R):
            history[r].append(evaluate(r))
    return [
        TrainResult(
            LinkingModel(words.dim, B[r], C[r]),
            loss_trace=[loss for loss, _ in epochs],
            dev_f1_trace=[f1 for _, f1 in epochs] if devs is not None else [],
            initial_loss=initial_loss,
            initial_dev_f1=initial_dev_f1,
            skipped_mentions=built[0][1],
        )
        for r, ((initial_loss, initial_dev_f1), *epochs) in enumerate(history)
    ]


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.model.B.tobytes() == w.model.B.tobytes()
        assert g.model.C.tobytes() == w.model.C.tobytes()
        assert g.trace() == w.trace()


@st.composite
def block_studies(draw):
    """Ragged worlds of 6-30 documents, 1-6 lockstep runs, a block length, and
    a step size large enough to flip hinges inside a block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    n_tables = draw(st.integers(1, 3))
    tables = [entities] + [
        EmbeddingTable(5, labels, rng.standard_normal((10, 5)).astype(np.float32))
        for _ in range(n_tables - 1)
    ]
    seeds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6 // n_tables))
    train_docs = ragged_docs(rng, labels, wlabels, draw(st.integers(6, 30)), "t")
    dev_docs = ragged_docs(rng, labels, wlabels, 3, "v") if draw(st.booleans()) else None
    config = TrainConfig(
        margin=draw(st.sampled_from([0.5, 1.0])), lr=draw(st.sampled_from([0.05, 2.0])),
        epochs=draw(st.integers(0, 4)), train_pairwise=draw(st.booleans()),
    )
    block = draw(st.sampled_from([1, 2, 3, linking_core._BLOCK]))
    return train_docs, tables, words, config, seeds, dev_docs, block


@given(block_studies())
def test_blocks_equal_per_step_training(study):
    train_docs, tables, words, config, seeds, dev_docs, block = study
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linking_core, "_BLOCK", block)
        got = train_runs(train_docs, tables, words, config, seeds, dev_docs)
    assert_same_bits(got, per_step_train_runs(train_docs, tables, words, config, seeds, dev_docs))


@pytest.mark.parametrize("train_pairwise", [False, True])
def test_runs_resume_from_their_first_wrong_guess(monkeypatch, train_pairwise):
    rng = np.random.default_rng(11)
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    tables = [entities, EmbeddingTable(5, labels, rng.standard_normal((10, 5)).astype(np.float32))]
    train_docs = ragged_docs(rng, labels, wlabels, 40, "t")
    dev_docs = ragged_docs(rng, labels, wlabels, 5, "v")
    config = TrainConfig(lr=2.0, epochs=3, train_pairwise=train_pairwise)
    taken = []
    block = linking_core._LockstepSGD._block

    def spy(self, steps, B, C):
        taken.append(block(self, steps, B, C))
        return taken[-1]

    monkeypatch.setattr(linking_core._LockstepSGD, "_block", spy)
    got = train_runs(train_docs, tables, words, config, [0, 1, 2], dev_docs)
    # some block stopped short for some runs only
    assert any(len(set(n)) > 1 for n in taken)
    assert_same_bits(got, per_step_train_runs(train_docs, tables, words, config, [0, 1, 2], dev_docs))


@pytest.fixture
def blocks_taken(monkeypatch):
    """Each `_block` call's steps taken per run, in call order."""
    taken = []
    block = linking_core._LockstepSGD._block

    def spy(self, steps, B, C):
        taken.append(block(self, steps, B, C))
        return taken[-1]

    monkeypatch.setattr(linking_core._LockstepSGD, "_block", spy)
    return taken


def epoch_ends(taken, N, epochs):
    """Where the runs' epoch ends fell in blocks that took ``taken`` steps:
    "inside" a block, right after a "redone" step, at a whole block's "end";
    "several" when one block held more than one end of a run."""
    at, seen = np.zeros(len(taken[0]), dtype=int), set()
    for took in taken:
        reached = np.minimum(at + took, epochs * N)
        for r in range(len(at)):
            for i in range(N - at[r] % N, reached[r] - at[r] + 1, N):
                seen.add("inside" if i < took[r] else "redone" if took[r] < linking_core._BLOCK else "end")
            if reached[r] // N - at[r] // N > 1:
                seen.add("several")
        at = reached
    return seen


@pytest.mark.parametrize("train_pairwise", [False, True])
def test_blocks_run_through_epoch_ends(blocks_taken, train_pairwise):
    rng = np.random.default_rng(5)
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    train_docs = [random_doc(rng, labels, wlabels, 4, 3, doc_id=f"t{d}") for d in range(25)]
    dev_docs = ragged_docs(rng, labels, wlabels, 5, "v")
    config = TrainConfig(lr=1e-6, epochs=5, train_pairwise=train_pairwise)
    got = train_runs(train_docs, [entities], words, config, [0, 1], dev_docs)
    N, k = 100, linking_core._BLOCK
    # no guess fails, so every block is whole and none stops at an epoch end
    assert all((took == k).all() for took in blocks_taken)
    assert len(blocks_taken) == -(-config.epochs * N // k) < config.epochs * -(-N // k)
    assert_same_bits(got, per_step_train_runs(train_docs, [entities], words, config, [0, 1], dev_docs))


@pytest.mark.parametrize("train_pairwise", [False, True])
@pytest.mark.parametrize(
    "world, n_docs, lr, epochs, where",
    [
        (0, 8, 2.0, 3, "redone"),
        (4, 40, 0.05, 3, "inside"),
        (12, 4, 0.05, 20, "several"),
    ],
)
def test_epoch_ends_inside_blocks_keep_their_bits(blocks_taken, world, n_docs, lr, epochs, where, train_pairwise):
    rng = np.random.default_rng(world)
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    tables = [entities, EmbeddingTable(5, labels, rng.standard_normal((10, 5)).astype(np.float32))]
    train_docs = ragged_docs(rng, labels, wlabels, n_docs, "t")
    dev_docs = ragged_docs(rng, labels, wlabels, 4, "v")
    config = TrainConfig(lr=lr, epochs=epochs, train_pairwise=train_pairwise)
    got = train_runs(train_docs, tables, words, config, [0, 1], dev_docs)
    N = len(_usable(train_docs))
    assert where in epoch_ends(blocks_taken, N, epochs)
    if where == "several":
        assert N < linking_core._BLOCK
    assert_same_bits(got, per_step_train_runs(train_docs, tables, words, config, [0, 1], dev_docs))


@pytest.mark.parametrize("train_pairwise", [False, True])
@pytest.mark.parametrize(
    "world, n_docs, lr, epochs, where",
    [(0, 8, 2.0, 3, "redone"), (4, 40, 0.05, 3, "inside"), (12, 4, 0.05, 20, "several")],
)
def test_unscored_losses_move_no_other_bit(blocks_taken, world, n_docs, lr, epochs, where, train_pairwise):
    """``losses=False`` leaves the loss fields empty, and the weights, dev F1
    and skipped mentions keep the bits of the default call."""
    rng = np.random.default_rng(world)
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    tables = [entities, EmbeddingTable(5, labels, rng.standard_normal((10, 5)).astype(np.float32))]
    train_docs = ragged_docs(rng, labels, wlabels, n_docs, "t")
    dev_docs = ragged_docs(rng, labels, wlabels, 4, "v")
    config = TrainConfig(lr=lr, epochs=epochs, train_pairwise=train_pairwise)
    got = train_runs(train_docs, tables, words, config, [0, 1], dev_docs, losses=False)
    assert where in epoch_ends(blocks_taken, len(_usable(train_docs)), epochs)
    assert all(run.loss_trace == [] and run.initial_loss is None for run in got)
    want = train_runs(train_docs, tables, words, config, [0, 1], dev_docs)
    assert all(len(run.loss_trace) == epochs for run in want)
    assert_same_bits(got, [replace(run, loss_trace=[], initial_loss=None) for run in want])


@pytest.mark.parametrize("train_pairwise", [False, True])
@pytest.mark.parametrize("dev, epochs", [("usable", 12), ("none", 12), ("no gold", 12), ("usable", 0)])
def test_epoch_states_scored_in_batches_keep_their_bits(monkeypatch, dev, epochs, train_pairwise):
    """At d = 5 a run scores its states five at a time: the initial state and
    12 epoch ends as 5 + 5 + 3, and with no epoch the initial state alone.
    Dev F1 is scored in the same batches, with or without losses, and not at
    all without dev documents."""
    rng = np.random.default_rng(8)
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    tables = [entities, EmbeddingTable(5, labels, rng.standard_normal((10, 5)).astype(np.float32))]
    train_docs = ragged_docs(rng, labels, wlabels, 12, "t")
    dev_docs = {
        "usable": ragged_docs(rng, labels, wlabels, 5, "v"),
        "none": None,
        "no gold": [
            LinkingDocument(doc.doc_id, [
                Mention(m.surface, m.context, m.candidates, next(l for l in labels if l not in m.candidates))
                for m in doc.mentions
            ])
            for doc in ragged_docs(rng, labels, wlabels, 5, "v")
        ],
    }[dev]
    config = TrainConfig(lr=0.05, epochs=epochs, train_pairwise=train_pairwise)
    batches, picked = [], []

    def spy(instances, B, C, margin):
        batches.append(len(B))
        return _hinges(instances, B, C, margin)

    def spy_picks(block, B):
        picked.append(len(B))
        return _greedy_picks(block, B)

    monkeypatch.setattr(linking_core, "_hinges", spy)
    monkeypatch.setattr(linking_core, "_greedy_picks", spy_picks)
    got = train_runs(train_docs, tables, words, config, [0, 1], dev_docs)
    # one call per batch of each of the 2 x 2 runs
    per_run = [5, 5, 3] if epochs else [1]
    assert sorted(batches) == sorted(per_run * 4)
    assert sorted(picked) == (sorted(per_run * 4) if dev_docs is not None else [])
    batches.clear()
    picked.clear()
    unscored = train_runs(train_docs, tables, words, config, [0, 1], dev_docs, losses=False)
    assert batches == []
    assert sorted(picked) == (sorted(per_run * 4) if dev_docs is not None else [])
    assert_same_bits(unscored, [replace(run, loss_trace=[], initial_loss=None) for run in got])
    if dev == "no gold":
        assert {f1 for run in got for f1 in [run.initial_dev_f1, *run.dev_f1_trace]} == {0.0}
    assert_same_bits(got, per_step_train_runs(train_docs, tables, words, config, [0, 1], dev_docs))


@given(
    seed=st.integers(0, 2**16), N=st.integers(1, 60), M=st.integers(1, 10),
    d=st.integers(1, 300), k=st.integers(1, 40), pairwise=st.booleans(),
)
def test_batched_state_forms_keep_per_state_bits(seed, N, M, d, k, pairwise):
    """`_hinges`, `_local_scores` and `_greedy_picks` on a stack of k states
    give each state the bits of its own call, and those are the bits of the
    plain ``margin + D @ b (+ P @ c)`` and ``einsum("md,d,md->m")``."""
    rng = np.random.default_rng(seed)
    Bs, Cs = (rng.standard_normal((k, d)) * rng.choice([1e-3, 1.0, 1e3], size=(k, 1)) for _ in range(2))
    D, P = rng.standard_normal((N, M, d)), rng.standard_normal((N, M, d)) if pairwise else None
    instances = _TrainingSet(D, P, rng.random((N, M)) < 0.8)
    counts = rng.integers(1, M + 1, size=N)
    block = _CandidateBlock(
        [[f"E{i}" for i in range(c)] for c in counts], rng.standard_normal((N, d)),
        rng.standard_normal((int(counts.sum()), d)), [0, *itertools.accumulate(counts.tolist())],
    )
    v, active = _hinges(instances, Bs, Cs, 0.5)
    local, picks = _local_scores(block, Bs), _greedy_picks(block, Bs)
    for e, (b, c) in enumerate(zip(Bs, Cs)):
        plain = 0.5 + D @ b
        if pairwise:
            plain += P @ c
        one = _hinges(instances, b, c, 0.5)
        assert v[e].tobytes() == one[0].tobytes() == plain.tobytes()
        assert active[e].tobytes() == one[1].tobytes()
        plain = np.einsum("md,d,md->m", block.vectors, b, block.row_features)
        assert local[e].tobytes() == _local_scores(block, b).tobytes() == plain.tobytes()
        assert picks[e].tobytes() == _greedy_picks(block, b).tobytes()


def test_training_memory_does_not_grow_with_epochs():
    rng = np.random.default_rng(3)
    entities, words, labels, wlabels = toy_world(rng, n_entities=10, dim=5)
    train_docs = [random_doc(rng, labels, wlabels, 4, 3, doc_id=f"t{d}") for d in range(250)]

    def peak(epochs):
        tracemalloc.start()
        try:
            train_runs(train_docs, [entities], words, TrainConfig(lr=0.01, epochs=epochs), [0, 1, 2, 3])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # holding every epoch's step order (4 runs x 1,000 steps x 8 bytes per
    # epoch) would add 1.2 MB from 2 to 40 epochs
    assert peak(40) < peak(2) + 64 * 1024


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    # module-scoped: every example of a property test reuses one directory
    return tmp_path_factory.mktemp("model_properties")


class TestModelIO:
    @given(data=st.data())
    def test_model_is_refused_or_reads_back(self, model_dir, data):
        """A generated model is refused at construction, or `load` of its saved
        file gives the same lines and bit-equal diagonals, -0.0 and subnormals
        included."""
        dim, K = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2))
        values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -2.5e-310])
        B, C, *relations = [data.draw(st.lists(values, min_size=dim, max_size=dim)) for _ in range(2 + K)]
        try:
            model = LinkingModel(dim, B, C, relations, data.draw(st.sampled_from(linking_core.RELATION_WEIGHTINGS)))
        except DimensionError as e:
            assert dim < 1 and str(e) == f"model dim must be >= 1, got {dim}"
            return
        p = model_dir / "model.txt"
        model.save(p)
        again = LinkingModel.load(p)
        assert again.lines() == model.lines()
        assert [d.tobytes() for d in (again.B, again.C, *again.relations)] == \
            [d.tobytes() for d in (model.B, model.C, *model.relations)]

    def test_round_trip(self, tmp_path, rng):
        model = LinkingModel(
            3,
            rng.standard_normal(3),
            rng.standard_normal(3),
            relations=[rng.standard_normal(3) for _ in range(2)],
            relation_weighting="softmax",
        )
        p = tmp_path / "model.txt"
        model.save(p)
        again = LinkingModel.load(p)
        assert again.dim == 3 and again.K == 2
        np.testing.assert_array_equal(again.B, model.B)
        np.testing.assert_array_equal(again.C, model.C)
        for r1, r2 in zip(again.relations, model.relations):
            np.testing.assert_array_equal(r1, r2)
        assert again.relation_weighting == "softmax"

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("nope\n", "ascii")
        with pytest.raises(FormatError):
            LinkingModel.load(p)

    @pytest.mark.parametrize("header, message", [
        ("3 -1", "malformed model header '3 -1'"), ("0 0", "model header '0 0' needs dim >= 1"),
        ("-2 0", "malformed model header '-2 0'"), ("-3 -1", "malformed model header '-3 -1'"),
    ])
    def test_non_positive_dim_or_negative_k_rejected(self, tmp_path, header, message):
        # a header field is 1 to 18 digits 0-9, as a binary table's count and dim
        p = tmp_path / "m.txt"
        p.write_text(f"{header}\n1 1 1\n1 1 1\n1 1 1\n", "ascii")
        with pytest.raises(FormatError, match=f"^{re.escape(message)} "):
            LinkingModel.load(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_diagonal_rejected(self, tmp_path, bad):
        p = tmp_path / "m.txt"
        p.write_text(f"2 0\n1 {bad}\n1 1\n", "ascii")
        with pytest.raises(NonFiniteError):
            LinkingModel.load(p)

    def test_non_numeric_diagonal_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 0\n1 abc\n1 1\n", "ascii")
        with pytest.raises(FormatError):
            LinkingModel.load(p)

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"2 0\n1 \xe9\n1 1\n", FormatError),
            (b"2 0\n1 1\n1 1\nuniform \xc3\xa9\n", FormatError),
            (b"2 0\nnan 1\n1 1\n", NonFiniteError),
            (b"2 0\n1 1\n1 1e999\n", NonFiniteError),
            (b"2 0\n1 1\n1 1\nbogus\n", FormatError),
            (b"--2 0\n1 1\n1 1\n", FormatError),
            (b"2 -\n1 1\n1 1\n", FormatError),
            (b"2 +0\n1 1\n1 1\n", FormatError),
            (b"2 0_0\n1 1\n1 1\n", FormatError),
            (b"2 " + b"0" * 19 + b"\n1 1\n1 1\n", FormatError),
            # str.splitlines would split these into B = [1], C = [2] and weighting "uniform"
            (b"1 0\n1\x0c2\n", FormatError),
            (b"1 0\n1\n2\x1cuniform\n", FormatError),
        ],
        ids=[
            "non-ascii-diagonal", "non-ascii-weighting", "nan", "overflow", "unknown-weighting",
            "double-minus-header", "bare-minus-header", "plus-header", "underscore-header", "long-header",
            "form-feed-in-diagonal", "separator-before-weighting",
        ],
    )
    def test_load_errors_are_format_errors_with_path(self, tmp_path, content, error):
        p = tmp_path / "m.txt"
        p.write_bytes(content)
        with pytest.raises(error) as e:
            LinkingModel.load(p)
        assert isinstance(e.value, FormatError)
        assert e.value.path == p
        assert str(p) in str(e.value)

    @pytest.mark.parametrize("content, line", [
        ("2 0\n1 1\n1 1\nuniform\n7 7 7\ngarbage\n", 5),  # used to load as K = 0
        ("2 1\n1 1\n1 1\n1 1\nsoftmax\n\n7 7\n", 6),  # after a blank line
        ("2 1\n1 1\n1 1\n1 1\n\n7 7\n", 6),  # after a blank weighting line
    ])
    def test_line_after_the_weighting_line_is_an_error(self, tmp_path, content, line):
        p = tmp_path / "m.txt"
        p.write_text(content, "ascii")
        with pytest.raises(FormatError, match="line after the weighting line") as e:
            LinkingModel.load(p)
        assert (e.value.path, e.value.line) == (p, line)
        p.write_text("".join(content.splitlines(keepends=True)[:line - 1]), "ascii")
        assert LinkingModel.load(p).K == int(content[2])

    @pytest.mark.parametrize("tail", ["\n", "\n\n", " \n\t\n", "\r\n"])
    @pytest.mark.parametrize("K", [0, 1])
    def test_trailing_blank_lines_are_skipped(self, tmp_path, K, tail):
        """`save` output plus blank lines reads as the saved model, as blank lines do in every text input."""
        p = tmp_path / "m.txt"
        model = LinkingModel(2, [1, -2], [0.5, 3], [[4, 5]] * K, "softmax" if K else "uniform")
        model.save(p)
        p.write_bytes(p.read_bytes() + tail.encode())
        assert LinkingModel.load(p).lines() == model.lines()

    def test_relations_false_refuses_relation_diagonals(self, tmp_path):
        p = tmp_path / "m.txt"
        identity_model(2, 1).save(p)
        assert LinkingModel.load(p).K == 1
        with pytest.raises(RelationArityError, match="K = 1") as e:
            LinkingModel.load(p, relations=False)
        assert str(p) in str(e.value)
        identity_model(2).save(p)
        assert LinkingModel.load(p, relations=False).K == 0
