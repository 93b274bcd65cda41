"""Bilinear scores vs naive oracles, inference vs enumeration, trainer checks."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semlink import linking_core
from semlink.embed_io import EmbeddingTable
from semlink.errors import (
    CapacityError,
    DimensionError,
    EmptyTrainingError,
    FormatError,
    InvalidDocumentError,
    NonFiniteError,
    RelationArityError,
)
from semlink.linking_core import (
    ContextFeature,
    LinkingDocument,
    LinkingModel,
    Mention,
    TrainConfig,
    TrainResult,
    context_feature,
    document_score,
    infer,
    load_aida_tsv,
    load_linking_jsonl,
    local_score,
    margin_loss_and_gradient,
    pairwise_score,
    relation_pairwise_score,
    relation_weights,
    save_linking_jsonl,
    train,
    train_runs,
    _build_instances,
    _features,
    _pack_candidates,
    _pack_dev,
    _strip_prior,
)


def table_from(rows):
    return EmbeddingTable.from_pairs(list(rows.items()))


class TestContextFeature:
    def test_single_known_word(self):
        words = table_from({"w": [1.0, -2.0]})
        f = context_feature(Mention("m", context=["w"]), words)
        np.testing.assert_array_equal(f.vector, [1.0, -2.0])
        assert f.oov_count == 0

    def test_all_oov_window(self):
        words = table_from({"w": [1.0, -2.0]})
        f = context_feature(Mention("m", context=["x", "y", "z"]), words)
        np.testing.assert_array_equal(f.vector, [0.0, 0.0])
        assert f.oov_count == 3

    def test_mean_matches_oracle(self, rng):
        labels = [f"w{i}" for i in range(10)]
        words = EmbeddingTable(6, labels, rng.standard_normal((10, 6)).astype(np.float32))
        window = labels[2:9] + ["oov1", "oov2"]
        f = context_feature(Mention("m", context=window), words)
        oracle = np.mean([words.vector(l).astype(np.float64) for l in labels[2:9]], axis=0)
        np.testing.assert_allclose(f.vector, oracle, atol=1e-7)
        assert f.oov_count == 2


# ---------------------------------------------------------------------------
# Bit-exact oracle for the batched gathers: the per-token context mean and the
# per-mention candidate rows they replaced.


def per_token_feature(mention, words):
    """The context mean one token at a time, in a zero-initialised float64 sum."""
    acc = np.zeros(words.dim, dtype=np.float64)
    found = 0
    for token in mention.context:
        ref = words.lookup(token)
        if ref is None:
            continue
        acc += ref.values.astype(np.float64)
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
    chunk = draw(st.sampled_from([1, 2, 3, linking_core._FEATURE_CHUNK]))
    return mentions, entities, words, chunk


@given(gather_worlds())
def test_batched_gathers_equal_per_token_and_per_mention_loops(world):
    mentions, entities, words, chunk = world
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linking_core, "_FEATURE_CHUNK", chunk)
        features = _features(mentions, words)
        block = _pack_candidates(mentions, entities, words)
        singles = [context_feature(m, words) for m in mentions]
    want = np.zeros((len(mentions), words.dim))
    for n, m in enumerate(mentions):
        want[n] = per_token_feature(m, words)
    assert features.tobytes() == want.tobytes()
    assert block.features.tobytes() == want.tobytes()
    for f, w, m in zip(singles, want, mentions):
        assert f.vector.tobytes() == w.tobytes()
        assert f.oov_count == sum(t not in words for t in m.context)
    vectors, mask = per_mention_candidates(mentions, entities)
    assert block.vectors.shape == vectors.shape
    assert block.vectors.tobytes() == vectors.tobytes()
    assert block.mask.tobytes() == mask.tobytes()
    assert block.labels == [sorted(m.candidates) for m in mentions]


def test_features_add_context_rows_in_sequence():
    # in sequence 2**53 + 1 rounds back to 2**53 twice; summing the ones
    # first (as np.add.reduceat does after a segment's first row) gives 2**53 + 2
    words = table_from({"big": [2.0**53], "one": [1.0]})
    mention = Mention("m", ["big", "one", "one"])
    assert _features([mention], words).tobytes() == per_token_feature(mention, words).tobytes()
    assert context_feature(mention, words).vector[0] == 2.0**53 / 3


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
        f = ContextFeature(np.array([1.0, 1.0]))
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


def toy_world(rng, n_entities=6, dim=4, prefix="E"):
    labels = [f"{prefix}{i}" for i in range(n_entities)]
    entities = EmbeddingTable(dim, labels, rng.standard_normal((n_entities, dim)).astype(np.float32))
    wlabels = [f"w{i}" for i in range(10)]
    words = EmbeddingTable(dim, wlabels, rng.standard_normal((10, dim)).astype(np.float32))
    return entities, words, labels, wlabels


def random_doc(rng, labels, wlabels, n_mentions, n_cands, with_gold=True, doc_id="d"):
    mentions = []
    for _ in range(n_mentions):
        cands = list(rng.choice(labels, size=n_cands, replace=False))
        mentions.append(
            Mention(
                surface="m",
                context=list(rng.choice(wlabels, size=6)),
                candidates=cands,
                gold=cands[int(rng.integers(n_cands))] if with_gold else None,
            )
        )
    return LinkingDocument(doc_id, mentions)


class TestDocumentScore:
    def test_single_mention_is_local_only(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 1, 3)
        model = LinkingModel.identity(4)
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

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_unknown_pairwise_mode_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        choice = [m.candidates[0] for m in doc.mentions]
        with pytest.raises(ValueError, match="pairwise"):
            document_score(choice, doc, LinkingModel.identity(4), entities, words, pairwise="bogus")

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_relations_without_relations_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        choice = [m.candidates[0] for m in doc.mentions]
        with pytest.raises(RelationArityError):
            document_score(
                choice, doc, LinkingModel.identity(4), entities, words, pairwise="relations"
            )


class TestInfer:
    def test_single_candidate_everywhere(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, 3, 1)
        model = LinkingModel.identity(4)
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
        model = LinkingModel.identity(4)
        with pytest.raises(CapacityError):
            infer(doc, model, entities, words, "exhaustive")
        assert len(infer(doc, model, entities, words, "greedy-local")) == 4

    def test_empty_candidates_rejected(self, rng):
        entities, words, labels, wlabels = toy_world(rng)
        doc = LinkingDocument("d", [Mention("m", context=[], candidates=[])])
        with pytest.raises(InvalidDocumentError):
            infer(doc, LinkingModel.identity(4), entities, words)

    def test_entity_word_dimension_mismatch(self, rng):
        entities, _, labels, wlabels = toy_world(rng, dim=4)
        words = EmbeddingTable(3, wlabels, rng.standard_normal((10, 3)).astype(np.float32))
        doc = random_doc(rng, labels, wlabels, 2, 3)
        with pytest.raises(DimensionError):
            infer(doc, LinkingModel.identity(4), entities, words, "greedy-local")
        for pairwise in ("diagonal", "relations"):
            with pytest.raises(DimensionError):
                infer(doc, LinkingModel.identity(4, 1), entities, words, "exhaustive", pairwise)
        with pytest.raises(DimensionError):
            train([doc], entities, words, TrainConfig(epochs=1))

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy-local"])
    @pytest.mark.parametrize("pairwise", ["diagonal", "relations"])
    def test_model_entity_dimension_mismatch(self, rng, strategy, pairwise):
        entities, words, labels, wlabels = toy_world(rng, dim=4)
        doc = random_doc(rng, labels, wlabels, 2, 3)
        with pytest.raises(DimensionError):
            infer(doc, LinkingModel.identity(3, 1), entities, words, strategy, pairwise)

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_relations_without_relations_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        with pytest.raises(RelationArityError):
            infer(doc, LinkingModel.identity(4), entities, words, "exhaustive", pairwise="relations")

    @pytest.mark.parametrize("n_mentions", [1, 2])
    def test_unknown_pairwise_mode_rejected(self, rng, n_mentions):
        entities, words, labels, wlabels = toy_world(rng)
        doc = random_doc(rng, labels, wlabels, n_mentions, 3)
        with pytest.raises(ValueError, match="pairwise"):
            infer(doc, LinkingModel.identity(4), entities, words, "exhaustive", pairwise="dense")

    def test_tie_breaks_lexicographic(self, rng):
        # identical candidate vectors -> tie; smallest label must win
        entities = EmbeddingTable.from_pairs(
            [("zz", [1.0, 0.0]), ("aa", [1.0, 0.0]), ("mm", [1.0, 0.0])]
        )
        words = EmbeddingTable.from_pairs([("w", [1.0, 1.0])])
        doc = LinkingDocument(
            "d", [Mention("m", context=["w"], candidates=["zz", "aa", "mm"])]
        )
        model = LinkingModel.identity(2)
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


# Quarter-step values, one to four context tokens per mention: every local
# and pairwise term is then computed exactly or rounded once, identically,
# by the packed and the scalar path, so their argmaxes agree bit for bit.
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
            context=draw(st.lists(st.sampled_from(words.labels), min_size=1, max_size=4)),
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
        loss, gB, gC = margin_loss_and_gradient(instances, B, C, margin, train_pairwise)
        h = 1e-6
        for diag, grad in ((B, gB), (C, gC)) if train_pairwise else ((B, gB),):
            for j in range(5):
                bump = np.zeros(5)
                bump[j] = h
                if diag is B:
                    lp = margin_loss_and_gradient(instances, B + bump, C, margin, train_pairwise)[0]
                    lm = margin_loss_and_gradient(instances, B - bump, C, margin, train_pairwise)[0]
                else:
                    lp = margin_loss_and_gradient(instances, B, C + bump, margin, train_pairwise)[0]
                    lm = margin_loss_and_gradient(instances, B, C - bump, margin, train_pairwise)[0]
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
            out.append((context_feature(m, words).vector, golds[i], negs, pair_ctx))
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
        order = rng.permutation(len(instances)) if config.shuffle else range(len(instances))
        for idx in order:
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
        cfg = TrainConfig(margin=1.0, lr=0.05, epochs=12, seed=world,
                          train_pairwise=train_pairwise, shuffle=world != 3)
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
        with pytest.warns(UserWarning, match="seeds only reorder the shuffle"):
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
        train_pairwise=draw(st.booleans()), shuffle=draw(st.booleans()),
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
    devs = [_pack_dev(dev_docs, t, words) for t in tables] if dev_docs is not None else None
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
        loss = margin_loss_and_gradient(sets[t], B[r], C[r], config.margin, config.train_pairwise)[0]
        return loss, devs[t].f1(B[r]) if devs is not None else None

    history = [[evaluate(r)] for r in range(R)]
    for _epoch in range(config.epochs):
        if config.shuffle:
            order = np.stack([rng.permutation(N) for rng in rngs] * len(tables))
        else:
            order = np.broadcast_to(np.arange(N), (R, N))
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
        epochs=draw(st.integers(0, 4)), train_pairwise=draw(st.booleans()), shuffle=draw(st.booleans()),
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


class TestModelIO:
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

    @pytest.mark.parametrize("header", ["3 -1", "0 0", "-2 0", "-3 -1"])
    def test_non_positive_dim_or_negative_k_rejected(self, tmp_path, header):
        p = tmp_path / "m.txt"
        p.write_text(f"{header}\n1 1 1\n1 1 1\n1 1 1\n", "ascii")
        with pytest.raises(FormatError):
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
        ],
        ids=["non-ascii-diagonal", "non-ascii-weighting", "nan", "overflow", "unknown-weighting"],
    )
    def test_load_errors_are_format_errors_with_path(self, tmp_path, content, error):
        p = tmp_path / "m.txt"
        p.write_bytes(content)
        with pytest.raises(error) as e:
            LinkingModel.load(p)
        assert isinstance(e.value, FormatError)
        assert e.value.path == p
        assert str(p) in str(e.value)


class TestCorpusIO:
    def test_jsonl_round_trip(self, rng, tmp_path):
        entities, words, labels, wlabels = toy_world(rng)
        docs = [random_doc(rng, labels, wlabels, 2, 3, doc_id=f"d{i}") for i in range(4)]
        p = tmp_path / "docs.jsonl"
        save_linking_jsonl(docs, p)
        again = load_linking_jsonl(p)
        assert len(again) == 4
        for d1, d2 in zip(docs, again):
            assert d1.doc_id == d2.doc_id
            for m1, m2 in zip(d1.mentions, d2.mentions):
                assert (m1.surface, m1.context, m1.candidates, m1.gold) == (
                    m2.surface, m2.context, m2.candidates, m2.gold,
                )

    def test_jsonl_bad_line(self, tmp_path):
        p = tmp_path / "docs.jsonl"
        p.write_text("{not json}\n", "utf-8")
        with pytest.raises(FormatError):
            load_linking_jsonl(p)

    def test_aida_style_tsv(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text(
            "-DOCSTART- (doc_a)\n"
            "The\n"
            "president\n"
            "visited\tB\tvisited City\tCity_X\tCity_X:0.9,City_Y:0.1\n"
            "today\n"
            "-DOCSTART- (doc_b)\n"
            "A\n"
            "striker\tB\tstriker\t--NME--\tPlayer_1,Player_2\n",
            "utf-8",
        )
        docs = load_aida_tsv(p, window=2)
        assert [d.doc_id for d in docs] == ["doc_a", "doc_b"]
        m = docs[0].mentions[0]
        assert m.candidates == ["City_X", "City_Y"]  # priors stripped
        assert m.gold == "City_X"
        assert m.context == ["the", "president", "today"]
        assert docs[1].mentions[0].gold is None

    @pytest.mark.parametrize("text, label", [
        ("City_X:0.9", "City_X"),
        ("City_X:0", "City_X"),
        ("City_X:1.0", "City_X"),
        ("a:b:0.25", "a:b"),
        ("Apollo:11", "Apollo:11"),
        ("x:nan", "x:nan"),
        ("y:inf", "y:inf"),
        ("z:-0.5", "z:-0.5"),
        ("Title:Subtitle", "Title:Subtitle"),
        (":0.5", ":0.5"),
        ("plain", "plain"),
    ])
    def test_strip_prior_only_strips_probabilities(self, text, label):
        assert _strip_prior(text) == label

    def test_strip_prior_structured_pair(self):
        assert _strip_prior(["Apollo:11", 0.3]) == "Apollo:11"
        assert _strip_prior(("City_X", 0.9)) == "City_X"
