"""Acceptance criteria, one test per criterion at its stated tolerance.

The conftest terminal summary prints one [PASS]/[FAIL] line per criterion.
"""

import itertools
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from semlink.embed_io import EmbeddingTable, load_binary, save_binary
from semlink.errors import RemapTargetError
from semlink.evaluation import (
    convergence_experiment,
    geometry_report,
    micro_f1,
    summarize_runs,
)
from semlink.fixtures import FixtureSizes, generate_fixture
from semlink.linking_core import (
    LinkingDocument,
    LinkingModel,
    Mention,
    TrainConfig,
    _build_instances,
    document_score,
    infer,
    local_score,
    margin_loss_and_gradient,
    pairwise_score,
    relation_pairwise_score,
)
from semlink.semantic_aggregation import (
    AggregationConfig,
    aggregate_table,
    semantic_embedding,
)
from semlink.type_dictionary import SemanticTypeDictionary, apply_remap
from semlink.type_extraction import ArticleRecord, EntityTypeAssignment, extract_types

RNG = np.random.default_rng(812)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _typed_world(n_entities, dim, n_words=80, max_types=13, all_typed=True, seed=812):
    rng = np.random.default_rng(seed)
    words = EmbeddingTable(
        dim,
        [f"w{i:03d}" for i in range(n_words)],
        rng.uniform(-1.0, 1.0, (n_words, dim)).astype(np.float32),
    )
    entities = EmbeddingTable(
        dim,
        [f"e{i:04d}" for i in range(n_entities)],
        rng.uniform(-1.0, 1.0, (n_entities, dim)).astype(np.float32),
    )
    assignments = {}
    for i, label in enumerate(entities.labels):
        if not all_typed and i % 7 == 0:
            continue
        count = 1 + int(rng.integers(max_types))
        chosen = list(rng.choice(words.labels, size=min(count, n_words), replace=False))
        assignments[label] = EntityTypeAssignment(label, chosen)
    return words, entities, assignments


def test_criterion_01_linear_aggregation_exactness():
    """Aggregation endpoints bit-exact, alpha=0.2 vs oracle <= 1e-6, <1 s at 1k x 300."""
    words, entities, assignments = _typed_world(1000, 300)

    start = time.perf_counter()
    blended = aggregate_table(entities, assignments, words, AggregationConfig(T=11, alpha=0.2))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"aggregation took {elapsed:.3f}s on 1k x 300"

    # alpha = 0 reproduces the base table bit-exactly
    at_zero = aggregate_table(entities, assignments, words, AggregationConfig(T=11, alpha=0.0))
    assert at_zero == entities

    # alpha = 1 reproduces the semantic table bit-exactly
    cfg1 = AggregationConfig(T=11, alpha=1.0)
    at_one = aggregate_table(entities, assignments, words, cfg1)
    semantic_rows = np.stack(
        [
            semantic_embedding(assignments[label], words, cfg1).vector.astype(np.float32)
            for label in entities.labels
        ]
    )
    semantic_table = EmbeddingTable(300, list(entities.labels), semantic_rows)
    assert at_one == semantic_table

    # alpha = 0.2 against an independent componentwise float64 oracle
    cfg = AggregationConfig(T=11, alpha=0.2)
    for i, label in enumerate(entities.labels):
        sem = semantic_embedding(assignments[label], words, cfg).vector
        oracle = 0.8 * entities.matrix[i].astype(np.float64) + 0.2 * sem
        np.testing.assert_allclose(blended.matrix[i].astype(np.float64), oracle, atol=1e-6)


def test_criterion_02_semantic_mean_vs_brute_force():
    """Semantic means match an fsum oracle <= 1e-7 over 1,000 entities incl. short lists."""
    words, entities, assignments = _typed_world(1000, 300, max_types=13)
    for T in (6, 11):
        cfg = AggregationConfig(T=T, alpha=0.2)
        shorter = longer = 0
        for label in entities.labels:
            assignment = assignments[label]
            result = semantic_embedding(assignment, words, cfg)
            used = assignment.type_words[: min(T, len(assignment.type_words))]
            if len(assignment.type_words) < T:
                shorter += 1
            else:
                longer += 1
            assert result.used_words == used
            vectors = [words.vector(w).astype(np.float64) for w in used]
            oracle = np.array(
                [math.fsum(v[j] for v in vectors) / len(used) for j in range(300)]
            )
            np.testing.assert_allclose(result.vector, oracle, atol=1e-7)
        # both branches of the divisor rule must actually be exercised
        assert shorter > 0 and longer > 0


def test_criterion_03_score_formulas_vs_naive_oracles():
    """Local/pairwise/relation scores within 1e-9 of triple loops; symmetry; K=1 identity."""
    rng = np.random.default_rng(33)
    for _ in range(40):
        d = int(rng.integers(1, 17))
        e, B, f = rng.standard_normal((3, d))
        assert local_score(e, B, f) == pytest.approx(
            sum(e[j] * B[j] * f[j] for j in range(d)), abs=1e-9
        )

        n = int(rng.integers(2, 9))
        ei, ej, C = rng.standard_normal((3, d))
        assert pairwise_score(ei, ej, C, n) == pytest.approx(
            sum(ei[j] * C[j] * ej[j] for j in range(d)) / (n - 1), abs=1e-9
        )
        # exact symmetry, not approximate
        assert pairwise_score(ei, ej, C, n) == pairwise_score(ej, ei, C, n)

        K = int(rng.integers(1, 5))
        relations = [rng.standard_normal(d) for _ in range(K)]
        weights = rng.uniform(0, 1, K)
        model = LinkingModel(d, np.ones(d), np.ones(d), relations=relations)
        expected = sum(
            weights[k] * ei[j] * relations[k][j] * ej[j]
            for k in range(K)
            for j in range(d)
        )
        assert relation_pairwise_score(ei, ej, model, weights) == pytest.approx(
            expected, abs=1e-9
        )

    # K = 1 with uniform weight reduces to the unscaled pairwise form
    d = 12
    ei, ej, C = rng.standard_normal((3, d))
    model = LinkingModel(d, np.ones(d), C, relations=[C])
    for n in (2, 3, 7):
        assert relation_pairwise_score(ei, ej, model, [1.0]) == pytest.approx(
            (n - 1) * pairwise_score(ei, ej, C, n), rel=1e-12
        )


def _random_instance(rng, n_mentions, n_cands, dim=6, with_gold=True):
    labels = [f"E{i}" for i in range(14)]
    entities = EmbeddingTable(
        dim, labels, rng.standard_normal((14, dim)).astype(np.float32)
    )
    wlabels = [f"w{i}" for i in range(10)]
    words = EmbeddingTable(dim, wlabels, rng.standard_normal((10, dim)).astype(np.float32))
    mentions = []
    for _ in range(n_mentions):
        cands = list(rng.choice(labels, size=n_cands, replace=False))
        mentions.append(
            Mention(
                "m",
                context=list(rng.choice(wlabels, size=6)),
                candidates=cands,
                gold=cands[int(rng.integers(n_cands))] if with_gold else None,
            )
        )
    return entities, words, LinkingDocument("d", mentions)


def test_criterion_04_inference_matches_enumeration():
    """Exhaustive argmax == full enumeration (product <= 1e4); C=0 == greedy; scale-invariant."""
    rng = np.random.default_rng(44)
    shapes = [(4, 10), (3, 8), (2, 9), (5, 6), (1, 7)]  # products up to 10^4
    for n_mentions, n_cands in shapes:
        entities, words, doc = _random_instance(rng, n_mentions, n_cands)
        model = LinkingModel(6, rng.standard_normal(6), rng.standard_normal(6))
        got = infer(doc, model, entities, words, "exhaustive")

        best, best_score = None, -np.inf
        for choice in itertools.product(*(sorted(m.candidates) for m in doc.mentions)):
            score = document_score(list(choice), doc, model, entities, words)
            if score > best_score:
                best, best_score = list(choice), score
        assert got == best

        # zero coupling: exhaustive equals greedy-local
        decoupled = LinkingModel(6, model.B, np.zeros(6))
        assert infer(doc, decoupled, entities, words, "exhaustive") == infer(
            doc, decoupled, entities, words, "greedy-local"
        )

        # uniform positive scaling of B and C keeps the argmax
        for scale in (0.01, 5.0):
            scaled = LinkingModel(6, scale * model.B, scale * model.C)
            assert infer(doc, scaled, entities, words, "exhaustive") == got


def test_criterion_05_gradient_check():
    """Analytic margin-loss gradients within 1e-4 relative of central differences (20 instances)."""
    rng = np.random.default_rng(55)
    checked = 0
    for trial in range(20):
        train_pairwise = trial % 2 == 1
        entities, words, doc = _random_instance(rng, 3, 3)
        instances, _ = _build_instances([doc], entities, words, train_pairwise)
        B = rng.standard_normal(6)
        C = rng.standard_normal(6)
        margin = float(rng.uniform(0.3, 1.2))
        _, gB, gC = margin_loss_and_gradient(instances, B, C, margin, train_pairwise)

        h = 1e-5
        for which, grad in (("B", gB), ("C", gC)):
            if which == "C" and not train_pairwise:
                continue
            for j in range(6):
                bump = np.zeros(6)
                bump[j] = h
                if which == "B":
                    lp = margin_loss_and_gradient(instances, B + bump, C, margin, train_pairwise)[0]
                    lm = margin_loss_and_gradient(instances, B - bump, C, margin, train_pairwise)[0]
                else:
                    lp = margin_loss_and_gradient(instances, B, C + bump, margin, train_pairwise)[0]
                    lm = margin_loss_and_gradient(instances, B, C - bump, margin, train_pairwise)[0]
                fd = (lp - lm) / (2 * h)
                rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-8)
                assert rel < 1e-4, f"instance {trial} {which}[{j}]: {grad[j]} vs {fd}"
        checked += 1
    assert checked == 20


def test_criterion_06_micro_f1_and_confidence_interval():
    """Micro-F1 matches hand counts exactly; CI matches the reference formula to 1e-9."""
    gold = {"d1": ["a", "b", "c", "d", "e"], "d2": ["f", "g", "h", "i", "j"]}
    pred = {"d1": ["a", "b", "c", "d", "x"], "d2": ["f", "g", "h", None, "y"]}
    report = micro_f1(pred, gold)
    assert (report.tp, report.fp, report.fn) == (7, 2, 3)
    assert report.micro_precision == 7 / 9
    assert report.micro_recall == 7 / 10
    p, r = 7 / 9, 7 / 10
    assert report.micro_f1 == pytest.approx(2 * p * r / (p + r), abs=1e-15)

    perfect = micro_f1({"d": ["x", "y"]}, {"d": ["x", "y"]})
    assert perfect.micro_f1 == 1.0
    silent = micro_f1({"d": [None, None]}, {"d": ["x", "y"]})
    assert silent.micro_f1 == 0.0

    # five-run protocol with the frozen t quantile for 4 degrees of freedom
    scores = [0.9258, 0.9249, 0.9266, 0.9271, 0.9263]
    summary = summarize_runs(scores)
    mean = sum(scores) / 5
    s = math.sqrt(sum((x - mean) ** 2 for x in scores) / 4)
    expected_halfwidth = 2.7764451051977987 * s / math.sqrt(5)
    assert len(summary.run_scores) == 5
    assert summary.mean == pytest.approx(mean, abs=1e-9)
    assert summary.ci95_halfwidth == pytest.approx(expected_halfwidth, abs=1e-9)


def test_criterion_07_extraction_example_and_remaps():
    """The five-word first-sentence example extracts exactly; both remap fixtures hold."""
    dictionary = SemanticTypeDictionary(
        words={"american", "lawyer", "government", "official", "director"}
    )
    article = ArticleRecord(
        "Robert_Mueller",
        "Robert Mueller",
        "Robert Mueller is an american lawyer and government official who "
        "served as director of the Federal Bureau of Investigation.",
    )
    assignment = extract_types(article, dictionary, cap=11)
    assert assignment.type_words == ["american", "lawyer", "government", "official", "director"]

    remapping = SemanticTypeDictionary(
        words={"zoologist", "rugby_league"},
        remap={"conchologist": "zoologist", "rugby league": "rugby_league"},
    )
    assert apply_remap(remapping, "conchologist") == "zoologist"
    assert apply_remap(remapping, "rugby league") == "rugby_league"
    with pytest.raises(RemapTargetError):
        SemanticTypeDictionary(words={"x"}, remap={"x": "x"})


def test_criterion_08_reinforced_embeddings_converge_faster():
    """Reinforced table (T=11, alpha=0.2) reaches dev-F1 0.95 in strictly fewer mean epochs."""
    start = time.perf_counter()
    sizes = FixtureSizes()  # 60 entities, 40 docs x 5 mentions = 200 training mentions
    assert sizes.entities >= 50
    bundle = generate_fixture(7, sizes)
    n_mentions = sum(len(d.mentions) for d in bundle.train_docs)
    assert n_mentions >= 200

    reinforced = aggregate_table(
        bundle.wikitext, bundle.assignments, bundle.words, AggregationConfig(T=11, alpha=0.2)
    )
    seeds = [1, 2, 3, 4, 5]
    # every seed of this fixture reaches theta in the same epoch, which warns
    with pytest.warns(UserWarning, match="seeds only reorder the shuffle"):
        report = convergence_experiment(
            bundle.train_docs,
            bundle.dev_docs,
            bundle.words,
            bundle.wikitext,
            reinforced,
            TrainConfig(margin=1.0, lr=0.01, epochs=120),
            seeds,
            theta=0.95,
        )
    base = report.sets["baseline"]
    reinf = report.sets["reinforced"]
    assert base.censored == 0, "baseline never reached the threshold"
    assert reinf.censored == 0, "reinforced never reached the threshold"
    assert reinf.mean_epochs < base.mean_epochs, (
        f"reinforced {reinf.mean_epochs} vs baseline {base.mean_epochs}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"convergence study took {elapsed:.0f}s"


def test_criterion_09_geometry_deltas_and_distance_identity():
    """Same-type deltas positive, different-type negative (alpha 0.1/0.2); distance identity 1e-6."""
    rng = np.random.default_rng(99)
    d = 24
    labels = ["same_a", "same_b", "diff_a", "diff_b"]
    rows = []
    for _ in labels:
        v = rng.standard_normal(d)
        rows.append(v / np.linalg.norm(v))
    span = np.linalg.qr(np.stack(rows).T)[0]
    shared = rng.standard_normal(d)
    shared -= span @ (span.T @ shared)
    shared /= np.linalg.norm(shared)

    base_table = EmbeddingTable.from_pairs(zip(labels, rows))
    words = EmbeddingTable.from_pairs([("pos", shared), ("neg", -shared)])
    assignments = {
        "same_a": EntityTypeAssignment("same_a", ["pos"]),
        "same_b": EntityTypeAssignment("same_b", ["pos"]),
        "diff_a": EntityTypeAssignment("diff_a", ["pos"]),
        "diff_b": EntityTypeAssignment("diff_b", ["neg"]),
    }
    probe = [("same_a", "same_b", "same"), ("diff_a", "diff_b", "different")]

    for alpha in (0.1, 0.2):
        cfg = AggregationConfig(T=11, alpha=alpha)
        blended = aggregate_table(base_table, assignments, words, cfg)
        report = geometry_report(base_table, blended, probe)
        assert report.mean_delta["same"] > 0, f"alpha={alpha}"
        assert report.mean_delta["different"] < 0, f"alpha={alpha}"

        # shared semantic component: pair distance contracts by exactly (1 - alpha)
        got = np.linalg.norm(
            blended.vector("same_a").astype(np.float64)
            - blended.vector("same_b").astype(np.float64)
        )
        want = (1 - alpha) * np.linalg.norm(
            base_table.vector("same_a").astype(np.float64)
            - base_table.vector("same_b").astype(np.float64)
        )
        assert got == pytest.approx(want, abs=1e-6)


def test_criterion_10_binary_io_round_trip_and_speed(tmp_path):
    """Binary round-trip is byte-identical; a 10k x 300 table loads in under 2 s."""
    import struct

    rng = np.random.default_rng(1010)
    entries = [
        (f"label{i}", [float(np.float32(x)) for x in rng.standard_normal(4)])
        for i in range(100)
    ]
    reference = tmp_path / "ref.bin"
    with open(reference, "wb") as fh:
        fh.write(f"{len(entries)} 4\n".encode("ascii"))
        for label, values in entries:
            fh.write(label.encode() + b" " + struct.pack("<4f", *values))
    round_tripped = tmp_path / "rt.bin"
    save_binary(load_binary(reference), round_tripped)
    assert round_tripped.read_bytes() == reference.read_bytes()

    big = EmbeddingTable(
        300,
        [f"entity{i:05d}" for i in range(10_000)],
        rng.standard_normal((10_000, 300)).astype(np.float32),
    )
    big_path = tmp_path / "big.bin"
    save_binary(big, big_path)
    start = time.perf_counter()
    loaded = load_binary(big_path)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"10k x 300 load took {elapsed:.3f}s"
    assert len(loaded) == 10_000 and loaded.dim == 300


def test_criterion_11_large_scale_results_documented_out_of_scope():
    """README marks published AIDA-B 92.63±0.14 as out of desk-scale scope; no test claims it."""
    readme = (REPO_ROOT / "README.md").read_text("utf-8")
    assert "AIDA-B" in readme
    assert "92.63" in readme
    scope_block = readme[readme.index("Scope and non-goals"):]
    assert "92.63" in scope_block, "the non-reproduction note must sit in the scope section"

    # no test asserts those benchmark values anywhere else
    for test_file in sorted((REPO_ROOT / "tests").glob("*.py")):
        text = test_file.read_text("utf-8")
        if test_file.name == "test_acceptance.py":
            continue
        assert not re.search(r"92\.63|94\.26", text), f"{test_file.name} references benchmark F1"
