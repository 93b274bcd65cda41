"""Micro-F1 counting, Student-t CIs, convergence and geometry studies."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from semlink import linking_core
from semlink.corpus import LinkingDocument, Mention
from semlink.embed_io import EmbeddingTable
from semlink.errors import AlignmentError, ConfigError, EmptyTrainingError, MissingLabelError
from semlink.evaluation import (
    convergence_experiment,
    epochs_to_threshold,
    geometry_report,
    gold_map,
    micro_f1,
    _t_quantile,
    summarize_runs,
)
from semlink.fixtures import FixtureSizes, generate_fixture
from semlink.linking_core import TrainConfig, train
from semlink.semantic_aggregation import AggregationConfig, aggregate, aggregate_table

# frozen Student-t 97.5% quantiles by degrees of freedom (statistics tables)
T_975 = {2: 4.302652729749463, 4: 2.7764451051977987, 9: 2.262157162798206}


class TestMicroF1:
    def test_all_correct(self):
        report = micro_f1({"d": ["a", "b"]}, {"d": ["a", "b"]})
        assert (report.tp, report.fp, report.fn) == (2, 0, 0)
        assert report.micro_f1 == 1.0

    def test_no_predictions_emitted(self):
        report = micro_f1({"d": [None, None]}, {"d": ["a", "b"]})
        assert (report.tp, report.fp, report.fn) == (0, 0, 2)
        assert report.micro_precision == 0.0
        assert report.micro_recall == 0.0
        assert report.micro_f1 == 0.0

    def test_hand_counted_confusion(self):
        # 10 mentions: 7 correct, 2 wrong, 1 abstained
        gold = {"d1": ["a", "b", "c", "d", "e"], "d2": ["f", "g", "h", "i", "j"]}
        pred = {"d1": ["a", "b", "c", "d", "x"], "d2": ["f", "g", "h", None, "y"]}
        report = micro_f1(pred, gold)
        assert (report.tp, report.fp, report.fn) == (7, 2, 3)
        p, r = 7 / 9, 7 / 10
        assert report.micro_precision == pytest.approx(p)
        assert report.micro_recall == pytest.approx(r)
        assert report.micro_f1 == pytest.approx(2 * p * r / (p + r))

    def test_per_doc_breakdown_consistent(self):
        gold = {"d1": ["a", "b"], "d2": ["c"]}
        pred = {"d1": ["a", "x"], "d2": [None]}
        report = micro_f1(pred, gold)
        assert report.tp == sum(c.tp for c in report.per_doc.values())
        assert report.fp == sum(c.fp for c in report.per_doc.values())
        assert report.fn == sum(c.fn for c in report.per_doc.values())

    def test_document_set_mismatch(self):
        with pytest.raises(AlignmentError, match="d2"):
            micro_f1({"d1": ["a"]}, {"d1": ["a"], "d2": ["b"]})
        with pytest.raises(AlignmentError, match="dx"):
            micro_f1({"d1": ["a"], "dx": ["b"]}, {"d1": ["a"]})

    def test_mention_count_mismatch(self):
        with pytest.raises(AlignmentError, match="d1"):
            micro_f1({"d1": ["a", "b"]}, {"d1": ["a"]})

    def test_permutation_invariance_over_documents(self, rng):
        docs = {f"d{i}": [f"e{j}" for j in range(4)] for i in range(10)}
        preds = {
            d: [g if rng.random() < 0.7 else "wrong" for g in gold]
            for d, gold in docs.items()
        }
        f1 = micro_f1(preds, docs).micro_f1
        order = list(docs)
        rng.shuffle(order)
        shuffled_gold = {d: docs[d] for d in order}
        shuffled_pred = {d: preds[d] for d in order}
        assert micro_f1(shuffled_pred, shuffled_gold).micro_f1 == f1

    def test_gold_map_requires_full_gold(self):
        doc = LinkingDocument("d", [Mention("m", candidates=["a"], gold=None)])
        with pytest.raises(AlignmentError):
            gold_map([doc])


class TestTQuantile:
    # df 1 and 2 have closed forms, tan(0.475 pi) and 0.95 sqrt(2 / 0.0975);
    # the others were checked with mpmath
    @pytest.mark.parametrize("df, expected", [
        (1, 12.706204736174696),
        (2, 4.302652729749463),
        (3, 3.1824463052837078),
        (4, 2.7764451051977934),
        (9, 2.262157162798206),
        (29, 2.045229642132703),
        (99, 1.9842169515864174),
        (999, 1.9623414611334493),
    ])
    def test_975_quantile(self, df, expected):
        assert _t_quantile(0.975, df) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.99, 0.9995])
    def test_closed_forms_at_other_probabilities(self, p):
        a = 2 * p - 1  # P(|T| < t)
        assert _t_quantile(p, 1) == pytest.approx(math.tan(math.pi * a / 2), rel=1e-12)
        assert _t_quantile(p, 2) == pytest.approx(a * math.sqrt(2 / (1 - a * a)), rel=1e-12)

    def test_decreases_toward_normal_quantile(self):
        values = [_t_quantile(0.975, df) for df in range(1, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 1.959963984540054


def test_import_leaves_scipy_out():
    code = "import sys, semlink.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestSummarizeRuns:
    def test_constant_scores(self):
        with pytest.warns(UserWarning, match="do not differ"):
            summary = summarize_runs([0.9, 0.9, 0.9])
        assert summary.mean == pytest.approx(0.9)
        assert summary.ci95_halfwidth == 0.0

    def test_varying_scores_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summarize_runs([0.9, 0.9, 0.91])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            summarize_runs([0.9, bad, 0.8])

    @pytest.mark.parametrize("scores", [[1e308, 1e308], [sys.float_info.max] * 3])
    def test_mean_of_scores_whose_sum_overflows(self, scores):
        with pytest.warns(UserWarning, match="do not differ"):
            summary = summarize_runs(scores)
        assert summary.mean == scores[0]
        assert summary.ci95_halfwidth == 0.0

    def test_paper_style_five_runs(self):
        summary = summarize_runs([0.9258, 0.9249, 0.9266, 0.9271, 0.9263])
        assert summary.ci95_halfwidth == pytest.approx(0.0010410743621653712, rel=1e-12)

    def test_single_run_warns(self):
        with pytest.warns(UserWarning):
            summary = summarize_runs([0.85])
        assert summary.mean == 0.85
        assert summary.ci95_halfwidth == 0.0

    def test_matches_reference_statistics(self, rng):
        for n in (3, 5, 10):
            scores = list(rng.uniform(0.5, 1.0, n))
            summary = summarize_runs(scores)
            mean = sum(scores) / n
            s = math.sqrt(sum((x - mean) ** 2 for x in scores) / (n - 1))
            expected_hw = T_975[n - 1] * s / math.sqrt(n)
            assert summary.mean == pytest.approx(mean, abs=1e-9)
            assert summary.ci95_halfwidth == pytest.approx(expected_hw, abs=1e-9)

    def test_translation_and_scale_behavior(self, rng):
        scores = list(rng.uniform(0, 1, 5))
        base = summarize_runs(scores)
        shifted = summarize_runs([s + 0.3 for s in scores])
        assert shifted.ci95_halfwidth == pytest.approx(base.ci95_halfwidth, abs=1e-12)
        scaled = summarize_runs([2.0 * s for s in scores])
        assert scaled.ci95_halfwidth == pytest.approx(2.0 * base.ci95_halfwidth, abs=1e-12)

    def test_mean_within_range(self, rng):
        scores = list(rng.uniform(0, 1, 7))
        summary = summarize_runs(scores)
        assert min(scores) <= summary.mean <= max(scores)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])


def small_world():
    sizes = FixtureSizes(
        entities=24, groups=6, train_docs=10, dev_docs=6, eval_docs=4,
        mentions_per_doc=4, dim=16,
    )
    bundle = generate_fixture(5, sizes)
    cfg = AggregationConfig(T=11, alpha=0.2)
    reinforced = aggregate_table(bundle.wikitext, bundle.assignments, bundle.words, cfg)
    return bundle, reinforced


class TestConvergenceExperiment:
    def test_identical_tables_identical_traces(self):
        bundle, _ = small_world()
        cfg = TrainConfig(epochs=5, lr=0.01)
        report = convergence_experiment(
            bundle.train_docs, bundle.dev_docs, bundle.words,
            bundle.wikitext, bundle.wikitext, cfg, seeds=[3, 4], theta=0.99,
        )
        base = report.sets["baseline"]
        reinf = report.sets["reinforced"]
        assert base.dev_f1_traces == reinf.dev_f1_traces
        assert base.epochs_to_threshold == reinf.epochs_to_threshold

    def test_bit_reproducible(self):
        bundle, reinforced = small_world()
        cfg = TrainConfig(epochs=4, lr=0.01)
        args = (bundle.train_docs, bundle.dev_docs, bundle.words,
                bundle.wikitext, reinforced, cfg, [1, 2])
        r1 = convergence_experiment(*args, theta=0.95)
        r2 = convergence_experiment(*args, theta=0.95)
        assert r1.to_dict() == r2.to_dict()

    def test_study_scores_no_training_loss(self, monkeypatch):
        """The study reads dev F1 only, so it never takes a hinge loss."""
        bundle, reinforced = small_world()
        args = (bundle.train_docs, bundle.dev_docs, bundle.words,
                bundle.wikitext, reinforced, TrainConfig(epochs=4, lr=0.01), [1, 2])
        want = convergence_experiment(*args, theta=0.95).to_dict()

        def refuse(*args):
            raise AssertionError("the study scored a training loss")

        monkeypatch.setattr(linking_core, "_hinges", refuse)
        assert convergence_experiment(*args, theta=0.95).to_dict() == want

    def test_censoring_reported_not_raised(self):
        bundle, reinforced = small_world()
        cfg = TrainConfig(epochs=1, lr=1e-9)  # cannot reach threshold
        report = convergence_experiment(
            bundle.train_docs, bundle.dev_docs, bundle.words,
            bundle.wikitext, reinforced, cfg, seeds=[1], theta=1.0,
        )
        for result in report.sets.values():
            assert result.epochs_to_threshold == [None]
            assert result.censored == 1
            assert result.mean_epochs == cfg.epochs

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"), -0.1, 1.01])
    def test_theta_outside_unit_interval_is_a_config_error(self, theta):
        bundle, reinforced = small_world()
        # no training mention: a study that trained first would raise EmptyTrainingError
        with pytest.raises(ConfigError, match=r"theta must be a finite number in \[0, 1\]"):
            convergence_experiment(
                [], bundle.dev_docs, bundle.words,
                bundle.wikitext, reinforced, TrainConfig(epochs=1), seeds=[1], theta=theta,
            )

    def test_empty_training_propagates(self):
        bundle, reinforced = small_world()
        with pytest.raises(EmptyTrainingError):
            convergence_experiment(
                [], bundle.dev_docs, bundle.words,
                bundle.wikitext, reinforced, TrainConfig(epochs=1), seeds=[1],
            )

    def test_degenerate_study_warns_per_set(self):
        bundle = generate_fixture(7, FixtureSizes())
        reinforced = aggregate_table(
            bundle.wikitext, bundle.assignments, bundle.words, AggregationConfig(T=11, alpha=0.2)
        )
        args = (bundle.train_docs, bundle.dev_docs, bundle.words, bundle.wikitext, reinforced,
                TrainConfig(margin=1.0, lr=0.01, epochs=120))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = convergence_experiment(*args, [1, 2, 3, 4, 5], theta=0.95)
        messages = [str(w.message) for w in caught]
        assert report.sets["baseline"].epochs_to_threshold == [30] * 5
        assert report.sets["reinforced"].epochs_to_threshold == [8] * 5
        assert len(messages) == 2
        for name, epoch, message in zip(("baseline", "reinforced"), (30, 8), messages):
            assert f"all 5 seeds of {name!r}" in message and f"epoch {epoch}:" in message
            assert "only reorder the SGD steps" in message
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            convergence_experiment(*args, [1], theta=0.95)
        assert caught == []

    def test_censored_seeds_do_not_warn(self):
        bundle, reinforced = small_world()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = convergence_experiment(
                bundle.train_docs, bundle.dev_docs, bundle.words, bundle.wikitext, reinforced,
                TrainConfig(epochs=1, lr=1e-9), seeds=[1, 2], theta=1.0,
            )
        assert report.sets["baseline"].censored == 2
        assert caught == []

    def test_epochs_to_threshold_helper(self):
        bundle, _ = small_world()
        result = train(
            bundle.train_docs, bundle.wikitext, bundle.words,
            TrainConfig(epochs=3), dev_docs=bundle.dev_docs,
        )
        e = epochs_to_threshold(result, theta=0.0)
        assert e == 0  # any trace is >= 0 before training


def shared_semantic_tables(alpha):
    """Probe construction: same-kind pairs share one semantic vector, the
    different-kind pair gets opposed semantic vectors.

    Base vectors are unit norm and the semantic direction is orthogonal to
    all of them, which forces cos deltas of
    (alpha^2 / norm) * (1 -+ cos_base): positive for shared, negative for
    opposed semantic components.
    """
    rng = np.random.default_rng(99)
    d = 24
    base = {}
    for name in ("same_a", "same_b", "diff_a", "diff_b"):
        v = rng.standard_normal(d)
        base[name] = v / np.linalg.norm(v)
    shared = rng.standard_normal(d)
    span = np.linalg.qr(np.stack(list(base.values())).T)[0]
    shared -= span @ (span.T @ shared)
    shared /= np.linalg.norm(shared)
    semantic = {
        "same_a": shared,
        "same_b": shared,
        "diff_a": shared,
        "diff_b": -shared,
    }
    baseline = EmbeddingTable.from_pairs([(k, v) for k, v in base.items()])
    reinforced_rows = [
        (k, aggregate(base[k], semantic[k], alpha)) for k in base
    ]
    reinforced = EmbeddingTable.from_pairs(reinforced_rows)
    return baseline, reinforced


class TestGeometryReport:
    PAIRS = [("same_a", "same_b", "same"), ("diff_a", "diff_b", "different")]

    def test_alpha_zero_all_deltas_zero(self):
        baseline, reinforced = shared_semantic_tables(0.0)
        report = geometry_report(baseline, reinforced, self.PAIRS)
        for row in report.rows:
            assert row.delta == pytest.approx(0.0, abs=1e-7)

    def test_identical_semantic_at_alpha_one_gives_cosine_one(self):
        baseline, reinforced = shared_semantic_tables(1.0)
        report = geometry_report(baseline, reinforced, self.PAIRS)
        same_row = next(r for r in report.rows if r.kind == "same")
        assert same_row.cosine_reinforced == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    def test_sign_structure(self, alpha):
        baseline, reinforced = shared_semantic_tables(alpha)
        report = geometry_report(baseline, reinforced, self.PAIRS)
        assert report.mean_delta["same"] > 0
        assert report.mean_delta["different"] < 0

    def test_missing_label(self):
        baseline, reinforced = shared_semantic_tables(0.2)
        with pytest.raises(MissingLabelError):
            geometry_report(baseline, reinforced, [("same_a", "ghost", "same")])
