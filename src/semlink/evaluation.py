"""Micro-F1 scoring, multi-run CI aggregation, and the two property studies.

Evaluation is in-KB only: every gold mention counts toward recall, every
emitted prediction toward precision, and abstentions (None predictions) are
false negatives.  Multi-run summaries report the mean and a Student-t 95%
confidence interval, the defensible choice at five runs; the t quantile is
computed in closed form (`_t_quantile`), since the degrees of freedom are
always a whole number of runs minus one.  The convergence
study compares epochs-to-threshold between two embedding tables; the
geometry study compares pairwise cosines between them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Sized

from .corpus import LinkingDocument
from .embed_io import EmbeddingTable
from .errors import AlignmentError, ConfigError, MissingLabelError
# `train` is kept importable from here: perfbench's tracing test checks that a
# function imported into a second module is wrapped under both names.
from .linking_core import TrainConfig, TrainResult, train, train_runs  # noqa: F401
from .semantic_aggregation import cosine


@dataclass
class DocCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    micro_precision: float
    micro_recall: float
    micro_f1: float
    per_doc: dict[str, DocCounts]

    def to_dict(self) -> dict:
        return asdict(self)


def micro_f1(
    predictions: Mapping[str, Sequence[Optional[str]]],
    gold: Mapping[str, Sequence[str]],
) -> EvalReport:
    """Pool link decisions over all documents and micro-average P/R/F1.

    ``predictions`` and ``gold`` map doc ids to per-mention labels; a None
    prediction is an abstention.  Both sides must cover exactly the same
    mentions (`check_alignment`).
    """
    check_alignment(predictions, gold)
    per_doc: dict[str, DocCounts] = {}
    tp = fp = fn = 0
    for doc_id, gold_labels in gold.items():
        counts = DocCounts()
        for pred, truth in zip(predictions[doc_id], gold_labels):
            if pred is None:
                counts.fn += 1
            elif pred == truth:
                counts.tp += 1
            else:
                counts.fp += 1
                counts.fn += 1
        per_doc[doc_id] = counts
        tp += counts.tp
        fp += counts.fp
        fn += counts.fn

    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(tp, fp, fn, precision, recall, f1, per_doc)


def check_alignment(predictions: Mapping[str, Sized], gold: Mapping[str, Sized]) -> None:
    """An `AlignmentError` naming the documents unless ``predictions`` and
    ``gold`` hold the same doc ids with the same number of mentions each."""
    missing = sorted(set(gold) - set(predictions))
    extra = sorted(set(predictions) - set(gold))
    if missing or extra:
        raise AlignmentError(
            "document sets differ",
            offenders=[f"missing:{d}" for d in missing] + [f"extra:{d}" for d in extra],
        )
    ragged = [doc_id for doc_id in gold if len(predictions[doc_id]) != len(gold[doc_id])]
    if ragged:
        raise AlignmentError("mention counts differ", offenders=ragged)


def gold_map(docs: Iterable[LinkingDocument]) -> dict[str, list[str]]:
    """doc_id -> gold labels, for documents where every mention has gold."""
    out = {}
    for doc in docs:
        if any(m.gold is None for m in doc.mentions):
            raise AlignmentError(
                "document has mentions without gold", offenders=[doc.doc_id]
            )
        out[doc.doc_id] = [m.gold for m in doc.mentions]
    return out


@dataclass
class MultiRunSummary:
    run_scores: list[float]
    mean: float
    ci95_halfwidth: float

    def to_dict(self) -> dict:
        return {
            "runs": len(self.run_scores),
            "scores": self.run_scores,
            "mean": self.mean,
            "ci95_halfwidth": self.ci95_halfwidth,
        }


def _t_quantile(p: float, df: int) -> float:
    """Student-t quantile for 1/2 <= p < 1 and a whole number df >= 1.

    P(|T| < t) has a closed form in theta = atan(t / sqrt(df)) (Abramowitz &
    Stegun 26.7.3-4) that rises with theta, so bisecting theta over
    (0, pi/2) until the midpoint stops moving inverts it as far as the
    series is accurate (within 4e-14 relative for df < 1000 at
    p = 0.975).  The series has df/2 terms, so the cost grows with df.
    """
    target = 2.0 * p - 1.0

    def two_sided(theta: float) -> float:
        if df == 1:
            return 2.0 * theta / math.pi
        c2 = math.cos(theta) ** 2
        term = total = 1.0
        if df % 2 == 0:
            for k in range(2, df - 1, 2):
                term *= c2 * (k - 1) / k
                total += term
            return math.sin(theta) * total
        for k in range(2, df - 2, 2):
            term *= c2 * k / (k + 1)
            total += term
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)

    lo, hi = 0.0, math.pi / 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return math.sqrt(df) * math.tan(mid)
        if two_sided(mid) < target:
            lo = mid
        else:
            hi = mid


def summarize_runs(scores: Sequence[float]) -> MultiRunSummary:
    """Mean and Student-t 95% half-width: t(0.975, n-1) * s / sqrt(n).  A
    half-width past the float range is a `ConfigError`; the mean of finite
    scores lies between them, so it always fits."""
    scores = [float(s) for s in scores]
    if not scores:
        raise ValueError("need at least one score")
    if not all(math.isfinite(x) for x in scores):
        raise ValueError(f"non-finite score in {scores}")
    n = len(scores)
    mean = sum(scores) / n
    if not math.isfinite(mean):  # the sum overflowed: add the shares, kept between the scores
        mean = min(max(sum(x / n for x in scores), min(scores)), max(scores))
    if n == 1:
        warnings.warn("confidence interval undefined for a single run; reporting 0")
        return MultiRunSummary(scores, mean, 0.0)
    if min(scores) == max(scores):
        warnings.warn(
            f"all {n} runs scored {scores[0]}: the half-width is 0 because the "
            "runs do not differ, not because the estimate is precise"
        )
        return MultiRunSummary(scores, mean, 0.0)
    try:
        s = math.sqrt(sum((x - mean) ** 2 for x in scores) / (n - 1))
        halfwidth = _t_quantile(0.975, n - 1) * s / math.sqrt(n)
    except OverflowError:  # a squared deviation past the float range
        halfwidth = math.inf
    if not math.isfinite(halfwidth):
        raise ConfigError(f"the 95% half-width of {scores} overflows a float")
    return MultiRunSummary(scores, mean, halfwidth)


@dataclass
class ConvergenceSetResult:
    """Per-seed training traces for one embedding table."""

    seeds: list[int]
    dev_f1_traces: list[list[float]]
    epochs_to_threshold: list[Optional[int]]  # None = censored
    mean_epochs: float
    censored: int


@dataclass
class ConvergenceReport:
    theta: float
    max_epochs: int
    sets: dict[str, ConvergenceSetResult]

    def to_dict(self) -> dict:
        return asdict(self)


def epochs_to_threshold(result: TrainResult, theta: float) -> Optional[int]:
    """First epoch (1-based) whose dev F1 reaches theta; 0 if already there
    before training; None when censored."""
    if result.initial_dev_f1 is not None and result.initial_dev_f1 >= theta:
        return 0
    for epoch, f1 in enumerate(result.dev_f1_trace, 1):
        if f1 >= theta:
            return epoch
    return None


def check_theta(theta: float) -> None:
    """A `ConfigError` unless ``theta``, a dev-F1 threshold, is a finite
    number in [0, 1]: beyond 1 every run is censored, below 0 every run
    reaches it before training, and NaN or infinity is not valid JSON."""
    if not 0.0 <= theta <= 1.0:  # NaN fails both comparisons
        raise ConfigError(f"theta must be a finite number in [0, 1], got {theta}")


def convergence_experiment(
    train_docs: Sequence[LinkingDocument],
    dev_docs: Sequence[LinkingDocument],
    words: EmbeddingTable,
    wikitext_table: EmbeddingTable,
    reinforced_table: EmbeddingTable,
    train_config: TrainConfig,
    seeds: Sequence[int],
    theta: float = 0.95,
) -> ConvergenceReport:
    """Train once per (embedding table, seed) and compare epochs-to-theta.

    All runs are one `train_runs` call, so they train in lockstep and the
    context features are computed once; each run's weights and dev F1 equal
    a separate `train` call's with that table and seed.  The study reads
    dev F1 only, so the call scores no training loss.  Censored runs
    (threshold never reached) enter the mean at the epoch budget, which
    only understates any speed-up.  With two or more seeds, a set whose
    seeds all reach theta in the same epoch draws a warning: a seed only
    reorders the SGD steps, so that agreement says nothing about run-to-run
    variance.  A ``theta``
    outside [0, 1] is a `ConfigError` (`check_theta`).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    check_theta(theta)
    seeds = [int(s) for s in seeds]
    tables = {"baseline": wikitext_table, "reinforced": reinforced_table}
    results = train_runs(train_docs, list(tables.values()), words, train_config, seeds, dev_docs, losses=False)
    sets = {}
    for t, name in enumerate(tables):
        runs = results[t * len(seeds) : (t + 1) * len(seeds)]
        reached = [epochs_to_threshold(result, theta) for result in runs]
        if len(seeds) > 1 and None not in reached and len(set(reached)) == 1:
            warnings.warn(
                f"all {len(seeds)} seeds of {name!r} reach theta={theta} at epoch "
                f"{reached[0]}: the seeds only reorder the SGD steps, and the spread is 0 "
                "because the runs do not differ, not because the estimate is precise"
            )
        effective = [train_config.epochs if e is None else e for e in reached]
        sets[name] = ConvergenceSetResult(
            seeds=seeds,
            dev_f1_traces=[result.dev_f1_trace for result in runs],
            epochs_to_threshold=reached,
            mean_epochs=sum(effective) / len(effective),
            censored=reached.count(None),
        )
    return ConvergenceReport(theta=theta, max_epochs=train_config.epochs, sets=sets)


@dataclass
class PairDelta:
    a: str
    b: str
    kind: str  # "same" or "different"
    cosine_baseline: float
    cosine_reinforced: float
    delta: float = field(init=False)

    def __post_init__(self):
        self.delta = self.cosine_reinforced - self.cosine_baseline


@dataclass
class GeometryReport:
    rows: list[PairDelta]
    mean_delta: dict[str, float]

    def to_dict(self) -> dict:
        return {"mean_delta": self.mean_delta, "pairs": [asdict(r) for r in self.rows]}


def geometry_report(
    wikitext_table: EmbeddingTable,
    reinforced_table: EmbeddingTable,
    probe_pairs: Iterable[tuple[str, str, str]],
) -> GeometryReport:
    """Cosine of each probe pair under both tables plus per-class mean delta.

    A positive delta for same-type pairs and a negative one for
    different-type pairs is the numeric form of 'similar types move closer,
    different types move apart'.
    """
    rows: list[PairDelta] = []
    for a, b, kind in probe_pairs:
        for label in (a, b):
            if label not in wikitext_table or label not in reinforced_table:
                raise MissingLabelError(f"probe label {label!r} missing from a table")
        rows.append(
            PairDelta(
                a,
                b,
                kind,
                cosine(wikitext_table.vector(a), wikitext_table.vector(b)),
                cosine(reinforced_table.vector(a), reinforced_table.vector(b)),
            )
        )
    mean_delta: dict[str, float] = {}
    for kind in sorted({r.kind for r in rows}):
        deltas = [r.delta for r in rows if r.kind == kind]
        mean_delta[kind] = sum(deltas) / len(deltas)
    return GeometryReport(rows, mean_delta)


# ---------------------------------------------------------------------------
# Report serialization (TSV lines, consumed by the CLI)


def eval_report_tsv(report: EvalReport) -> list[str]:
    lines = ["doc_id\ttp\tfp\tfn"]
    for doc_id, c in sorted(report.per_doc.items()):
        lines.append(f"{doc_id}\t{c.tp}\t{c.fp}\t{c.fn}")
    lines.append(f"#micro\tP={report.micro_precision:.6f}\tR={report.micro_recall:.6f}\tF1={report.micro_f1:.6f}")
    return lines


def geometry_report_tsv(report: GeometryReport) -> list[str]:
    lines = ["label_a\tlabel_b\tkind\tcos_baseline\tcos_reinforced\tdelta"]
    for r in report.rows:
        lines.append(
            f"{r.a}\t{r.b}\t{r.kind}"
            f"\t{r.cosine_baseline:.6f}\t{r.cosine_reinforced:.6f}\t{r.delta:.6f}"
        )
    for kind, d in report.mean_delta.items():
        lines.append(f"#mean_delta\t{kind}\t{d:.6f}")
    return lines


def convergence_curves_tsv(report: ConvergenceReport) -> list[str]:
    """Gnuplot-friendly long format: set, seed, epoch, dev_f1."""
    lines = ["set\tseed\tepoch\tdev_f1"]
    for name, result in report.sets.items():
        for seed, trace in zip(result.seeds, result.dev_f1_traces):
            for epoch, f1 in enumerate(trace, 1):
                lines.append(f"{name}\t{seed}\t{epoch}\t{f1:.6f}")
    return lines
