"""Run one workload in this (fresh) process and print one JSON record.

    python3 perfbench/workloads.py WORKLOAD INPUTS WORKDIR MODE SECONDS SPAWNED

MODE is ``setup`` (import and load the inputs, then stop), ``run`` (timed
passes until SECONDS have elapsed, at least one) or ``trace`` (one pass with
every measured semlink function wrapped in a span).  SPAWNED is the
``time.monotonic()`` reading taken just before this process was started;
set-up time runs from it to the moment the inputs are loaded.  A reference
sample taken right after set-up is reported with it.  Outputs are
checked against the oracles after the last pass, outside every timing.

Every call into semlink goes through a module attribute (``pipeline.run_pipeline``)
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from semlink import (  # noqa: E402  (the path above must come first)
    embed_io, evaluation, linking_core, pipeline, semantic_aggregation,
    type_dictionary, type_extraction,
)
from benchstats import Stopwatch, median, reference_sample, tail_percentile  # noqa: E402
from tracing import Tracer, span_metrics  # noqa: E402

INGEST_ALPHA = 0.2
INGEST_SWEEP_ALPHA = 0.3
INGEST_EPOCHS = 5
STUDY_CONFIG = dict(margin=1.0, lr=0.01, epochs=120)
STUDY_THETA = 0.95
BRUTE_FORCE_MAX_PRODUCT = 10**3


class OracleFailure(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleFailure(what)


# ---------------------------------------------------------------------------
# ingest: dictionary -> types -> semantic -> aggregate -> link -> eval


class Ingest:
    ops = ("cold", "sweep", "noop", "geometry")

    def setup(self, inputs: Path) -> None:
        self.inputs = inputs
        self.eval_docs = linking_core.load_linking_jsonl(inputs / "eval.jsonl")
        self.queries = (inputs / "queries.txt").read_text().split()
        self.probes = [tuple(line.split("\t")) for line in (inputs / "probes.tsv").read_text().splitlines()]
        self.truth = None  # oracle data, loaded at the first check
        self.first_f1 = None

    def _config(self, out: Path, alpha: float):
        i = self.inputs
        return pipeline.PipelineConfig(
            out=out, words=i / "words.bin", wikitext=i / "wikitext.bin",
            corpus=i / "articles.tsv", seeds=i / "seeds.txt", extensions=i / "extensions.txt",
            remap=i / "remap.tsv", train=i / "train.jsonl", dev=i / "dev.jsonl",
            eval=i / "eval.jsonl", epochs=INGEST_EPOCHS, alpha=alpha, strategy="greedy-local",
        )

    def run_pass(self, work: Path, watch: Stopwatch) -> dict:
        out = work / "out"

        def cold():
            mined = type_dictionary.mine_noun_frequency(
                type_extraction.read_article_corpus(self.inputs / "articles.tsv")
            )
            return mined.total_sentences, pipeline.run_pipeline(self._config(out, INGEST_ALPHA))

        def rerun():
            return pipeline.run_pipeline(self._config(out, INGEST_SWEEP_ALPHA))

        def geometry():
            base = embed_io.load_binary(self.inputs / "wikitext.bin")
            reinforced = embed_io.load_binary(out / "reinforced.bin")
            neighbours = [
                semantic_aggregation.neighbor_report(table, q, k=10)
                for table in (base, reinforced) for q in self.queries
            ]
            return neighbours, evaluation.geometry_report(base, reinforced, self.probes)

        outcome, raw, times = {}, {}, {}
        for op, step in (("cold", cold), ("sweep", rerun), ("noop", rerun), ("geometry", geometry)):
            outcome[op], raw[op], times[op] = watch.time(step)
        sentences, cold_status = outcome["cold"]
        neighbours, report = outcome["geometry"]
        return {
            "times": times, "raw": raw, "out": out, "sentences": sentences,
            "status": {"cold": cold_status, "sweep": outcome["sweep"], "noop": outcome["noop"]},
            "neighbours": neighbours, "geometry_rows": len(report.rows),
        }

    def check(self, result: dict) -> dict[str, str]:
        problems = {}
        for op, fn in (("cold", self._check_cold), ("sweep", self._check_sweep),
                       ("noop", self._check_noop), ("geometry", self._check_geometry)):
            try:
                fn(result)
            except OracleFailure as e:
                problems[op] = str(e)
        return problems

    def _truth(self):
        if self.truth is None:
            self.truth = type_extraction.read_assignments(self.inputs / "truth_types.tsv")
            self.words = embed_io.load_binary(self.inputs / "words.bin")
            self.base = embed_io.load_binary(self.inputs / "wikitext.bin")
        return self.truth

    def _check_cold(self, r: dict) -> None:
        _expect(set(r["status"]["cold"].values()) == {"done"}, f"cold run status {r['status']['cold']}")
        truth = self._truth()
        _expect(r["sentences"] == len(truth), f"mined {r['sentences']} sentences, expected {len(truth)}")
        got = type_extraction.read_assignments(r["out"] / "types.tsv")
        _expect(
            {k: v.type_words for k, v in got.items()} == {k: v.type_words for k, v in truth.items()},
            "types.tsv differs from the fixture's ground-truth assignments",
        )

    def _check_sweep(self, r: dict) -> None:
        expected_status = {"dict": "skipped", "types": "skipped", "semantic": "done",
                           "aggregate": "done", "link": "done", "eval": "done"}
        _expect(r["status"]["sweep"] == expected_status, f"sweep status {r['status']['sweep']}")
        truth = self._truth()
        reinforced = embed_io.load_binary(r["out"] / "reinforced.bin")
        _expect(reinforced.labels == self.base.labels, "reinforced labels differ from the base table")
        T = pipeline.PipelineConfig.T
        words64 = self.words.matrix.astype(np.float64)
        expected = self.base.matrix.astype(np.float64)
        for i, label in enumerate(self.base.labels):
            used = truth[label].type_words[:T]
            if used:
                mean = words64[[self.words.index(w) for w in used]].mean(axis=0)
                expected[i] = (1 - INGEST_SWEEP_ALPHA) * expected[i] + INGEST_SWEEP_ALPHA * mean
        err = float(np.max(np.abs(reinforced.matrix.astype(np.float64) - expected)))
        _expect(err <= 1e-6, f"reinforced rows differ from (1-a)*base + a*mean(types) by {err:.3g}")
        model = linking_core.LinkingModel.load(r["out"] / "model.txt")
        predictions = {
            doc.doc_id: linking_core.infer(doc, model, reinforced, self.words, strategy="greedy-local")
            for doc in self.eval_docs
        }
        direct = evaluation.micro_f1(predictions, evaluation.gold_map(self.eval_docs)).micro_f1
        reported = json.loads((r["out"] / "eval.json").read_text())["micro_f1"]
        _expect(reported == direct, f"eval.json micro_f1 {reported} != direct {direct}")
        r["micro_f1"] = reported

    def _check_noop(self, r: dict) -> None:
        _expect(set(r["status"]["noop"].values()) == {"skipped"}, f"no-op status {r['status']['noop']}")
        f1 = json.loads((r["out"] / "eval.json").read_text())["micro_f1"]
        if self.first_f1 is None:
            self.first_f1 = f1
        _expect(f1 == self.first_f1, f"micro_f1 {f1} does not repeat {self.first_f1}")

    def _check_geometry(self, r: dict) -> None:
        _expect(all(len(n) == 10 for n in r["neighbours"]), "a neighbour report is short")
        _expect(r["geometry_rows"] == len(self.probes), "geometry report lost probe pairs")

    def summary(self, results: list[dict], pass_s: float) -> dict:
        metrics = {
            f"{op}_s": (median([r["times"][op] for r in results]), "s")
            for op in self.ops
        }
        f1 = [r["micro_f1"] for r in results if "micro_f1" in r]
        if f1:
            metrics["micro_f1"] = (f1[0], "1")
        return metrics


# ---------------------------------------------------------------------------
# converge: epochs-to-threshold study, base vs reinforced table


class Converge:
    def setup(self, inputs: Path) -> None:
        self.words = embed_io.load_binary(inputs / "words.bin")
        self.wikitext = embed_io.load_binary(inputs / "wikitext.bin")
        assignments = type_extraction.read_assignments(inputs / "types.tsv")
        self.train = linking_core.load_linking_jsonl(inputs / "train.jsonl")
        self.dev = linking_core.load_linking_jsonl(inputs / "dev.jsonl")
        self.reinforced = semantic_aggregation.aggregate_table(
            self.wikitext, assignments, self.words,
            semantic_aggregation.AggregationConfig(T=11, alpha=0.2),
        )
        self.seeds = json.loads((inputs / "study.json").read_text())["seeds"]
        # the study runs seed by seed, so each training seed is one operation
        self.ops = tuple(f"seed{seed}" for seed in self.seeds)
        self.first = None

    def run_pass(self, work: Path, watch: Stopwatch) -> dict:
        raw, times, epochs = {}, {}, {"baseline": [], "reinforced": []}
        for op, seed in zip(self.ops, self.seeds):
            report, raw[op], times[op] = watch.time(
                evaluation.convergence_experiment,
                self.train, self.dev, self.words, self.wikitext, self.reinforced,
                linking_core.TrainConfig(**STUDY_CONFIG), [seed], theta=STUDY_THETA,
            )
            for name, result in report.sets.items():
                epochs[name] += result.epochs_to_threshold
        return {"times": times, "raw": raw, "epochs": epochs}

    def check(self, result: dict) -> dict[str, str]:
        epochs = result["epochs"]
        if self.first is None:
            self.first = epochs
        # censored seeds enter the mean at the epoch budget, as in the study
        mean = {
            name: sum(STUDY_CONFIG["epochs"] if e is None else e for e in values) / len(values)
            for name, values in epochs.items()
        }
        for ok, what in (
            (None not in epochs["baseline"] + epochs["reinforced"], f"censored seeds: {epochs}"),
            (mean["reinforced"] < mean["baseline"],
             f"reinforced mean epochs {mean['reinforced']} not below baseline {mean['baseline']}"),
            (epochs == self.first, f"epochs-to-threshold {epochs} do not repeat {self.first}"),
        ):
            if not ok:
                return {"study": what}
        result["epoch_speedup"] = mean["baseline"] / mean["reinforced"]
        return {}

    def summary(self, results: list[dict], pass_s: float) -> dict:
        metrics = {"study_s": (pass_s, "s")}
        if "epoch_speedup" in results[0]:
            metrics["epoch_speedup"] = (results[0]["epoch_speedup"], "x")
        return metrics


# ---------------------------------------------------------------------------
# coherent: exhaustive inference over candidate products of 1e2..1e5


class Coherent:
    def setup(self, inputs: Path) -> None:
        self.entities = embed_io.load_binary(inputs / "entities.bin")
        self.words = embed_io.load_binary(inputs / "words.bin")
        self.docs = linking_core.load_linking_jsonl(inputs / "docs.jsonl")
        self.model = linking_core.LinkingModel.load(inputs / "model.txt")
        self.modes = json.loads((inputs / "modes.json").read_text())
        self.ops = tuple(doc.doc_id for doc in self.docs)
        self.products = {d.doc_id: math.prod(len(m.candidates) for m in d.mentions) for d in self.docs}
        self.first = None

    def run_pass(self, work: Path, watch: Stopwatch) -> dict:
        predictions, raw, latency = {}, {}, {}
        for doc in self.docs:
            predictions[doc.doc_id], raw[doc.doc_id], latency[doc.doc_id] = watch.time(
                linking_core.infer, doc, self.model, self.entities, self.words,
                strategy="exhaustive", pairwise=self.modes[doc.doc_id],
            )
        return {"times": latency, "raw": raw, "predictions": predictions}

    def check(self, result: dict) -> dict[str, str]:
        if self.first is not None:
            return {
                doc_id: f"prediction {pred} differs from the first pass"
                for doc_id, pred in result["predictions"].items() if pred != self.first[doc_id]
            }
        self.first = result["predictions"]
        problems = {}
        for doc in self.docs:
            mode, pred = self.modes[doc.doc_id], result["predictions"][doc.doc_id]
            feats = [linking_core.context_feature(m, self.words) for m in doc.mentions]

            def score(assignment):
                return linking_core.document_score(
                    assignment, doc, self.model, self.entities, self.words, feats, pairwise=mode
                )

            greedy = linking_core.infer(doc, self.model, self.entities, self.words, strategy="greedy-local")
            if score(pred) < score(greedy):
                problems[doc.doc_id] = "exhaustive answer scores below the greedy-local answer"
            elif self.products[doc.doc_id] <= BRUTE_FORCE_MAX_PRODUCT:
                best, best_score = None, None
                for choice in itertools.product(*(sorted(m.candidates) for m in doc.mentions)):
                    s = score(choice)
                    if best_score is None or s > best_score:  # first maximum: smallest tuple
                        best, best_score = list(choice), s
                if pred != best:
                    problems[doc.doc_id] = f"exhaustive {pred} != brute-force argmax {best}"
        return problems

    def summary(self, results: list[dict], pass_s: float) -> dict:
        latency_ms = [1e3 * t for r in results for t in r["times"].values()]
        metrics = {
            "assignments_per_s": (sum(self.products.values()) / pass_s, "1/s"),
            "doc_p50_ms": (median(latency_ms), "ms"),
            "doc_samples": (len(latency_ms), "count"),
        }
        p90 = tail_percentile(latency_ms, 90)
        if p90 is not None:
            metrics["doc_p90_ms"] = (p90, "ms")
        return metrics


WORKLOADS = {"ingest": Ingest, "converge": Converge, "coherent": Coherent}


# ---------------------------------------------------------------------------
# tracing


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer."""
    from semlink._text import tokenize

    def infer_name(a):
        if a["strategy"] == "greedy-local":
            return "linking_core.infer.greedy"
        return "linking_core.infer." + ("relations" if a["pairwise"] == "relations" else "exhaustive")

    def infer_counts(a, _result):
        if a["strategy"] == "greedy-local":
            return {}
        return {"linking_core.infer.exhaustive.assignments":
                math.prod(len(m.candidates) for m in a["doc"].mentions)}

    def scanned(a, _result):
        art = a["article"]
        return {"type_extraction.tokens_scanned": len(tokenize(art.first_sentence)) + len(tokenize(art.body))}

    def stages(_a, status):
        values = list(status.values())
        return {"pipeline.stages_done": values.count("done"), "pipeline.stages_skipped": values.count("skipped")}

    w = tracer.wrap
    for name in ("load_binary", "save_binary"):
        w(embed_io, name, counter=lambda a, _r, key=f"embed_io.{name}.bytes": {key: Path(a["path"]).stat().st_size})
    w(type_dictionary, "mine_noun_frequency",
      counter=lambda a, r: {"type_dictionary.mine_noun_frequency.sentences": r.total_sentences})
    w(type_dictionary, "build_dictionary")
    w(type_extraction, "extract_corpus")
    w(type_extraction, "extract_types", counter=scanned)
    for name in ("semantic_embedding", "aggregate_table", "neighbor_report"):
        w(semantic_aggregation, name)
    w(pipeline, "run_pipeline", counter=stages)
    for name in ("context_feature", "margin_loss_and_gradient", "train", "load_linking_jsonl"):
        w(linking_core, name)
    w(linking_core, "infer", namer=infer_name, counter=infer_counts)
    for name in ("convergence_experiment", "geometry_report", "micro_f1"):
        w(evaluation, name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    out = span_metrics(tracer.spans)
    family = ("linking_core.infer.exhaustive", "linking_core.infer.relations")
    for stat in ("calls", "self_s"):
        out[f"linking_core.infer.exhaustive.{stat}"] = sum(out.get(f"{f}.{stat}", 0) for f in family)
    out["linking_core.infer.self_s"] = (
        out["linking_core.infer.exhaustive.self_s"] + out.get("linking_core.infer.greedy.self_s", 0.0)
    )
    return out


# ---------------------------------------------------------------------------


def _threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def main(argv: list[str]) -> int:
    name, inputs, work, mode, seconds, spawned = argv
    work = Path(work)
    workload = WORKLOADS[name]()
    tracer = None
    if mode == "trace":
        tracer = Tracer("semlink")
        install_tracing(tracer)
    workload.setup(Path(inputs))
    record = {
        "setup_wall_s": time.monotonic() - float(spawned),
        "setup_reference_s": reference_sample(),
        "threads": _threads(),
    }
    if mode == "setup":
        print(json.dumps(record))
        return 0

    results, problems, attempted, failed = [], {}, 0, 0
    watch = Stopwatch()
    start = time.perf_counter()
    while not results or (mode == "run" and time.perf_counter() - start < float(seconds)):
        attempted += len(workload.ops)
        try:
            results.append(workload.run_pass(work / f"pass{len(results)}", watch))
        except Exception:
            failed += len(workload.ops)
            problems["pass"] = traceback.format_exc(limit=8)
            break
    if tracer is not None:
        tracer.close()
        record["layers"] = layer_metrics(tracer)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for result in results:
        try:
            found = workload.check(result)
        except Exception:
            found = {"check": traceback.format_exc(limit=8)}
        failed += len(found)
        problems.update(found)
    # a pass's time is the sum over its operations of each one's median over
    # the passes, so a slow spell during one pass moves few of the operations
    def pass_time(key):
        return sum(median([r[key][op] for r in results]) for op in workload.ops) if results else 0.0

    pass_s = pass_time("times")
    record.update({
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems,
        "passes": [sum(r["times"].values()) for r in results],
        "pass_s": pass_s,
        "pass_wall_s": pass_time("raw"),
        "metrics": workload.summary(results, pass_s) if results else {},
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
