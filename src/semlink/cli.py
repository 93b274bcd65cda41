"""Command line interface.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 capacity exceeded.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import (
    embed_io,
    evaluation,
    fixtures,
    linking_core,
    pipeline,
    semantic_aggregation,
    type_dictionary,
    type_extraction,
)
from .errors import CapacityError, FormatError, SemlinkError


def _printable(label: str) -> str:
    """Labels are raw bytes internally; sanitize for terminal display only."""
    return label.encode("utf-8", "surrogateescape").decode("utf-8", "replace")


@click.group()
def cli():
    """Semantic-type reinforced entity embeddings and desk-scale linking."""


# ---------------------------------------------------------------- dict ----


@cli.group(name="dict")
def dict_group():
    """Dictionary mining, expansion, and building."""


@dict_group.command("mine")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--min-count", default=10, show_default=True, help="Frequency threshold for the printed summary.")
def dict_mine(corpus, out_path, min_count):
    """Count noun frequency over article first sentences."""
    articles = type_extraction.read_article_corpus(corpus)
    report = type_dictionary.mine_noun_frequency(articles)
    report.save_tsv(out_path)
    frequent = report.frequent(min_count)
    click.echo(f"sentences={report.total_sentences} nouns={len(report.counts)} frequent={len(frequent)}")


@dict_group.command("expand")
@click.option("--seeds", required=True, help="Comma-separated seed words or @file.")
@click.option("--embeddings", required=True, type=click.Path(exists=True))
@click.option("--corpus", required=True, type=click.Path(exists=True), help="Articles supplying the in-text word filter.")
@click.option("-k", default=100, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def dict_expand(seeds, embeddings, corpus, k, out_path):
    """Top-k similar embedding words per seed, restricted to article words."""
    if seeds.startswith("@"):
        seed_list = [
            w for w, _c, _l in type_dictionary._read_word_lines(seeds[1:])
        ]
    else:
        seed_list = [s.strip() for s in seeds.split(",") if s.strip()]
    table = embed_io.load_table(embeddings)
    members = type_dictionary.words_in_corpus(type_extraction.read_article_corpus(corpus))
    expansions = type_dictionary.expand_seeds(seed_list, members, table, k=k)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("seed\tword\tsimilarity\n")
        for exp in expansions:
            for word, score in exp.neighbors:
                fh.write(f"{exp.seed}\t{word}\t{score:.6f}\n")
    click.echo(f"expanded {len(seed_list)} seeds -> {out_path}")


@dict_group.command("build")
@click.option("--seeds", required=True, type=click.Path(exists=True))
@click.option("--extensions", type=click.Path(exists=True))
@click.option("--remap", type=click.Path(exists=True))
@click.option("--embeddings", type=click.Path(exists=True), help="Word table for remap-target validation.")
@click.option("--nouns", type=click.Path(exists=True), help="Mined noun-frequency TSV (advisory).")
@click.option("--out-words", required=True, type=click.Path())
@click.option("--out-remap", required=True, type=click.Path())
def dict_build(seeds, extensions, remap, embeddings, nouns, out_words, out_remap):
    """Merge curated files into a validated dictionary."""
    vocab = set(embed_io.load_table(embeddings).labels) if embeddings else None
    report = type_dictionary.NounFrequencyReport.load_tsv(nouns) if nouns else None
    d = type_dictionary.build_dictionary(report, seeds, extensions, remap, embedding_vocab=vocab)
    d.save(out_words, out_remap)
    click.echo(f"dictionary: {len(d)} words, {len(d.remap)} remaps")


# ---------------------------------------------------------------- types ---


@cli.group()
def types():
    """Per-entity type extraction."""


@types.command("extract")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--dictionary", required=True, type=click.Path(exists=True))
@click.option("--remap", type=click.Path(exists=True))
@click.option("--cap", default=11, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def types_extract(corpus, dictionary, remap, cap, out_path):
    """Extract up to CAP dictionary words per entity."""
    d = type_dictionary.SemanticTypeDictionary.load(dictionary, remap)
    articles = type_extraction.read_article_corpus(corpus)
    assignments = type_extraction.extract_corpus(articles, d, cap=cap)
    type_extraction.write_assignments(assignments, out_path)
    covered = sum(1 for a in assignments.values() if a.type_words)
    click.echo(f"extracted types for {len(assignments)} entities ({covered} non-empty)")


# ---------------------------------------------------------------- embed ---


@cli.group()
def embed():
    """Embedding table conversion, reinforcement, and inspection."""


@embed.command("convert")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--normalize", is_flag=True, help="L2-normalize rows on load.")
def embed_convert(in_path, out_path, normalize):
    """Convert between binary and text formats (by extension)."""
    table = embed_io.load_table(in_path, normalize=normalize)
    embed_io.save_table(table, out_path)
    click.echo(f"{len(table)} vectors of dim {table.dim} -> {out_path}")


@embed.command("reinforce")
@click.option("--wikitext", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--types", "types_path", required=True, type=click.Path(exists=True))
@click.option("--T", "t_value", default=11, show_default=True)
@click.option("--alpha", default=0.2, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def embed_reinforce(wikitext, words, types_path, t_value, alpha, out_path):
    """Blend semantic type means into entity vectors."""
    wik = embed_io.load_table(wikitext)
    word_table = embed_io.load_table(words)
    assignments = type_extraction.read_assignments(types_path)
    cfg = semantic_aggregation.AggregationConfig(T=t_value, alpha=alpha)
    out_table = semantic_aggregation.aggregate_table(wik, assignments, word_table, cfg)
    embed_io.save_table(out_table, out_path)
    click.echo(f"reinforced {len(out_table)} entities (T={t_value}, alpha={alpha})")


@embed.command("neighbors")
@click.option("--table", "table_path", required=True, type=click.Path(exists=True))
@click.option("--query", required=True)
@click.option("-k", default=10, show_default=True)
def embed_neighbors(table_path, query, k):
    """Top-k cosine neighbours of a label, as TSV on stdout."""
    table = embed_io.load_table(table_path)
    click.echo("label\tcosine")
    for label, score in semantic_aggregation.neighbor_report(table, query, k):
        click.echo(f"{_printable(label)}\t{score:.6f}")


# ----------------------------------------------------------------- link ---


@cli.group()
def link():
    """Training, inference, and scoring for the linking model."""


@link.command("train")
@click.option("--train", "train_path", required=True, type=click.Path(exists=True))
@click.option("--dev", "dev_path", type=click.Path(exists=True))
@click.option("--entities", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--margin", default=1.0, show_default=True)
@click.option("--lr", default=0.01, show_default=True)
@click.option("--epochs", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out-model", required=True, type=click.Path())
@click.option("--out-trace", type=click.Path())
def link_train(train_path, dev_path, entities, words, margin, lr, epochs, seed, out_model, out_trace):
    """Fit the local-score diagonal with margin-loss SGD."""
    pipeline.check_non_negative(epochs=epochs, seed=seed)
    train_docs = linking_core.load_linking_jsonl(train_path)
    dev_docs = linking_core.load_linking_jsonl(dev_path) if dev_path else None
    entity_table = embed_io.load_table(entities)
    word_table = embed_io.load_table(words)
    cfg = linking_core.TrainConfig(margin=margin, lr=lr, epochs=epochs, seed=seed)
    result = linking_core.train(train_docs, entity_table, word_table, cfg, dev_docs=dev_docs)
    result.model.save(out_model)
    if out_trace:
        evaluation.write_json(result.trace(), out_trace)
    final_loss = result.loss_trace[-1] if result.loss_trace else result.initial_loss
    click.echo(f"trained {epochs} epochs, final loss {final_loss:.4f}")


@link.command("infer")
@click.option("--docs", "docs_path", required=True, type=click.Path(exists=True))
@click.option("--entities", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--strategy", default="exhaustive", show_default=True,
              type=click.Choice(linking_core.STRATEGIES))
@click.option("--out", "out_path", required=True, type=click.Path())
def link_infer(docs_path, entities, words, model_path, strategy, out_path):
    """Pick one candidate per mention; writes '<doc>\\t<idx>\\t<label>' TSV."""
    docs = linking_core.load_linking_jsonl(docs_path)
    entity_table = embed_io.load_table(entities)
    word_table = embed_io.load_table(words)
    model = linking_core.LinkingModel.load(model_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        for doc in docs:
            assignment = linking_core.infer(doc, model, entity_table, word_table, strategy=strategy)
            for i, label in enumerate(assignment):
                fh.write(f"{doc.doc_id}\t{i}\t{label}\n")
    click.echo(f"inferred {len(docs)} documents -> {out_path}")


@link.command("convert")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True),
              help="Simplified CoNLL-style TSV with B/I mention lines.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--window", default=25, show_default=True, help="Context tokens per side.")
def link_convert(in_path, out_path, window):
    """Convert a CoNLL-style linking TSV to the JSONL corpus format."""
    docs = linking_core.load_aida_tsv(in_path, window=window)
    linking_core.save_linking_jsonl(docs, out_path)
    click.echo(f"converted {len(docs)} documents -> {out_path}")


@link.command("score")
@click.option("--docs", "docs_path", required=True, type=click.Path(exists=True))
@click.option("--entities", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--assignments", "assignments_path", type=click.Path(exists=True),
              help="Predictions TSV; defaults to gold labels.")
def link_score(docs_path, entities, words, model_path, assignments_path):
    """Document scores for given (or gold) assignments, TSV on stdout."""
    docs = linking_core.load_linking_jsonl(docs_path)
    entity_table = embed_io.load_table(entities)
    word_table = embed_io.load_table(words)
    model = linking_core.LinkingModel.load(model_path)
    chosen = _read_assignment_tsv(assignments_path) if assignments_path else None
    click.echo("doc_id\tscore")
    for doc in docs:
        if chosen is None:
            labels = [m.gold for m in doc.mentions]
        else:
            labels = chosen.get(doc.doc_id, [])
        score = linking_core.document_score(labels, doc, model, entity_table, word_table)
        click.echo(f"{doc.doc_id}\t{score:.6f}")


def _tsv_fields(line: str, count: int, path, line_no: int) -> list[str]:
    fields = line.split("\t")
    if len(fields) != count:
        raise FormatError(
            f"expected {count} tab-separated fields, found {len(fields)}", path=path, line=line_no
        )
    return fields


def _read_assignment_tsv(path) -> dict[str, list[str]]:
    out: dict[str, list] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            doc_id, idx, label = _tsv_fields(line, 3, path, line_no)
            try:
                out.setdefault(doc_id, []).append((int(idx), label))
            except ValueError:
                raise FormatError(f"mention index {idx!r} is not an integer", path=path, line=line_no) from None
    return {doc: [label for _i, label in sorted(items)] for doc, items in out.items()}


# ----------------------------------------------------------------- eval ---


@cli.group(name="eval")
def eval_group():
    """Micro-F1, multi-run CIs, convergence and geometry studies."""


@eval_group.command("f1")
@click.option("--docs", "docs_path", required=True, type=click.Path(exists=True), help="Gold documents (JSONL).")
@click.option("--pred", required=True, type=click.Path(exists=True), help="Predictions TSV from 'link infer'.")
@click.option("--out", "out_path", type=click.Path())
def eval_f1(docs_path, pred, out_path):
    """Micro precision/recall/F1 of predictions against gold."""
    docs = linking_core.load_linking_jsonl(docs_path)
    gold = evaluation.gold_map(docs)
    predictions = _read_assignment_tsv(pred)
    report = evaluation.micro_f1(predictions, gold)
    if out_path:
        evaluation.write_json(report.to_dict(), out_path)
    click.echo(
        f"tp={report.tp} fp={report.fp} fn={report.fn} "
        f"P={report.micro_precision:.4f} R={report.micro_recall:.4f} F1={report.micro_f1:.4f}"
    )


@eval_group.command("runs")
@click.option("--scores", required=True, help="Comma-separated scores or @file (one per line).")
def eval_runs(scores):
    """Mean and Student-t 95% CI over repeated runs."""
    if scores.startswith("@"):
        source, tokens = scores[1:], Path(scores[1:]).read_text("utf-8").split()
    else:
        source, tokens = None, [s for s in scores.split(",") if s.strip()]
    try:
        values = [float(t) for t in tokens]
    except ValueError as e:
        raise FormatError(f"bad score: {e}", path=source) from None
    if not values:
        raise FormatError("no scores given", path=source)
    for token, value in zip(tokens, values):
        if not math.isfinite(value):
            raise FormatError(f"non-finite score {token!r}", path=source)
    summary = evaluation.summarize_runs(values)
    click.echo(json.dumps(summary.to_dict(), sort_keys=True))


def _seed_list(text: str) -> list[int]:
    """Comma-separated non-negative integers; repeats are kept."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise FormatError("no seeds given")
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise FormatError(f"seed {token!r} is not a non-negative integer")
    return [int(t) for t in tokens]


@eval_group.command("converge")
@click.option("--train", "train_path", required=True, type=click.Path(exists=True))
@click.option("--dev", "dev_path", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--baseline", required=True, type=click.Path(exists=True))
@click.option("--reinforced", required=True, type=click.Path(exists=True))
@click.option("--seeds", default="1,2,3,4,5", show_default=True)
@click.option("--theta", default=0.95, show_default=True)
@click.option("--epochs", default=50, show_default=True)
@click.option("--lr", default=0.01, show_default=True)
@click.option("--margin", default=1.0, show_default=True)
@click.option("--out", "out_path", type=click.Path())
@click.option("--curves", type=click.Path(), help="Write per-epoch dev-F1 curves TSV here.")
def eval_converge(train_path, dev_path, words, baseline, reinforced, seeds, theta,
                  epochs, lr, margin, out_path, curves):
    """Compare epochs-to-threshold between two embedding tables."""
    seed_list = _seed_list(seeds)
    pipeline.check_non_negative(epochs=epochs)
    train_docs = linking_core.load_linking_jsonl(train_path)
    dev_docs = linking_core.load_linking_jsonl(dev_path)
    word_table = embed_io.load_table(words)
    base_table = embed_io.load_table(baseline)
    reinf_table = embed_io.load_table(reinforced)
    cfg = linking_core.TrainConfig(margin=margin, lr=lr, epochs=epochs)
    report = evaluation.convergence_experiment(
        train_docs, dev_docs, word_table, base_table, reinf_table, cfg, seed_list, theta=theta
    )
    if out_path:
        evaluation.write_json(report.to_dict(), out_path)
    if curves:
        Path(curves).write_text(evaluation.convergence_curves_tsv(report), "utf-8")
    for name, result in report.sets.items():
        click.echo(
            f"{name}: mean_epochs_to_{theta}={result.mean_epochs:.2f} "
            f"censored={result.censored}/{len(result.seeds)}"
        )


@eval_group.command("geometry")
@click.option("--baseline", required=True, type=click.Path(exists=True))
@click.option("--reinforced", required=True, type=click.Path(exists=True))
@click.option("--pairs", required=True, type=click.Path(exists=True),
              help="TSV: <label_a>\\t<label_b>\\t<same|different>.")
@click.option("--out", "out_path", type=click.Path())
def eval_geometry(baseline, reinforced, pairs, out_path):
    """Per-pair cosine deltas between two embedding tables."""
    base_table = embed_io.load_table(baseline)
    reinf_table = embed_io.load_table(reinforced)
    probe = []
    with open(pairs, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            probe.append(tuple(_tsv_fields(line, 3, pairs, line_no)))
    report = evaluation.geometry_report(base_table, reinf_table, probe)
    if out_path:
        evaluation.write_json(report.to_dict(), out_path)
    click.echo(evaluation.geometry_report_tsv(report), nl=False)


# ------------------------------------------------------------- pipeline ---


@cli.group(name="pipeline")
def pipeline_group():
    """End-to-end staged runs."""


@pipeline_group.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--set", "overrides", multiple=True, help="Override 'key=value'.")
def pipeline_run(config_path, overrides):
    """Run enabled stages with manifest-based staleness skipping."""
    override_map = {}
    for item in overrides:
        if "=" not in item:
            raise click.UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        override_map[key.strip()] = value.strip()
    config = pipeline.PipelineConfig.from_file(config_path, override_map)
    status = pipeline.run_pipeline(config)
    for stage in pipeline.STAGE_ORDER:
        if stage in status:
            click.echo(f"{stage}: {status[stage]}")


# ------------------------------------------------------------- fixtures ---


@cli.group(name="fixtures")
def fixtures_group():
    """Synthetic fixture generation."""


@fixtures_group.command("make")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=7, show_default=True)
@click.option("--entities", default=60, show_default=True)
@click.option("--groups", default=12, show_default=True)
@click.option("--dim", default=32, show_default=True)
@click.option("--train-docs", default=40, show_default=True)
@click.option("--dev-docs", default=15, show_default=True)
@click.option("--eval-docs", default=15, show_default=True)
@click.option("--mentions-per-doc", default=5, show_default=True)
@click.option("--candidates", default=4, show_default=True)
def fixtures_make(out_dir, seed, entities, groups, dim, train_docs, dev_docs,
                  eval_docs, mentions_per_doc, candidates):
    """Write a deterministic synthetic corpus + embeddings + linking set."""
    if entities == 0:
        sizes = fixtures.FixtureSizes.empty(dim=dim)
    else:
        sizes = fixtures.FixtureSizes(
            entities=entities, groups=groups, dim=dim,
            train_docs=train_docs, dev_docs=dev_docs, eval_docs=eval_docs,
            mentions_per_doc=mentions_per_doc, candidates=candidates,
        )
    paths = fixtures.make_fixtures(seed, sizes, out_dir)
    for name in sorted(paths):
        click.echo(f"{name}: {paths[name]}")


def main(argv=None) -> None:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except click.ClickException as e:
        e.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except CapacityError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(3)
    except (SemlinkError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
