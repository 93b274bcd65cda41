"""Command line interface.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 capacity exceeded or out of memory.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shutil
import sys
import tempfile

import click

from . import (
    corpus,
    embed_io,
    evaluation,
    fixtures,
    linking_core,
    pipeline,
    semantic_aggregation,
    type_dictionary,
    type_extraction,
)
from ._text import COUNT_FIELD, json_lines, read_all, read_lines, replacing, tsv_fields, write_files, write_lines
from .errors import CapacityError, FormatError, MissingLabelError, SemlinkError


def _printable(label: str) -> str:
    """Labels are raw bytes internally; sanitize for terminal display only."""
    return label.encode("utf-8", "surrogateescape").decode("utf-8", "replace")


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Log progress to stderr: --log-level info.")
@click.option("--log-level", type=click.Choice(["debug", "info", "warning", "error"], case_sensitive=False),
              help="Log messages of this level and above to stderr.")
@click.pass_context
def cli(ctx, verbose, log_level):
    """Semantic-type reinforced entity embeddings and desk-scale linking."""
    level = log_level or ("info" if verbose else None)
    if level is None:
        return  # Python's default: warnings alone, as their bare message
    logger = logging.getLogger("semlink")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())

    @ctx.call_on_close
    def _restore():
        logger.removeHandler(handler)
        logger.setLevel(previous)


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
        source, seed_list = seeds[1:], [w for w, _c, _l in type_dictionary._read_word_lines(seeds[1:])]
    else:
        source, seed_list = None, [w for w in map(type_dictionary.normalize_type_word, seeds.split(",")) if w]
    if not seed_list:
        raise FormatError("no seeds given", path=source)
    table = embed_io.load_table(embeddings)
    members = type_dictionary.words_in_corpus(type_extraction.read_article_corpus(corpus))
    expansions = type_dictionary.expand_seeds(seed_list, members, table, k=k)
    write_lines(out_path, ["seed\tword\tsimilarity"] + [
        f"{exp.seed}\t{word}\t{score:.6f}" for exp in expansions for word, score in exp.neighbors
    ])
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
@click.option("--cap", default=pipeline.PipelineConfig.cap, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def types_extract(corpus, dictionary, remap, cap, out_path):
    """Extract up to CAP dictionary words per entity."""
    assignments = pipeline.run_stage("types", {"corpus": corpus, "dictionary": dictionary, "remap": remap},
                                     {"cap": cap}, [out_path])
    covered = sum(1 for a in assignments.values() if a.type_words)
    click.echo(f"extracted types for {len(assignments)} entities ({covered} non-empty)")


# ---------------------------------------------------------------- embed ---


@cli.group()
def embed():
    """Embedding table conversion, reinforcement, and inspection."""


@embed.command("convert")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--normalize", is_flag=True, help="Write the rows scaled to unit L2 norm.")
def embed_convert(in_path, out_path, normalize):
    """Convert between binary and text formats (by extension)."""
    table = embed_io.load_table(in_path)
    if normalize:
        table = table.normalized()
    embed_io.save_table(table, out_path)
    click.echo(f"{len(table)} vectors of dim {table.dim} -> {out_path}")


@embed.command("reinforce")
@click.option("--wikitext", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--types", "types_path", required=True, type=click.Path(exists=True))
@click.option("--T", "t_value", default=pipeline.PipelineConfig.T, show_default=True)
@click.option("--alpha", default=pipeline.PipelineConfig.alpha, show_default=True)
@click.option("--out-semantic", type=click.Path(), help="Also keep the semantic vectors alone here (binary).")
@click.option("--out", "out_path", required=True, type=click.Path())
def embed_reinforce(wikitext, words, types_path, t_value, alpha, out_semantic, out_path):
    """Blend semantic type means into entity vectors."""
    semantic_aggregation.AggregationConfig(T=t_value, alpha=alpha)  # ConfigError before any file is read
    if out_semantic and embed_io._is_text(out_semantic):
        raise click.BadParameter("the semantic table is written in binary form, not text", param_hint="--out-semantic")
    with tempfile.TemporaryDirectory() as scratch:
        # both tables are made in scratch, then put in place together or not at all
        made = [f"{scratch}/reinforced{os.path.splitext(out_path)[1]}", f"{scratch}/semantic.bin"]
        pipeline.run_stage("semantic", {"words": words, "types_file": types_path}, {"T": t_value, "alpha": alpha},
                           made[1:])
        table = pipeline.run_stage("aggregate", {"wikitext": wikitext, "semantic": made[1]}, {"alpha": alpha},
                                   made[:1])
        with replacing([out_path, out_semantic] if out_semantic else [out_path]) as handles:
            for fh, path in zip(handles, made):
                with open(path, "rb") as src:
                    shutil.copyfileobj(src, fh)
    click.echo(f"reinforced {len(table)} entities (T={t_value}, alpha={alpha})")


@embed.command("neighbors")
@click.option("--table", "table_path", required=True, type=click.Path(exists=True))
@click.option("--query", required=True)
@click.option("-k", default=10, show_default=True)
def embed_neighbors(table_path, query, k):
    """Top-k cosine neighbours of a label, as TSV on stdout."""
    table = embed_io.load_table(table_path)
    report = semantic_aggregation.neighbor_report(table, query, k)
    click.echo("label\tcosine")
    for label, score in report:
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
@click.option("--margin", default=pipeline.PipelineConfig.margin, show_default=True)
@click.option("--lr", default=pipeline.PipelineConfig.lr, show_default=True)
@click.option("--epochs", default=pipeline.PipelineConfig.epochs, show_default=True)
@click.option("--seed", default=pipeline.PipelineConfig.seed, show_default=True)
@click.option("--out-model", required=True, type=click.Path())
@click.option("--out-trace", type=click.Path())
def link_train(train_path, dev_path, entities, words, margin, lr, epochs, seed, out_model, out_trace):
    """Fit the local-score diagonal with margin-loss SGD."""
    result = pipeline.run_stage(
        "link", {"words": words, "reinforced": entities, "train": train_path, "dev": dev_path},
        {"margin": margin, "lr": lr, "epochs": epochs, "seed": seed, "window": pipeline.PipelineConfig.window},
        [out_model, out_trace] if out_trace else [out_model],
    )
    final_loss = result.loss_trace[-1] if result.loss_trace else result.initial_loss
    click.echo(f"trained {epochs} epochs, final loss {final_loss:.4f}")


@link.command("infer")
@click.option("--docs", "docs_path", required=True, type=click.Path(exists=True))
@click.option("--entities", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--strategy", default=pipeline.PipelineConfig.strategy, show_default=True,
              type=click.Choice(linking_core.STRATEGIES),
              help="exhaustive adds pairwise coherence with the model's C; it expects a model whose C was "
                   "trained pairwise, but no command trains C yet: link train leaves C at all ones, and "
                   "TrainConfig(train_pairwise=True) is library-only.")
@click.option("--out", "out_path", required=True, type=click.Path())
def link_infer(docs_path, entities, words, model_path, strategy, out_path):
    """Pick one candidate per mention; writes '<doc>\\t<idx>\\t<label>' TSV."""
    docs = corpus.load_documents(docs_path)
    entity_table = embed_io.load_table(entities)
    word_table = embed_io.load_table(words)
    model = linking_core.LinkingModel.load(model_path, relations=False)
    picks = [linking_core.infer(doc, model, entity_table, word_table, strategy=strategy) for doc in docs]
    write_lines(out_path, (
        f"{doc.doc_id}\t{i}\t{label}" for doc, labels in zip(docs, picks) for i, label in enumerate(labels)
    ))
    click.echo(f"inferred {len(docs)} documents -> {out_path}")


@link.command("convert")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True),
              help="Simplified CoNLL-style TSV with B/I mention lines.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--window", default=pipeline.PipelineConfig.window, show_default=True, help="Context tokens per side.")
def link_convert(in_path, out_path, window):
    """Convert a CoNLL-style linking TSV to the JSONL corpus format."""
    docs = corpus.load_aida_tsv(in_path, window=window)
    corpus.save_linking_jsonl(docs, out_path)
    click.echo(f"converted {len(docs)} documents -> {out_path}")


@link.command("score")
@click.option("--docs", "docs_path", required=True, type=click.Path(exists=True))
@click.option("--entities", required=True, type=click.Path(exists=True))
@click.option("--words", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--assignments", "assignments_path", type=click.Path(exists=True),
              help="Predictions TSV; defaults to gold labels.")
def link_score(docs_path, entities, words, model_path, assignments_path):
    """Document scores for given (or gold) assignments, TSV on stdout; the
    assignments must cover exactly the documents' mentions, as in eval f1."""
    docs = corpus.load_documents(docs_path)
    if assignments_path:
        chosen = _read_assignment_tsv(assignments_path)
        evaluation.check_alignment(chosen, {doc.doc_id: doc.mentions for doc in docs})
    else:
        chosen = evaluation.gold_map(docs)
    entity_table = embed_io.load_table(entities)
    word_table = embed_io.load_table(words)
    model = linking_core.LinkingModel.load(model_path, relations=False)
    try:
        scores = [linking_core.document_score(chosen[doc.doc_id], doc, model, entity_table, word_table)
                  for doc in docs]
    except MissingLabelError as e:
        raise MissingLabelError(f"{e} [{assignments_path or docs_path}]") from None
    click.echo("doc_id\tscore")
    for doc, score in zip(docs, scores):
        click.echo(f"{doc.doc_id}\t{score:.6f}")


def _read_assignment_tsv(path) -> dict[str, list[str]]:
    """Labels per document in index order; each document's k indices must be
    0..k-1, each once."""
    out: dict[str, list] = {}
    for line_no, line in read_lines(path):
        doc_id, idx, label = tsv_fields(line, 3, path, line_no)
        if not COUNT_FIELD.fullmatch(idx):
            raise FormatError(f"mention index {idx!r} is not 1 to 18 digits 0-9", path=path, line=line_no)
        out.setdefault(doc_id, []).append((int(idx), line_no, label))
    for doc_id, items in out.items():
        items.sort()
        for expected, (idx, line_no, _label) in enumerate(items):
            if idx != expected:
                raise FormatError(f"mention index {idx} of {doc_id!r} where {expected} belongs: "
                                  f"a document's indices are 0..{len(items) - 1}, each once", path=path, line=line_no)
    return {doc: [label for _i, _line, label in items] for doc, items in out.items()}


# ----------------------------------------------------------------- eval ---


@cli.group(name="eval")
def eval_group():
    """Micro-F1, multi-run CIs, convergence and geometry studies."""


@eval_group.command("f1")
@click.option("--docs", "docs_path", required=True, type=click.Path(exists=True), help="Gold documents.")
@click.option("--pred", required=True, type=click.Path(exists=True), help="Predictions TSV from 'link infer'.")
@click.option("--out", "out_path", type=click.Path())
def eval_f1(docs_path, pred, out_path):
    """Micro precision/recall/F1 of predictions against gold."""
    docs = corpus.load_documents(docs_path)
    gold = evaluation.gold_map(docs)
    predictions = _read_assignment_tsv(pred)
    report = evaluation.micro_f1(predictions, gold)
    if out_path:
        write_lines(out_path, json_lines(report.to_dict()))
    click.echo(
        f"tp={report.tp} fp={report.fp} fn={report.fn} "
        f"P={report.micro_precision:.4f} R={report.micro_recall:.4f} F1={report.micro_f1:.4f}"
    )


@eval_group.command("runs")
@click.option("--scores", required=True, help="Comma-separated scores or @file (one per line).")
def eval_runs(scores):
    """Mean and Student-t 95% CI over repeated runs."""
    if scores.startswith("@"):
        source, tokens = scores[1:], read_all(scores[1:]).split()
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
        if not COUNT_FIELD.fullmatch(token):
            raise FormatError(f"seed {token!r} is not 1 to 18 digits 0-9")
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
@click.option("--lr", default=linking_core.TrainConfig.lr, show_default=True)
@click.option("--margin", default=linking_core.TrainConfig.margin, show_default=True)
@click.option("--out", "out_path", type=click.Path())
@click.option("--curves", type=click.Path(), help="Write per-epoch dev-F1 curves TSV here.")
def eval_converge(train_path, dev_path, words, baseline, reinforced, seeds, theta,
                  epochs, lr, margin, out_path, curves):
    """Compare epochs-to-threshold between two embedding tables."""
    seed_list = _seed_list(seeds)
    cfg = linking_core.TrainConfig(margin=margin, lr=lr, epochs=epochs)
    evaluation.check_theta(theta)
    train_docs = corpus.load_documents(train_path)
    dev_docs = corpus.load_documents(dev_path)
    word_table = embed_io.load_table(words)
    base_table = embed_io.load_table(baseline)
    reinf_table = embed_io.load_table(reinforced)
    report = evaluation.convergence_experiment(
        train_docs, dev_docs, word_table, base_table, reinf_table, cfg, seed_list, theta=theta
    )
    outputs = []
    if out_path:
        outputs.append((out_path, json_lines(report.to_dict())))
    if curves:
        outputs.append((curves, evaluation.convergence_curves_tsv(report)))
    write_files(outputs)
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
    probe = []
    for line_no, line in read_lines(pairs):
        if not line.startswith("#"):
            a, b, kind = tsv_fields(line, 3, pairs, line_no)
            if kind not in ("same", "different"):
                raise FormatError(f"pair kind {kind!r} is not 'same' or 'different'", path=pairs, line=line_no)
            probe.append((a, b, kind))
    base_table = embed_io.load_table(baseline)
    reinf_table = embed_io.load_table(reinforced)
    report = evaluation.geometry_report(base_table, reinf_table, probe)
    if out_path:
        write_lines(out_path, json_lines(report.to_dict()))
    click.echo("\n".join(evaluation.geometry_report_tsv(report)))


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
@click.option("--entities", default=fixtures.FixtureSizes.entities, show_default=True)
@click.option("--groups", default=fixtures.FixtureSizes.groups, show_default=True)
@click.option("--dim", default=fixtures.FixtureSizes.dim, show_default=True)
@click.option("--train-docs", default=fixtures.FixtureSizes.train_docs, show_default=True)
@click.option("--dev-docs", default=fixtures.FixtureSizes.dev_docs, show_default=True)
@click.option("--eval-docs", default=fixtures.FixtureSizes.eval_docs, show_default=True)
@click.option("--mentions-per-doc", default=fixtures.FixtureSizes.mentions_per_doc, show_default=True)
@click.option("--candidates", default=fixtures.FixtureSizes.candidates, show_default=True)
def fixtures_make(out_dir, seed, **sizes):
    """Write a deterministic synthetic corpus + embeddings + linking set."""
    if sizes["entities"] == 0:
        sizes = fixtures.FixtureSizes.empty(dim=sizes["dim"])
    else:
        sizes = fixtures.FixtureSizes(**sizes)
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
    except (SemlinkError, OSError, MemoryError) as e:
        click.echo(f"error: {e}", err=True)
        # a StageError exits with the code of the error that failed its stage
        sys.exit(3 if isinstance(getattr(e, "cause", e), (CapacityError, MemoryError)) else 2)


if __name__ == "__main__":
    main()
