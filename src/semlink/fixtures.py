"""Deterministic synthetic corpus/embedding/linking-set generator.

The generator builds a small world with known structure so that pipeline and
experiment behaviour is predictable:

* type words cluster into groups with a distinct direction per group;
* each synthetic entity samples a handful of its group's type words, and its
  article first sentence literally lists them (so extraction recovers them);
* base entity vectors are a weak copy of the entity's type-word mean plus
  strong entity-unique noise, i.e. distinctive but only loosely typed;
* mention context windows sample tokens from the entity's type words mixed
  with filler, so context features point along the type direction;
* candidate sets contain the gold entity plus distractors from other groups.

Same seed, same sizes -> byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
import numpy as np

from ._text import json_lines, write_lines
from .corpus import LinkingDocument, Mention, save_linking_jsonl
from .embed_io import EmbeddingTable, save_binary
from .errors import ConfigError
from .type_dictionary import SemanticTypeDictionary
from .type_extraction import ArticleRecord, EntityTypeAssignment, write_assignments


@dataclass(frozen=True)
class FixtureSizes:
    entities: int = 60
    groups: int = 12
    words_per_group: int = 5
    types_min: int = 3
    types_max: int = 5
    filler_words: int = 150
    dim: int = 32
    train_docs: int = 40
    dev_docs: int = 15
    eval_docs: int = 15
    mentions_per_doc: int = 5
    candidates: int = 4
    window: int = 10
    # base vectors: signal * type_mean_direction + noise * unit_gaussian;
    # defaults picked so a diagonal scorer starts imperfect on both tables
    # and converges markedly faster on the type-reinforced one
    wikitext_signal: float = 0.35
    wikitext_noise: float = 2.0
    filler_scale: float = 2.2
    context_type_fraction: float = 0.45

    def __post_init__(self):  # counts >= 0; dim, candidates and, with entities, groups >= 1
        least = {"dim": 1, "candidates": 1, "groups": 1 if self.entities else 0}
        for key, value in asdict(self).items():
            if isinstance(value, int) and value < least.get(key, 0):
                raise ConfigError(f"{key} must be >= {least.get(key, 0)}, got {value}")

    @classmethod
    def empty(cls, dim: int = 8) -> "FixtureSizes":
        return cls(
            entities=0, groups=0, words_per_group=0, filler_words=0, dim=dim,
            train_docs=0, dev_docs=0, eval_docs=0,
        )


@dataclass
class FixtureBundle:
    words: EmbeddingTable
    wikitext: EmbeddingTable
    dictionary: SemanticTypeDictionary
    articles: list[ArticleRecord]
    assignments: dict[str, EntityTypeAssignment]
    train_docs: list[LinkingDocument]
    dev_docs: list[LinkingDocument]
    eval_docs: list[LinkingDocument]


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n else v


def generate_fixture(seed: int, sizes: FixtureSizes) -> FixtureBundle:
    rng = np.random.default_rng(seed)
    d = sizes.dim
    # allocated first, so a size that cannot be held fails before any work;
    # rounded to float32 row by row, so no float64 copy of the table is held
    try:
        entity_matrix = np.empty((sizes.entities, d), dtype=np.float32)
    except ValueError as e:  # numpy's refusal of a size past the address space
        raise MemoryError(str(e)) from e

    # group directions: coordinate axes while they last, random units after
    group_dirs = []
    for g in range(sizes.groups):
        if g < d:
            e = np.zeros(d)
            e[g] = 1.0
            group_dirs.append(e)
        else:
            group_dirs.append(_unit(rng.standard_normal(d)))

    word_labels: list[str] = []
    word_rows: list[np.ndarray] = []
    group_words: list[list[str]] = []
    for g in range(sizes.groups):
        members = []
        for i in range(sizes.words_per_group):
            label = f"type{g:02d}w{i}"
            vec = group_dirs[g] + 0.25 * rng.standard_normal(d) / np.sqrt(d)
            members.append(label)
            word_labels.append(label)
            word_rows.append(vec)
        group_words.append(members)
    filler_labels = [f"filler{i:03d}" for i in range(sizes.filler_words)]
    for _label in filler_labels:
        word_labels.append(_label)
        word_rows.append(sizes.filler_scale * rng.standard_normal(d) / np.sqrt(d))

    words = EmbeddingTable.from_pairs(zip(word_labels, word_rows), dim=d)

    dictionary = SemanticTypeDictionary(words={w for g in group_words for w in g})

    entity_labels: list[str] = []
    articles: list[ArticleRecord] = []
    assignments: dict[str, EntityTypeAssignment] = {}
    entity_group: dict[str, int] = {}
    for e in range(sizes.entities):
        g = e % sizes.groups
        label = f"ent{e:04d}"
        pool = group_words[g]
        count = int(rng.integers(sizes.types_min, sizes.types_max + 1))
        count = min(count, len(pool))
        chosen = list(rng.choice(pool, size=count, replace=False))
        type_mean = np.mean(
            [words.vector(w).astype(np.float64) for w in chosen], axis=0
        )
        # entity-unique noise lives off the group axes, so a diagonal scorer
        # can learn to suppress it; the type signal cannot be unlearned
        noise = rng.standard_normal(d)
        if sizes.groups < d:
            noise[: sizes.groups] = 0.0
        vec = sizes.wikitext_signal * _unit(type_mean) + sizes.wikitext_noise * _unit(noise)
        entity_labels.append(label)
        entity_matrix[e] = vec
        entity_group[label] = g
        assignments[label] = EntityTypeAssignment(label, chosen)
        sentence = f"{label} is a {' '.join(chosen)} entity."
        articles.append(
            ArticleRecord(entity_id=label, title=label, first_sentence=sentence)
        )

    wikitext = EmbeddingTable(d, entity_labels, entity_matrix)

    def _make_docs(prefix: str, count: int) -> list[LinkingDocument]:
        docs = []
        for t in range(count):
            mentions = []
            for _m in range(sizes.mentions_per_doc):
                gold = entity_labels[int(rng.integers(len(entity_labels)))]
                own_types = assignments[gold].type_words
                context = []
                for _tok in range(2 * sizes.window):
                    if own_types and rng.random() < sizes.context_type_fraction:
                        context.append(own_types[int(rng.integers(len(own_types)))])
                    elif filler_labels:
                        context.append(filler_labels[int(rng.integers(len(filler_labels)))])
                others = [
                    l for l in entity_labels if entity_group[l] != entity_group[gold]
                ]
                n_dist = min(sizes.candidates - 1, len(others))
                distractors = list(rng.choice(others, size=n_dist, replace=False)) if n_dist else []
                candidates = [gold] + distractors
                order = rng.permutation(len(candidates))
                candidates = [candidates[i] for i in order]
                mentions.append(
                    Mention(surface=gold, context=context, candidates=candidates, gold=gold)
                )
            if mentions:
                docs.append(LinkingDocument(f"{prefix}{t:03d}", mentions))
        return docs

    if sizes.entities:
        train_docs = _make_docs("train", sizes.train_docs)
        dev_docs = _make_docs("dev", sizes.dev_docs)
        eval_docs = _make_docs("eval", sizes.eval_docs)
    else:
        train_docs, dev_docs, eval_docs = [], [], []

    return FixtureBundle(
        words=words,
        wikitext=wikitext,
        dictionary=dictionary,
        articles=articles,
        assignments=assignments,
        train_docs=train_docs,
        dev_docs=dev_docs,
        eval_docs=eval_docs,
    )


def make_fixtures(seed: int, sizes: FixtureSizes, out_dir) -> dict[str, Path]:
    """Generate and write the full fixture set; returns the path map."""
    bundle = generate_fixture(seed, sizes)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {
        "words": out / "words.bin",
        "wikitext": out / "wikitext.bin",
        "articles": out / "articles.tsv",
        "seeds": out / "seeds.txt",
        "extensions": out / "extensions.txt",
        "remap": out / "remap.tsv",
        "types": out / "types.tsv",
        "train": out / "train.jsonl",
        "dev": out / "dev.jsonl",
        "eval": out / "eval.jsonl",
        "meta": out / "fixture.json",
    }

    save_binary(bundle.words, paths["words"])
    save_binary(bundle.wikitext, paths["wikitext"])
    write_lines(paths["articles"], [
        f"{a.entity_id}\t{a.title}\t{(a.first_sentence + ' ' + a.body).strip()}" for a in bundle.articles
    ])
    write_lines(paths["seeds"], sorted(bundle.dictionary.words))
    write_lines(paths["extensions"], ["# curated expansion words (none for fixtures)"])
    write_lines(paths["remap"], [])
    write_assignments(bundle.assignments, paths["types"])
    save_linking_jsonl(bundle.train_docs, paths["train"])
    save_linking_jsonl(bundle.dev_docs, paths["dev"])
    save_linking_jsonl(bundle.eval_docs, paths["eval"])
    write_lines(paths["meta"], json_lines({"seed": seed, "sizes": asdict(sizes)}))
    return paths
