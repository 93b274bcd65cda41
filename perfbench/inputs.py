"""Deterministic input generation for the three workloads, cached on disk.

Each workload's inputs are a function of (workload, seed, sizes) and of this
file.  They are written once under ``perfbench/.cache/<workload>-s<seed>-<key>/``
and reused, so generation stays out of every timed metric.  The seed varies the contents
(vectors, type choices, contexts, candidates, order); the amount of work a
pass does is held fixed by the sizes, so runs with different seeds measure
the same workload.  ``props.json`` beside the inputs records the workload
properties the results file reports.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from semlink.embed_io import EmbeddingTable, save_binary
from semlink.fixtures import FixtureSizes, generate_fixture
from semlink.linking_core import LinkingDocument, LinkingModel, Mention, save_linking_jsonl
from semlink.type_extraction import EntityTypeAssignment, write_assignments

CACHE_KEEP = 3  # input sets kept per workload; older ones are deleted

# ingest: 10k entities x dim 300 so embedding I/O, extraction and
# aggregation dominate; the linking set stays small.
INGEST_SIZES = FixtureSizes(
    entities=10_000, groups=100, filler_words=2_000, dim=300,
    train_docs=40, dev_docs=15, eval_docs=15,
)
INGEST_BODY_TOKENS = (120, 180)  # filler tokens after each first sentence
INGEST_QUERIES = 10
INGEST_PROBE_PAIRS = 2_000

# converge: the acceptance-criterion-08 convergence study, fixture seed 7 and
# training seeds 1..5.
CONVERGE_FIXTURE_SEED = 7
CONVERGE_SIZES = FixtureSizes()
CONVERGE_TRAINING_SEEDS = [1, 2, 3, 4, 5]

# coherent: exhaustive inference.  Document shapes (mention count, candidate
# counts, pairwise mode) come from a fixed design so every seed enumerates
# the same candidate products; the seed draws vectors, candidates, contexts
# and document order.
COHERENT_DOCS = 120
COHERENT_DIM = 64
COHERENT_ENTITIES = 2_000
COHERENT_WORDS = 500
COHERENT_CONTEXT = 20
COHERENT_SHAPE_SEED = 2106
COHERENT_RELATIONS = 3


def _key(workload: str, sizes: dict) -> str:
    """Changes with the sizes and with this generator's source."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(json.dumps({"w": workload, "sizes": sizes}, sort_keys=True).encode())
    return h.hexdigest()[:10]


def _sizes(workload: str) -> dict:
    if workload == "ingest":
        return {
            "fixture": asdict(INGEST_SIZES), "body_tokens": INGEST_BODY_TOKENS,
            "queries": INGEST_QUERIES, "probe_pairs": INGEST_PROBE_PAIRS,
        }
    if workload == "converge":
        return {"fixture": asdict(CONVERGE_SIZES), "fixture_seed": CONVERGE_FIXTURE_SEED,
                "training_seeds": CONVERGE_TRAINING_SEEDS}
    if workload == "coherent":
        return {
            "docs": COHERENT_DOCS, "dim": COHERENT_DIM, "entities": COHERENT_ENTITIES,
            "words": COHERENT_WORDS, "context": COHERENT_CONTEXT,
            "shape_seed": COHERENT_SHAPE_SEED, "relations": COHERENT_RELATIONS,
        }
    raise ValueError(f"unknown workload {workload!r}")


def ensure_inputs(workload: str, seed: int, cache_root: Path) -> Path:
    """Directory holding the inputs for (workload, seed); generated if absent."""
    sizes = _sizes(workload)
    target = cache_root / f"{workload}-s{seed}-{_key(workload, sizes)}"
    if (target / "props.json").is_file():
        target.touch()
        return target
    cache_root.mkdir(parents=True, exist_ok=True)
    staging = cache_root / (target.name + ".partial")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    props = _GENERATORS[workload](seed % 2**63, staging)  # numpy seeds are non-negative
    props.update({"workload": workload, "seed": seed, "sizes": sizes})
    (staging / "props.json").write_text(json.dumps(props, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    _evict(cache_root, workload, keep=target)
    return target


def _evict(cache_root: Path, workload: str, keep: Path) -> None:
    sets = [p for p in cache_root.glob(f"{workload}-s*") if p.is_dir() and p != keep]
    sets.sort(key=lambda p: p.stat().st_mtime, reverse=True)
    for old in sets[CACHE_KEEP - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def _gen_ingest(seed: int, out: Path) -> dict:
    sizes = INGEST_SIZES
    bundle = generate_fixture(seed, sizes)
    rng = np.random.default_rng([seed, 1])
    fillers = np.array([f"filler{i:03d}" for i in range(sizes.filler_words)])
    body_lengths = []
    with open(out / "articles.tsv", "w", encoding="utf-8") as fh:
        for a in bundle.articles:
            n = int(rng.integers(INGEST_BODY_TOKENS[0], INGEST_BODY_TOKENS[1] + 1))
            tokens = fillers[rng.integers(len(fillers), size=n)]
            # sentences of 15 tokens, so the body reads as text after the first sentence
            body = ". ".join(" ".join(tokens[i:i + 15]) for i in range(0, n, 15)) + "."
            body_lengths.append(n)
            fh.write(f"{a.entity_id}\t{a.title}\t{a.first_sentence} {body}\n")
    save_binary(bundle.words, out / "words.bin")
    save_binary(bundle.wikitext, out / "wikitext.bin")
    (out / "seeds.txt").write_text("".join(w + "\n" for w in sorted(bundle.dictionary.words)))
    (out / "extensions.txt").write_text("# no curated extensions\n")
    (out / "remap.tsv").write_text("")
    write_assignments(bundle.assignments, out / "truth_types.tsv")
    for name, docs in (("train", bundle.train_docs), ("dev", bundle.dev_docs), ("eval", bundle.eval_docs)):
        save_linking_jsonl(docs, out / f"{name}.jsonl")

    # the fixture puts entity i in group i % groups
    labels = bundle.wikitext.labels
    n, groups = len(labels), sizes.groups
    queries = [labels[int(i)] for i in rng.choice(n, INGEST_QUERIES, replace=False)]
    probes = []
    while len(probes) < INGEST_PROBE_PAIRS:
        a = int(rng.integers(n))
        if len(probes) % 2 == 0:
            b = a % groups + groups * int(rng.integers(n // groups))
        else:
            b = int(rng.integers(n))
        if a == b or (len(probes) % 2 == 1 and a % groups == b % groups):
            continue
        probes.append((labels[a], labels[b], "same" if a % groups == b % groups else "different"))
    (out / "queries.txt").write_text("".join(q + "\n" for q in queries))
    (out / "probes.tsv").write_text("".join("\t".join(p) + "\n" for p in probes))
    return {
        "entities": len(labels),
        "dim": sizes.dim,
        "type_words": len(bundle.dictionary.words),
        "filler_words": sizes.filler_words,
        "body_tokens_per_article": float(np.mean(body_lengths)),
        "linking_docs": [sizes.train_docs, sizes.dev_docs, sizes.eval_docs],
    }


def _relabel(table: EmbeddingTable, names: dict, dims: np.ndarray) -> EmbeddingTable:
    return EmbeddingTable(table.dim, [names[l] for l in table.labels], table.matrix[:, dims])


def _gen_converge(seed: int, out: Path) -> dict:
    # The study's work depends on its training trajectory, so the seed must
    # not change the trajectory: it renames entities and words and permutes
    # the embedding dimensions, which the diagonal model is invariant to up
    # to rounding.  Seed 0 is the criterion's fixture unchanged.
    sizes = CONVERGE_SIZES
    bundle = generate_fixture(CONVERGE_FIXTURE_SEED, sizes)
    rng = np.random.default_rng([seed, 2])
    identity = seed == 0

    def names(labels, prefix):
        order = np.arange(len(labels)) if identity else rng.permutation(len(labels))
        return {l: l if identity else f"{prefix}{int(i):04d}" for l, i in zip(labels, order)}

    ents = names(bundle.wikitext.labels, "ent")
    words = names(bundle.words.labels, "word")
    dims = np.arange(sizes.dim) if identity else rng.permutation(sizes.dim)
    save_binary(_relabel(bundle.words, words, dims), out / "words.bin")
    save_binary(_relabel(bundle.wikitext, ents, dims), out / "wikitext.bin")
    write_assignments(
        [EntityTypeAssignment(ents[a.entity_id], [words[w] for w in a.type_words])
         for a in bundle.assignments.values()],
        out / "types.tsv",
    )
    for name, docs in (("train", bundle.train_docs), ("dev", bundle.dev_docs), ("eval", bundle.eval_docs)):
        save_linking_jsonl(
            [LinkingDocument(d.doc_id, [
                Mention(ents[m.surface], [words[t] for t in m.context],
                        [ents[c] for c in m.candidates], ents[m.gold])
                for m in d.mentions]) for d in docs],
            out / f"{name}.jsonl",
        )
    (out / "study.json").write_text(json.dumps({"seeds": CONVERGE_TRAINING_SEEDS}) + "\n")
    return {
        "entities": sizes.entities,
        "dim": sizes.dim,
        "train_mentions": sum(len(d.mentions) for d in bundle.train_docs),
        "dev_mentions": sum(len(d.mentions) for d in bundle.dev_docs),
        "training_seeds": CONVERGE_TRAINING_SEEDS,
    }


def _coherent_shapes() -> list[tuple[list[int], str]]:
    """Fixed design: per document, candidate counts per mention and pairwise mode."""
    rng = np.random.default_rng(COHERENT_SHAPE_SEED)
    shapes = []
    for j in range(COHERENT_DOCS):
        n = 3 + (j // 3) % 3
        ks = [int(k) for k in rng.integers(4, 11, size=n)]
        # one document in three, spread evenly over the mention counts
        mode = "relations" if j % 3 == 0 else "diagonal"
        shapes.append((ks, mode))
    return shapes


def _gen_coherent(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    d = COHERENT_DIM
    entities = EmbeddingTable(
        d, [f"ent{i:04d}" for i in range(COHERENT_ENTITIES)],
        rng.standard_normal((COHERENT_ENTITIES, d)) / np.sqrt(d),
    )
    words = EmbeddingTable(
        d, [f"word{i:03d}" for i in range(COHERENT_WORDS)],
        rng.standard_normal((COHERENT_WORDS, d)) / np.sqrt(d),
    )
    model = LinkingModel(
        d,
        B=1.0 + 0.5 * rng.standard_normal(d),
        C=1.0 + 0.5 * rng.standard_normal(d),
        relations=[1.0 + 0.5 * rng.standard_normal(d) for _ in range(COHERENT_RELATIONS)],
        relation_weighting="softmax",
    )
    shapes = _coherent_shapes()
    docs, modes, products = [], {}, []
    for j in rng.permutation(len(shapes)):
        ks, mode = shapes[int(j)]
        mentions = []
        for k in ks:
            cands = [entities.labels[int(i)] for i in rng.choice(COHERENT_ENTITIES, k, replace=False)]
            context = [words.labels[int(i)] for i in rng.integers(COHERENT_WORDS, size=COHERENT_CONTEXT)]
            mentions.append(Mention(cands[0], context, cands, gold=cands[int(rng.integers(k))]))
        doc = LinkingDocument(f"doc{int(j):03d}", mentions)
        docs.append(doc)
        modes[doc.doc_id] = mode
        products.append(int(np.prod(ks)))
    save_binary(entities, out / "entities.bin")
    save_binary(words, out / "words.bin")
    model.save(out / "model.txt")
    save_linking_jsonl(docs, out / "docs.jsonl")
    (out / "modes.json").write_text(json.dumps(modes, indent=1, sort_keys=True) + "\n")
    histogram = Counter(f"1e{int(np.floor(np.log10(p)))}" for p in products)
    return {
        "documents": len(docs),
        "dim": d,
        "entities": COHERENT_ENTITIES,
        "mentions_per_doc": [3, 5],
        "candidates_per_mention": [4, 10],
        "candidate_product_sum": int(sum(products)),
        "candidate_product_histogram": dict(sorted(histogram.items())),
        "relations_share": sum(1 for m in modes.values() if m == "relations") / len(modes),
    }


_GENERATORS = {"ingest": _gen_ingest, "converge": _gen_converge, "coherent": _gen_coherent}
