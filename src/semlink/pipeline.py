"""End-to-end pipeline: dict -> types -> semantic -> aggregate -> link -> eval.

Configuration is a flat key=value text file with CLI overrides.  Every stage
records content hashes of its inputs and outputs in ``manifest.json``; a
rerun with identical inputs and parameters skips the stage.  The semlink
version is one of every stage's parameters, so new code reruns all stages.
The manifest is replaced atomically, so a crash while writing it leaves the
previous one intact.  A failing stage leaves its outputs behind with a
``.partial`` suffix and aborts the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

from . import __version__, embed_io, evaluation, linking_core, semantic_aggregation, type_dictionary, type_extraction
from .errors import ConfigError, SemlinkError, StageError

STAGE_ORDER = ("dict", "types", "semantic", "aggregate", "link", "eval")

_PATH_KEYS = (
    "words", "wikitext", "corpus", "seeds", "extensions", "remap",
    "dictionary", "types_file", "reinforced", "model",
    "train", "dev", "eval",
)


@dataclass
class PipelineConfig:
    out: Path = Path("semlink_out")
    stages: list[str] = field(default_factory=lambda: list(STAGE_ORDER))

    # inputs; mid-pipeline entry points may be supplied directly
    words: Optional[Path] = None
    wikitext: Optional[Path] = None
    corpus: Optional[Path] = None
    seeds: Optional[Path] = None
    extensions: Optional[Path] = None
    remap: Optional[Path] = None
    dictionary: Optional[Path] = None
    types_file: Optional[Path] = None
    reinforced: Optional[Path] = None
    model: Optional[Path] = None
    train: Optional[Path] = None
    dev: Optional[Path] = None
    eval: Optional[Path] = None

    # parameters
    T: int = 11
    alpha: float = 0.2
    cap: int = 11
    window: int = 25
    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 20
    seed: int = 0
    strategy: str = "greedy-local"
    normalize_words: bool = False

    @classmethod
    def from_file(cls, path, overrides: Optional[dict] = None) -> "PipelineConfig":
        values: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        for key, value in (overrides or {}).items():
            values[key.strip()] = value
        return cls._coerce(values)

    @classmethod
    def _coerce(cls, values: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        cfg = cls()
        for key, value in values.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key {key!r}")
            if key == "stages":
                cfg.stages = [s.strip() for s in str(value).split(",") if s.strip()]
            elif key in _PATH_KEYS or key == "out":
                setattr(cfg, key, Path(value) if value not in (None, "") else None)
            elif key in ("T", "cap", "window", "epochs", "seed"):
                setattr(cfg, key, int(value))
            elif key in ("alpha", "margin", "lr"):
                setattr(cfg, key, float(value))
            elif key == "normalize_words":
                setattr(cfg, key, str(value).lower() in ("1", "true", "yes"))
            else:
                setattr(cfg, key, value)
        if cfg.out is None:
            raise ConfigError("output directory 'out' is required")
        return cfg

    # stage -> input config keys that must exist on disk
    _STAGE_INPUTS = {
        "dict": ("seeds",),
        "types": ("corpus",),
        "semantic": ("words",),
        "aggregate": ("words", "wikitext"),
        "link": ("words", "train"),
        "eval": ("words", "eval"),
    }

    def validate(self) -> None:
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")
        unknown = [s for s in self.stages if s not in STAGE_ORDER]
        if unknown:
            raise ConfigError(f"unknown stages: {', '.join(unknown)}")
        self.stages = [s for s in STAGE_ORDER if s in self.stages]
        enabled = set(self.stages)
        for stage in self.stages:
            for key in self._STAGE_INPUTS[stage]:
                path = getattr(self, key)
                if path is None:
                    raise ConfigError(f"stage '{stage}' requires configuration key '{key}'")
                if not Path(path).exists():
                    raise ConfigError(f"stage '{stage}' input does not exist: {path}")
        # mid-pipeline entries: a stage consuming an upstream artifact needs
        # either the producing stage enabled or an explicit path
        def _need(stage: str, key: str, producer: str):
            if stage in enabled and producer not in enabled:
                path = getattr(self, key)
                if path is None or not Path(path).exists():
                    raise ConfigError(
                        f"stage '{stage}' needs '{key}' (or enable stage '{producer}')"
                    )

        _need("types", "dictionary", "dict")
        _need("semantic", "types_file", "types")
        _need("aggregate", "types_file", "types")
        _need("link", "reinforced", "aggregate")
        _need("eval", "reinforced", "aggregate")
        _need("eval", "model", "link")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Manifest:
    def __init__(self, path: Path):
        self.path = path
        self.stages: dict = {}
        if path.exists():
            try:
                self.stages = json.loads(path.read_text("utf-8")).get("stages", {})
            except (json.JSONDecodeError, OSError):
                self.stages = {}

    def write(self) -> None:
        """Write a temporary file beside the manifest, then rename it over."""
        text = json.dumps({"stages": self.stages}, indent=2, sort_keys=True) + "\n"
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    def is_fresh(self, stage: str, inputs: dict[str, str], params: dict) -> bool:
        entry = self.stages.get(stage)
        if not entry:
            return False
        if entry.get("inputs") != inputs or entry.get("params") != params:
            return False
        for out_path, digest in entry.get("outputs", {}).items():
            p = Path(out_path)
            if not p.exists() or _sha256(p) != digest:
                return False
        return True

    def record(self, stage: str, inputs: dict[str, str], params: dict, outputs: list[Path]) -> None:
        self.stages[stage] = {
            "inputs": inputs,
            "params": params,
            "outputs": {str(p): _sha256(p) for p in outputs},
        }
        self.write()


@dataclass
class _StageSpec:
    name: str
    inputs: list[Path]
    params: dict
    outputs: list[Path]
    run: Callable[[list[Path]], None]  # writes to .partial paths


def _artifact(cfg: PipelineConfig, enabled: set, key: str, produced: str, producer: str) -> Path:
    """Path of an upstream artifact: the produced file when its stage runs,
    otherwise the explicitly configured input."""
    if producer in enabled:
        return cfg.out / produced
    return Path(getattr(cfg, key))


def run_pipeline(config: PipelineConfig) -> dict[str, str]:
    """Execute enabled stages in order; returns stage -> done|skipped."""
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out / "manifest.json")
    enabled = set(config.stages)
    status: dict[str, str] = {}

    def _dictionary_path() -> Path:
        return _artifact(config, enabled, "dictionary", "dictionary.txt", "dict")

    def _types_path() -> Path:
        return _artifact(config, enabled, "types_file", "types.tsv", "types")

    def _reinforced_path() -> Path:
        return _artifact(config, enabled, "reinforced", "reinforced.bin", "aggregate")

    def _model_path() -> Path:
        return _artifact(config, enabled, "model", "model.txt", "link")

    @functools.cache
    def _load_words():
        # loaded on first use and shared by every later stage of this run
        return embed_io.load_table(config.words, normalize=config.normalize_words)

    def _load_docs(path):
        if Path(path).suffix.lower() in (".tsv", ".conll"):
            return linking_core.load_aida_tsv(path, window=config.window)
        return linking_core.load_linking_jsonl(path)

    def _stage_dict(targets):
        vocab = None
        if config.words is not None and Path(config.words).exists():
            vocab = set(_load_words().labels)
        d = type_dictionary.build_dictionary(
            None, config.seeds, config.extensions, config.remap, embedding_vocab=vocab
        )
        d.save(targets[0], targets[1])

    def _remap_out() -> Optional[Path]:
        if "dict" in enabled:
            return out / "remap.tsv"
        return config.remap

    def _stage_types(targets):
        remap = _remap_out()
        d = type_dictionary.SemanticTypeDictionary.load(
            _dictionary_path(), remap if remap and Path(remap).exists() else None
        )
        articles = type_extraction.read_article_corpus(config.corpus)
        assignments = type_extraction.extract_corpus(articles, d, cap=config.cap)
        type_extraction.write_assignments(assignments, targets[0])

    def _stage_semantic(targets):
        words = _load_words()
        assignments = type_extraction.read_assignments(_types_path())
        table = semantic_aggregation.semantic_table(assignments, words, config.T)
        embed_io.save_binary(table, targets[0])

    def _stage_aggregate(targets):
        words = _load_words()
        wikitext = embed_io.load_table(config.wikitext)
        assignments = type_extraction.read_assignments(_types_path())
        cfg = semantic_aggregation.AggregationConfig(T=config.T, alpha=config.alpha)
        table = semantic_aggregation.aggregate_table(wikitext, assignments, words, cfg)
        embed_io.save_binary(table, targets[0])

    def _stage_link(targets):
        words = _load_words()
        entities = embed_io.load_table(_reinforced_path())
        train_docs = _load_docs(config.train)
        dev_docs = _load_docs(config.dev) if config.dev else None
        cfg = linking_core.TrainConfig(
            margin=config.margin, lr=config.lr, epochs=config.epochs, seed=config.seed
        )
        result = linking_core.train(train_docs, entities, words, cfg, dev_docs=dev_docs)
        result.model.save(targets[0])
        trace = {
            "initial_loss": result.initial_loss,
            "loss": result.loss_trace,
            "dev_f1": result.dev_f1_trace,
            "initial_dev_f1": result.initial_dev_f1,
            "skipped_mentions": result.skipped_mentions,
        }
        Path(targets[1]).write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n", "utf-8")

    def _stage_eval(targets):
        words = _load_words()
        entities = embed_io.load_table(_reinforced_path())
        model = linking_core.LinkingModel.load(_model_path())
        docs = _load_docs(config.eval)
        predictions = {
            doc.doc_id: linking_core.infer(
                doc, model, entities, words, strategy=config.strategy
            )
            for doc in docs
        }
        gold = evaluation.gold_map(docs)
        report = evaluation.micro_f1(predictions, gold)
        evaluation.write_json(report.to_dict(), targets[0])
        Path(targets[1]).write_text(evaluation.eval_report_tsv(report), "utf-8")

    # specs are built lazily: disabled stages may lack their config paths
    spec_builders: dict[str, Callable[[], _StageSpec]] = {
        "dict": lambda: _StageSpec(
            "dict",
            [p for p in (config.seeds, config.extensions, config.remap, config.words) if p],
            {},
            [out / "dictionary.txt", out / "remap.tsv"],
            _stage_dict,
        ),
        "types": lambda: _StageSpec(
            "types",
            [Path(config.corpus), _dictionary_path()] + ([_remap_out()] if _remap_out() else []),
            {"cap": config.cap},
            [out / "types.tsv"],
            _stage_types,
        ),
        "semantic": lambda: _StageSpec(
            "semantic",
            [Path(config.words), _types_path()],
            {"T": config.T, "alpha": config.alpha, "normalize": config.normalize_words},
            [out / "semantic.bin"],
            _stage_semantic,
        ),
        "aggregate": lambda: _StageSpec(
            "aggregate",
            [Path(config.words), Path(config.wikitext), _types_path()],
            {"T": config.T, "alpha": config.alpha, "normalize": config.normalize_words},
            [out / "reinforced.bin"],
            _stage_aggregate,
        ),
        "link": lambda: _StageSpec(
            "link",
            [Path(config.words), _reinforced_path(), Path(config.train)]
            + ([Path(config.dev)] if config.dev else []),
            {
                "margin": config.margin, "lr": config.lr,
                "epochs": config.epochs, "seed": config.seed,
                "window": config.window,
            },
            [out / "model.txt", out / "train_trace.json"],
            _stage_link,
        ),
        "eval": lambda: _StageSpec(
            "eval",
            [Path(config.words), _reinforced_path(), _model_path(), Path(config.eval)],
            {"strategy": config.strategy, "window": config.window},
            [out / "eval.json", out / "eval.tsv"],
            _stage_eval,
        ),
    }

    for stage in config.stages:
        spec = spec_builders[stage]()
        spec.params["semlink"] = __version__
        for p in spec.inputs:
            if not Path(p).exists():
                raise StageError(stage, f"input missing: {p}")
        input_hashes = {str(p): _sha256(Path(p)) for p in spec.inputs}
        if manifest.is_fresh(stage, input_hashes, spec.params):
            status[stage] = "skipped"
            continue
        partials = [p.with_suffix(p.suffix + ".partial") for p in spec.outputs]
        try:
            spec.run(partials)
        except SemlinkError as e:
            raise StageError(stage, e) from e
        for partial, final in zip(partials, spec.outputs):
            if partial.exists():
                partial.replace(final)
        manifest.record(stage, input_hashes, spec.params, spec.outputs)
        status[stage] = "done"

    if not config.stages:
        manifest.write()
    return status
