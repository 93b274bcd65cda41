"""End-to-end pipeline: dict -> types -> semantic -> aggregate -> link -> eval.

Configuration is a flat key=value text file with CLI overrides.  `STAGES`
declares each stage once: its required and optional input keys, the files
it writes under ``out`` and the configuration keys it records as its
parameters.  An input that an earlier stage writes (`_ARTIFACTS`) is read
from ``out`` when that stage is enabled and from its configured path
otherwise.  Before any stage runs, every input of every enabled stage,
required or optional, is checked, so a missing key or a path that is not a
file ends in a `ConfigError` with nothing written.

Every stage records content hashes in ``manifest.json``: its inputs by
configuration key and its outputs by file name under ``out``, so the
manifest does not depend on the working directory or on where ``out``
lives, and a copied output directory is still up to date.  A rerun with
identical inputs and parameters skips the stage.  The semlink version is
one of every stage's parameters, so new code reruns all stages, and so does
a manifest written before this layout, once.  The manifest is replaced
atomically, so a crash while writing it leaves the previous one intact.  A
failing stage leaves its outputs behind with a ``.partial`` suffix and
aborts the run.

One run does each piece of work once.  Each file is hashed at most once per
run (a stage's outputs are hashed again when it records them); the word
table and ``types.tsv`` are read on first use and shared by later stages;
and ``link`` and ``eval`` use the table ``aggregate`` built in the same run
instead of reading ``reinforced.bin`` back.  Nothing is kept from one run to
the next.  Bad configuration values end in a `ConfigError` naming the key,
the value and the file line or ``--set``.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from . import __version__, embed_io, evaluation, linking_core, semantic_aggregation, type_dictionary, type_extraction
from .errors import ConfigError, SemlinkError, StageError

STAGES = {
    # stage: (required inputs, optional inputs, outputs under `out`, params), in run order
    "dict": (("seeds",), ("extensions", "remap", "words"), ("dictionary.txt", "remap.tsv"), ()),
    "types": (("corpus", "dictionary"), ("remap",), ("types.tsv",), ("cap",)),
    "semantic": (("words", "types_file"), (), ("semantic.bin",), ("T", "alpha", "normalize_words")),
    "aggregate": (("words", "wikitext", "types_file"), (), ("reinforced.bin",), ("T", "alpha", "normalize_words")),
    "link": (("words", "reinforced", "train"), ("dev",), ("model.txt", "train_trace.json"),
             ("margin", "lr", "epochs", "seed", "window")),
    "eval": (("words", "reinforced", "model", "eval"), (), ("eval.json", "eval.tsv"), ("strategy", "window")),
}
STAGE_ORDER = tuple(STAGES)

# input key -> (file it names under `out`, the stage that writes it); a later
# stage reads that file when the writer is enabled, else the configured path
_ARTIFACTS = {
    "dictionary": ("dictionary.txt", "dict"),
    "remap": ("remap.tsv", "dict"),
    "types_file": ("types.tsv", "types"),
    "reinforced": ("reinforced.bin", "aggregate"),
    "model": ("model.txt", "link"),
}

_PATH_KEYS = {key for required, optional, _, _ in STAGES.values() for key in required + optional}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise ValueError(text) from None


# parameter -> (what its value must be, parser raising ValueError otherwise)
_KINDS = {
    **{key: ("an integer", int) for key in ("T", "cap", "window", "epochs", "seed")},
    **{key: ("a finite number", _finite) for key in ("alpha", "margin", "lr")},
    "normalize_words": ("one of 1/0/true/false/yes/no", _boolean),
}


def check_non_negative(**values: int) -> None:
    """`ConfigError` naming the first of ``values`` that is negative."""
    for key, value in values.items():
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")


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
        """Read ``key = value`` lines, then apply ``--set`` overrides.

        Errors name the key, the value and where it came from: the file and
        line, or ``--set``.
        """
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            line_no = data.count(b"\n", 0, e.start) + 1
            raise ConfigError(
                f"{path}:{line_no}: not UTF-8 text (byte 0x{data[e.start]:02x})"
            ) from None
        values: dict = {}
        origins: dict = {}
        for line_no, raw in enumerate(io.StringIO(text, newline=None), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
            origins[key.strip()] = f"{path}:{line_no}"
        for key, value in (overrides or {}).items():
            values[key.strip()] = value
            origins[key.strip()] = "--set"
        return cls._coerce(values, origins)

    @classmethod
    def _coerce(cls, values: dict, origins: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        cfg = cls()
        for key, value in values.items():
            where = origins[key]
            if key not in known:
                raise ConfigError(f"{where}: unknown configuration key {key!r}")
            if key == "stages":
                cfg.stages = [s.strip() for s in str(value).split(",") if s.strip()]
            elif key in _PATH_KEYS or key == "out":
                setattr(cfg, key, Path(value) if value not in (None, "") else None)
            elif key in _KINDS:
                kind, parse = _KINDS[key]
                try:
                    setattr(cfg, key, parse(str(value)))
                except ValueError:
                    raise ConfigError(f"{where}: {key} = {value!r} is not {kind}") from None
            else:
                setattr(cfg, key, value)
        if cfg.out is None:
            raise ConfigError("output directory 'out' is required")
        return cfg

    def _producer(self, stage: str, key: str) -> Optional[str]:
        """The enabled earlier stage that writes input `key` of `stage`, if any."""
        producer = _ARTIFACTS[key][1] if key in _ARTIFACTS else None
        return producer if producer in self.stages and producer != stage else None

    def inputs(self, stage: str) -> dict[str, Path]:
        """Input key -> path for each input `stage` has: the file an enabled
        earlier stage writes under `out`, else the configured path."""
        required, optional, _, _ = STAGES[stage]
        found = {}
        for key in required + optional:
            if self._producer(stage, key):
                found[key] = Path(self.out) / _ARTIFACTS[key][0]
            elif getattr(self, key) is not None:
                found[key] = Path(getattr(self, key))
        return found

    def validate(self) -> None:
        """Check parameters and every input of every enabled stage, so that
        no stage runs unless all of them can."""
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")
        check_non_negative(window=self.window, epochs=self.epochs, seed=self.seed)
        if self.strategy not in linking_core.STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {', '.join(linking_core.STRATEGIES)}, got {self.strategy!r}"
            )
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ConfigError(f"unknown stages: {', '.join(unknown)}")
        self.stages = [s for s in STAGE_ORDER if s in self.stages]
        for stage in self.stages:
            inputs = self.inputs(stage)
            required, *_ = STAGES[stage]
            for key in required:
                if key not in inputs:
                    producer = f" (or enable stage '{_ARTIFACTS[key][1]}')" if key in _ARTIFACTS else ""
                    raise ConfigError(f"stage '{stage}' requires configuration key '{key}'{producer}")
            for key, path in inputs.items():
                if not self._producer(stage, key) and not path.is_file():
                    raise ConfigError(f"stage '{stage}' input '{key}' is not a file: {path}")


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
        self._digests: dict[Path, str] = {}  # this run's hashes, by resolved path
        if path.exists():
            try:
                self.stages = json.loads(path.read_text("utf-8")).get("stages", {})
            except (json.JSONDecodeError, OSError):
                self.stages = {}

    def digest(self, path: Path) -> str:
        """SHA-256 of a file, computed at most once per run.

        Within a run only the pipeline's own stages change files, and
        `record` re-hashes every output a stage writes.
        """
        key = Path(path).resolve()
        if key not in self._digests:
            self._digests[key] = _sha256(key)
        return self._digests[key]

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
        for name, digest in entry.get("outputs", {}).items():
            p = self.path.parent / name
            if not p.exists() or self.digest(p) != digest:
                return False
        return True

    def record(self, stage: str, inputs: dict[str, str], params: dict, outputs: tuple[str, ...]) -> None:
        paths = [self.path.parent / name for name in outputs]
        for p in paths:  # just written: hash them again
            self._digests.pop(p.resolve(), None)
        self.stages[stage] = {
            "inputs": inputs,
            "params": params,
            "outputs": {name: self.digest(p) for name, p in zip(outputs, paths)},
        }
        self.write()


def run_pipeline(config: PipelineConfig) -> dict[str, str]:
    """Execute enabled stages in order; returns stage -> done|skipped."""
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out / "manifest.json")
    status: dict[str, str] = {}

    # each is loaded on first use and shared by every later stage of this run
    @functools.cache
    def _load_words():
        return embed_io.load_table(config.words, normalize=config.normalize_words)

    @functools.cache
    def _load_assignments(path):
        return type_extraction.read_assignments(path)

    reinforced = None  # the table aggregate built, when it ran in this run

    def _load_reinforced(path):
        nonlocal reinforced
        if reinforced is None:
            reinforced = embed_io.load_table(path)
        return reinforced

    def _load_docs(path):
        if Path(path).suffix.lower() in (".tsv", ".conll"):
            return linking_core.load_aida_tsv(path, window=config.window)
        return linking_core.load_linking_jsonl(path)

    def _stage_dict(inputs, targets):
        vocab = set(_load_words().labels) if "words" in inputs else None
        d = type_dictionary.build_dictionary(
            None, inputs["seeds"], inputs.get("extensions"), inputs.get("remap"), embedding_vocab=vocab
        )
        d.save(targets[0], targets[1])

    def _stage_types(inputs, targets):
        d = type_dictionary.SemanticTypeDictionary.load(inputs["dictionary"], inputs.get("remap"))
        articles = type_extraction.read_article_corpus(inputs["corpus"])
        assignments = type_extraction.extract_corpus(articles, d, cap=config.cap)
        type_extraction.write_assignments(assignments, targets[0])

    def _stage_semantic(inputs, targets):
        assignments = _load_assignments(inputs["types_file"])
        table = semantic_aggregation.semantic_table(assignments, _load_words(), config.T)
        embed_io.save_binary(table, targets[0])

    def _stage_aggregate(inputs, targets):
        nonlocal reinforced
        wikitext = embed_io.load_table(inputs["wikitext"])
        cfg = semantic_aggregation.AggregationConfig(T=config.T, alpha=config.alpha)
        assignments = _load_assignments(inputs["types_file"])
        table = semantic_aggregation.aggregate_table(wikitext, assignments, _load_words(), cfg)
        embed_io.save_binary(table, targets[0])
        reinforced = table

    def _stage_link(inputs, targets):
        words = _load_words()
        entities = _load_reinforced(inputs["reinforced"])
        train_docs = _load_docs(inputs["train"])
        dev_docs = _load_docs(inputs["dev"]) if "dev" in inputs else None
        cfg = linking_core.TrainConfig(
            margin=config.margin, lr=config.lr, epochs=config.epochs, seed=config.seed
        )
        result = linking_core.train(train_docs, entities, words, cfg, dev_docs=dev_docs)
        result.model.save(targets[0])
        evaluation.write_json(result.trace(), targets[1])

    def _stage_eval(inputs, targets):
        words = _load_words()
        entities = _load_reinforced(inputs["reinforced"])
        model = linking_core.LinkingModel.load(inputs["model"])
        docs = _load_docs(inputs["eval"])
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

    runners = {
        "dict": _stage_dict, "types": _stage_types, "semantic": _stage_semantic,
        "aggregate": _stage_aggregate, "link": _stage_link, "eval": _stage_eval,
    }
    for stage in config.stages:
        _, _, outputs, param_keys = STAGES[stage]
        inputs = config.inputs(stage)
        params = {key: getattr(config, key) for key in param_keys}
        params["semlink"] = __version__
        input_hashes = {key: manifest.digest(p) for key, p in inputs.items()}
        if manifest.is_fresh(stage, input_hashes, params):
            status[stage] = "skipped"
            continue
        partials = [out / f"{name}.partial" for name in outputs]
        try:
            runners[stage](inputs, partials)
        except SemlinkError as e:
            raise StageError(stage, e) from e
        for partial, name in zip(partials, outputs):
            if partial.exists():
                partial.replace(out / name)
        manifest.record(stage, input_hashes, params, outputs)
        status[stage] = "done"

    if not config.stages:
        manifest.write()
    return status
