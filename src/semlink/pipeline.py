"""End-to-end pipeline: dict -> types -> semantic -> aggregate -> link -> eval.

Configuration is a flat key=value text file with CLI overrides.
`PipelineConfig` declares each key once: its field's annotation is the kind
of value the key takes and its default is the default, which the stage
commands' options share.  `STAGES`
declares each stage once: its required and optional input keys, the files
it writes under ``out`` and the configuration keys it records as its
parameters.  A stage's runner sees only those (``params``, with the code
fingerprint ``semlink``), never the configuration, so no value it reads can
change without rerunning it.  An input that an earlier stage writes
(`_ARTIFACTS`) is read from ``out`` when that stage is enabled and from its
configured path otherwise.  Every input of every enabled stage is checked
before any stage runs: a missing key or a path that is not a file ends in a
`ConfigError` with nothing written.  `types extract` and `link train` run
their stage's runner alone, through `run_stage`, and `embed reinforce` runs
the ``semantic`` runner and then the ``aggregate`` one.

Every stage records content hashes in ``manifest.json``: its inputs by
configuration key and its outputs by file name under ``out``, so a copied
output directory, or a run from another working directory, is still up to
date.  A rerun with identical inputs and parameters skips the stage; any
edit to semlink's source changes the fingerprint and reruns every stage, as
does a manifest of an older layout, once.  Every output, the manifest
included, replaces its old file only once it is whole (`_text.replacing`),
so a stage that fails, on bad data, on a write or out of memory, leaves
its previous outputs and the manifest as they were and aborts the run
with a `StageError` naming the stage and holding the error as its
``cause``.

One run does each piece of work once: each file is hashed at most once (a
stage's outputs again when it records them), and the run's one ``shared``
dict, keyed by path, holds each embedding table a stage read (`_table`, once
per run) and what a stage hands on.  ``types`` hands its assignments to
``semantic`` there, which `write_assignments` makes sure the file reads back
as, so ``semantic`` does not read ``types.tsv`` back in the run that wrote
it.  ``semantic`` takes every semantic mean, and ``aggregate`` only blends:
it reads ``semantic.bin`` in blocks of `embed_io.BLOCK_ROWS` entries and
blends each into the ``wikitext`` table it loaded, so a run holds at most
one entity-sized table at a time (`aggregate_table` still returns a new
table).  ``aggregate`` hands that table on under ``reinforced.bin``'s path,
so ``link`` and ``eval`` do not read it back, and nothing outlives the run.
A bad configuration value, or a path holding a NUL byte, ends in a
`ConfigError` naming the key, the value and the line or ``--set``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

from . import corpus, embed_io, evaluation, linking_core, semantic_aggregation, type_dictionary, type_extraction
from ._text import COUNT_FIELD, json_lines, read_lines, write_files, write_lines
from .errors import ConfigError, FormatError, SemlinkError, StageError

STAGES = {
    # stage: (required inputs, optional inputs, outputs under `out`, params), in run order
    "dict": (("seeds",), ("extensions", "remap", "words"), ("dictionary.txt", "remap.tsv"), ()),
    "types": (("corpus", "dictionary"), ("remap",), ("types.tsv",), ("cap",)),
    "semantic": (("words", "types_file"), (), ("semantic.bin",), ("T", "alpha")),
    "aggregate": (("wikitext", "semantic"), (), ("reinforced.bin",), ("alpha",)),
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
    "semantic": ("semantic.bin", "semantic"),
    "reinforced": ("reinforced.bin", "aggregate"),
    "model": ("model.txt", "link"),
}

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _integer(text: str) -> int:
    # a count's one form, with a '-' allowed so that a negative value meets its range check
    if not COUNT_FIELD.fullmatch(text.removeprefix("-")):
        raise ValueError(text)
    return int(text)


# a field's annotation -> (what its value must be, parser raising ValueError otherwise)
_KINDS = {int: ("an integer", _integer), float: ("a finite number", _finite)}


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
    semantic: Optional[Path] = None
    reinforced: Optional[Path] = None
    model: Optional[Path] = None
    train: Optional[Path] = None
    dev: Optional[Path] = None
    eval: Optional[Path] = None

    # parameters
    T: int = semantic_aggregation.AggregationConfig.T
    alpha: float = semantic_aggregation.AggregationConfig.alpha
    cap: int = 11
    window: int = 25
    margin: float = linking_core.TrainConfig.margin
    lr: float = linking_core.TrainConfig.lr
    epochs: int = linking_core.TrainConfig.epochs
    seed: int = linking_core.TrainConfig.seed
    strategy: str = "greedy-local"

    @classmethod
    def from_file(cls, path, overrides: Optional[dict] = None) -> "PipelineConfig":
        """Read ``key = value`` lines, then apply ``--set`` overrides.

        Errors name the key, the value and where it came from: the file and
        line, or ``--set``.
        """
        values: dict = {}  # key -> (value, where it was set)
        try:
            for line_no, line in read_lines(path, comments=True):
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip()] = (value.strip(), f"{path}:{line_no}")
        except FormatError as e:  # a byte that is not UTF-8
            raise ConfigError(f"{path}:{e.line}: {e.reason}") from None
        for key, value in (overrides or {}).items():
            values[key.strip()] = (value, "--set")
        return cls._coerce(values)

    @classmethod
    def _coerce(cls, values: dict) -> "PipelineConfig":
        annotations = get_type_hints(cls)
        cfg = cls()
        for key, (value, where) in values.items():
            if key not in annotations:
                raise ConfigError(f"{where}: unknown configuration key {key!r}")
            if key == "stages":
                cfg.stages = [s.strip() for s in str(value).split(",") if s.strip()]
            elif annotations[key] in (Path, Optional[Path]):
                if "\0" in str(value):
                    raise ConfigError(f"{where}: {key} = {value!r} holds a NUL byte")
                setattr(cfg, key, Path(value) if value not in (None, "") else None)
            elif annotations[key] in _KINDS:
                kind, parse = _KINDS[annotations[key]]
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
        semantic_aggregation.AggregationConfig(T=self.T, alpha=self.alpha)  # ConfigError if either is bad
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")
        if self.window < 0:
            raise ConfigError(f"window must be >= 0, got {self.window}")
        linking_core.TrainConfig(margin=self.margin, lr=self.lr, epochs=self.epochs, seed=self.seed)  # likewise
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
    """Hex SHA-256 of a file, read 1 MiB at a time into one buffer."""
    h = hashlib.sha256()
    buf = memoryview(bytearray(1 << 20))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(buf[:n])
    return h.hexdigest()


@functools.cache
def _code_fingerprint() -> str:
    """sha256 over the name and sha256 of each of semlink's source files, in
    name order, so an edit to any of them reruns every stage."""
    h = hashlib.sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{source.name} {_sha256(source)}\n".encode())
    return h.hexdigest()


class _Manifest:
    def __init__(self, path: Path):
        self.path = path
        self._digests: dict[Path, str] = {}  # this run's hashes, by resolved path
        # absent, or not a JSON object with a "stages" object: every stage reruns
        try:
            stages = json.loads(path.read_bytes())["stages"]
        except (OSError, ValueError, LookupError, TypeError):
            stages = {}
        self.stages: dict = stages if isinstance(stages, dict) else {}

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
        write_lines(self.path, json_lines({"stages": self.stages}))

    def is_fresh(self, stage: str, inputs: dict[str, str], params: dict, outputs: tuple[str, ...]) -> bool:
        """Whether ``stage`` recorded these inputs and params, and a hash for
        each of ``outputs`` and no other file, that the file on disk still has."""
        entry = self.stages.get(stage)
        if not isinstance(entry, dict) or entry.get("inputs") != inputs or entry.get("params") != params:
            return False
        recorded = entry.get("outputs")
        if not isinstance(recorded, dict) or sorted(recorded) != sorted(outputs):
            return False
        paths = {self.path.parent / name: digest for name, digest in recorded.items()}
        return all(p.is_file() and self.digest(p) == digest for p, digest in paths.items())

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


def _table(shared: dict, path: Path) -> embed_io.EmbeddingTable:
    """The embedding table at ``path``, read at most once per run."""
    if path not in shared:
        shared[path] = embed_io.load_table(path)
    return shared[path]


# runner(shared, inputs, params, targets) -> what its command reports; `params` is what the stage records
def _stage_dict(shared, inputs, params, targets):
    vocab = set(_table(shared, inputs["words"]).labels) if "words" in inputs else None
    d = type_dictionary.build_dictionary(
        None, inputs["seeds"], inputs.get("extensions"), inputs.get("remap"), embedding_vocab=vocab
    )
    d.save(targets[0], targets[1])


def _stage_types(shared, inputs, params, targets):
    d = type_dictionary.SemanticTypeDictionary.load(inputs["dictionary"], inputs.get("remap"))
    articles = type_extraction.read_article_corpus(inputs["corpus"])
    assignments = type_extraction.extract_corpus(articles, d, cap=params["cap"])
    type_extraction.write_assignments(assignments, targets[0])
    shared[targets[0]] = assignments  # what the file reads back: semantic uses it
    return assignments


def _stage_semantic(shared, inputs, params, targets):
    path = inputs["types_file"]
    # the last reader of the assignments, so it takes them out of `shared`
    assignments = shared.pop(path) if path in shared else type_extraction.read_assignments(path)
    table = semantic_aggregation.semantic_table(assignments, _table(shared, inputs["words"]), params["T"])
    embed_io.save_binary(table, targets[0])


def _stage_aggregate(shared, inputs, params, targets):
    table = embed_io.load_table(inputs["wikitext"])  # not shared: it becomes the reinforced table
    table.matrix.flags.writeable = True  # loaded just now and held nowhere else
    for block in embed_io.read_blocks(inputs["semantic"]):
        semantic_aggregation.blend_into(table.matrix, table, block, params["alpha"])
    table.matrix.flags.writeable = False
    embed_io.save_table(table, targets[0])
    shared[targets[0]] = table  # link and eval use it without reading it back
    return table


def _stage_link(shared, inputs, params, targets):
    cfg = linking_core.TrainConfig(
        margin=params["margin"], lr=params["lr"], epochs=params["epochs"], seed=params["seed"]
    )
    words = _table(shared, inputs["words"])
    entities = _table(shared, inputs["reinforced"])
    train_docs = corpus.load_documents(inputs["train"], params["window"])
    dev_docs = corpus.load_documents(inputs["dev"], params["window"]) if "dev" in inputs else None
    result = linking_core.train(train_docs, entities, words, cfg, dev_docs=dev_docs)
    write_files(zip(targets, (result.model.lines(), json_lines(result.trace()))))
    return result


def _stage_eval(shared, inputs, params, targets):
    words = _table(shared, inputs["words"])
    entities = _table(shared, inputs["reinforced"])
    model = linking_core.LinkingModel.load(inputs["model"], relations=False)
    docs = corpus.load_documents(inputs["eval"], params["window"])
    predictions = {doc.doc_id: linking_core.infer(doc, model, entities, words, strategy=params["strategy"])
                   for doc in docs}
    report = evaluation.micro_f1(predictions, evaluation.gold_map(docs))
    write_files([(targets[0], json_lines(report.to_dict())), (targets[1], evaluation.eval_report_tsv(report))])


_RUNNERS = {"dict": _stage_dict, "types": _stage_types, "semantic": _stage_semantic,
            "aggregate": _stage_aggregate, "link": _stage_link, "eval": _stage_eval}


def run_stage(stage: str, inputs: dict, params: dict, targets: list):
    """One stage alone, as its command runs it: no manifest, no shared tables, ``None`` inputs dropped."""
    return _RUNNERS[stage]({}, {k: v for k, v in inputs.items() if v is not None}, params, targets)


def run_pipeline(config: PipelineConfig) -> dict[str, str]:
    """Execute enabled stages in order; returns stage -> done|skipped."""
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out / "manifest.json")
    shared: dict = {}  # path -> a table a stage read, or what a stage hands on
    status: dict[str, str] = {}
    for stage in config.stages:
        _, _, outputs, param_keys = STAGES[stage]
        inputs = config.inputs(stage)
        params = {key: getattr(config, key) for key in param_keys}
        params["semlink"] = _code_fingerprint()
        input_hashes = {key: manifest.digest(p) for key, p in inputs.items()}
        if manifest.is_fresh(stage, input_hashes, params, outputs):
            status[stage] = "skipped"
            continue
        try:
            _RUNNERS[stage](shared, inputs, params, [out / name for name in outputs])
        except (SemlinkError, OSError, MemoryError) as e:
            raise StageError(stage, e) from e
        manifest.record(stage, input_hashes, params, outputs)
        status[stage] = "done"

    if not config.stages:
        manifest.write()
    return status
