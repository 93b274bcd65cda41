"""Desk-scale entity-linking scorer: bilinear scores, inference, training.

Score functions, all with diagonal parameter matrices stored as length-d
vectors:

* local:     psi(e, c)    = sum_j e[j] * B[j] * f(c)[j]
* pairwise:  phi(ei, ej)  = (1 / (n - 1)) * sum_j ei[j] * C[j] * ej[j]
* relation:  phi_K(ei,ej) = sum_k w_k * sum_j ei[j] * Rk[j] * ej[j]

``n`` is the number of mentions in the document.  The document score sums
local scores plus pairwise scores over unordered mention pairs.  Inference is
exhaustive argmax (with a capacity guard) or per-mention greedy on the local
score.  Training runs SGD on a max-margin ranking loss over the non-gold
candidates of each mention; it is piecewise linear in the diagonals, so the
analytic subgradient is exact away from hinge kinks.

Training works on one packed layout, built once per entity table.  For
trainable mention n with context feature f, gold vector g, teacher-forced
pair context p and its negatives padded to M rows (with a mask):

* ``FD[n, m] = (neg_m - g) * f``
* ``PD[n, m] = (neg_m - g) * p``  (only when pairwise terms are trained)

Since every score is linear in its diagonal, the hinge violation of (n, m)
is ``margin - s(g) + s(neg_m) = margin + FD[n, m] @ B + PD[n, m] @ C``, and
its subgradient in (B, C) is (FD[n, m], PD[n, m]).  The SGD step, the
full-batch loss and its subgradient all use this identity.

``train_runs`` trains R = tables x seeds runs in lockstep, the shape of the
convergence study: the runs share documents, negatives and step count.  SGD
is sequential, since a step's active hinges depend on the diagonals the
step before left, but at a small step size they seldom change within a few
dozen steps.  So the loop takes a block of up to 64 steps per run at once:

1. guess every step's active hinges from the block's first state, one
   mat-vec per run over the block's gathered rows (R, k, M, d);
2. build the state before each step: every step's update from its guessed
   hinges, chained with ``np.subtract.accumulate``;
3. test every step's hinges again, against its own state;
4. each run keeps its steps before its first wrong guess, redoes that step
   with its tested hinges and resumes after it in the next block.

The kept states are those of one step at a time, bit for bit: the
accumulate subtracts in sequence, as ``B -= lr * g`` does, and every update
and every test is the same (1, M) @ (M, d) or (M, d) @ (d, 1) ``matmul``
slice that a single step computes.  Only the guess may round differently,
and a wrong guess costs steps, not bits.  A run that finishes its epoch
before the others steps on an all-zero row, which changes nothing.
Context features are computed once for all tables.  ``train`` is the
one-run case, so there is one SGD loop.

Dev mentions with usable gold are packed once as well (features, sorted
candidate vectors, mask, gold index), so dev F1 per epoch is one einsum and
a first-maximum argmax, the same greedy scorer ``infer`` uses.

Context features and candidate blocks are gathered, not looked up one
token or one mention at a time.  ``_features`` maps the mentions' context
tokens to word rows and takes their means with ``embed_io.row_means``, the
package's one mean rule: each feature is the same sequential ``acc += row``
chain as a per-token loop, bit for bit.  ``_pack_candidates`` fills its
(N, M, d) block with one ``embed_io.padded_rows`` gather, and
``_build_instances`` gathers every gold and negative the same way.
Training, dev packing and both inference strategies go through these
functions, and ``context_feature`` is the one-mention case of ``_features``.

Exhaustive inference packs the document the same way and scores every
assignment at once: with V_i the sorted candidate vectors of mention i, it
broadcast-adds each mention's local vector (the same einsum) and each
pair's (k_i, k_j) block -- ``(V_i * C) @ V_j.T / (n - 1)``, or the
weighted relation forms -- into one ``(k_1, ..., k_n)`` float64 tensor,
product x 8 bytes (8 MB at ``EXHAUSTIVE_CAPACITY``).  The C-order first
maximum of that tensor is the lexicographically smallest best label tuple.
``document_score`` and the pairwise functions keep their scalar form as
the reference the packed path is tested against.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from ._text import read_lines, write_lines
from .embed_io import EmbeddingTable, padded_rows, row_means
from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    EmptyTrainingError,
    FormatError,
    InvalidDocumentError,
    NonFiniteError,
    RelationArityError,
)

EXHAUSTIVE_CAPACITY = 10**6
STRATEGIES = ("exhaustive", "greedy-local")


@dataclass
class Mention:
    """A text span with its context window, candidate set, and optional gold."""

    surface: str
    context: list[str] = field(default_factory=list)
    candidates: list[str] = field(default_factory=list)
    gold: Optional[str] = None

    def gold_in_candidates(self) -> bool:
        return self.gold is not None and self.gold in self.candidates


@dataclass
class LinkingDocument:
    doc_id: str
    mentions: list[Mention]

    def __post_init__(self):
        if not self.mentions:
            raise InvalidDocumentError(f"document {self.doc_id!r} has no mentions")


RELATION_WEIGHTINGS = ("uniform", "softmax")


@dataclass
class LinkingModel:
    """Diagonal bilinear scorer parameters."""

    dim: int
    B: np.ndarray
    C: np.ndarray
    relations: list[np.ndarray] = field(default_factory=list)
    relation_weighting: str = "uniform"  # or "softmax"

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64)
        self.relations = [np.asarray(r, dtype=np.float64) for r in self.relations]
        for name, diag in [("B", self.B), ("C", self.C)] + [
            (f"R{k}", r) for k, r in enumerate(self.relations, 1)
        ]:
            if diag.shape != (self.dim,):
                raise DimensionError(f"{name} has shape {diag.shape}, expected ({self.dim},)")
            if not np.isfinite(diag).all():
                raise NonFiniteError(f"{name} contains non-finite values")
        if self.relation_weighting not in RELATION_WEIGHTINGS:
            raise ValueError(f"unknown relation weighting {self.relation_weighting!r}")

    @property
    def K(self) -> int:
        return len(self.relations)

    @classmethod
    def identity(cls, dim: int, n_relations: int = 0) -> "LinkingModel":
        return cls(
            dim=dim,
            B=np.ones(dim),
            C=np.ones(dim),
            relations=[np.ones(dim) for _ in range(n_relations)],
        )

    def lines(self) -> list[str]:
        """Header '<dim> <K>' then B, C, and each relation diagonal as text."""
        diags = [" ".join(format(v, ".17g") for v in diag) for diag in [self.B, self.C, *self.relations]]
        return [f"{self.dim} {self.K}", *diags, self.relation_weighting]

    def save(self, path) -> None:
        write_lines(path, self.lines())

    @classmethod
    def load(cls, path) -> "LinkingModel":
        """Read a model file; every error is a `FormatError` naming the file."""
        data = Path(path).read_bytes()
        try:
            lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError as e:
            line_no = data.count(b"\n", 0, e.start) + 1
            raise FormatError(f"non-ASCII byte 0x{data[e.start]:02x}", path=path, line=line_no) from None
        if not lines:
            raise FormatError("empty model file", path=path)
        head = lines[0].split()
        if len(head) != 2 or not all(p.lstrip("-").isdigit() for p in head):
            raise FormatError(f"malformed model header {lines[0]!r}", path=path)
        dim, K = int(head[0]), int(head[1])
        if dim < 1 or K < 0:
            raise FormatError(f"model header {lines[0]!r} needs dim >= 1 and K >= 0", path=path)
        need = 1 + 2 + K
        if len(lines) < need:
            raise FormatError(f"expected {need} lines, found {len(lines)}", path=path)
        diags = []
        for line_no in range(1, need):
            try:
                values = [float(v) for v in lines[line_no].split()]
            except ValueError as e:
                raise FormatError(str(e), path=path, line=line_no + 1) from None
            if len(values) != dim:
                raise FormatError(
                    f"diagonal has {len(values)} values, expected {dim}",
                    path=path, line=line_no + 1,
                )
            diags.append(np.asarray(values))
        weighting = lines[need].strip() if len(lines) > need and lines[need].strip() else "uniform"
        if weighting not in RELATION_WEIGHTINGS:
            raise FormatError(f"unknown relation weighting {weighting!r}", path=path, line=need + 1)
        try:
            return cls(dim, diags[0], diags[1], diags[2:], weighting)
        except FormatError as e:
            # non-finite values: name the file they came from
            raise type(e)(str(e), path=path) from None


@dataclass
class ContextFeature:
    """Mean word vector of the context window; zero when fully OOV."""

    vector: np.ndarray
    oov_count: int = 0


def context_feature(mention: Mention, words: EmbeddingTable) -> ContextFeature:
    """Average the embeddings of in-vocabulary window tokens: `_features` of
    one mention, with the count of tokens not in ``words``."""
    oov = sum(token not in words for token in mention.context)
    return ContextFeature(_features([mention], words)[0], oov_count=oov)


def _feature_vector(f) -> np.ndarray:
    if isinstance(f, ContextFeature):
        return f.vector
    return np.asarray(f, dtype=np.float64)


def local_score(entity_vec, B, f) -> float:
    """sum_j e[j] * B[j] * f[j]."""
    e = np.asarray(entity_vec, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    fv = _feature_vector(f)
    if not (e.shape == B.shape == fv.shape):
        raise DimensionError(f"shape mismatch: e{e.shape} B{B.shape} f{fv.shape}")
    return float(np.dot(e * B, fv))


def pairwise_score(e_i, e_j, C, n: int) -> float:
    """(1 / (n - 1)) * sum_j ei[j] * C[j] * ej[j]; symmetric in ei, ej."""
    if n < 2:
        raise InvalidDocumentError(f"pairwise score needs n >= 2 mentions, got {n}")
    e_i = np.asarray(e_i, dtype=np.float64)
    e_j = np.asarray(e_j, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if not (e_i.shape == e_j.shape == C.shape):
        raise DimensionError(f"shape mismatch: ei{e_i.shape} ej{e_j.shape} C{C.shape}")
    # multiply the entity vectors first so the expression is exactly symmetric
    return float(np.dot(e_i * e_j, C) / (n - 1))


def relation_weights(model: LinkingModel, e_i, e_j) -> np.ndarray:
    """Per-relation weights: uniform 1/K, or softmax over the bilinear forms."""
    if model.K < 1:
        raise RelationArityError("model has no relations")
    if model.relation_weighting == "uniform":
        return np.full(model.K, 1.0 / model.K)
    prod = np.asarray(e_i, dtype=np.float64) * np.asarray(e_j, dtype=np.float64)
    scores = np.array([float(np.dot(prod, r)) for r in model.relations])
    scores -= scores.max()
    w = np.exp(scores)
    return w / w.sum()


def relation_pairwise_score(e_i, e_j, model: LinkingModel, weights) -> float:
    """sum_k w_k * sum_j ei[j] * Rk[j] * ej[j]."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (model.K,):
        raise RelationArityError(
            f"got {weights.size} weights for {model.K} relations"
        )
    e_i = np.asarray(e_i, dtype=np.float64)
    e_j = np.asarray(e_j, dtype=np.float64)
    if e_i.shape != e_j.shape or e_i.shape != (model.dim,):
        raise DimensionError(f"shape mismatch: ei{e_i.shape} ej{e_j.shape} dim {model.dim}")
    prod = e_i * e_j
    total = 0.0
    for w, r in zip(weights, model.relations):
        total += float(w) * float(np.dot(prod, r))
    return total


def _entity_vector(entities: EmbeddingTable, label: str) -> np.ndarray:
    return entities.vector(label).astype(np.float64)


def document_score(
    assignment: Sequence[str],
    doc: LinkingDocument,
    model: LinkingModel,
    entities: EmbeddingTable,
    words: EmbeddingTable,
    features: Optional[list[ContextFeature]] = None,
    pairwise: str = "diagonal",
) -> float:
    """Sum of local scores plus pairwise scores over unordered mention pairs."""
    n = len(doc.mentions)
    if len(assignment) != n:
        raise InvalidDocumentError(
            f"assignment length {len(assignment)} != {n} mentions"
        )
    if pairwise not in ("diagonal", "relations"):
        raise ValueError(f"unknown pairwise mode {pairwise!r}")
    if pairwise == "relations" and model.K < 1:
        raise RelationArityError("model has no relations")
    feats = features or _features(doc.mentions, words)
    vecs = [_entity_vector(entities, label) for label in assignment]
    total = 0.0
    for vec, feat in zip(vecs, feats):
        total += local_score(vec, model.B, feat)
    for i, j in itertools.combinations(range(n), 2):
        if pairwise == "diagonal":
            total += pairwise_score(vecs[i], vecs[j], model.C, n)
        else:
            w = relation_weights(model, vecs[i], vecs[j])
            total += relation_pairwise_score(vecs[i], vecs[j], model, w)
    return total


def _check_candidates(doc: LinkingDocument) -> None:
    for i, m in enumerate(doc.mentions):
        if not m.candidates:
            raise InvalidDocumentError(
                f"mention {i} ({m.surface!r}) of {doc.doc_id!r} has no candidates"
            )


def _check_dims(entities: EmbeddingTable, words: EmbeddingTable) -> None:
    if entities.dim != words.dim:
        raise DimensionError(
            f"entity dimension {entities.dim} != word dimension {words.dim}"
        )


@dataclass
class _CandidateBlock:
    """Mentions packed for local scoring, candidates in sorted label order."""

    labels: list[list[str]]  # sorted candidate labels per mention
    features: np.ndarray     # (N, d) context features
    vectors: np.ndarray      # (N, M, d) candidate vectors, zero-padded to M
    mask: np.ndarray         # (N, M) True on real candidates


def _features(mentions: Sequence[Mention], words: EmbeddingTable) -> np.ndarray:
    """(N, d) context features of ``mentions``: the mean of each context's
    in-vocabulary word rows, zero when none is in ``words``."""
    features = np.zeros((len(mentions), words.dim))
    row_of = words._index.get
    rows = [[i for i in map(row_of, m.context) if i is not None] for m in mentions]
    for part, means, _counts in row_means(words.matrix, rows):
        features[part] = means
    return features


def _pack_candidates(
    mentions: Sequence[Mention],
    entities: EmbeddingTable,
    words: EmbeddingTable,
    features: Optional[np.ndarray] = None,
) -> _CandidateBlock:
    """Pack ``mentions``; ``features`` are their context features if known."""
    _check_dims(entities, words)
    if features is None:
        features = _features(mentions, words)
    labels = [sorted(m.candidates) for m in mentions]
    rows = [[entities.index(c) for c in ls] for ls in labels]
    vectors, mask = padded_rows(entities.matrix, rows, np.float64)
    return _CandidateBlock(labels, features, vectors, mask)


def _local_scores(block: _CandidateBlock, B: np.ndarray) -> np.ndarray:
    """(N, M) local scores of every packed candidate; padding rows score 0."""
    return np.einsum("nmd,d,nd->nm", block.vectors, B, block.features)


def _greedy_picks(block: _CandidateBlock, B: np.ndarray) -> np.ndarray:
    """Per-mention index of the first candidate with the highest local score."""
    scores = _local_scores(block, B)
    scores[~block.mask] = -np.inf
    # argmax returns the first maximum: ties go to the smallest label
    return scores.argmax(axis=1)


def _pair_block(
    Vi: np.ndarray, Vj: np.ndarray, model: LinkingModel, n: int, pairwise: str
) -> np.ndarray:
    """(k_i, k_j) pairwise scores of every candidate pair of mentions i and j."""
    if pairwise == "diagonal":
        return (Vi * model.C) @ Vj.T / (n - 1)
    # per-relation bilinear forms S[a, b, k], weighted as in relation_weights
    S = (Vi[:, None] * Vj[None]) @ np.stack(model.relations).T
    if model.relation_weighting == "uniform":
        return S @ np.full(model.K, 1.0 / model.K)
    w = np.exp(S - S.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return (w * S).sum(axis=-1)


def _exhaustive(
    doc: LinkingDocument,
    model: LinkingModel,
    entities: EmbeddingTable,
    words: EmbeddingTable,
    pairwise: str,
) -> list[str]:
    """``document_score`` argmax over the candidate product, scored as one tensor."""
    shape = tuple(len(m.candidates) for m in doc.mentions)
    if math.prod(shape) > EXHAUSTIVE_CAPACITY:
        raise CapacityError(
            f"candidate product exceeds {EXHAUSTIVE_CAPACITY}; "
            "use strategy='greedy-local'"
        )
    block = _pack_candidates(doc.mentions, entities, words)
    local = _local_scores(block, model.B)
    n = len(shape)

    def along(*axes: int) -> tuple[int, ...]:
        return tuple(k if a in axes else 1 for a, k in enumerate(shape))

    vecs = [block.vectors[i, :k] for i, k in enumerate(shape)]
    score = np.zeros(shape)
    for i, k in enumerate(shape):
        score += local[i, :k].reshape(along(i))
    for i, j in itertools.combinations(range(n), 2):
        score += _pair_block(vecs[i], vecs[j], model, n, pairwise).reshape(along(i, j))
    # the C-order first maximum is the lexicographically smallest best tuple
    best = np.unravel_index(score.argmax(), shape)
    return [ls[b] for ls, b in zip(block.labels, best)]


def infer(
    doc: LinkingDocument,
    model: LinkingModel,
    entities: EmbeddingTable,
    words: EmbeddingTable,
    strategy: str = "greedy-local",
    pairwise: str = "diagonal",
) -> list[str]:
    """Pick one candidate per mention.

    ``greedy-local`` (the default, as in ``link infer`` and the pipeline)
    takes the per-mention local-score argmax and ignores coherence entirely;
    ``exhaustive`` maximizes the document score over the full candidate
    product (ties resolve to the lexicographically smallest label tuple).
    """
    _check_candidates(doc)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if pairwise not in ("diagonal", "relations"):
        raise ValueError(f"unknown pairwise mode {pairwise!r}")
    if model.dim != entities.dim:
        raise DimensionError(f"model dimension {model.dim} != entity dimension {entities.dim}")
    if strategy == "greedy-local":
        block = _pack_candidates(doc.mentions, entities, words)
        return [ls[p] for ls, p in zip(block.labels, _greedy_picks(block, model.B))]
    if pairwise == "relations" and model.K < 1:
        raise RelationArityError("model has no relations")
    return _exhaustive(doc, model, entities, words, pairwise)


@dataclass
class TrainConfig:
    """SGD settings.  Building one with a non-finite ``margin`` or ``lr``, or
    with a negative ``epochs`` or ``seed``, raises a `ConfigError`."""

    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 20
    seed: int = 0
    train_pairwise: bool = False
    shuffle: bool = True

    def __post_init__(self):
        for key, value in (("margin", self.margin), ("lr", self.lr)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {value}")
        for key, value in (("epochs", self.epochs), ("seed", self.seed)):
            if value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")


@dataclass
class TrainResult:
    model: LinkingModel
    loss_trace: list[float]        # full-batch loss after each epoch
    dev_f1_trace: list[float]      # dev micro-F1 after each epoch (if dev given)
    initial_loss: float
    initial_dev_f1: Optional[float]
    skipped_mentions: int

    def trace(self) -> dict:
        """The run's losses, dev F1 and skipped mentions, as a JSON object."""
        return {
            "initial_loss": self.initial_loss,
            "loss": self.loss_trace,
            "initial_dev_f1": self.initial_dev_f1,
            "dev_f1": self.dev_f1_trace,
            "skipped_mentions": self.skipped_mentions,
        }


@dataclass
class _TrainingSet:
    """Hinge terms of every trainable mention n against its negatives m.

    The violation of (n, m) is ``margin + FD[n, m] @ B + PD[n, m] @ C``;
    rows past a mention's negative count are zero and masked out.
    """

    FD: np.ndarray            # (N, M, d): (neg - gold) * f
    PD: Optional[np.ndarray]  # (N, M, d): (neg - gold) * pair_context; None if not trained
    mask: np.ndarray          # (N, M) True on real negatives

    def __len__(self) -> int:
        return len(self.FD)


def _usable(docs: Sequence[LinkingDocument]) -> list[Mention]:
    """The mentions of ``docs`` whose gold is among their candidates."""
    return [m for doc in docs for m in doc.mentions if m.gold_in_candidates()]


def _build_instances(
    docs: Sequence[LinkingDocument],
    entities: EmbeddingTable,
    words: EmbeddingTable,
    train_pairwise: bool,
    features: Optional[np.ndarray] = None,
) -> tuple[_TrainingSet, int]:
    """Pack the trainable mentions of ``docs``; also return the skipped count.

    ``features`` are the trainable mentions' context features if known.
    Pair contexts are teacher-forced: the sum of the other mentions' usable
    golds over (n - 1).  Padding rows, and the PD rows of a mention with no
    other usable gold, are +0.0.
    """
    _check_dims(entities, words)
    trainable = _usable(docs)
    if features is None:
        features = _features(trainable, words)
    index = entities.index
    # each mention's gold row, then its negatives in sorted label order
    rows = [[index(m.gold)] + [index(c) for c in sorted(m.candidates) if c != m.gold] for m in trainable]
    gathered, mask = padded_rows(entities.matrix, rows, np.float64)
    gold, diff, mask = gathered[:, :1], gathered[:, 1:], mask[:, 1:]
    diff -= gold  # padding rows become -gold; `where` skips them
    FD = np.zeros_like(diff)
    np.multiply(diff, features[:, None], out=FD, where=mask[..., None])
    PD = None
    if train_pairwise:
        pair = np.zeros((len(trainable), entities.dim))
        paired = np.zeros(len(trainable), dtype=bool)
        n = 0
        for doc in docs:
            k = sum(m.gold_in_candidates() for m in doc.mentions)
            if k > 1:
                for i in range(k):
                    others = np.delete(gold[n : n + k, 0], i, axis=0)
                    pair[n + i] = np.sum(others, axis=0) / (len(doc.mentions) - 1)
                paired[n : n + k] = True
            n += k
        PD = np.zeros_like(diff)
        np.multiply(diff, pair[:, None], out=PD, where=(mask & paired[:, None])[..., None])
    skipped = sum(len(doc.mentions) for doc in docs) - len(trainable)
    return _TrainingSet(FD, PD, mask), skipped


def _hinges(
    instances: _TrainingSet, B: np.ndarray, C: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) hinge violations of every instance and the mask of active ones."""
    v = margin + instances.FD @ B
    if instances.PD is not None:
        v += instances.PD @ C
    return v, instances.mask & (v > 0.0)


def margin_loss_and_gradient(
    instances: _TrainingSet,
    B: np.ndarray,
    C: np.ndarray,
    margin: float,
    train_pairwise: bool = False,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Full-batch hinge loss and its subgradient w.r.t. the B and C diagonals.

    ``train_pairwise`` must match the flag ``instances`` were built with.
    """
    if train_pairwise != (instances.PD is not None):
        raise ValueError("train_pairwise does not match the packed training set")
    v, active = _hinges(instances, B, C, margin)
    gB = instances.FD[active].sum(axis=0)
    gC = instances.PD[active].sum(axis=0) if train_pairwise else np.zeros_like(C)
    return float(v[active].sum()), gB, gC


@dataclass
class _DevSet:
    """Dev mentions with usable gold, packed once for per-epoch evaluation."""

    block: _CandidateBlock
    gold: np.ndarray  # (N,) index of the gold label in each sorted candidate list

    def f1(self, B: np.ndarray) -> float:
        """Greedy-local micro-F1; plain accuracy, since coverage is full."""
        if not len(self.gold):
            return 0.0
        return int(np.count_nonzero(_greedy_picks(self.block, B) == self.gold)) / len(self.gold)


def _pack_dev(
    dev_docs: Sequence[LinkingDocument],
    entities: EmbeddingTable,
    words: EmbeddingTable,
    features: Optional[np.ndarray] = None,
) -> _DevSet:
    """Pack the usable dev mentions; ``features`` are their context features if known."""
    for doc in dev_docs:
        _check_candidates(doc)
    usable = _usable(dev_docs)
    block = _pack_candidates(usable, entities, words, features)
    gold = np.array([ls.index(m.gold) for ls, m in zip(block.labels, usable)], dtype=np.intp)
    return _DevSet(block, gold)


# SGD steps that one speculative block guesses, builds and tests at once
_BLOCK = 64


def _active(
    F: np.ndarray, P: Optional[np.ndarray], B: np.ndarray, C: np.ndarray, margin: float
) -> np.ndarray:
    """(..., M, 1) active hinges of the gathered rows F (and P), (..., M, d),
    at the diagonals B (and C) given as (..., d, 1) columns."""
    if P is None:
        # the same test as margin + F @ B > 0: the sum's sign survives rounding
        return np.matmul(F, B) > -margin
    v = np.matmul(F, B)
    v += margin
    v += np.matmul(P, C)
    return v > 0.0


class _LockstepSGD:
    """SGD of R runs over every table's stacked hinge rows, in speculative blocks.

    The work arrays are allocated once: allocated afresh, arrays this large
    are handed back to the OS when freed and fault in again on every block.
    """

    def __init__(self, sets: Sequence[_TrainingSet], R: int, margin: float, lr: float):
        # table t's instance n is row t * N + n; the last row is zero, and a
        # step on it changes nothing
        zero = np.zeros((1, *sets[0].FD.shape[1:]))
        self.FD = np.concatenate([s.FD for s in sets] + [zero])
        self.PD = np.concatenate([s.PD for s in sets] + [zero]) if sets[0].PD is not None else None
        self.margin, self.lr = margin, lr
        self.runs = np.arange(R)
        # index arrays that pick each run's next block of steps
        self.run_rows, self.ahead = self.runs[:, None], np.arange(_BLOCK)
        self.F = np.empty((R, _BLOCK, *zero.shape[1:]))
        self.P = np.empty_like(self.F) if self.PD is not None else None
        # the diagonals before each step of a block and after its last, step-major
        self.Bs = np.empty((_BLOCK + 1, R, zero.shape[2]))
        self.Cs = np.empty_like(self.Bs) if self.PD is not None else self.Bs

    def epoch(self, rows: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
        """Run r steps on the stacked rows ``rows[r]`` in order, in place on
        B[r] and C[r]; each run moves through its rows at its own pace."""
        R, N = rows.shape
        # a block that runs past a run's last step gathers the zero row
        steps = np.full((R, N + _BLOCK), len(self.FD) - 1)
        steps[:, :N] = rows
        at = np.zeros((R, 1), dtype=np.intp)
        while at.min() < N:
            block = steps[self.run_rows, at + self.ahead]
            at = np.minimum(at + self._block(block, B, C)[:, None], N)

    def _block(self, steps: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Take SGD steps on the rows ``steps`` (R, k) in place on B and C
        (R, d); return how many steps each run took (at least one).

        Every step's active hinges are guessed from the block's first state,
        the states they lead to are built, and each step is then tested
        against its own state.  A run keeps its steps before its first wrong
        guess, which are exact, and redoes that step with its tested hinges;
        the rest of its block is left for the next block.
        """
        F, P, margin, lr = self.F, self.P, self.margin, self.lr
        # the rows are in range; 'raise' would copy them through a temporary
        self.FD.take(steps, axis=0, out=F, mode="clip")
        if P is not None:
            self.PD.take(steps, axis=0, out=P, mode="clip")
        # one mat-vec per run; where it rounds unlike the test, a guess is only wrong
        R, k, M, d = F.shape
        flat = (R, k * M, d)
        guess = _active(
            F.reshape(flat), P.reshape(flat) if P is not None else None,
            B[:, :, None], C[:, :, None], margin,
        ).reshape(R, k, M, 1)
        self._states(self.Bs, B, guess, F)
        if P is not None:
            self._states(self.Cs, C, guess, P)
        # each step against its own state, with (R, k, d, 1) columns
        tested = _active(
            F, P, self.Bs[:-1].swapaxes(0, 1)[..., None], self.Cs[:-1].swapaxes(0, 1)[..., None], margin
        )
        wrong = (tested != guess).any(axis=(2, 3))
        # redoing the last step with its tested hinges is the same as keeping it
        wrong[:, -1] = True
        j = wrong.argmax(axis=1)
        runs = self.runs
        active = tested[runs, j].swapaxes(1, 2)
        B[:] = self.Bs[j, runs]
        B -= lr * np.matmul(active, F[runs, j])[:, 0]
        if P is not None:
            C[:] = self.Cs[j, runs]
            C -= lr * np.matmul(active, P[runs, j])[:, 0]
        return j + 1

    def _states(self, out: np.ndarray, D: np.ndarray, active: np.ndarray, G: np.ndarray) -> None:
        """Write to ``out`` (k + 1, R, d) the diagonals ``D`` (R, d) and their
        values after each step on the rows ``G`` (R, k, M, d) with the hinges
        ``active`` (R, k, M, 1)."""
        out[0] = D
        # padding rows are zero: active or not, they add nothing
        np.matmul(active.swapaxes(2, 3), G, out=out[1:].swapaxes(0, 1)[:, :, None])
        out[1:] *= self.lr
        # accumulate subtracts in sequence, so each state is the in-place D -= X chain
        np.subtract.accumulate(out, axis=0, out=out)


def train_runs(
    train_docs: Sequence[LinkingDocument],
    tables: Sequence[EmbeddingTable],
    words: EmbeddingTable,
    config: TrainConfig,
    seeds: Sequence[int],
    dev_docs: Optional[Sequence[LinkingDocument]] = None,
) -> list[TrainResult]:
    """Train one model per (entity table, seed), all runs in lockstep.

    SGD on the per-mention margin loss against all non-gold candidates.
    Each run visits the instances one at a time in the order its seed
    shuffles them (``config.seed`` is not used); each step scores all of
    an instance's negatives at once and applies the summed subgradient of
    its active hinges.  The loss trace holds the full-batch loss evaluated
    after each epoch; the dev trace holds greedy-local dev micro-F1 at the
    same points when dev documents are supplied.

    The R = tables x seeds runs share documents, negatives and step count,
    so one loop steps them all, in speculative blocks of up to 64 steps
    per run (see the module docstring): each block guesses its steps'
    active hinges from its first state, builds the states they lead to
    with a sequential accumulate, tests each step against its own state,
    and each run keeps its steps up to its first wrong guess, redone with
    the tested hinges.  The states, losses and dev F1 are those of taking
    one step at a time, bit for bit, and a run's arithmetic does not
    depend on the other runs, so each result equals a one-run call bit for
    bit.  Results are table-major: run ``t * len(seeds) + s`` is
    (``tables[t]``, ``seeds[s]``).
    """
    if not tables or not seeds:
        raise ValueError("need at least one table and one seed")
    # which mentions count, and their context features, do not depend on the table
    features = _features(_usable(train_docs), words)
    sets = []
    for table in tables:
        instances, skipped = _build_instances(train_docs, table, words, config.train_pairwise, features)
        sets.append(instances)
    N = len(sets[0])
    if not N:
        raise EmptyTrainingError("no training mention has gold among its candidates")
    devs = None
    if dev_docs is not None:
        features = _features(_usable(dev_docs), words)
        devs = [_pack_dev(dev_docs, t, words, features) for t in tables]

    R = len(tables) * len(seeds)
    table_of = [r // len(seeds) for r in range(R)]
    offsets = np.array(table_of)[:, None] * N
    B = np.ones((R, words.dim))
    C = np.ones((R, words.dim))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    sgd = _LockstepSGD(sets, R, config.margin, config.lr)

    def evaluate(r: int) -> tuple[float, Optional[float]]:
        t = table_of[r]
        v, active = _hinges(sets[t], B[r], C[r], config.margin)
        return float(v[active].sum()), devs[t].f1(B[r]) if devs is not None else None

    # per run: (loss, dev F1) before training, then after each epoch
    history = [[evaluate(r)] for r in range(R)]
    for _epoch in range(config.epochs):
        if config.shuffle:
            order = np.stack([rng.permutation(N) for rng in rngs] * len(tables))
        else:
            order = np.broadcast_to(np.arange(N), (R, N))
        sgd.epoch(order + offsets, B, C)
        for r in range(R):
            history[r].append(evaluate(r))

    return [
        TrainResult(
            LinkingModel(words.dim, B[r].copy(), C[r].copy()),
            loss_trace=[loss for loss, _ in epochs],
            dev_f1_trace=[f1 for _, f1 in epochs] if devs is not None else [],
            initial_loss=initial_loss,
            initial_dev_f1=initial_dev_f1,
            skipped_mentions=skipped,
        )
        for r, ((initial_loss, initial_dev_f1), *epochs) in enumerate(history)
    ]


def train(
    train_docs: Sequence[LinkingDocument],
    entities: EmbeddingTable,
    words: EmbeddingTable,
    config: TrainConfig,
    dev_docs: Optional[Sequence[LinkingDocument]] = None,
) -> TrainResult:
    """One run of `train_runs`: ``entities`` with seed ``config.seed``."""
    return train_runs(train_docs, [entities], words, config, [config.seed], dev_docs)[0]


# ---------------------------------------------------------------------------
# Corpus I/O


def save_linking_jsonl(docs: Iterable[LinkingDocument], path) -> None:
    """One JSON document per line: doc_id plus mention records."""
    write_lines(path, (
        json.dumps({
            "doc_id": doc.doc_id,
            "mentions": [
                {"surface": m.surface, "context": m.context, "candidates": m.candidates, "gold": m.gold}
                for m in doc.mentions
            ],
        }, sort_keys=True)
        for doc in docs
    ))


def load_linking_jsonl(path) -> list[LinkingDocument]:
    docs: list[LinkingDocument] = []
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise FormatError("invalid JSON", path=path, line=line_no) from None
        try:
            docs.append(_document_from(record))
        except KeyError as e:
            raise FormatError(f"missing field {e}", path=path, line=line_no) from None
        except FormatError as e:
            raise FormatError(str(e), path=path, line=line_no) from None
    return docs


_JSON_NAMES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


_is_str = str.__instancecheck__


def _checked(value, kind: type, what: str):
    """``value`` if it is a ``kind``; a `FormatError` naming ``what`` otherwise."""
    if not isinstance(value, kind):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise FormatError(f"{what} must be a JSON {_JSON_NAMES[kind]}, not {got}")
    return value


def _document_from(record) -> LinkingDocument:
    """The document of one JSONL record; a `FormatError` names a mistyped field.

    Context tokens are hashed as they are and candidate lists are iterated,
    so a string in place of a list, or a non-string token, would otherwise
    pass as characters or as out-of-vocabulary words.
    """
    _checked(record, dict, "record")
    mentions = []
    for m in _checked(record["mentions"], list, "mentions"):
        _checked(m, dict, "mention")
        gold = m.get("gold")
        if gold is not None:
            _checked(gold, str, "gold")
        context = _checked(m.get("context", []), list, "context")
        # one C-level pass over the tokens; the slow path only names the culprit
        if not all(map(_is_str, context)):
            _checked(next(t for t in context if not _is_str(t)), str, "context token")
        mentions.append(Mention(
            surface=_checked(m["surface"], str, "surface"),
            context=context,
            candidates=[_strip_prior(c) for c in _checked(m["candidates"], list, "candidates")],
            gold=gold,
        ))
    doc_id = _checked(record["doc_id"], str, "doc_id")
    if not mentions:
        raise FormatError(f"document {doc_id!r} has no mentions")
    return LinkingDocument(doc_id, mentions)


def _strip_prior(candidate) -> str:
    """Candidates may arrive as ``[label, prior]`` or as 'label:prior' with a
    prior in [0, 1]; priors are ignored.  Any other ':'-suffix is part of
    the label.  A label that is not a string is a `FormatError`."""
    if isinstance(candidate, (list, tuple)):
        if not candidate:
            raise FormatError("candidate pair must be [label, prior], got []")
        return _checked(candidate[0], str, "candidate label")
    text = _checked(candidate, str, "candidate")
    head, sep, tail = text.rpartition(":")
    if sep and head:
        try:
            prior = float(tail)
        except ValueError:
            return text
        if 0.0 <= prior <= 1.0:  # false for nan
            return head
    return text


def load_aida_tsv(path, window: int = 25) -> list[LinkingDocument]:
    """Load a simplified CoNLL-style linking TSV.

    Lines are either ``-DOCSTART- (<doc_id>)``, a bare token, or a mention
    line ``<token>\\tB\\t<surface>\\t<gold>\\t<cand1,cand2,...>`` with ``I``
    lines continuing a mention.  Context windows take ``window`` tokens from
    each side of the mention, excluding the mention itself.  A gold of
    ``--NME--`` becomes None (out-of-KB).  A negative ``window`` is a `ConfigError`.
    """
    if window < 0:
        raise ConfigError(f"window must be >= 0, got {window}")
    docs: list[LinkingDocument] = []
    doc_id = None
    tokens: list[str] = []
    spans: list[tuple[int, int, str, Optional[str], list[str]]] = []

    def _flush():
        nonlocal tokens, spans
        if doc_id is None:
            return
        mentions = []
        for start, end, surface, gold, cands in spans:
            left = tokens[max(0, start - window) : start]
            right = tokens[end : end + window]
            mentions.append(
                Mention(surface=surface, context=left + right, candidates=cands, gold=gold)
            )
        if mentions:
            docs.append(LinkingDocument(doc_id, mentions))
        tokens, spans = [], []

    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        if line.startswith("-DOCSTART-"):
            _flush()
            doc_id = line[len("-DOCSTART-") :].strip().strip("()") or f"doc{len(docs)}"
            continue
        if doc_id is None:
            raise FormatError("token line before any -DOCSTART-", path=path, line=line_no)
        parts = line.split("\t")
        token = parts[0].lower()
        if len(parts) == 1 or parts[1] == "I":
            tokens.append(token)
            if len(parts) > 1 and spans and spans[-1][1] == len(tokens) - 1:
                span = spans[-1]
                spans[-1] = (span[0], len(tokens), span[2], span[3], span[4])
            continue
        if parts[1] != "B" or len(parts) < 5:
            raise FormatError(
                "expected '<token>\\tB\\t<surface>\\t<gold>\\t<cands>'",
                path=path, line=line_no,
            )
        tokens.append(token)
        gold = parts[3] if parts[3] != "--NME--" else None
        cands = [_strip_prior(c) for c in parts[4].split(",") if c]
        spans.append((len(tokens) - 1, len(tokens), parts[2], gold, cands))
    _flush()
    return docs
