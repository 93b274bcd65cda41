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

Training works on one packed layout, built once per ``train`` call.  For
trainable mention n with context feature f, gold vector g, teacher-forced
pair context p and its negatives padded to M rows (with a mask):

* ``FD[n, m] = (neg_m - g) * f``
* ``PD[n, m] = (neg_m - g) * p``  (only when pairwise terms are trained)

Since every score is linear in its diagonal, the hinge violation of (n, m)
is ``margin - s(g) + s(neg_m) = margin + FD[n, m] @ B + PD[n, m] @ C``, and
its subgradient in (B, C) is (FD[n, m], PD[n, m]).  The per-instance SGD
step (two mat-vecs), the full-batch loss and its subgradient all use this
identity.

Dev mentions with usable gold are packed once as well (features, sorted
candidate vectors, mask, gold index), so dev F1 per epoch is one einsum and
a first-maximum argmax, the same greedy scorer ``infer`` uses.

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

from .embed_io import EmbeddingTable
from .errors import (
    CapacityError,
    DimensionError,
    EmptyTrainingError,
    FormatError,
    InvalidDocumentError,
    NonFiniteError,
    RelationArityError,
)

EXHAUSTIVE_CAPACITY = 10**6


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

    def save(self, path) -> None:
        """Header '<dim> <K>' then B, C, and each relation diagonal as text."""
        lines = [f"{self.dim} {self.K}"]
        for diag in [self.B, self.C, *self.relations]:
            lines.append(" ".join(format(v, ".17g") for v in diag))
        lines.append(self.relation_weighting)
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

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
    """Average the embeddings of in-vocabulary window tokens."""
    acc = np.zeros(words.dim, dtype=np.float64)
    found = 0
    for token in mention.context:
        ref = words.lookup(token)
        if ref is None:
            continue
        acc += ref.values.astype(np.float64)
        found += 1
    vec = acc / found if found else acc
    return ContextFeature(vec, oov_count=len(mention.context) - found)


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


def _context_features(doc: LinkingDocument, words: EmbeddingTable) -> list[ContextFeature]:
    return [context_feature(m, words) for m in doc.mentions]


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
    feats = features or _context_features(doc, words)
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


def _entity_rows(entities: EmbeddingTable, labels: Sequence[str]) -> np.ndarray:
    """float64 rows of ``labels``, shape (len(labels), dim)."""
    return entities.matrix[[entities.index(c) for c in labels]].astype(np.float64)


@dataclass
class _CandidateBlock:
    """Mentions packed for local scoring, candidates in sorted label order."""

    labels: list[list[str]]  # sorted candidate labels per mention
    features: np.ndarray     # (N, d) context features
    vectors: np.ndarray      # (N, M, d) candidate vectors, zero-padded to M
    mask: np.ndarray         # (N, M) True on real candidates


def _pack_candidates(
    mentions: Sequence[Mention], entities: EmbeddingTable, words: EmbeddingTable
) -> _CandidateBlock:
    _check_dims(entities, words)
    labels = [sorted(m.candidates) for m in mentions]
    width = max((len(ls) for ls in labels), default=0)
    features = np.zeros((len(mentions), words.dim))
    vectors = np.zeros((len(mentions), width, entities.dim))
    mask = np.zeros((len(mentions), width), dtype=bool)
    for n, (m, ls) in enumerate(zip(mentions, labels)):
        features[n] = context_feature(m, words).vector
        vectors[n, : len(ls)] = _entity_rows(entities, ls)
        mask[n, : len(ls)] = True
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
    strategy: str = "exhaustive",
    pairwise: str = "diagonal",
) -> list[str]:
    """Pick one candidate per mention.

    ``exhaustive`` maximizes the document score over the full candidate
    product (ties resolve to the lexicographically smallest label tuple);
    ``greedy-local`` takes the per-mention local-score argmax and ignores
    coherence entirely.
    """
    _check_candidates(doc)
    if strategy not in ("exhaustive", "greedy-local"):
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
    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 20
    seed: int = 0
    train_pairwise: bool = False
    shuffle: bool = True


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


def _violations(FD, PD, B, C, margin: float) -> np.ndarray:
    """``margin + FD @ B (+ PD @ C)``: hinge violations of the rows of FD."""
    v = margin + FD @ B
    if PD is not None:
        v += PD @ C
    return v


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

    def instance(self, n: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The unpadded (FD, PD) rows of instance ``n``."""
        m = self.mask[n]
        return self.FD[n, m], None if self.PD is None else self.PD[n, m]


def _build_instances(
    docs: Iterable[LinkingDocument],
    entities: EmbeddingTable,
    words: EmbeddingTable,
    train_pairwise: bool,
) -> tuple[_TrainingSet, int]:
    """Pack the trainable mentions of ``docs``; also return the skipped count.

    Pair contexts are teacher-forced: the sum of the other mentions' usable
    golds over (n - 1).
    """
    _check_dims(entities, words)
    diffs: list[np.ndarray] = []  # (neg - gold) per instance
    feats: list[np.ndarray] = []
    pair_contexts: list[np.ndarray] = []
    skipped = 0
    for doc in docs:
        n = len(doc.mentions)
        gold_vecs = [
            _entity_vector(entities, m.gold) if m.gold_in_candidates() else None
            for m in doc.mentions
        ]
        for i, m in enumerate(doc.mentions):
            if gold_vecs[i] is None:
                skipped += 1
                continue
            negs = [c for c in sorted(m.candidates) if c != m.gold]
            diffs.append(_entity_rows(entities, negs) - gold_vecs[i])
            feats.append(context_feature(m, words).vector)
            others = [g for j, g in enumerate(gold_vecs) if j != i and g is not None]
            if train_pairwise and others:
                pair_contexts.append(np.sum(others, axis=0) / (n - 1))
            else:
                pair_contexts.append(np.zeros(entities.dim))
    width = max((len(d) for d in diffs), default=0)
    FD = np.zeros((len(diffs), width, entities.dim))
    PD = np.zeros_like(FD) if train_pairwise else None
    mask = np.zeros((len(diffs), width), dtype=bool)
    for n, (diff, f, pc) in enumerate(zip(diffs, feats, pair_contexts)):
        FD[n, : len(diff)] = diff * f
        if PD is not None:
            PD[n, : len(diff)] = diff * pc
        mask[n, : len(diff)] = True
    return _TrainingSet(FD, PD, mask), skipped


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
    v = _violations(instances.FD, instances.PD, B, C, margin)
    active = instances.mask & (v > 0.0)
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


def _pack_dev(dev_docs, entities: EmbeddingTable, words: EmbeddingTable) -> _DevSet:
    usable = []
    for doc in dev_docs:
        _check_candidates(doc)
        usable += [m for m in doc.mentions if m.gold_in_candidates()]
    block = _pack_candidates(usable, entities, words)
    gold = np.array([ls.index(m.gold) for ls, m in zip(block.labels, usable)], dtype=np.intp)
    return _DevSet(block, gold)


def train(
    train_docs: Sequence[LinkingDocument],
    entities: EmbeddingTable,
    words: EmbeddingTable,
    config: TrainConfig,
    dev_docs: Optional[Sequence[LinkingDocument]] = None,
) -> TrainResult:
    """SGD on the per-mention margin loss against all non-gold candidates.

    Instances are visited one at a time in a seeded shuffled order; each
    step scores all of the instance's negatives at once and applies the
    summed subgradient of its active hinges.  The loss trace holds the
    full-batch loss evaluated after each epoch; the dev trace holds
    greedy-local dev micro-F1 at the same points when dev documents are
    supplied.
    """
    instances, skipped = _build_instances(
        train_docs, entities, words, config.train_pairwise
    )
    if not len(instances):
        raise EmptyTrainingError("no training mention has gold among its candidates")
    dev = _pack_dev(dev_docs, entities, words) if dev_docs is not None else None

    model = LinkingModel.identity(entities.dim)
    rng = np.random.default_rng(config.seed)

    def full_loss() -> float:
        return margin_loss_and_gradient(
            instances, model.B, model.C, config.margin, config.train_pairwise
        )[0]

    initial_loss = full_loss()
    initial_dev = dev.f1(model.B) if dev is not None else None

    steps = [instances.instance(n) for n in range(len(instances))]
    loss_trace: list[float] = []
    dev_trace: list[float] = []
    for _epoch in range(config.epochs):
        order = rng.permutation(len(instances)) if config.shuffle else range(len(instances))
        for n in order:
            fd, pd = steps[n]
            active = _violations(fd, pd, model.B, model.C, config.margin) > 0.0
            if np.count_nonzero(active):
                model.B -= config.lr * (active @ fd)
                if pd is not None:
                    model.C -= config.lr * (active @ pd)
        loss_trace.append(full_loss())
        if dev is not None:
            dev_trace.append(dev.f1(model.B))

    return TrainResult(model, loss_trace, dev_trace, initial_loss, initial_dev, skipped)


# ---------------------------------------------------------------------------
# Corpus I/O


def save_linking_jsonl(docs: Iterable[LinkingDocument], path) -> None:
    """One JSON document per line: doc_id plus mention records."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {
                "doc_id": doc.doc_id,
                "mentions": [
                    {
                        "surface": m.surface,
                        "context": m.context,
                        "candidates": m.candidates,
                        "gold": m.gold,
                    }
                    for m in doc.mentions
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_linking_jsonl(path) -> list[LinkingDocument]:
    docs: list[LinkingDocument] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise FormatError("invalid JSON", path=path, line=line_no) from None
            try:
                mentions = [
                    Mention(
                        surface=m["surface"],
                        context=list(m.get("context", [])),
                        candidates=[_strip_prior(c) for c in m["candidates"]],
                        gold=m.get("gold"),
                    )
                    for m in record["mentions"]
                ]
                docs.append(LinkingDocument(record["doc_id"], mentions))
            except KeyError as e:
                raise FormatError(f"missing field {e}", path=path, line=line_no) from None
    return docs


def _strip_prior(candidate) -> str:
    """Candidates may arrive as ``[label, prior]`` or as 'label:prior' with a
    prior in [0, 1]; priors are ignored.  Any other ':'-suffix is part of
    the label."""
    if isinstance(candidate, (list, tuple)):
        return str(candidate[0])
    text = str(candidate)
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
    ``--NME--`` becomes None (out-of-KB).
    """
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

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
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
