"""Desk-scale entity-linking scorer: bilinear scores, inference, training.

Score functions, all with diagonal parameter matrices stored as length-d
vectors, in a document of n mentions:

* local:     psi(e, c)    = sum_j e[j] * B[j] * f(c)[j]
* pairwise:  phi(ei, ej)  = (1 / (n - 1)) * sum_j ei[j] * C[j] * ej[j]
* relation:  phi_K(ei,ej) = sum_k w_k * sum_j ei[j] * Rk[j] * ej[j]

Training runs SGD on a max-margin ranking loss over each mention's non-gold
candidates.  For trainable mention n with context feature f, gold vector g,
teacher-forced pair context p and its negatives padded to M rows (with a mask):

* ``FD[n, m] = (neg_m - g) * f``
* ``PD[n, m] = (neg_m - g) * p``  (only when pairwise terms are trained)

Every score is linear in its diagonal, so the hinge violation of (n, m) is
``margin - s(g) + s(neg_m) = margin + FD[n, m] @ B + PD[n, m] @ C``, and its
subgradient in (B, C), exact away from hinge kinks, is (FD[n, m], PD[n, m]).
The SGD step, the full-batch loss and its subgradient all use this identity.

Training, dev F1 and inference read one packed layout, `_CandidateBlock`.
Every packed path keeps the bits of its scalar reference: ``document_score``
and the pairwise functions for scores and answers, one SGD step at a time
for training.  The function that fixes a shape or an order says why.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from ._text import COUNT_FIELD, write_lines
# the bench takes the JSONL reader and writer from this module
from .corpus import LinkingDocument, Mention, load_linking_jsonl, save_linking_jsonl  # noqa: F401
from .embed_io import EmbeddingTable, row_means
from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    EmptyTrainingError,
    FormatError,
    InvalidDocumentError,
    MissingLabelError,
    NonFiniteError,
    RelationArityError,
)

EXHAUSTIVE_CAPACITY = 10**6
STRATEGIES = ("exhaustive", "greedy-local")
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

    def lines(self) -> list[str]:
        """Header '<dim> <K>' then B, C, and each relation diagonal as text."""
        diags = [" ".join(format(v, ".17g") for v in diag) for diag in [self.B, self.C, *self.relations]]
        return [f"{self.dim} {self.K}", *diags, self.relation_weighting]

    def save(self, path) -> None:
        write_lines(path, self.lines())

    @classmethod
    def load(cls, path, relations: bool = True) -> "LinkingModel":
        """Read a model file; every error is a `FormatError` naming the file.
        With ``relations=False``, a model with relation diagonals (K >= 1) is
        a `RelationArityError` naming the file, for callers that cannot score them."""
        data = Path(path).read_bytes()
        try:
            # universal newlines, as every text input: str.splitlines would
            # also break at \x0b, \x0c and \x1c-\x1e
            lines = [line.rstrip("\n") for line in io.StringIO(data.decode("ascii"), newline=None)]
        except UnicodeDecodeError as e:
            line_no = data.count(b"\n", 0, e.start) + 1
            raise FormatError(f"non-ASCII byte 0x{data[e.start]:02x}", path=path, line=line_no) from None
        while lines and not lines[-1].strip():  # trailing blank lines are skipped, as in every text input
            lines.pop()
        if not lines:
            raise FormatError("empty model file", path=path)
        head = lines[0].split()
        if len(head) != 2 or not all(COUNT_FIELD.fullmatch(p) for p in head):
            raise FormatError(f"malformed model header {lines[0]!r}", path=path)
        dim, K = int(head[0]), int(head[1])
        if dim < 1:
            raise FormatError(f"model header {lines[0]!r} needs dim >= 1", path=path)
        if K and not relations:
            raise RelationArityError(
                f"model has K = {K} relation diagonals; link infer, link score and eval score none [{path}]")
        need = 1 + 2 + K
        if len(lines) < need:
            raise FormatError(f"expected {need} lines, found {len(lines)}", path=path)
        if len(lines) > need + 1:
            raise FormatError("line after the weighting line", path=path, line=need + 2)
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
        weighting = lines[need].strip() if len(lines) > need else "uniform"
        if weighting not in RELATION_WEIGHTINGS:
            raise FormatError(f"unknown relation weighting {weighting!r}", path=path, line=need + 1)
        try:
            return cls(dim, diags[0], diags[1], diags[2:], weighting)
        except FormatError as e:
            # non-finite values: name the file they came from
            raise type(e)(str(e), path=path) from None


def context_feature(mention: Mention, words: EmbeddingTable) -> np.ndarray:
    """The (d,) float64 mean of the in-vocabulary window tokens' vectors, zero
    when none is in ``words``: `_features` of one mention."""
    return _features([mention], words)[0]


def local_score(entity_vec, B, f) -> float:
    """sum_j e[j] * B[j] * f[j]."""
    e = np.asarray(entity_vec, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    fv = np.asarray(f, dtype=np.float64)
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


def document_score(
    assignment: Sequence[str],
    doc: LinkingDocument,
    model: LinkingModel,
    entities: EmbeddingTable,
    words: EmbeddingTable,
    features: Optional[Sequence[np.ndarray]] = None,
    pairwise: str = "diagonal",
) -> float:
    """Sum of local scores plus pairwise scores over unordered mention pairs;
    ``features`` are the mentions' context features, (d,) rows or one (n, d)
    array.  An assigned label missing from ``entities`` is a
    `MissingLabelError` naming it, its mention and ``doc``."""
    n = len(doc.mentions)
    if len(assignment) != n:
        raise InvalidDocumentError(
            f"assignment length {len(assignment)} != {n} mentions"
        )
    if pairwise not in ("diagonal", "relations"):
        raise ValueError(f"unknown pairwise mode {pairwise!r}")
    if pairwise == "relations" and model.K < 1:
        raise RelationArityError("model has no relations")
    feats = _features(doc.mentions, words) if features is None else features
    rows = [entities._index.get(label) for label in assignment]
    if None in rows:
        i = rows.index(None)
        raise MissingLabelError(f"label {assignment[i]!r} not in table: mention {i} of {doc.doc_id!r}")
    vecs = entities.matrix[rows].astype(np.float64)
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
        raise DimensionError(f"entity dimension {entities.dim} != word dimension {words.dim}")


@dataclass
class _CandidateBlock:
    """Mentions packed for scoring by `_pack_candidates`."""

    labels: list[list[str]]  # sorted candidate labels per mention
    features: np.ndarray     # (N, d) context features
    vectors: np.ndarray      # (S, d) float64 candidate rows, in mention order
    offsets: list[int]       # mention n's rows are offsets[n]:offsets[n + 1]

    # derived once per block, since dev F1 scores the same block every epoch
    @functools.cached_property
    def row_features(self) -> np.ndarray:
        """(S, d) each row's mention feature."""
        return self.features.repeat(list(map(len, self.labels)), axis=0)

    @functools.cached_property
    def padded(self) -> np.ndarray:
        """(N, M) index of each mention's rows, padded with S, the index one
        past the last row; M >= 1, so a block of no mention has no picks."""
        starts, counts = np.array(self.offsets[:-1], dtype=np.intp), np.diff(self.offsets)
        columns = np.arange(counts.max(initial=1))
        return np.where(columns < counts[:, None], starts[:, None] + columns, self.offsets[-1])

    def gold_positions(self, mentions: Sequence[Mention]) -> np.ndarray:
        """(N,) index of each mention's gold in its sorted labels; ``mentions`` are the block's."""
        return np.array([ls.index(m.gold) for ls, m in zip(self.labels, mentions)], dtype=np.intp)


def _features(mentions: Sequence[Mention], words: EmbeddingTable) -> np.ndarray:
    """(N, d) context features of ``mentions``: the mean of each context's
    in-vocabulary word rows, zero when none is in ``words``.  The rows are
    gathered, and ``embed_io.row_means``, the package's one mean rule, gives
    each mean the bits of a per-token ``acc += row`` loop."""
    features = np.zeros((len(mentions), words.dim))
    row_of = words._index.get
    rows = [[i for i in map(row_of, m.context) if i is not None] for m in mentions]
    for part, means, _counts in row_means(words.matrix, rows):
        features[part] = means
    return features


def _candidate_rows(
    docs: Sequence[LinkingDocument], entities: EmbeddingTable, usable: bool = False
) -> tuple[list[list[str]], list[int]]:
    """Each mention's candidates in sorted label order, and their rows in
    ``entities`` one mention after another, over the mentions of ``docs``
    (only those of `_usable`, with ``usable``).  A candidate missing from
    ``entities`` is a `MissingLabelError` naming it, its mention and its
    document."""
    labels, rows, row_of = [], [], entities._index.__getitem__
    for doc in docs:
        for i, m in enumerate(doc.mentions):
            if not usable or m.gold_in_candidates():
                labels.append(ls := sorted(m.candidates))
                try:
                    rows += map(row_of, ls)
                except KeyError as e:
                    raise MissingLabelError(f"label {e.args[0]!r} not in table: mention {i} of {doc.doc_id!r}") from None
    return labels, rows


def _pack_candidates(
    docs: Sequence[LinkingDocument],
    entities: EmbeddingTable,
    words: EmbeddingTable,
    features: Optional[np.ndarray] = None,
    usable: bool = False,
) -> _CandidateBlock:
    """Pack the mentions of ``docs`` (only those of `_usable`, with
    ``usable``) into the one layout of training, dev F1 and inference: the
    sorted labels, the (N, d) features, and the (S, d) float64 rows of every
    mention's candidates one after another (S = sum k_i), taken with one
    ``take``.  ``features`` are the mentions' context features, if known."""
    _check_dims(entities, words)
    if features is None:
        features = _features(_usable(docs) if usable else [m for doc in docs for m in doc.mentions], words)
    labels, rows = _candidate_rows(docs, entities, usable)
    vectors = entities.matrix.take(rows, axis=0).astype(np.float64)
    return _CandidateBlock(labels, features, vectors, [0, *itertools.accumulate(map(len, labels))])


def _local_scores(block: _CandidateBlock, B: np.ndarray) -> np.ndarray:
    """(..., S) local score of every packed candidate, in the block's row
    order, under B given as one state (d,) or a stack of states (k, d): one
    ``einsum``, with the bits of a zero-padded ``einsum("nmd,d,nd->nm")``
    for each state, since it runs the same sum of products for each."""
    return np.einsum("md,...d,md->...m", block.vectors, B, block.row_features)


def _greedy_picks(block: _CandidateBlock, B: np.ndarray) -> np.ndarray:
    """(..., N) index of each mention's first candidate with the highest
    local score under B, one state (d,) or a stack (k, d)."""
    local = _local_scores(block, B)
    # the pads of the padded index read -inf; argmax returns the first
    # maximum, so ties go to the smallest label
    local = np.concatenate((local, np.full((*local.shape[:-1], 1), -np.inf)), axis=-1)
    return local.take(block.padded, axis=-1).argmax(axis=-1)


def _relation_blocks(
    V: np.ndarray, rows: Sequence[slice], pairs: Sequence[tuple[int, int]], model: LinkingModel
) -> list[np.ndarray]:
    """Each pair's (k_i, k_j) relation block, weighted as in relation_weights.

    Every pair's per-relation forms ``(V_i[:, None] * V_j[None]) @ R`` go to
    one (sum k_i * k_j, K) buffer, and softmax weighting runs once over it for
    the whole document.  Uniform weighting stays one (k_i, k_j, K) @ (K,)
    mat-vec per pair: over the whole buffer, BLAS groups the rows differently
    and the sums round differently.
    """
    R = np.stack(model.relations).T
    sizes = [(rows[i].stop - rows[i].start, rows[j].stop - rows[j].start) for i, j in pairs]
    starts = [0, *itertools.accumulate(a * b for a, b in sizes)]
    S = np.empty((starts[-1], model.K))
    forms = [S[start : start + a * b].reshape(a, b, model.K) for (a, b), start in zip(sizes, starts)]
    for (i, j), out in zip(pairs, forms):
        # the (k_i, k_j, d) @ (d, K) shape of one pair; a 2-D product rounds differently
        np.matmul(V[rows[i], None] * V[None, rows[j]], R, out=out)
    if model.relation_weighting == "uniform":
        uniform = np.full(model.K, 1.0 / model.K)
        return [out @ uniform for out in forms]
    # the row maxima one column at a time: a max is exact, and numpy's reduce
    # over a short last axis costs far more than K - 1 column calls
    w = np.exp(S - functools.reduce(np.maximum, S.T)[:, None])
    w /= w.sum(axis=-1, keepdims=True)
    weighted = (w * S).sum(axis=-1)
    return [weighted[start : start + a * b].reshape(a, b) for (a, b), start in zip(sizes, starts)]


def _add_pair(score: np.ndarray, pair: np.ndarray, i: int, j: int) -> None:
    """``score`` += the (k_i, k_j) block ``pair`` on axes i and j, in place.

    Where the axes before i broadcast, the block is spread over axes i.. once
    and added as one contiguous run per prefix, so numpy's inner loop is
    long; each score still takes the same one addition.
    """
    shape = score.shape
    block = pair.reshape(shape[i], *[1] * (j - i - 1), shape[j], *[1] * (len(shape) - 1 - j))
    tail = shape[i:]
    if i == 0 or math.prod(tail) == pair.size:
        score += block
        return
    run = np.empty(tail)
    run[...] = block
    prefixes = score.reshape(-1, run.size)
    prefixes += run.reshape(-1)


def _score_tensor(block: _CandidateBlock, model: LinkingModel, pairwise: str) -> np.ndarray:
    """(k_1, ..., k_n) float64 document score of every candidate assignment
    of ``block``, 8 MB at ``EXHAUSTIVE_CAPACITY``.

    Each score is ``0.0 + l_1 + ... + l_n`` plus the pair terms in
    ``itertools.combinations`` order, the additions of a zero tensor that
    takes every local vector and then every pair block in turn; the tensor
    reaches full size only at the last mention.  A diagonal pair block is one
    (k_i, d) @ (d, k_j) product: one product over all candidates rounds
    differently.
    """
    rows = [slice(a, b) for a, b in itertools.pairwise(block.offsets)]
    n = len(rows)
    local = _local_scores(block, model.B)
    # one axis at a time: after step i, score[a_1, ..., a_i] = 0.0 + l_1 + ... + l_i
    score = 0.0 + local[rows[0]]
    for i in range(1, n):
        score = score[..., None] + local[rows[i]]
    pairs = list(itertools.combinations(range(n), 2))
    V = block.vectors
    if pairwise == "diagonal":
        # V * C is taken once per document, not once per pair
        VC = V * model.C
        blocks = [VC[rows[i]] @ V[rows[j]].T / (n - 1) for i, j in pairs]
    else:
        blocks = _relation_blocks(V, rows, pairs, model)
    for (i, j), pair in zip(pairs, blocks):
        _add_pair(score, pair, i, j)
    return score


def infer(
    doc: LinkingDocument,
    model: LinkingModel,
    entities: EmbeddingTable,
    words: EmbeddingTable,
    strategy: str = "greedy-local",
    pairwise: str = "diagonal",
) -> list[str]:
    """Pick one candidate per mention of ``doc``, which is checked and then
    packed alone.

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
    if strategy == "exhaustive" and pairwise == "relations" and model.K < 1:
        raise RelationArityError("model has no relations")
    if strategy == "exhaustive" and math.prod(len(m.candidates) for m in doc.mentions) > EXHAUSTIVE_CAPACITY:
        raise CapacityError(f"candidate product exceeds {EXHAUSTIVE_CAPACITY}; use strategy='greedy-local'")
    block = _pack_candidates([doc], entities, words)
    if strategy == "greedy-local":
        return [ls[p] for ls, p in zip(block.labels, _greedy_picks(block, model.B))]
    score = _score_tensor(block, model, pairwise)
    # the C-order first maximum is the lexicographically smallest best tuple
    best = np.unravel_index(score.argmax(), score.shape)
    return [ls[k] for ls, k in zip(block.labels, best)]


@dataclass
class TrainConfig:
    """SGD settings.  Building one with a non-finite ``margin`` or ``lr``, or
    with a negative ``epochs`` or ``seed``, raises a `ConfigError`."""

    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 20
    seed: int = 0
    train_pairwise: bool = False

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
    trainable = _usable(docs)
    block = _pack_candidates(docs, entities, words, features, usable=True)
    features, S = block.features, len(block.vectors)
    gold_at = block.gold_positions(trainable)[:, None]
    columns = np.arange(block.padded.shape[1] - 1)
    # each mention's gold row, then its negatives in sorted label order: the
    # gold's column skipped, the pads (index S) clipped to the last row
    index = np.take_along_axis(block.padded, np.hstack((gold_at, columns + (columns >= gold_at))), axis=1)
    gathered = block.vectors.take(index, axis=0, mode="clip")
    del block  # the gather holds every row the instances need
    gold, diff, mask = gathered[:, :1], gathered[:, 1:], index[:, 1:] < S
    diff -= gold  # `where` skips the padding rows
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
                # row i: the document's golds but its own, in order; a reduce
                # along that axis, not the innermost, adds them in sequence
                others = np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])
                np.add.reduce(gold[n + others, 0], axis=1, out=pair[n : n + k])
                pair[n : n + k] /= len(doc.mentions) - 1
                paired[n : n + k] = True
            n += k
        PD = np.zeros_like(diff)
        np.multiply(diff, pair[:, None], out=PD, where=(mask & paired[:, None])[..., None])
    skipped = sum(len(doc.mentions) for doc in docs) - len(trainable)
    return _TrainingSet(FD, PD, mask), skipped


def _hinges(
    instances: _TrainingSet, B: np.ndarray, C: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """(..., N, M) hinge violations of every instance and the mask of active
    ones, under B and C given as one state (d,) or a stack (k, d); C counts
    only if ``instances`` have pairwise terms.  Each state's products are
    (M, d) @ (d, 1) mat-vecs, with the bits of ``FD @ b``; IEEE addition
    commutes, so the margin may come second."""
    v = np.matmul(instances.FD, B[..., None, :, None])[..., 0]
    v += margin
    if instances.PD is not None:
        v += np.matmul(instances.PD, C[..., None, :, None])[..., 0]
    return v, instances.mask & (v > 0.0)


def margin_loss_and_gradient(
    instances: _TrainingSet,
    B: np.ndarray,
    C: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Full-batch hinge loss and its subgradient w.r.t. the B and C diagonals.

    C's subgradient is zero unless ``instances`` were built with pairwise terms.
    """
    v, active = _hinges(instances, B, C, margin)
    gB = instances.FD[active].sum(axis=0)
    gC = instances.PD[active].sum(axis=0) if instances.PD is not None else np.zeros_like(C)
    return float(v[active].sum()), gB, gC


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

    SGD is sequential, since a step's active hinges depend on the diagonals
    the step before left, but at a small step size they seldom change within
    a few dozen steps, so a block takes up to ``_BLOCK`` steps per run.  Each
    run steps through all its epochs as one stream, at its own pace, so a
    block may cross an epoch end.  The run's state at that end comes from
    the block's chain: with ``i`` of its steps before the end and ``j`` its
    first wrong guess, it is ``Bs[i]`` if ``i <= j``, a state that is exact,
    and the block's final B if ``i == j + 1``, right after the redone step.
    C comes from ``Cs`` the same way, or is the run's unchanged C when
    pairwise terms are not trained (``Cs`` is then ``Bs``).  The work
    arrays are allocated once: allocated afresh, arrays this large are
    handed back to the OS when freed and fault in again on every block.
    """

    def __init__(self, sets: Sequence[_TrainingSet], seeds: Sequence[int], margin: float, lr: float):
        # table t's instance n is row t * N + n; the last row is zero, and a
        # step on it changes nothing
        zero = np.zeros((1, *sets[0].FD.shape[1:]))
        self.FD = np.concatenate([s.FD for s in sets] + [zero])
        self.PD = np.concatenate([s.PD for s in sets] + [zero]) if sets[0].PD is not None else None
        self.margin, self.lr, self.N = margin, lr, len(sets[0])
        # run t * len(seeds) + s steps on table t's rows, in the orders a one-run call with seed s draws
        self.rngs = [np.random.default_rng(s) for _ in sets for s in seeds]
        self.starts = [t * self.N for t in range(len(sets)) for _ in seeds]
        R = len(self.rngs)
        self.runs = np.arange(R)
        self.F = np.empty((R, _BLOCK, *zero.shape[1:]))
        self.P = np.empty_like(self.F) if self.PD is not None else None
        # the diagonals before each step of a block and after its last, step-major
        self.Bs = np.empty((_BLOCK + 1, R, zero.shape[2]))
        self.Cs = np.empty_like(self.Bs) if self.PD is not None else self.Bs

    def run(self, epochs: int, B: np.ndarray, C: np.ndarray) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Run r steps through ``epochs`` epochs of its table's N rows in place
        on B[r] and C[r], at its own pace, in an order its generator draws
        afresh each epoch.  Yield ``(r, e, b, c)``, run r's diagonals after
        its epoch e: every run's initial state (e = 0) first, then each run's
        epoch ends in order.  ``b`` and ``c`` are views, valid until the next
        item is asked for.
        """
        R, N, zero = len(B), self.N, len(self.FD) - 1
        for r in range(R):
            yield r, 0, B[r], C[r]
        # each run holds the epoch it is in and every one a block from there
        # can reach; past its last epoch it holds the zero row
        held = 1 - (1 - _BLOCK) // N
        steps = np.empty((R, held * N), dtype=np.intp)
        blocks = np.lib.stride_tricks.sliding_window_view(steps, _BLOCK, axis=1)
        first = [0] * R  # the epoch each run's steps start with

        def hold(r: int, start: int) -> None:
            for e in range(start, held):
                steps[r, e * N : (e + 1) * N] = (
                    self.rngs[r].permutation(N) + self.starts[r] if first[r] + e < epochs else zero
                )

        for r in range(R):
            hold(r, 0)
        at = np.zeros(R, dtype=np.intp)  # each run's next step in its steps
        while min(first) < epochs:
            taken = self._block(blocks[self.runs, at], B, C)
            at += taken
            if at.max() < N:
                continue
            for r in np.flatnonzero(at >= N):
                start, gone = at[r] - taken[r], at[r] // N
                for e in range(first[r] + 1, min(first[r] + gone, epochs) + 1):
                    # the block's steps before epoch e's end
                    i = (e - first[r]) * N - start
                    if i == taken[r]:
                        yield r, e, B[r], C[r]
                    else:
                        yield r, e, self.Bs[i, r], C[r] if self.PD is None else self.Cs[i, r]
                # drop the epochs run r has left, and hold as many new ones
                steps[r, : (held - gone) * N] = steps[r, gone * N :]
                first[r] += gone
                hold(r, held - gone)
                at[r] -= gone * N

    def _block(self, steps: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Take SGD steps on the rows ``steps`` (R, k) in place on B and C
        (R, d); return how many steps each run took (at least one).

        Every step's active hinges are guessed from the block's first state
        with one mat-vec per run, and each step is then tested against the
        state the guesses lead to.  A run keeps its steps before its first
        wrong guess and redoes that step with its tested hinges.  Kept states
        are those of one step at a time, bit for bit: every update and test is
        the (1, M) @ (M, d) or (M, d) @ (d, 1) ``matmul`` slice of one step,
        and `_states` chains the updates as ``D -= X`` does.  Only the guess
        may round differently, and a wrong guess costs steps, not bits.
        """
        F, P, margin, lr = self.F, self.P, self.margin, self.lr
        # the rows are in range; 'raise' would copy them through a temporary
        self.FD.take(steps, axis=0, out=F, mode="clip")
        if P is not None:
            self.PD.take(steps, axis=0, out=P, mode="clip")
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
    Each run visits the instances one at a time, in an order its seed draws
    afresh each epoch (``config.seed`` is not used); each step scores all of
    an instance's negatives at once and applies the summed subgradient of
    its active hinges.  The loss trace holds the full-batch loss evaluated
    after each epoch; the dev trace holds dev micro-F1 at the same points
    when dev documents are supplied: the greedy-local picks of
    `infer` on the dev mentions whose gold is among their
    candidates, 0.0 when there is none.

    The R = tables x seeds runs share documents, negatives and step count,
    so `_LockstepSGD` steps them all in one loop, each run through all its
    epochs as one stream, with its own generator drawing each epoch's order
    when its buffer needs it.  The loss and dev F1 of an epoch are those of
    the run's state at that epoch's end, which may lie inside a block.  Each
    state the loop yields, the initial one first, goes to row ``e % size``
    of its run's buffer of ``size = min(d, epochs + 1)`` rows, which is
    scored with one `_hinges` and one `_greedy_picks` call when that row is
    its last or e the last epoch, so a batch's (states, N, M) loss rows are
    never larger than the (N, M, d) hinge rows.  Each epoch's loss is still
    summed alone, as `margin_loss_and_gradient` sums one state's.  A run's
    arithmetic does not depend on the other runs, so each result equals a
    one-run call bit for bit.  Results are table-major: run
    ``t * len(seeds) + s`` is (``tables[t]``, ``seeds[s]``).
    """
    if not tables or not seeds:
        raise ValueError("need at least one table and one seed")
    # which mentions count, and their context features, do not depend on the table
    features = _features(_usable(train_docs), words)
    built = [_build_instances(train_docs, t, words, config.train_pairwise, features) for t in tables]
    sets, skipped = [instances for instances, _ in built], built[0][1]
    N = len(sets[0])
    if not N:
        raise EmptyTrainingError("no training mention has gold among its candidates")
    devs = None
    if dev_docs is not None:
        for doc in dev_docs:
            _check_candidates(doc)
        usable = _usable(dev_docs)
        features = _features(usable, words)
        devs = [_pack_candidates(dev_docs, t, words, features, usable=True) for t in tables]
        # sorted candidate labels do not depend on the table
        gold = devs[0].gold_positions(usable)

    B = np.ones((len(tables) * len(seeds), words.dim))
    C = np.ones_like(B)
    sgd = _LockstepSGD(sets, seeds, config.margin, config.lr)
    # each run's states not yet scored: state e is row e % size of its buffer
    size = min(words.dim, config.epochs + 1)
    Bk, Ck = np.empty((2, len(B), size, words.dim))
    # per run: (loss, dev F1) before training, then after each epoch
    history = [[] for _ in B]
    for r, e, b, c in sgd.run(config.epochs, B, C):
        k = e % size + 1
        Bk[r, k - 1], Ck[r, k - 1] = b, c
        if k < size and e < config.epochs:
            continue
        t = r // len(seeds)
        v, active = _hinges(sets[t], Bk[r, :k], Ck[r, :k], config.margin)
        # each epoch's loss summed alone, as the pairwise sum of one state's terms
        losses = [float(v[i][active[i]].sum()) for i in range(k)]
        f1s = [None] * k
        if devs is not None:
            picks = _greedy_picks(devs[t], Bk[r, :k])
            # greedy-local micro-F1, plain accuracy since every mention gets a pick; 0.0 with none
            f1s = [int(hits) / max(len(gold), 1) for hits in np.count_nonzero(picks == gold, axis=1)]
        history[r].extend(zip(losses, f1s))

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
