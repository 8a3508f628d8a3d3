"""Linear-chain CRF: lattices, inference, and L2-regularized training.

The score of a label sequence is the sum of per-position unary feature
weights plus label-bigram transition weights; probabilities come from
normalizing over all sequences, computed by a forward-backward pass scaled
in probability space.  Viterbi decoding stays in log space, and so does
normalisation whenever the scores spread too far for the scaled pass to
keep every path above underflow.  Training maximizes the conditional
log-likelihood minus sum(w^2)/(2*rho^2) by batch gradient ascent with a
backtracking (Armijo) line search from zero initialization, so identical
inputs always produce bit-identical weights.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError, check_int
from .features import LABELS, TokenRecord
from .templates import Template, expand_macros

WeightKey = tuple[str, str]  # (feature string, label) or (label_prev, label_cur)


@dataclass(frozen=True)
class LabelSet:
    """The tag inventory, always ``features.LABELS`` (O, B-MWE, I-MWE)."""

    labels = LABELS  # not a field: no other inventory can be built

    def __len__(self) -> int:
        return len(LABELS)

    @staticmethod
    def index(label: str) -> int:
        try:
            return LABELS.index(label)
        except ValueError:
            raise InputError(f"label {label!r} not in label set {LABELS}") from None


@dataclass(frozen=True)
class TrainConfig:
    rho: float = 10.0
    max_iterations: int = 200
    gradient_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise InputError(f"rho must be finite and positive, got {self.rho}")
        check_int(self.max_iterations, "max_iterations")
        if self.max_iterations < 1:
            raise InputError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise InputError(
                f"gradient_tolerance must be finite and positive, got {self.gradient_tolerance}"
            )


@dataclass(frozen=True)
class TrainReport:
    """Why and where one fit stopped.

    ``stop_reason`` is ``tolerance`` (the gradient's inf-norm fell below
    ``gradient_tolerance``), ``max_iterations``, or ``line_search_collapse``
    (no step down to 1e-15 raised the objective enough).  ``iterations``
    counts accepted steps.  ``gradient_norm`` is the inf-norm of the last
    gradient computed: at the final weights, except after
    ``max_iterations``, where it is the gradient the last step followed.
    ``evaluations`` counts objective evaluations, one forward pass each."""

    iterations: int
    stop_reason: str
    objective: float
    gradient_norm: float
    evaluations: int


_report_sinks: list[list[TrainReport]] = []


@contextmanager
def training_reports() -> Iterator[list[TrainReport]]:
    """Collect the TrainReport of every fit that finishes inside the block,
    in the order they finish; ``train`` and ``train_and_decode`` keep their
    return values, so this is how a caller learns why training stopped."""
    sink: list[TrainReport] = []
    _report_sinks.append(sink)
    try:
        yield sink
    finally:
        _report_sinks.remove(sink)


@dataclass(frozen=True)
class CrfModel:
    label_set: LabelSet
    template: Template
    weights: dict[WeightKey, float]
    rho: float = TrainConfig.rho


@dataclass(frozen=True, eq=False)
class Lattice:
    """Per-sentence scores: log_unary is (T, L), log_transition is (L, L)."""

    log_unary: np.ndarray
    log_transition: np.ndarray

    def __post_init__(self) -> None:
        if self.log_unary.ndim != 2 or self.log_unary.shape[0] < 1:
            raise InputError("log_unary must be (T, L) with T >= 1")
        L = self.log_unary.shape[1]
        if self.log_transition.shape != (L, L):
            raise InputError("log_transition must be (L, L)")
        if not (np.isfinite(self.log_unary).all() and np.isfinite(self.log_transition).all()):
            raise InputError("lattice entries must be finite")


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def build_lattice(model: CrfModel, rows: Sequence[TokenRecord]) -> Lattice:
    """Score one sentence through the batch core: compile it against its own
    feature strings, look each string's weights up once, and sum the rows.
    Labels are never scored, so unlabeled rows score like labeled ones."""
    comp, wu, wt = _bind(model, [rows])
    return Lattice(log_unary=_unary_batch(wu, comp)[0], log_transition=wt)


def _as_batch(lattice: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A lattice as a batch of one: unary (1, T, L), transitions, full mask."""
    e = lattice.log_unary[None]
    return e, lattice.log_transition, np.ones(e.shape[:2], dtype=bool)


def log_partition(lattice: Lattice) -> float:
    """Log of the sum of exp(score) over every label sequence."""
    return float(_forward(*_as_batch(lattice)).log_z[0])


def sequence_score(lattice: Lattice, indices: Sequence[int]) -> float:
    T, L = lattice.log_unary.shape
    if len(indices) != T:
        raise InputError(f"expected {T} labels, got {len(indices)}")
    for i in indices:
        check_int(i, "label index")
    if any(not 0 <= i < L for i in indices):
        raise InputError("label index out of range")
    path = np.asarray(indices, dtype=np.intp)
    unary = lattice.log_unary[np.arange(T), path].sum()
    return float(unary) + float(lattice.log_transition[path[:-1], path[1:]].sum())


def sequence_log_prob(
    model: CrfModel, rows: Sequence[TokenRecord], labels: Sequence[str]
) -> float:
    if len(labels) != len(rows):
        raise InputError(f"sentence has {len(rows)} tokens but {len(labels)} labels")
    lattice = build_lattice(model, rows)
    indices = [LabelSet.index(lab) for lab in labels]
    return sequence_score(lattice, indices) - log_partition(lattice)


def decode_lattice(lattice: Lattice) -> list[int]:
    """Viterbi path as label indices; ties resolve to the lowest index."""
    return _viterbi_batch(*_as_batch(lattice))[0]


def viterbi_decode(model: CrfModel, rows: Sequence[TokenRecord]) -> list[str]:
    indices = decode_lattice(build_lattice(model, rows))
    return [LABELS[i] for i in indices]


# The most cells, sentences times the longest length, one decode_sentences
# batch pads out to; a longer sentence is decoded on its own.
_TAG_CELLS = 1 << 14


def decode_sentences(
    model: CrfModel, sentences: Sequence[Sequence[TokenRecord]]
) -> list[list[str]]:
    """Each sentence's viterbi_decode labels, in input order.  Sentences are
    stably sorted by length and cut into consecutive runs within _TAG_CELLS,
    each bound and decoded as one batch.  Weight rows are looked up by
    feature string and Viterbi reduces nothing across sentences, so a
    sentence's labels do not depend on its run."""
    lengths = [len(rows) for rows in sentences]
    if 0 in lengths:
        raise InputError(f"sentence {lengths.index(0) + 1} is empty")
    order = sorted(range(len(sentences)), key=lengths.__getitem__)
    labels: list[list[str]] = [[] for _ in sentences]
    start = 0
    while start < len(order):
        stop = start + 1  # sorted, so each run's longest sentence is its last
        while stop < len(order) and (stop + 1 - start) * lengths[order[stop]] <= _TAG_CELLS:
            stop += 1
        run = order[start:stop]
        comp, wu, wt = _bind(model, [sentences[i] for i in run])
        for i, path in zip(run, _viterbi_batch(_unary_batch(wu, comp), wt, comp.mask)):
            labels[i] = [LABELS[j] for j in path]
        start = stop
    return labels


def marginals(lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Posterior node marginals (T, L) and edge marginals (T-1, L, L)."""
    node, edge = _posteriors(*_as_batch(lattice))
    return node[0], edge[0]


# ---------------------------------------------------------------------------
# Compiled batch core: one scoring, normalising, decoding and posterior path
# for tagging, training, cross-validation, the objective and the gradient.


@dataclass
class _Compiled:
    vocab: dict[str, int]  # feature string -> row, numbered 0..n-1
    feats: np.ndarray  # (N, Tmax, M) int32 feature rows, pad positions zeroed
    gold: np.ndarray  # (N, Tmax) int32 label indices, pad positions zeroed
    mask: np.ndarray  # (N, Tmax) bool; sentences are left-padded, so all end at Tmax - 1
    bigram: bool  # the template's B line; without it the transitions stay zero

    # What training reads on every iteration but never changes, built once.
    @functools.cached_property
    def real_feats(self) -> np.ndarray:
        """The feature rows of the real positions, token-major and flat, as
        intp: the gradient scatter's index."""
        return self.feats[self.mask].ravel().astype(np.intp)

    @functools.cached_property
    def gold_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical counts of the unary (n_feats, L) and transition (L, L)
        weights; a label pair is real when its first token is."""
        L, valid = len(LABELS), self.mask[:, :-1]
        index = self.feats[self.mask] * L + self.gold[self.mask][:, None]
        gu = np.bincount(index.ravel(), minlength=len(self.vocab) * L)
        pairs = self.gold[:, :-1][valid] * L + self.gold[:, 1:][valid]
        gt = np.bincount(pairs, minlength=L * L)
        return gu.reshape(-1, L).astype(float), gt.reshape(L, L)

    def gold_score(self, wu: np.ndarray, wt: np.ndarray) -> float:
        """The total score of the gold labels, linear in the weights: the
        inner product of their counts and (wu, wt)."""
        gold_u, gold_t = self.gold_counts
        return float((gold_u * wu).sum() + (gold_t * wt).sum())

    def sentences(self, rows: np.ndarray) -> _Compiled:
        """The sentences a boolean mask picks, sharing vocab and the feature
        rows, cut to the longest one picked: a fold compiled with the rest."""
        mask = self.mask[rows]
        if not len(mask):
            raise InputError("expected at least one sentence, got none")
        at = np.s_[rows, mask.shape[1] - mask.sum(axis=1).max() :]  # drop shared padding
        return _Compiled(self.vocab, self.feats[at], self.gold[at], self.mask[at], self.bigram)


def _frame(data: Sequence[Sequence[TokenRecord]]) -> tuple[np.ndarray, np.ndarray]:
    """Check a batch and compile what every compile shares: the mask of its
    sentences padded on the left and their gold label indices.  Every
    TokenRecord carries a label (O unless given), and scoring never reads them."""
    lengths = [len(rows) for rows in data]
    if not lengths:
        raise InputError("expected at least one sentence, got none")
    if 0 in lengths:
        raise InputError(f"sentence {lengths.index(0) + 1} is empty")
    t_max = max(lengths)
    mask = np.arange(t_max) >= t_max - np.array(lengths)[:, None]
    gold = np.zeros(mask.shape, dtype=np.int32)
    gold[mask] = [LABELS.index(row.label) for rows in data for row in rows]
    return mask, gold


def _compile(template: Template, data: Sequence[Sequence[TokenRecord]]) -> _Compiled:
    """Intern a batch's feature strings, as expand_macros spells them, to
    integer rows in first-seen order.  Binding a stored model compiles this
    way, since its weights are keyed by those strings."""
    mask, gold = _frame(data)
    vocab: dict[str, int] = {}
    feats = np.zeros((*mask.shape, len(template.macros)), dtype=np.int32)
    feats[mask] = [
        [vocab.setdefault(s, len(vocab)) for s in expand_macros(template, rows, t)]
        for rows in data
        for t in range(len(rows))
    ]
    return _Compiled(vocab, feats, gold, mask, bigram=template.include_label_bigram)


def _intern(strings: list[str], ids: dict[str, int]) -> np.ndarray:
    """The ids of strings, numbering the ones new to ids in first-seen order."""
    for s in dict.fromkeys(strings):
        ids.setdefault(s, len(ids))
    return np.fromiter(map(ids.__getitem__, strings), dtype=np.int32, count=len(strings))


def _feature_keys(
    template: Template, data: Sequence[Sequence[TokenRecord]], mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key every token's feature under every macro, (n_tokens, M) int32 in
    token-major order, as the macro's base offset plus its value id; also
    each macro's number of values and every key's value string.  Each
    referenced column is interned once; a single-reference macro shifts
    those ids inside each sentence, and a boundary cell takes the id of its
    _B-k/_B+k literal in the same column, so a real cell spelled like the
    literal shares its feature.  A conjunction interns its joined string,
    the feature's identity.  Macro ids hold no ':', so two keys are one
    feature exactly when their strings are."""
    tokens = [row.columns for rows in data for row in rows]
    lengths = mask.sum(axis=1)
    length = np.repeat(lengths, lengths)  # each token's sentence length
    here = np.arange(len(tokens))
    pos = here - np.repeat(np.cumsum(lengths) - lengths, lengths)

    columns: dict[int, tuple[dict[str, int], np.ndarray]] = {}

    def cells(off: int, col: int) -> tuple[dict[str, int], np.ndarray]:
        if col not in columns:
            values: dict[str, int] = {}
            columns[col] = values, _intern([r[col] for r in tokens], values)
        values, ids = columns[col]
        shift = max(-len(tokens), min(off, len(tokens)))  # past this every cell is a boundary
        out = ids[np.clip(here + shift, 0, len(tokens) - 1)]
        q = pos + shift
        edge = (q < 0) | (q >= length)
        if edge.any():
            beyond = np.where(q < 0, q, q - length + 1)[edge].tolist()
            out[edge] = _intern([f"_B{k + off - shift:+d}" for k in beyond], values)
        return values, out

    spaces: list[dict[str, int]] = []  # each macro's values, in id order
    keys = np.empty((len(tokens), len(template.macros)), dtype=np.int32)
    for m, macro in enumerate(template.macros):
        if len(macro.refs) == 1:
            values, keys[:, m] = cells(*macro.refs[0])
        else:
            parts = [
                np.array(list(values), dtype=object)[ids]
                for values, ids in (cells(off, col) for off, col in macro.refs)
            ]
            values = {}
            keys[:, m] = _intern(list(map("/".join, zip(*parts))), values)
        spaces.append(values)
    sizes = np.array([len(v) for v in spaces], dtype=np.int32)
    keys += np.cumsum(sizes, dtype=np.int32) - sizes
    return keys, sizes, np.array([s for v in spaces for s in v], dtype=object)


def _compile_columns(template: Template, data: Sequence[Sequence[TokenRecord]]) -> _Compiled:
    """Compile a training batch from _feature_keys, with no string per token
    and macro: every position gets the feature strings _compile gives it.
    Rows are numbered in key order over the keys some token reaches, so
    each macro's rows form one block, in macro order; each feature is
    spelled once, for vocab."""
    mask, gold = _frame(data)
    keys, sizes, names = _feature_keys(template, data, mask)
    used = np.zeros(len(names), dtype=bool)
    used[keys] = True
    feats = np.zeros((*mask.shape, len(template.macros)), dtype=np.int32)
    feats[mask] = (np.cumsum(used, dtype=np.int32) - 1)[keys]

    prefixes = np.array([f"{macro.id}:" for macro in template.macros], dtype=object)
    spelled = np.repeat(prefixes, sizes)[used] + names[used]
    vocab = dict(zip(spelled.tolist(), range(len(spelled))))
    return _Compiled(vocab, feats, gold, mask, bigram=template.include_label_bigram)


def _bind(
    model: CrfModel, data: Sequence[Sequence[TokenRecord]]
) -> tuple[_Compiled, np.ndarray, np.ndarray]:
    """Compile data and look the model's weights up once per feature string:
    unary rows in vocab order and the transition matrix, zero wherever the
    weight map has no entry or the template has no B line."""
    comp = _compile(model.template, data)
    get = model.weights.get
    wu = np.array([[get((s, lab), 0.0) for lab in LABELS] for s in comp.vocab], dtype=float)
    wt = np.zeros((len(LABELS), len(LABELS)))
    if comp.bigram:
        wt = np.array([[get((a, b), 0.0) for b in LABELS] for a in LABELS], dtype=float)
    return comp, wu.reshape(len(comp.vocab), len(LABELS)), wt


def _unary_batch(wu: np.ndarray, comp: _Compiled) -> np.ndarray:
    """Unary scores (N, Tmax, L): the weight rows of each position's
    features, gathered one macro at a time and added in macro order, so no
    (N, Tmax, M, L) temporary is built."""
    e = np.zeros((*comp.feats.shape[:2], wu.shape[1]))
    for feats in comp.feats.transpose(2, 0, 1):  # each macro's (N, Tmax) rows
        e += wu.take(feats, axis=0)
    return e


def _messages(
    e: np.ndarray, w: np.ndarray, mask: np.ndarray, forward: bool, reduce=_lse
) -> np.ndarray:
    """One message pass over a left-padded batch.  The message into position t
    reduces, over the labels of its neighbour s (t - 1 forward, t + 1 backward),
    e[s] + message[s] + w, and is zero where s is padding.  Forward over wt,
    e + messages is alpha under log-sum-exp and Viterbi's delta under max;
    backward over wt.T, the messages are beta."""
    n, t_max, L = e.shape
    out = np.zeros((n, t_max, L))
    for t in range(1, t_max) if forward else range(t_max - 2, -1, -1):
        s = t - 1 if forward else t + 1
        msg = reduce((e[:, s] + out[:, s])[:, :, None] + w, axis=1)
        out[:, t] = np.where(mask[:, s, None], msg, 0.0)
    return out


def _viterbi_batch(e: np.ndarray, wt: np.ndarray, mask: np.ndarray) -> list[list[int]]:
    """Best label paths: the max forward pass, every back-pointer at once
    (first max = lowest label index), then a backtrace from the last
    position to each sentence's first."""
    delta = e + _messages(e, wt, mask, True, reduce=np.maximum.reduce)
    back = np.argmax(delta[:, :-1, :, None] + wt, axis=2).tolist()
    paths = []
    for n, last in enumerate(np.argmax(delta[:, -1], axis=1).tolist()):
        path = [last]
        for row in reversed(back[n][int(mask[n].argmax()) :]):  # from the first real token
            path.append(row[path[-1]])
        paths.append(path[::-1])
    return paths


# The widest spread of scores the scaled forward pass takes on; see _forward.
_SPAN = 600.0


class _Forward(NamedTuple):
    """One forward pass at (e, wt) and each sentence's log Z.  Scaled (scale
    is set): alpha holds each position's forward probabilities normalised to
    sum to 1, scale the factors c_t they were divided by, and unary and trans
    the exps E and W they were built from.  In log space: alpha is log alpha."""

    log_z: np.ndarray  # (N,)
    alpha: np.ndarray  # (N, Tmax, L)
    scale: np.ndarray | None = None  # (N, Tmax)
    unary: np.ndarray | None = None  # (N, Tmax, L)
    trans: np.ndarray | None = None  # (L, L)


def _forward(e: np.ndarray, wt: np.ndarray, mask: np.ndarray) -> _Forward:
    """The forward pass over a left-padded batch, scaled in probability space
    (Rabiner 1989, section V.A).  E = exp(e - its max over labels at each
    position) and W = exp(wt - max wt); each step is one (n, L) @ (L, L)
    product, a multiply by E[t] and a division by the step's scale factor
    c_t, the sum over labels.  The message into a position after padding is
    all ones, so log Z = sum over real t of (log c_t + shift_t), plus
    (length - 1) * max wt.

    At a real position E is at least exp(-the spread of e over labels), and
    W at least exp(-the spread of wt).  While the two spreads add up to at
    most _SPAN, every product of a message and E stays at least exp(-_SPAN),
    a normal double, so no path is lost to underflow; every c_t stays at
    least exp(-spread of wt) and every backward factor at most its inverse.
    Past that, with weights no fit from zero comes near, the pass runs in
    log space through _messages."""
    shift = functools.reduce(np.maximum, e.transpose(2, 0, 1))  # e.max(axis=2), 10x faster
    low = functools.reduce(np.minimum, e.transpose(2, 0, 1))
    spread = np.max(shift - low, where=mask, initial=0.0) + np.ptp(wt)
    if not spread <= _SPAN:  # also when a score is not finite
        alpha = e + _messages(e, wt, mask, True)
        return _Forward(_lse(alpha[:, -1], axis=1), alpha)
    n, t_max, L = e.shape
    unary = np.exp(e - shift[:, :, None])
    top = wt.max()
    trans = np.exp(wt - top)
    alpha = np.empty_like(unary)
    scale = np.empty((n, t_max))
    lengths = mask.sum(axis=1)
    padded = t_max - int(lengths.min())  # positions where some sentence is padding
    for t in range(t_max):
        a = unary[:, t]
        if t:
            msg = alpha[:, t - 1] @ trans
            a = a * (np.where(mask[:, t - 1, None], msg, 1.0) if t <= padded else msg)
        scale[:, t] = c = a.sum(axis=1)
        np.divide(a, c[:, None], out=alpha[:, t])
    log_z = np.where(mask, np.log(scale) + shift, 0.0).sum(axis=1) + (lengths - 1) * top
    return _Forward(log_z, alpha, scale, unary, trans)


def _posteriors(
    e: np.ndarray,
    wt: np.ndarray,
    mask: np.ndarray,
    fwd: _Forward | None = None,
    summed: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Node marginals (N, Tmax, L), zero at padding, and edge marginals
    (N, Tmax-1, L, L), zero where a pair's first token is padding; summed,
    the edge marginals' total over the batch (L, L).  fwd, when given, is the
    forward pass at (e, wt) and is not run again.

    Scaled, the backward factors b_t = W (E_t+1 b_t+1 / c_t+1) need no mask,
    since every sentence ends at Tmax - 1; the node marginals are alpha * b,
    and with q_t = E_t b_t / c_t an edge is alpha_t-1 * W * q_t, so their
    total is W times alpha.T @ q over the real pairs.  In log space padding
    is masked before exp: its scores are arbitrary and may overflow."""
    if fwd is None:
        fwd = _forward(e, wt, mask)
    valid = mask[:, :-1]
    if fwd.scale is None:
        alpha, log_z = fwd.alpha, fwd.log_z
        beta = _messages(e, wt.T, mask, False)
        node = np.exp(np.where(mask[:, :, None], alpha + beta - log_z[:, None, None], -np.inf))
        edge = np.exp(np.where(
            valid[:, :, None, None],
            alpha[:, :-1, :, None]
            + wt[None, None]
            + (e[:, 1:] + beta[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None],
            -np.inf,
        ))
        return node, edge.sum(axis=(0, 1)) if summed else edge
    alpha, trans = fwd.alpha, fwd.trans
    back = np.ascontiguousarray(trans.T)
    ratio = fwd.unary / fwd.scale[:, :, None]
    beta = np.empty_like(alpha)
    beta[:, -1] = 1.0
    for t in range(alpha.shape[1] - 1, 0, -1):
        np.matmul(ratio[:, t] * beta[:, t], back, out=beta[:, t - 1])
    node = np.where(mask[:, :, None], alpha * beta, 0.0)
    q = ratio[:, 1:] * beta[:, 1:]
    if summed:
        first = (alpha[:, :-1] * valid[:, :, None]).reshape(-1, alpha.shape[2])
        return node, trans * (first.T @ q.reshape(first.shape))
    edge = alpha[:, :-1, :, None] * trans * q[:, :, None, :]
    return node, np.where(valid[:, :, None, None], edge, 0.0)


def _count_gradient(
    comp: _Compiled, e: np.ndarray, wt: np.ndarray, fwd: _Forward | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(empirical - expected) counts of the unary and transition weights at
    unary scores e: the compiled gold counts, less the node marginals
    scattered by np.bincount once per label and the summed edge marginals."""
    L, n_feats, n_macros = len(LABELS), len(comp.vocab), comp.feats.shape[2]
    node, edge = _posteriors(e, wt, comp.mask, fwd, summed=True)
    node = node[comp.mask]
    gold_u, gold_t = comp.gold_counts
    gu = gold_u.copy()
    for lab in range(L):
        gu[:, lab] -= np.bincount(comp.real_feats, np.repeat(node[:, lab], n_macros), n_feats)
    gt = gold_t - edge if comp.bigram else np.zeros((L, L))
    return gu, gt


def _fit(comp: _Compiled, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fit a batch's weights by gradient ascent with a backtracking line
    search from zero init.  The transitions without a B line, and the row
    of a feature the batch never reaches, get zero gradient and stay zero.

    Unary scores are linear in the weights, so each iteration gathers the
    gradient's scores eg once and scores a trial step s as e + s * eg.  The
    gold score <gold, w> + s<gold, g> is linear in s and the penalty the
    quadratic |w|^2 + 2s<w, g> + s^2 |g|^2, so a trial's objective is a
    quadratic in s less sum log Z; the accepted step's scores and forward
    pass carry into the next gradient."""
    wu = np.zeros((len(comp.vocab), len(LABELS)))
    wt = np.zeros((len(LABELS), len(LABELS)))
    rho2 = config.rho**2

    e = _unary_batch(wu, comp)
    fwd = _forward(e, wt, comp.mask)
    obj = -float(fwd.log_z.sum())  # zero weights: no gold score, no penalty
    evaluations, iterations, reason = 1, 0, "max_iterations"
    step = 1.0
    for _ in range(config.max_iterations):
        gu, gt = _count_gradient(comp, e, wt, fwd)
        gu -= wu / rho2
        gt -= wt / rho2
        grad_norm = max(
            float(np.abs(gu).max()) if gu.size else 0.0, float(np.abs(gt).max())
        )
        if grad_norm < config.gradient_tolerance:
            reason = "tolerance"
            break
        eg = _unary_batch(gu, comp)
        gold_w, gold_g = comp.gold_score(wu, wt), comp.gold_score(gu, gt)
        w2 = float((wu**2).sum() + (wt**2).sum())
        wg = float((wu * gu).sum() + (wt * gt).sum())
        g2 = float((gu**2).sum() + (gt**2).sum())
        s = step * 2.0
        while True:
            e_new, wt_new = e + s * eg, wt + s * gt
            fwd_new = _forward(e_new, wt_new, comp.mask)
            evaluations += 1
            ll = gold_w + s * gold_g - float(fwd_new.log_z.sum())
            obj_new = ll - (w2 + 2.0 * s * wg + s * s * g2) / (2.0 * rho2)
            if obj_new >= obj + 1e-4 * s * g2:  # Armijo sufficient increase
                break
            s *= 0.5
            if s < 1e-15:
                s = 0.0
                break
        if s == 0.0:
            reason = "line_search_collapse"
            break
        wu, wt, e, fwd, obj, step = wu + s * gu, wt_new, e_new, fwd_new, obj_new, s
        iterations += 1
    report = TrainReport(iterations, reason, obj, grad_norm, evaluations)
    for sink in _report_sinks:
        sink.append(report)
    return wu, wt


def regularized_objective(
    model: CrfModel, data: Sequence[Sequence[TokenRecord]]
) -> float:
    """Conditional log-likelihood of data minus sum(w^2)/(2*rho^2) over the
    model's stored weights."""
    comp, wu, wt = _bind(model, data)
    log_z = _forward(_unary_batch(wu, comp), wt, comp.mask).log_z
    ll = comp.gold_score(wu, wt) - float(log_z.sum())
    penalty = sum(w * w for w in model.weights.values()) / (2.0 * model.rho**2)
    return ll - penalty


def gradient(
    model: CrfModel, data: Sequence[Sequence[TokenRecord]]
) -> dict[WeightKey, float]:
    """Partial derivatives of regularized_objective with respect to every
    weight touched by the data or present in the model."""
    comp, wu, wt = _bind(model, data)
    gu, gt = _count_gradient(comp, _unary_batch(wu, comp), wt)
    rho2 = model.rho**2
    out = _arrays_to_weights(comp, gu - wu / rho2, gt - wt / rho2)
    for key, w in model.weights.items():
        if key not in out:
            out[key] = -w / rho2
    return out


def _arrays_to_weights(
    comp: _Compiled, wu: np.ndarray, wt: np.ndarray
) -> dict[WeightKey, float]:
    """The weight map of (wu, wt): each feature's labels in vocab order, then
    every label pair when the template has a B line."""
    weights = {
        (s, lab): w for s, row in zip(comp.vocab, wu.tolist()) for lab, w in zip(LABELS, row)
    }
    if comp.bigram:
        weights.update(
            ((a, b), w) for a, row in zip(LABELS, wt.tolist()) for b, w in zip(LABELS, row)
        )
    return weights


def train(
    data: Sequence[Sequence[TokenRecord]],
    template: Template,
    config: TrainConfig | None = None,
) -> CrfModel:
    """Fit weights on labeled sentences.  Deterministic: zero initialization
    and a fixed line-search policy, no randomness anywhere."""
    config = config or TrainConfig()
    comp = _compile_columns(template, data)
    weights = _arrays_to_weights(comp, *_fit(comp, config))
    return CrfModel(label_set=LabelSet(), template=template, weights=weights, rho=config.rho)


def train_and_decode(
    folds: Sequence[Sequence[Sequence[TokenRecord]]],
    template: Template,
    config: TrainConfig | None = None,
) -> list[list[list[str]]]:
    """Each fold's labels, decoded after fitting on the other folds in fold
    order.  Folds are sentence views of one compile, so the fitted rows score
    a fold as they are, and a feature only that fold reaches scores zero."""
    comp = _compile_columns(template, [s for fold in folds for s in fold])
    fold_of = np.repeat(np.arange(len(folds)), [len(fold) for fold in folds])
    decoded = []
    for k in range(len(folds)):
        fit_on, test = comp.sentences(fold_of != k), comp.sentences(fold_of == k)
        wu, wt = _fit(fit_on, config or TrainConfig())
        paths = _viterbi_batch(_unary_batch(wu, test), wt, test.mask)
        decoded.append([[LABELS[i] for i in path] for path in paths])
    return decoded
