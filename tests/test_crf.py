"""Inference and training checked against exhaustive enumeration and
finite differences."""

from __future__ import annotations

import itertools
import math
import pickle
import sys
import tracemalloc
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from mwetag import crf, ga
from mwetag.crf import (
    CrfModel,
    LabelSet,
    Lattice,
    TrainConfig,
    _arrays_to_weights,
    _bind,
    _compile_columns,
    _Compiled,
    _fit,
    _forward,
    _frame,
    _lse,
    _messages,
    _posteriors,
    _unary_batch,
    _viterbi_batch,
    build_lattice,
    decode_lattice,
    decode_sentences,
    gradient,
    log_partition,
    marginals,
    regularized_objective,
    sequence_log_prob,
    sequence_score,
    train,
    train_and_decode,
    training_reports,
    viterbi_decode,
)
from mwetag.errors import InputError
from mwetag.evaluation import score
from mwetag.features import LABELS, TokenRecord
from mwetag.ga import GaConfig, split_folds
from mwetag.templates import (
    GeneCatalogue,
    chromosome_to_template,
    default_catalogue,
    expand_macros,
    parse_template,
)
from tests.conftest import make_record, make_separable_sentences

LABELS3 = LabelSet()
POS_TEMPLATE = parse_template("U00:%x[0,21]\nB\n")
POS_UNIGRAM_TEMPLATE = parse_template("U00:%x[0,21]\n")  # no B: transitions stay zero
WORD_POS_TEMPLATE = parse_template("U00:%x[0,0]\nU01:%x[0,21]\nU02:%x[-1,0]\nB\n")
WORD_POS_UNIGRAM = parse_template("U00:%x[0,0]\nU01:%x[0,21]\nU02:%x[-1,0]\n")
WORD_WINDOW_TEMPLATE = parse_template("U00:%x[0,0]\nU01:%x[-1,0]\nU02:%x[1,0]\nB\n")


def enumerate_scores(lattice: Lattice) -> dict[tuple[int, ...], float]:
    T, L = lattice.log_unary.shape
    out = {}
    for seq in itertools.product(range(L), repeat=T):
        total = sum(lattice.log_unary[t, y] for t, y in enumerate(seq))
        total += sum(lattice.log_transition[a, b] for a, b in zip(seq, seq[1:]))
        out[seq] = total
    return out


def random_model_and_sentence(rng, T, vocab=4, bigram=True):
    template = WORD_POS_TEMPLATE if bigram else parse_template("U00:%x[0,0]\nU01:%x[0,21]\n")
    sentence = tuple(
        make_record(
            word=f"w{rng.integers(0, vocab)}",
            pos=f"p{rng.integers(0, 2)}",
            label=LABELS3.labels[rng.integers(0, 3)],
        )
        for _ in range(T)
    )
    weights = {}
    for t in range(T):
        for s in expand_macros(template, sentence, t):
            for label in LABELS3.labels:
                weights[(s, label)] = rng.uniform(-2.0, 2.0)
    if template.include_label_bigram:
        for a in LABELS3.labels:
            for b in LABELS3.labels:
                weights[(a, b)] = rng.uniform(-2.0, 2.0)
    model = CrfModel(label_set=LABELS3, template=template, weights=weights)
    return model, sentence


def test_lattice_entries_are_weight_sums():
    rng = np.random.default_rng(0)
    model, sentence = random_model_and_sentence(rng, T=4)
    lattice = build_lattice(model, sentence)
    for t in range(len(sentence)):
        for li, label in enumerate(LABELS3.labels):
            want = sum(
                model.weights.get((s, label), 0.0)
                for s in expand_macros(model.template, sentence, t)
            )
            assert lattice.log_unary[t, li] == pytest.approx(want, abs=1e-12)
    for a, la in enumerate(LABELS3.labels):
        for b, lb in enumerate(LABELS3.labels):
            assert lattice.log_transition[a, b] == model.weights[(la, lb)]


def test_unknown_features_score_zero():
    model = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={})
    sentence = (make_record(word="novel", pos="QQ"),)
    lattice = build_lattice(model, sentence)
    assert np.all(lattice.log_unary == 0.0)


def test_log_partition_uniform_model():
    for T in (1, 2, 5):
        lattice = Lattice(
            log_unary=np.zeros((T, 3)), log_transition=np.zeros((3, 3))
        )
        assert log_partition(lattice) == pytest.approx(T * math.log(3), abs=1e-12)


def test_log_partition_single_position():
    row = np.array([[0.3, -1.2, 2.0]])
    lattice = Lattice(log_unary=row, log_transition=np.zeros((3, 3)))
    want = math.log(sum(math.exp(v) for v in row[0]))
    assert log_partition(lattice) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_log_partition_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 7))
    model, sentence = random_model_and_sentence(rng, T)
    lattice = build_lattice(model, sentence)
    scores = enumerate_scores(lattice)
    want = math.log(sum(math.exp(v) for v in scores.values()))
    assert log_partition(lattice) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_viterbi_matches_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    T = int(rng.integers(1, 7))
    model, sentence = random_model_and_sentence(rng, T)
    lattice = build_lattice(model, sentence)
    scores = enumerate_scores(lattice)
    best = max(scores.values())
    path = decode_lattice(lattice)
    assert sequence_score(lattice, path) == pytest.approx(best, abs=1e-9)


def test_viterbi_tie_break_prefers_lowest_index():
    lattice = Lattice(log_unary=np.zeros((3, 3)), log_transition=np.zeros((3, 3)))
    assert decode_lattice(lattice) == [0, 0, 0]


def reference_viterbi(lattice: Lattice) -> list[int]:
    """A plain per-sentence Viterbi; ties resolve to the lowest index."""
    unary, trans = lattice.log_unary, lattice.log_transition
    T, L = unary.shape
    delta = unary[0].copy()
    back = np.zeros((T, L), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + trans
        back[t] = np.argmax(scores, axis=0)  # first max = lowest label index
        delta = scores[back[t], np.arange(L)] + unary[t]
    path = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path


@pytest.mark.parametrize("seed", range(10))
def test_decode_lattice_matches_reference_viterbi(seed):
    """Small integer scores tie often, so the tie-breaking must agree too."""
    rng = np.random.default_rng(300 + seed)
    for T in range(1, 7):
        for with_transitions in (True, False):
            trans = rng.integers(-1, 2, size=(3, 3)).astype(float)
            lattice = Lattice(
                log_unary=rng.integers(-1, 2, size=(T, 3)).astype(float),
                log_transition=trans if with_transitions else np.zeros((3, 3)),
            )
            assert decode_lattice(lattice) == reference_viterbi(lattice)


def test_zero_weight_model_decodes_outside():
    model = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={})
    sentence = tuple(make_record(word=f"w{i}") for i in range(4))
    assert viterbi_decode(model, sentence) == ["O", "O", "O", "O"]


def random_batch_model(rng, sentences, template):
    """Random weights on about four in five of the batch's feature strings,
    and on every label pair when the template has a B line."""
    weights = {}
    for rows in sentences:
        for t in range(len(rows)):
            for s in expand_macros(template, rows, t):
                if rng.random() < 0.8:
                    weights.update({(s, lab): rng.uniform(-2.0, 2.0) for lab in LABELS})
    if template.include_label_bigram:
        weights.update({(a, b): rng.uniform(-2.0, 2.0) for a in LABELS for b in LABELS})
    return CrfModel(label_set=LABELS3, template=template, weights=weights)


def random_tagging_batch(rng, lengths):
    """Sentences of the given lengths; every other one unlabeled, as tag reads them."""
    batch = []
    for n, length in enumerate(lengths):
        rows = tuple(
            make_record(
                word=f"w{rng.integers(0, 8)}",
                pos=f"p{rng.integers(0, 3)}",
                label=LABELS[rng.integers(0, 3)],
            )
            for _ in range(length)
        )
        batch.append(rows if n % 2 else tuple(TokenRecord(columns=r.columns) for r in rows))
    return batch


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("template", [WORD_POS_TEMPLATE, WORD_POS_UNIGRAM], ids=["B", "no-B"])
def test_decode_sentences_equals_decoding_each_sentence(seed, template, monkeypatch):
    """Ragged batches decode in input order to each sentence's own Viterbi
    labels, under a budget small enough that runs split at it and one
    sentence is longer than it; every run holds one sentence or fits."""
    rng = np.random.default_rng(500 + seed)
    monkeypatch.setattr(crf, "_TAG_CELLS", 12)
    lengths = [int(n) for n in rng.integers(1, 8, size=int(rng.integers(2, 12)))]
    lengths.insert(int(rng.integers(0, len(lengths))), 15)  # over the budget
    sentences = random_tagging_batch(rng, lengths)
    model = random_batch_model(rng, sentences, template)
    runs = []
    bind = crf._bind

    def recording_bind(model, data):
        runs.append([len(rows) for rows in data])
        return bind(model, data)

    monkeypatch.setattr(crf, "_bind", recording_bind)
    got = decode_sentences(model, sentences)
    monkeypatch.setattr(crf, "_bind", bind)
    assert got == [viterbi_decode(model, rows) for rows in sentences]
    assert sorted(n for run in runs for n in run) == sorted(lengths)
    assert [15] in runs and len(runs) > 2
    assert all(len(run) == 1 or len(run) * max(run) <= 12 for run in runs)


def test_decode_sentences_of_no_sentences_is_empty():
    model = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={})
    assert decode_sentences(model, []) == []


def test_decode_sentences_names_an_empty_sentence_by_its_input_position():
    model = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={})
    with pytest.raises(InputError, match="sentence 3 is empty"):
        decode_sentences(model, [(make_record(),), (make_record(),) * 2, ()])


def test_decode_sentences_memory_stays_within_twice_one_long_sentence():
    """200 short sentences and one of 2000 tokens: the long one is decoded
    alone, so the peak allocation stays within twice decoding it by itself,
    where one padded batch of all 201 would take over a hundred times it."""
    rng = np.random.default_rng(9)
    short = random_tagging_batch(rng, rng.integers(5, 16, size=200).tolist())
    (long,) = random_tagging_batch(rng, [2000])
    sentences = short[:100] + [long] + short[100:]
    model = random_batch_model(rng, sentences, WORD_WINDOW_TEMPLATE)

    def peak(decode):
        tracemalloc.start()
        try:
            decode()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak(lambda: viterbi_decode(model, long))
    assert peak(lambda: decode_sentences(model, sentences)) <= 2 * alone


def test_sequence_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    model, sentence = random_model_and_sentence(rng, T=4)
    total = 0.0
    for seq in itertools.product(LABELS3.labels, repeat=4):
        lp = sequence_log_prob(model, sentence, list(seq))
        assert lp <= 1e-12
        total += math.exp(lp)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_uniform_model_sequence_log_prob():
    model = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={})
    sentence = tuple(make_record(word=f"w{i}") for i in range(5))
    lp = sequence_log_prob(model, sentence, ["O", "B-MWE", "I-MWE", "O", "O"])
    assert lp == pytest.approx(-5 * math.log(3), abs=1e-12)


def test_marginals_match_enumeration():
    rng = np.random.default_rng(3)
    model, sentence = random_model_and_sentence(rng, T=4)
    lattice = build_lattice(model, sentence)
    scores = enumerate_scores(lattice)
    z = sum(math.exp(v) for v in scores.values())
    node, edge = marginals(lattice)
    for t in range(4):
        for y in range(3):
            want = sum(math.exp(v) for s, v in scores.items() if s[t] == y) / z
            assert node[t, y] == pytest.approx(want, abs=1e-9)
    for t in range(3):
        for a in range(3):
            for b in range(3):
                want = (
                    sum(
                        math.exp(v)
                        for s, v in scores.items()
                        if s[t] == a and s[t + 1] == b
                    )
                    / z
                )
                assert edge[t, a, b] == pytest.approx(want, abs=1e-9)


def test_marginal_consistency():
    rng = np.random.default_rng(11)
    model, sentence = random_model_and_sentence(rng, T=6)
    node, edge = marginals(build_lattice(model, sentence))
    assert np.allclose(node.sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(edge.sum(axis=(1, 2)), 1.0, atol=1e-10)
    assert np.allclose(edge.sum(axis=2), node[:-1], atol=1e-10)
    assert np.allclose(edge.sum(axis=1), node[1:], atol=1e-10)
    assert np.all(node >= 0.0) and np.all(node <= 1.0 + 1e-12)


def reference_forward_batch(e, wt, mask, reduce=_lse):
    """The forward recursion over right-padded batches that the one message
    pass replaced, verbatim."""
    n, t_max, L = e.shape
    alpha = np.empty((n, t_max, L))
    alpha[:, 0] = e[:, 0]
    for t in range(1, t_max):
        nxt = reduce(alpha[:, t - 1, :, None] + wt, axis=1) + e[:, t]
        # finished sentences keep their final alpha so alpha[:, -1] is usable
        alpha[:, t] = np.where(mask[:, t, None], nxt, alpha[:, t - 1])
    return alpha


def reference_backward_batch(e, wt, mask):
    """The backward recursion over right-padded batches that the one message
    pass replaced, verbatim."""
    n, t_max, L = e.shape
    beta = np.zeros((n, t_max, L))
    for t in range(t_max - 2, -1, -1):
        nxt = _lse(wt[None] + (e[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(mask[:, t + 1][:, None], nxt, 0.0)
    return beta


@pytest.mark.parametrize("seed", range(10))
def test_message_pass_equals_the_reference_recursions(seed):
    """On ragged batches, alpha (log-sum-exp and max) and beta from the one
    left-padded pass equal the right-padded recursions bit for bit at every
    real position; padding holds junk scores that must not leak in."""
    rng = np.random.default_rng(500 + seed)
    for _ in range(30):
        lengths = rng.integers(1, 8, size=int(rng.integers(1, 6)))
        t_max = int(lengths.max())
        wt = rng.normal(size=(3, 3)) if rng.integers(0, 2) else np.zeros((3, 3))
        e_right = rng.normal(size=(len(lengths), t_max, 3)) * 3.0
        e_left = rng.normal(size=e_right.shape) * 3.0
        right = np.arange(t_max) < lengths[:, None]
        left = right[:, ::-1]
        for n, T in enumerate(lengths):
            e_left[n, t_max - T :] = e_right[n, :T]
        for reduce in (_lse, np.maximum.reduce):
            alpha = e_left + _messages(e_left, wt, left, True, reduce=reduce)
            want = reference_forward_batch(e_right, wt, right, reduce=reduce)
            for n, T in enumerate(lengths):
                assert np.array_equal(alpha[n, t_max - T :], want[n, :T])
        beta = _messages(e_left, wt.T, left, False)
        want = reference_backward_batch(e_right, wt, right)
        for n, T in enumerate(lengths):
            assert np.array_equal(beta[n, t_max - T :], want[n, :T])


@pytest.mark.parametrize("bigram", [True, False])
def test_batch_padding_leaves_each_sentence_unchanged(bigram):
    """A sentence left-padded into a batch with longer ones gets the same
    log Z, marginals and Viterbi path as on its own, and exactly zero
    posteriors at padding."""
    rng = np.random.default_rng(17)
    lengths = (1, 3, 6, 2)
    # one shared transition matrix: each sentence's own model differs
    built = [
        build_lattice(*random_model_and_sentence(rng, T, bigram=bigram)) for T in lengths
    ]
    trans = built[0].log_transition
    lattices = [Lattice(log_unary=b.log_unary, log_transition=trans) for b in built]
    t_max = max(lengths)
    e = np.zeros((len(lengths), t_max, 3))
    mask = np.zeros((len(lengths), t_max), dtype=bool)
    for n, lat in enumerate(lattices):
        e[n, t_max - lengths[n] :] = lat.log_unary
        mask[n, t_max - lengths[n] :] = True
    log_z = _forward(e, trans, mask).log_z
    node, edge = _posteriors(e, trans, mask)
    paths = _viterbi_batch(e, trans, mask)
    for n, (T, lat) in enumerate(zip(lengths, lattices)):
        own_node, own_edge = marginals(lat)
        pad = t_max - T
        assert log_z[n] == pytest.approx(log_partition(lat), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(node[n, pad:], own_node, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(edge[n, pad:], own_edge, rtol=1e-12, atol=1e-15)
        assert not node[n, :pad].any() and not edge[n, :pad].any()
        assert paths[n] == reference_viterbi(lat)


@pytest.mark.parametrize("template", [POS_TEMPLATE, POS_UNIGRAM_TEMPLATE], ids=["B", "no-B"])
def test_padding_scores_never_reach_the_gradient(template, recwarn):
    """Padding takes the feature row numbered 0, here with a weight so large
    that its exp overflows; the gradient must stay finite and warn of nothing."""
    data = [(make_record(pos="a"),), (make_record(pos="b"), make_record(pos="c"))]
    model = CrfModel(LABELS3, template, {("U00:a", "O"): 800.0}, rho=1e6)
    grad = gradient(model, data)
    assert all(math.isfinite(v) for v in grad.values())
    assert not recwarn.list


def tiny_corpus():
    return make_separable_sentences(6, seed=5)


def numeric_gradient(model, data, key, h=1e-5):
    up = dict(model.weights)
    up[key] = up.get(key, 0.0) + h
    down = dict(model.weights)
    down[key] = down.get(key, 0.0) - h
    hi = regularized_objective(
        CrfModel(model.label_set, model.template, up, rho=model.rho), data
    )
    lo = regularized_objective(
        CrfModel(model.label_set, model.template, down, rho=model.rho), data
    )
    return (hi - lo) / (2 * h)


@pytest.mark.parametrize(
    "seed, bigram",
    [pytest.param(seed, True, id=str(seed)) for seed in range(5)]
    + [pytest.param(seed, False, id=f"{seed}-no-B") for seed in range(5)],
)
def test_gradient_matches_finite_differences(seed, bigram):
    rng = np.random.default_rng(200 + seed)
    model, sentence = random_model_and_sentence(rng, T=5, bigram=bigram)
    model = CrfModel(model.label_set, model.template, model.weights, rho=2.0)
    data = [sentence]
    grad = gradient(model, data)
    assert grad, "expected a non-empty gradient"
    for key, value in grad.items():
        fd = numeric_gradient(model, data, key)
        assert abs(value - fd) <= 1e-4 * max(1.0, abs(value), abs(fd)), key


def test_gradient_covers_penalty_only_keys():
    model = CrfModel(
        label_set=LABELS3,
        template=POS_TEMPLATE,
        weights={("stale:feature", "O"): 3.0},
        rho=2.0,
    )
    sentence = (make_record(word="a", pos="p", label="O"),)
    grad = gradient(model, [sentence])
    assert grad[("stale:feature", "O")] == pytest.approx(-3.0 / 4.0, abs=1e-12)


def test_gradient_zero_weights_transition_counts():
    model = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={}, rho=10.0)
    sentence = (
        make_record(word="a", pos="p", label="O"),
        make_record(word="b", pos="p", label="B-MWE"),
    )
    grad = gradient(model, [sentence])
    assert grad[("O", "B-MWE")] == pytest.approx(1.0 - 1.0 / 9.0, abs=1e-12)
    assert grad[("I-MWE", "I-MWE")] == pytest.approx(-1.0 / 9.0, abs=1e-12)


def test_objective_zero_weights():
    model = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={})
    data = tiny_corpus()
    want = -sum(len(s) * math.log(3) for s in data)
    assert regularized_objective(model, data) == pytest.approx(want, abs=1e-9)


def test_objective_penalty_term():
    weights = {("x", "O"): 2.0, ("O", "O"): -1.0}
    base = CrfModel(label_set=LABELS3, template=POS_TEMPLATE, weights={})
    penalized = CrfModel(
        label_set=LABELS3, template=POS_TEMPLATE, weights=weights, rho=2.0
    )
    data = [(make_record(word="a", pos="q", label="O"),)]
    # the weights touch no feature of this sentence beyond transitions
    got = regularized_objective(penalized, data)
    zero = regularized_objective(base, data)
    ll_shift = got - zero
    # direct recomputation: transition weight changes the lattice
    lattice = build_lattice(penalized, data[0])
    want_ll = sequence_score(lattice, [0]) - log_partition(lattice)
    penalty = (2.0**2 + (-1.0) ** 2) / (2 * 2.0**2)
    assert got == pytest.approx(want_ll - penalty, abs=1e-12)
    assert ll_shift == pytest.approx(want_ll - penalty - zero, abs=1e-12)


def test_training_objective_is_non_decreasing_over_prefixes():
    data = tiny_corpus()
    for template in (POS_TEMPLATE, POS_UNIGRAM_TEMPLATE):
        values = []
        for k in range(1, 8):
            config = TrainConfig(rho=5.0, max_iterations=k)
            model = train(data, template, config=config)
            values.append(regularized_objective(model, data))
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-9


def test_training_fits_separable_data():
    data = make_separable_sentences(12, seed=9)
    config = TrainConfig(rho=100.0, max_iterations=200)
    model = train(data, POS_TEMPLATE, config=config)
    gold = [[tok.label for tok in s] for s in data]
    predicted = [viterbi_decode(model, s) for s in data]
    report = score(gold, predicted, mode="span")
    assert report.f_measure == 100.0


def test_training_is_deterministic():
    data = tiny_corpus()
    config = TrainConfig(rho=10.0, max_iterations=25)
    for template in (POS_TEMPLATE, POS_UNIGRAM_TEMPLATE):
        first = train(data, template, config=config)
        second = train(data, template, config=config)
        assert first.weights == second.weights


def test_training_converges_by_gradient_norm():
    data = tiny_corpus()
    config = TrainConfig(rho=10.0, max_iterations=500, gradient_tolerance=1e-4)
    model = train(data, POS_TEMPLATE, config=config)
    grad = gradient(model, data)
    assert max(abs(v) for v in grad.values()) < 1e-4


@pytest.mark.parametrize(
    "data, config, reason",
    [
        pytest.param(tiny_corpus(), TrainConfig(rho=10.0, max_iterations=3), "max_iterations",
                     id="max_iterations"),
        pytest.param(tiny_corpus(), TrainConfig(rho=10.0, max_iterations=500), "tolerance",
                     id="tolerance"),
        # one token: the objective flattens into rounding noise before the
        # gradient reaches 1e-12, so no step raises it by the Armijo margin
        pytest.param([(make_record(pos="a"),)],
                     TrainConfig(rho=1.0, max_iterations=500, gradient_tolerance=1e-12),
                     "line_search_collapse", id="line_search_collapse"),
    ],
)
def test_training_reports_why_it_stopped(data, config, reason):
    with training_reports() as reports:
        model = train(data, POS_UNIGRAM_TEMPLATE, config=config)
    (report,) = reports
    assert report.stop_reason == reason
    grad_norm = max(abs(v) for v in gradient(model, data).values())
    if reason == "max_iterations":
        assert report.iterations == config.max_iterations
        assert report.gradient_norm >= config.gradient_tolerance
    else:  # the last gradient was taken at the final weights
        assert report.iterations < config.max_iterations
        assert report.gradient_norm == pytest.approx(grad_norm, rel=1e-6, abs=1e-14)
        assert (grad_norm < config.gradient_tolerance) == (reason == "tolerance")
    assert report.evaluations > report.iterations


@pytest.mark.parametrize("template", [POS_TEMPLATE, POS_UNIGRAM_TEMPLATE], ids=["B", "no-B"])
def test_reported_objective_is_the_trained_model_objective(template):
    """The objective carried through training (unary scores moved by s * eg,
    the penalty as a quadratic in s) equals a fresh evaluation of the model."""
    data = make_separable_sentences(12, seed=9)
    with training_reports() as reports:
        model = train(data, template, config=TrainConfig(rho=10.0, max_iterations=40))
    (report,) = reports
    assert report.objective == pytest.approx(regularized_objective(model, data), rel=1e-9)


def test_one_gather_per_iteration_and_no_forward_pass_rerun(monkeypatch):
    """Each iteration gathers unary scores once (for the gradient's direction)
    and the gradient reuses the accepted point's forward pass, so a fit runs
    at most iterations + 1 gathers and one forward pass per objective
    evaluation."""
    calls = {"gather": 0, "forward": 0}

    def counted_gather(wu, comp):
        calls["gather"] += 1
        return unary_batch(wu, comp)

    def counted_forward(e, wt, mask):
        calls["forward"] += 1
        return forward(e, wt, mask)

    unary_batch, forward = crf._unary_batch, crf._forward
    monkeypatch.setattr(crf, "_unary_batch", counted_gather)
    monkeypatch.setattr(crf, "_forward", counted_forward)
    data = make_separable_sentences(12, seed=9)
    config = TrainConfig(rho=10.0, max_iterations=40)
    *_, report = _fit(_compile_columns(WORD_POS_TEMPLATE, data)[0], config)
    assert report.iterations == 40
    assert calls["gather"] <= report.iterations + 1
    assert 0 < calls["forward"] <= report.evaluations


# The log-space recursion that the scaled pass replaced, verbatim, as an
# independent reference for normalisation, posteriors and the gradient.


def reference_lse(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def reference_messages(
    e: np.ndarray, w: np.ndarray, mask: np.ndarray, forward: bool, reduce=reference_lse
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


def reference_log_z_batch(e: np.ndarray, wt: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return reference_lse(e[:, -1] + reference_messages(e, wt, mask, True)[:, -1], axis=1)


def reference_posteriors(
    e: np.ndarray, wt: np.ndarray, mask: np.ndarray, alpha: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Node marginals (N, Tmax, L) and edge marginals (N, Tmax-1, L, L); both
    are zero at padding.  A label pair is real when its first token is.
    Padding is masked before exp: its scores are arbitrary and may overflow.
    alpha, when given, is the forward pass at (e, wt) and is not run again."""
    if alpha is None:
        alpha = e + reference_messages(e, wt, mask, True)
    beta = reference_messages(e, wt.T, mask, False)
    log_z = reference_lse(alpha[:, -1], axis=1)
    node = np.exp(np.where(mask[:, :, None], alpha + beta - log_z[:, None, None], -np.inf))
    edge = np.exp(np.where(
        mask[:, :-1, None, None],
        alpha[:, :-1, :, None]
        + wt[None, None]
        + (e[:, 1:] + beta[:, 1:])[:, :, None, :]
        - log_z[:, None, None, None],
        -np.inf,
    ))
    return node, edge


def reference_path_score(e, wt, mask, paths):
    """Total score of the label paths (N, Tmax): their unary entries at the
    unmasked positions plus the transitions of each pair whose first token
    is unmasked, summed along the paths."""
    L = e.shape[2]
    valid = mask[:, :-1]
    unary = np.flatnonzero(mask) * L + paths[mask]
    pairs = paths[:, :-1][valid] * L + paths[:, 1:][valid]
    return float(e.take(unary).sum()) + float(wt.take(pairs).sum())


def reference_log_likelihood(comp, wu, wt):
    """The log-likelihood as training computed it before it carried unary
    scores: a fresh gather, the gold path's score summed along it, and a
    log-space forward pass per call."""
    e = _unary_batch(wu, comp)
    ll = reference_path_score(e, wt, comp.mask, comp.gold)
    return ll - float(reference_log_z_batch(e, wt, comp.mask).sum())


def reference_count_gradient(comp, wu, wt):
    """The np.add.at gradient scatter over log-space posteriors."""
    n_macros = comp.feats.shape[2]
    n_feats, L = wu.shape
    e = _unary_batch(wu, comp)
    node, edge = reference_posteriors(e, wt, comp.mask)

    flat_mask = comp.mask.ravel()
    flat_feats = comp.feats.reshape(flat_mask.size, n_macros)[flat_mask]
    flat_node = node.reshape(-1, L)[flat_mask]
    flat_gold = comp.gold.ravel()[flat_mask]

    gu = np.zeros((n_feats, L))
    np.add.at(gu, (flat_feats.ravel(), np.repeat(flat_gold, n_macros)), 1.0)
    np.add.at(gu, flat_feats.ravel(), -np.repeat(flat_node, n_macros, axis=0))

    gt = np.zeros((L, L))
    if comp.bigram:
        valid = comp.mask[:, :-1]
        np.add.at(gt, (comp.gold[:, :-1][valid], comp.gold[:, 1:][valid]), 1.0)
        gt -= edge.sum(axis=(0, 1))
    return gu, gt


def reference_fit(data, template, config):
    """The parent's training loop, which gathered unary scores and ran the
    forward pass afresh for every objective and every gradient, verbatim."""
    comp, names = _compile(template, data)
    wu = np.zeros((comp.n_feats, len(LABELS)))
    wt = np.zeros((len(LABELS), len(LABELS)))
    rho2 = config.rho**2

    def objective(wu_c: np.ndarray, wt_c: np.ndarray) -> float:
        penalty = float((wu_c**2).sum()) + float((wt_c**2).sum())
        return reference_log_likelihood(comp, wu_c, wt_c) - penalty / (2.0 * rho2)

    obj = objective(wu, wt)
    step = 1.0
    for _ in range(config.max_iterations):
        gu, gt = reference_count_gradient(comp, wu, wt)
        gu -= wu / rho2
        gt -= wt / rho2
        grad_norm = max(
            float(np.abs(gu).max()) if gu.size else 0.0, float(np.abs(gt).max())
        )
        if grad_norm < config.gradient_tolerance:
            break
        g2 = float((gu**2).sum() + (gt**2).sum())
        s = step * 2.0
        while True:
            wu_new = wu + s * gu
            wt_new = wt + s * gt
            obj_new = objective(wu_new, wt_new)
            if obj_new >= obj + 1e-4 * s * g2:  # Armijo sufficient increase
                break
            s *= 0.5
            if s < 1e-15:
                s = 0.0
                break
        if s == 0.0:
            break
        wu, wt, obj, step = wu_new, wt_new, obj_new, s
    return names(), wu, wt


def random_ragged_batch(rng, n_words=6):
    return [
        tuple(
            make_record(
                word=f"w{rng.integers(0, n_words)}",
                pos=f"p{rng.integers(0, 3)}",
                label=LABELS[rng.integers(0, 3)],
            )
            for _ in range(int(rng.integers(1, 9)))
        )
        for _ in range(int(rng.integers(1, 7)))
    ]


@pytest.mark.parametrize("seed", range(6))
def test_fit_matches_the_reference_training_loop(seed, monkeypatch):
    """On random ragged batches, with and without a B line, the one-gather
    loop takes the same steps as the parent's loop: the same gradient count,
    the same objective evaluations and weights within 1e-10.  The reference
    compiles with _compile, so its rows are matched to _fit's by string."""
    rng = np.random.default_rng(700 + seed)
    calls = {"reference_count_gradient": 0, "reference_log_likelihood": 0}
    module = sys.modules[__name__]
    for name in calls:

        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    for data, template in itertools.product(
        [random_ragged_batch(rng) for _ in range(3)], (WORD_POS_TEMPLATE, WORD_POS_UNIGRAM)
    ):
        config = TrainConfig(
            rho=float(rng.choice([1.0, 10.0])),
            max_iterations=int(rng.integers(1, 40)),
            gradient_tolerance=float(rng.choice([1e-4, 0.05])),
        )
        calls.update(dict.fromkeys(calls, 0))
        want, want_wu, want_wt = reference_fit(data, template, config)
        comp, names = _compile_columns(template, data)
        wu, wt, report = _fit(comp, config)
        gradients = report.iterations + (report.stop_reason != "max_iterations")
        assert (gradients, report.evaluations) == tuple(calls.values())
        assert sorted(names()) == sorted(want)
        rows = [want.index(s) for s in names()]
        np.testing.assert_allclose(wu, want_wu[rows], rtol=0, atol=1e-10)
        np.testing.assert_allclose(wt, want_wt, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_gradient_matches_the_reference_scatter(seed):
    """The bincount scatter behind gradient() gives the np.add.at counts."""
    rng = np.random.default_rng(800 + seed)
    for template in (WORD_POS_TEMPLATE, POS_UNIGRAM_TEMPLATE, parse_template("B\n")):
        data = random_ragged_batch(rng)
        fitted = train(data, template, config=TrainConfig(rho=3.0, max_iterations=5))
        model = CrfModel(LABELS3, template, fitted.weights, rho=3.0)
        comp, names, wu, wt = _bind(model, data)
        gu, gt = reference_count_gradient(comp, wu, wt)
        want = _arrays_to_weights(comp, names, gu - wu / 9.0, gt - wt / 9.0)
        got = gradient(model, data)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=0, abs=1e-10), key


def random_left_padded_scores(rng, scale=3.0):
    """Unary scores for a ragged left-padded batch; padding holds junk scores
    that must not leak in."""
    lengths = rng.integers(1, 10, size=int(rng.integers(1, 7)))
    t_max = int(lengths.max())
    mask = np.arange(t_max) >= t_max - lengths[:, None]
    e = rng.normal(size=(len(lengths), t_max, 3)) * scale
    e[~mask] = rng.choice([0.0, 800.0, -800.0])
    return e, mask


@pytest.mark.parametrize("bigram", [True, False], ids=["B", "no-B"])
@pytest.mark.parametrize("seed", range(4))
def test_scaled_pass_agrees_with_the_log_space_reference(seed, bigram):
    """On random ragged left-padded batches the scaled pass gives log Z within
    1e-12 relative, node and edge marginals (per pair and summed) within
    1e-12 absolute, and the gradient within 1e-10 of the log-space
    recursion."""
    rng = np.random.default_rng(900 + seed)
    for _ in range(20):
        e, mask = random_left_padded_scores(rng)
        wt = rng.normal(size=(3, 3)) * 2.0 if bigram else np.zeros((3, 3))
        fwd = _forward(e, wt, mask)
        assert fwd.scale is not None
        np.testing.assert_allclose(
            fwd.log_z, reference_log_z_batch(e, wt, mask), rtol=1e-12, atol=1e-12
        )
        want_node, want_edge = reference_posteriors(e, wt, mask)
        node, edge = _posteriors(e, wt, mask, fwd)
        np.testing.assert_allclose(node, want_node, rtol=0, atol=1e-12)
        np.testing.assert_allclose(edge, want_edge, rtol=0, atol=1e-12)
        node, total = _posteriors(e, wt, mask, fwd, summed=True)
        np.testing.assert_allclose(node, want_node, rtol=0, atol=1e-12)
        np.testing.assert_allclose(total, want_edge.sum(axis=(0, 1)), rtol=0, atol=1e-12)
    template = WORD_POS_TEMPLATE if bigram else WORD_POS_UNIGRAM
    for _ in range(5):
        comp, _ = _compile_columns(template, random_ragged_batch(rng))
        wu = rng.normal(size=(comp.n_feats, 3))
        wt = rng.normal(size=(3, 3)) if bigram else np.zeros((3, 3))
        gu, gt = crf._count_gradient(comp, _unary_batch(wu, comp), wt)
        want_gu, want_gt = reference_count_gradient(comp, wu, wt)
        np.testing.assert_allclose(gu, want_gu, rtol=0, atol=1e-10)
        np.testing.assert_allclose(gt, want_gt, rtol=0, atol=1e-10)


def assert_like_the_log_space_reference(model, data):
    """log_partition and marginals of each sentence, and gradient and
    regularized_objective over data, are finite and match the log-space
    recursion."""
    rho2 = model.rho**2
    for sentence in data:
        lattice = build_lattice(model, sentence)
        e, wt = lattice.log_unary[None], lattice.log_transition
        mask = np.ones(e.shape[:2], dtype=bool)
        want = reference_log_z_batch(e, wt, mask)[0]
        assert math.isfinite(want)
        assert log_partition(lattice) == pytest.approx(want, rel=1e-12)
        node, edge = marginals(lattice)
        want_node, want_edge = reference_posteriors(e, wt, mask)
        np.testing.assert_allclose(node, want_node[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(edge, want_edge[0], rtol=0, atol=1e-12)
    comp, names, wu, wt = _bind(model, data)
    gu, gt = reference_count_gradient(comp, wu, wt)
    want = _arrays_to_weights(comp, names, gu - wu / rho2, gt - wt / rho2)
    got = gradient(model, data)
    assert all(math.isfinite(v) for v in got.values())
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=0, abs=1e-10), key
    penalty = sum(w * w for w in model.weights.values()) / (2.0 * rho2)
    want = reference_log_likelihood(comp, wu, wt) - penalty
    assert math.isfinite(want)
    assert regularized_objective(model, data) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rho", [1e6, 10.0])
def test_extreme_weights_on_real_tokens_take_the_log_space_pass(rho, recwarn):
    """Token a votes O and token b B-MWE with weight 800, and O -> B-MWE costs
    800.  Scaled, every label's product at the second token underflows to
    zero; the pass runs in log space instead, so nothing is lost or warned."""
    data = [(make_record(pos="a", label="O"), make_record(pos="b", label="B-MWE"))]
    weights = {("U00:a", "O"): 800.0, ("U00:b", "B-MWE"): 800.0, ("O", "B-MWE"): -800.0}
    model = CrfModel(LABELS3, POS_TEMPLATE, weights, rho=rho)
    lattice = build_lattice(model, data[0])
    e, wt = lattice.log_unary[None], lattice.log_transition
    unary, trans = np.exp(e[0] - e[0].max(axis=1, keepdims=True)), np.exp(wt - wt.max())
    assert not (unary[0] @ trans * unary[1]).any()  # what the scaled step would see
    assert _forward(e, wt, np.ones((1, 2), dtype=bool)).scale is None
    assert_like_the_log_space_reference(model, data)
    assert not recwarn.list


def test_an_underflow_the_scale_factors_do_not_show_takes_the_log_space_pass(
    recwarn, monkeypatch
):
    """At the second token I's forward product underflows while O keeps c_t
    normal, and the next token makes I the only way on.  A check on the
    scale factors alone would pass this batch and lose I's path; the spread
    of its scores sends it to log space."""
    weights = {
        ("U00:a", "O"): 300.0,
        ("U00:b", "O"): 300.0, ("U00:b", "I-MWE"): -300.0,
        ("U00:c", "B-MWE"): 300.0,
        ("O", "O"): -300.0, ("O", "I-MWE"): 0.0, ("I-MWE", "B-MWE"): 300.0,
        ("O", "B-MWE"): -300.0, ("B-MWE", "B-MWE"): -300.0,
    }
    model = CrfModel(LABELS3, POS_TEMPLATE, weights, rho=10.0)
    data = [tuple(make_record(pos=p) for p in "abc")]
    lattice = build_lattice(model, data[0])
    e, wt, mask = lattice.log_unary[None], lattice.log_transition, np.ones((1, 3), dtype=bool)
    assert _forward(e, wt, mask).scale is None
    assert_like_the_log_space_reference(model, data)
    assert not recwarn.list
    monkeypatch.setattr(crf, "_SPAN", math.inf)  # scaled whatever the spread
    forced = _forward(e, wt, mask)
    assert (forced.scale >= np.finfo(float).tiny).all()
    assert forced.log_z[0] < reference_log_z_batch(e, wt, mask)[0] - 200.0


def test_unary_scores_far_apart_stay_scaled_and_exact(recwarn):
    """Scores up to 290 apart at one position and transitions spread 300
    keep the scaled pass, which then matches the log-space recursion."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        e, mask = random_left_padded_scores(rng, scale=1.0)
        e += rng.choice([-145.0, 0.0, 145.0], size=e.shape)
        wt = rng.uniform(-300.0, 0.0, size=(3, 3))
        wt.flat[rng.permutation(9)[:2]] = (0.0, -300.0)
        fwd = _forward(e, wt, mask)
        assert fwd.scale is not None
        np.testing.assert_allclose(
            fwd.log_z, reference_log_z_batch(e, wt, mask), rtol=1e-12, atol=1e-12
        )
        want_node, want_edge = reference_posteriors(e, wt, mask)
        node, edge = _posteriors(e, wt, mask, fwd)
        np.testing.assert_allclose(node, want_node, rtol=0, atol=1e-10)
        np.testing.assert_allclose(edge, want_edge, rtol=0, atol=1e-10)
    assert not recwarn.list


@pytest.mark.parametrize("n_macros", [0, 1, 7, 9, 23, 38])
def test_per_macro_gather_equals_the_fancy_index_sum(n_macros):
    """The gather adds each position's weight rows one macro at a time, in
    macro order, so it equals wu[feats].sum(axis=2), on a fold-sized batch
    and on a batch of one.  Weights spread over 16 orders of magnitude make
    any other summation order show."""
    rng = np.random.default_rng(n_macros)
    wu = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-8, 8, size=(500, 1))
    for shape in ((133, 13), (1, 9)):
        feats = rng.integers(0, len(wu), size=(*shape, n_macros), dtype=np.int32)
        comp = _Compiled(len(wu), feats, np.zeros(shape, np.int32), np.ones(shape, bool), True)
        assert np.array_equal(_unary_batch(wu, comp), wu[feats].sum(axis=2))


def _compile(template, data):
    """The string compile, the reference for _compile_columns: every
    position's feature strings, as expand_macros spells them, interned to
    rows in first-seen order, and a function that lists them in row order."""
    mask, gold = _frame(data)
    vocab = {}
    feats = np.zeros((*mask.shape, len(template.macros)), dtype=np.int32)
    feats[mask] = [
        [vocab.setdefault(s, len(vocab)) for s in expand_macros(template, rows, t)]
        for rows in data
        for t in range(len(rows))
    ]
    comp = _Compiled(len(vocab), feats, gold, mask, bigram=template.include_label_bigram)
    return comp, lambda: list(vocab)


def spelled(comp, names):
    """The feature string of every macro at every real position, given the
    rows' feature strings."""
    return np.array(names, dtype=object)[comp.feats[comp.mask]].tolist()


def assert_same_compile(template, data):
    """Both compiles give every real position the same feature strings and
    spell the same rows as a set (rows may be numbered differently), and
    give the same gold, mask and bigram."""
    want, want_names = _compile(template, data)
    got, got_names = _compile_columns(template, data)
    want_names, got_names = want_names(), got_names()
    assert sorted(got_names) == sorted(want_names)
    assert got.n_feats == len(got_names) == want.n_feats
    assert spelled(got, got_names) == spelled(want, want_names)
    assert got.feats.dtype == want.feats.dtype and got.feats.shape == want.feats.shape
    assert not got.feats[~got.mask].any()
    for name in ("gold", "mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.bigram == want.bigram


def edge_batch(rng):
    """Ragged sentences of 1-8 tokens whose cells include boundary literals
    and values holding /."""
    words = ("w0", "w1", "_B-1", "_B+2", "a/b", "b/c", "a", "c")
    return [
        tuple(
            make_record(
                word=str(rng.choice(words)),
                pos=str(rng.choice(("p0", "b/c", "_B-1", "c"))),
                label=LABELS[rng.integers(0, 3)],
            )
            for _ in range(int(rng.integers(1, 9)))
        )
        for _ in range(int(rng.integers(1, 7)))
    ]


EDGE_TEMPLATES = {
    "offsets-3": parse_template("U00:%x[-3,0]\nU01:%x[3,0]\nU02:%x[-1,21]\nU03:%x[2,0]\nB\n"),
    "conjunctions": parse_template(
        "U0:%x[0,0]/%x[0,21]\nU1:%x[-1,0]/%x[0,0]/%x[2,21]\nU2:%x[0,0]\n"
    ),
    "offsets-past-int64": parse_template(
        "U0:%x[-100000000000000000000,0]\nU1:%x[100000000000000000000,21]\nU2:%x[9,0]\n"
    ),
    "B-only": parse_template("B\n"),
    "comments-only": parse_template("# no unigram lines\n"),
}


@pytest.mark.parametrize("seed", range(4))
def test_column_compile_equals_the_string_compile(seed):
    """The column compile gives every position _compile's feature strings,
    on random catalogue chromosomes and on boundary offsets of +-3 and past
    any sentence or int64, conjunctions over cells holding /, templates
    without unigram macros and single-token sentences."""
    rng = np.random.default_rng(900 + seed)
    catalogue = default_catalogue()
    chromosomes = [chromosome_to_template(rng.integers(0, 2, 38), catalogue) for _ in range(12)]
    for template in (*chromosomes, *EDGE_TEMPLATES.values()):
        assert_same_compile(template, edge_batch(rng))
        assert_same_compile(template, [edge_batch(rng)[0][:1]])


def test_a_cell_spelled_like_a_boundary_literal_shares_its_feature():
    template = parse_template("U0:%x[-1,0]\nU1:%x[2,0]\n")
    data = [tuple(make_record(word=w) for w in ("_B-1", "y", "_B+2"))]
    comp, names = _compile_columns(template, data)
    assert spelled(comp, names()) == [
        ["U0:_B-1", "U1:_B+2"], ["U0:_B-1", "U1:_B+1"], ["U0:y", "U1:_B+2"]
    ]
    assert comp.n_feats == 4
    assert_same_compile(template, data)


def test_a_conjunction_is_its_joined_string():
    """a/b + c and a + b/c join to one string, so they are one feature."""
    template = parse_template("U0:%x[0,0]/%x[0,21]\n")
    data = [(make_record(word="a/b", pos="c"), make_record(word="a", pos="b/c"))]
    comp, names = _compile_columns(template, data)
    assert names() == ["U0:a/b/c"]
    assert comp.feats[comp.mask].tolist() == [[0], [0]]
    assert_same_compile(template, data)


@pytest.mark.parametrize("seed", range(3))
def test_each_macros_training_rows_form_one_block_in_macro_order(seed):
    """The column compile numbers features in key order: macro m's rows are
    one run of consecutive numbers, right after macro m - 1's, and each is
    spelled with m's id."""
    rng = np.random.default_rng(950 + seed)
    catalogue = default_catalogue()
    templates = [chromosome_to_template(rng.integers(0, 2, 38), catalogue) for _ in range(6)]
    for template in (*templates, *EDGE_TEMPLATES.values()):
        comp, spell = _compile_columns(template, edge_batch(rng))
        names, start = spell(), 0
        for m, macro in enumerate(template.macros):
            rows = np.unique(comp.feats[comp.mask][:, m])
            assert rows.tolist() == list(range(start, start + len(rows))), macro.id
            assert all(names[r].startswith(f"{macro.id}:") for r in rows)
            start += len(rows)
        assert start == len(names) == comp.n_feats


def assert_view_is_the_compile_of_its_sentences(template, data, rng):
    """A view that drops the longest sentence of data has the feature
    strings, mask, gold and gold counts of compiling its sentences alone."""
    data = [*data, max(data, key=len) + data[0]]  # the longest, dropped below
    rows = rng.random(len(data)) < 0.6
    rows[-1], rows[int(rng.integers(0, len(data) - 1))] = False, True
    comp, names = _compile_columns(template, data)
    view = comp.sentences(rows)
    alone, alone_names = _compile_columns(template, [s for s, keep in zip(data, rows) if keep])
    names, alone_names = names(), alone_names()
    assert view.n_feats == comp.n_feats and view.bigram == alone.bigram
    assert spelled(view, names) == spelled(alone, alone_names)
    assert view.feats.shape == alone.feats.shape and not view.feats[~view.mask].any()
    for name in ("gold", "mask"):
        assert np.array_equal(getattr(view, name), getattr(alone, name)), name
    (view_u, view_t), (alone_u, alone_t) = view.gold_counts, alone.gold_counts
    at = [names.index(s) for s in alone_names]
    assert np.array_equal(view_u[at], alone_u) and view_u.sum() == alone_u.sum()
    assert np.array_equal(view_t, alone_t)


@pytest.mark.parametrize("seed", range(4))
def test_a_sentence_view_is_the_compile_of_its_sentences(seed):
    """sentences() cuts a view to its longest sentence, not the batch's, and
    keeps the batch's numbering; an empty pick is refused like an empty batch."""
    rng = np.random.default_rng(970 + seed)
    catalogue = default_catalogue()
    chromosomes = [chromosome_to_template(rng.integers(0, 2, 38), catalogue) for _ in range(4)]
    for template in (WORD_POS_TEMPLATE, WORD_POS_UNIGRAM):
        assert_view_is_the_compile_of_its_sentences(template, random_ragged_batch(rng), rng)
    for template in (*chromosomes, *EDGE_TEMPLATES.values()):
        assert_view_is_the_compile_of_its_sentences(template, edge_batch(rng), rng)
    comp, _ = _compile_columns(WORD_POS_TEMPLATE, random_ragged_batch(rng))
    with pytest.raises(InputError, match="^expected at least one sentence, got none$"):
        comp.sentences(np.zeros(len(comp.mask), dtype=bool))


BIND_TEMPLATES = {
    **EDGE_TEMPLATES,
    "offsets-2": parse_template("U0:%x[-2,0]\nU1:%x[2,21]\nU2:%x[-1,0]/%x[1,21]\nB\n"),
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", list(BIND_TEMPLATES))
def test_build_lattice_is_its_row_of_the_batch_gather(name, seed):
    """build_lattice, which adds each position's weights string by string,
    gives every sentence its row of the gather over _bind's column compile
    bit for bit, and _bind's transitions: on cells spelled like boundary
    literals, conjunctions, offsets of +-2, +-3 and past int64, templates
    without unigram macros, and weights on strings no sentence reaches.
    Weights spread over 16 orders of magnitude make any other summation
    order show."""
    rng = np.random.default_rng(1000 + seed)
    template, data = BIND_TEMPLATES[name], edge_batch(rng)
    reached = sorted({
        s for rows in data for t in range(len(rows)) for s in expand_macros(template, rows, t)
    })
    strings = [s for s in reached if rng.random() < 0.8]
    strings += [f"{macro.id}:never" for macro in template.macros] + ["U99:x"]
    keys = [(s, lab) for s in strings for lab in LABELS] + list(itertools.product(LABELS, LABELS))
    weights = {key: float(rng.normal() * 10.0 ** rng.integers(-8, 8)) for key in keys}
    model = CrfModel(LABELS3, template, weights)
    comp, _, wu, wt = _bind(model, data)
    e = _unary_batch(wu, comp)
    for n, rows in enumerate(data):
        lattice = build_lattice(model, rows)
        assert np.array_equal(lattice.log_unary, e[n, comp.mask[n]])
        assert np.array_equal(lattice.log_transition, wt)


@pytest.mark.parametrize("compile_", [_compile, _compile_columns])
@pytest.mark.parametrize("template", [POS_TEMPLATE, EDGE_TEMPLATES["B-only"]], ids=["U", "B-only"])
def test_both_compiles_refuse_a_batch_alike(compile_, template):
    data = make_separable_sentences(3, seed=4)
    with pytest.raises(InputError, match="^expected at least one sentence, got none$"):
        compile_(template, [])
    with pytest.raises(InputError, match="^sentence 2 is empty$"):
        compile_(template, [data[0], (), data[1], ()])


def test_training_expands_no_strings_and_tagging_one_per_token(monkeypatch):
    """Training, cross-validation (every fold at once), and binding a stored
    model to a batch in decode_sentences, gradient and regularized_objective
    all compile column by column and spell no feature string per token; only
    build_lattice, under viterbi_decode, spells each token's strings, once.
    Training and binding spell each compile's rows once; cross-validation,
    alone or in a pooled or a serial search, spells none."""
    calls, compiles, spells = [], [], []

    def counted(template, rows, t):
        calls.append(t)
        return expand(template, rows, t)

    def counted_compile(template, data):
        comp, names = compile_columns(template, data)
        compiles.append(len(data))

        def counted_names():
            spells.append(len(compiles))
            return names()

        return comp, counted_names

    expand, compile_columns = crf.expand_macros, crf._compile_columns
    monkeypatch.setattr(crf, "expand_macros", counted)
    monkeypatch.setattr(crf, "_compile_columns", counted_compile)
    train_data = make_separable_sentences(6, seed=2)
    test_data = make_separable_sentences(3, seed=13)
    config = TrainConfig(max_iterations=3)
    model = train(train_data, WORD_WINDOW_TEMPLATE, config)
    train_and_decode([train_data[:3], train_data[3:], test_data], WORD_WINDOW_TEMPLATE, config)
    assert calls == [] and compiles == [6, 9] and spells == [1]
    decode_sentences(model, test_data)
    gradient(model, test_data)
    regularized_objective(model, test_data)
    assert calls == [] and compiles == [6, 9, 3, 3, 3] and spells == [1, 3, 4, 5]
    for sentence in test_data:
        viterbi_decode(model, sentence)
    assert len(calls) == sum(len(s) for s in test_data) and len(compiles) == 5
    catalogue = GeneCatalogue(genes=default_catalogue().genes[33:38])
    search = GaConfig(population_size=4, max_generations=1, folds=3, seed=2)
    for cpus in (2, 1):  # a pooled search, then a serial one
        monkeypatch.setattr(ga, "_usable_cpus", lambda cpus=cpus: cpus)
        searched = len(compiles)
        ga.run_ga(train_data, catalogue, search, config)
        assert len(compiles) > searched and compiles[-1] == 6 and spells == [1, 3, 4, 5]


def test_train_materializes_label_pairs_for_seen_features():
    data = [(make_record(word="a", pos="p", label="O"),)]
    model = train(data, POS_TEMPLATE, config=TrainConfig(max_iterations=2))
    assert ("U00:p", "O") in model.weights
    assert ("U00:p", "B-MWE") in model.weights
    assert ("O", "B-MWE") in model.weights


def test_train_without_bigram_stores_no_label_pairs():
    model = train(tiny_corpus(), POS_UNIGRAM_TEMPLATE, config=TrainConfig(max_iterations=5))
    assert ("U00:O", "O") in model.weights
    assert not [key for key in model.weights if key[0] in LABELS]


def test_train_and_decode_matches_separate_calls(fork_pool):
    """For 2 and 3 folds, each fold decodes as viterbi_decode does under
    train() on the other folds, in fold order, whether the folds are fitted
    in this process or on a pool of workers.  The word window gives a fold
    feature strings the other folds never reach; the bare B line is a
    transition-only CRF."""
    data = [*make_separable_sentences(10, seed=2), *make_separable_sentences(4, seed=13)]
    config = TrainConfig(rho=10.0, max_iterations=40)
    templates = (POS_TEMPLATE, POS_UNIGRAM_TEMPLATE, WORD_WINDOW_TEMPLATE, parse_template("B\n"))
    for k in (2, 3):
        folds = [data[i::k] for i in range(k)]
        for template in templates:
            separate = []
            for held, fold in enumerate(folds):
                others = [s for j, other in enumerate(folds) if j != held for s in other]
                model = train(others, template, config=config)
                separate.append([viterbi_decode(model, s) for s in fold])
            for pool in (None, fork_pool):
                labels = crf._start_train_and_decode(folds, template, config, pool=pool)()
                assert labels == separate


def test_training_reports_cross_from_pool_workers_in_fold_order(fork_pool, monkeypatch):
    """A pooled cross-validation reports each fold's fit to the open sinks of
    this process, in fold order, as the same fits in this process do.  So
    does a pooled search, which queues the next chromosome's folds while it
    collects this one's: chromosome by chromosome, as a serial search."""
    data = make_separable_sentences(12, seed=9)
    folds = [data[:2], data[2:7], data[7:]]  # unequal folds: every fit differs
    config = TrainConfig(rho=10.0, max_iterations=15)
    with training_reports() as separate:
        for held in range(3):
            train([s for j, f in enumerate(folds) if j != held for s in f], POS_TEMPLATE, config)
    with training_reports() as serial:
        train_and_decode(folds, POS_TEMPLATE, config)
    with training_reports() as outer, training_reports() as pooled:
        crf._start_train_and_decode(folds, POS_TEMPLATE, config, pool=fork_pool)()
    assert len(set(separate)) == 3
    assert serial == separate
    assert pooled == outer == separate

    evaluate, evaluated = ga.evaluate_fitness, []

    def watched(bits, *args, **kwargs):
        evaluated.append(bits)
        return evaluate(bits, *args, **kwargs)

    monkeypatch.setattr(ga, "evaluate_fitness", watched)
    catalogue = GeneCatalogue(genes=default_catalogue().genes[33:38])
    search = GaConfig(population_size=4, max_generations=2, folds=3, seed=2)
    searches = []
    for cpus in (2, 1):
        monkeypatch.setattr(ga, "_usable_cpus", lambda cpus=cpus: cpus)
        evaluated.clear()
        with training_reports() as reports:
            ga.run_ga(data, catalogue, search, config)
        searches.append(reports)
    with training_reports() as one_by_one:
        for bits in evaluated:
            template = chromosome_to_template(bits, catalogue)
            train_and_decode(split_folds(data, 3, search.seed), template, config)
    assert len(one_by_one) == 3 * len(evaluated) > 3
    assert searches == [one_by_one, one_by_one]


def test_train_and_decode_sends_a_pool_no_feature_string():
    """The compile carries only the count of the rows its names spell, and
    the tasks a pool is sent pickle integer arrays with no feature string
    or word of the data in them."""
    data = [
        tuple(make_record(word=f"spelledword{r.columns[0]}", pos=r.columns[21], label=r.label)
              for r in sentence)
        for sentence in make_separable_sentences(8, seed=2)
    ]
    comp, names = _compile_columns(WORD_POS_TEMPLATE, data)
    assert comp.n_feats == len(names()) and any("spelledword" in s for s in names())

    sent = []

    class Pickling(Executor):
        def submit(self, fn, /, *args, **kwargs):
            sent.append(pickle.dumps((fn, args, kwargs)))
            future = Future()
            future.set_result(fn(*args, **kwargs))
            return future

    folds, config = [data[:3], data[3:]], TrainConfig(max_iterations=5)
    pooled = crf._start_train_and_decode(folds, WORD_POS_TEMPLATE, config, pool=Pickling())()
    assert pooled == train_and_decode(folds, WORD_POS_TEMPLATE, config)
    assert len(sent) == 2
    assert not [task for task in sent if b"spelledword" in task or b"U00:" in task]


def test_train_and_decode_handles_unseen_features():
    """A fold of one novel word reaches no feature the other fold does."""
    data = make_separable_sentences(6, seed=3)
    novel = (make_record(word="unseenword", pos="ZZ"),)
    config = TrainConfig(max_iterations=5)
    predictions = train_and_decode([data, [novel]], POS_TEMPLATE, config=config)
    assert predictions[1] == [viterbi_decode(train(data, POS_TEMPLATE, config), novel)]
    model = train([novel], POS_TEMPLATE, config=config)
    assert predictions[0] == [viterbi_decode(model, s) for s in data]


def test_empty_sentence_is_refused():
    model = train(make_separable_sentences(3, seed=4), POS_TEMPLATE, TrainConfig(max_iterations=2))
    for call in (build_lattice, viterbi_decode):
        with pytest.raises(InputError, match="^sentence 1 is empty$"):
            call(model, ())


def test_empty_batch_and_sentence_messages_count_from_one():
    data = make_separable_sentences(3, seed=4)
    config = TrainConfig(max_iterations=2)
    with pytest.raises(InputError, match="sentence 2 is empty"):
        train([data[0], (), data[1]], POS_TEMPLATE, config)
    for folds in ([], [data, []], [data]):  # no folds, an empty fold, nothing to train on
        with pytest.raises(InputError, match="^expected at least one sentence, got none$"):
            train_and_decode(folds, POS_TEMPLATE, config)


def test_big_catalogue_template_trains():
    bits = tuple(int(i in {2, 35}) for i in range(38))
    template = chromosome_to_template(bits, default_catalogue())
    data = make_separable_sentences(5, seed=21)
    model = train(data, template, config=TrainConfig(max_iterations=10))
    assert model.weights


def test_label_set_rejects_unknown():
    with pytest.raises(InputError):
        LABELS3.index("Q")


def test_label_set_is_the_bio_inventory():
    assert LABELS3.labels == LABELS and len(LABELS3) == 3
    with pytest.raises(TypeError):
        LabelSet(("O", "X"))  # no inventory other than LABELS


def test_lattice_shape_validation():
    with pytest.raises(InputError):
        Lattice(log_unary=np.zeros((2, 3)), log_transition=np.zeros((2, 2)))
    with pytest.raises(InputError):
        Lattice(
            log_unary=np.array([[math.inf, 0.0, 0.0]]),
            log_transition=np.zeros((3, 3)),
        )


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(rho=0.0)
    with pytest.raises(InputError):
        TrainConfig(max_iterations=0)
    with pytest.raises(InputError):
        TrainConfig(gradient_tolerance=-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InputError):
            TrainConfig(rho=bad)
        with pytest.raises(InputError):
            TrainConfig(gradient_tolerance=bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TrainConfig(max_iterations=1.5),
        lambda: TrainConfig(max_iterations=True),
        lambda: sequence_score(Lattice(np.zeros((2, 3)), np.zeros((3, 3))), [0.5, 1]),
        lambda: sequence_score(Lattice(np.zeros((2, 3)), np.zeros((3, 3))), [0, "1"]),
    ],
    ids=["max_iterations-1.5", "max_iterations-True", "index-0.5", "index-str"],
)
def test_a_count_or_index_that_is_not_an_integer_is_refused(build):
    with pytest.raises(InputError, match="must be an integer, got"):
        build()


def test_numpy_integers_are_integers():
    assert TrainConfig(max_iterations=np.int64(3)).max_iterations == 3
    lattice = Lattice(np.arange(6.0).reshape(2, 3), np.zeros((3, 3)))
    assert sequence_score(lattice, np.array([2, 1])) == 6.0
