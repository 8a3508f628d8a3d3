"""Span extraction and scoring arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwetag.errors import InputError
from mwetag.evaluation import (
    EvalReport,
    Span,
    extract_spans,
    f_measure,
    render_csv,
    render_text,
    score,
)


def spans(labels, idx=0):
    return extract_spans(labels, sentence_index=idx)


def test_extract_basic_spans():
    got = spans(["O", "B-MWE", "I-MWE", "O", "B-MWE"])
    assert got == {Span(0, 1, 2), Span(0, 4, 4)}


def test_extract_adjacent_b_tags():
    assert spans(["B-MWE", "B-MWE"]) == {Span(0, 0, 0), Span(0, 1, 1)}


def test_extract_orphan_i_opens_span():
    assert spans(["O", "I-MWE", "I-MWE", "O"]) == {Span(0, 1, 2)}
    assert spans(["I-MWE"]) == {Span(0, 0, 0)}


def test_extract_span_runs_to_sentence_end():
    assert spans(["O", "B-MWE", "I-MWE"]) == {Span(0, 1, 2)}


def test_extract_all_outside():
    assert spans(["O", "O", "O"]) == set()
    assert spans([]) == set()


def test_extract_b_after_i_splits():
    got = spans(["I-MWE", "B-MWE", "I-MWE"])
    assert got == {Span(0, 0, 0), Span(0, 1, 2)}


def test_extract_unknown_label():
    with pytest.raises(InputError, match="sentence 1, token 2: unknown label 'X'"):
        spans(["O", "X"])
    with pytest.raises(InputError, match="sentence 2, token 2: unknown label 'X'"):
        score([["O"], ["O", "O"]], [["O"], ["O", "X"]], mode="span")
    with pytest.raises(InputError, match="sentence 2, token 2: unknown label 'X'"):
        score([["O"], ["O", "X"]], [["O"], ["O", "O"]], mode="token")


def test_extract_tags_sentence_index():
    assert spans(["B-MWE"], idx=7) == {Span(7, 0, 0)}


def test_f_measure_balanced():
    assert f_measure(50.0, 50.0) == pytest.approx(50.0)
    assert f_measure(100.0, 0.0) == 0.0
    assert f_measure(0.0, 0.0) == 0.0


def test_f_measure_beta_weighting():
    p, r = 80.0, 40.0
    f1 = f_measure(p, r, beta=1.0)
    f2 = f_measure(p, r, beta=2.0)
    half = f_measure(p, r, beta=0.5)
    assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)
    assert f2 < f1 < half  # beta > 1 leans on the lower recall here


def test_f_measure_formula():
    for beta in (0.5, 1.0, 2.0):
        p, r = 73.2, 41.9
        want = (beta * beta + 1) * p * r / (beta * beta * p + r)
        assert f_measure(p, r, beta) == pytest.approx(want, abs=1e-12)


def test_f_measure_rejects_bad_beta():
    with pytest.raises(InputError):
        f_measure(50.0, 50.0, beta=0.0)
    with pytest.raises(InputError):
        f_measure(50.0, 50.0, beta=-1.0)


percentages = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(percentages)
def test_f_equals_inputs_when_equal(x):
    assert f_measure(x, x) == pytest.approx(x, abs=1e-9)


@given(percentages, percentages)
def test_f_between_min_and_max(p, r):
    f = f_measure(p, r)
    assert f <= max(p, r) + 1e-9
    assert min(p, r) - 1e-9 <= f or f == 0.0


GOLD = [
    ["O", "B-MWE", "I-MWE", "O"],
    ["B-MWE", "O", "O"],
]
PRED = [
    ["O", "B-MWE", "I-MWE", "O"],
    ["O", "O", "B-MWE"],
]


def test_score_span_mode():
    report = score(GOLD, PRED, mode="span")
    assert report.mode == "span"
    assert report.correct == 1
    assert report.gold_total == 2
    assert report.predicted_total == 2
    assert report.precision == pytest.approx(50.0)
    assert report.recall == pytest.approx(50.0)
    assert report.f_measure == pytest.approx(50.0)


def test_score_span_spans_must_match_exactly():
    gold = [["B-MWE", "I-MWE", "O"]]
    pred = [["B-MWE", "O", "O"]]  # shorter span, no credit
    report = score(gold, pred, mode="span")
    assert report.correct == 0


def test_score_spans_do_not_cross_sentences():
    gold = [["B-MWE"], ["O"]]
    pred = [["O"], ["B-MWE"]]
    report = score(gold, pred, mode="span")
    assert report.correct == 0


def test_score_token_mode():
    report = score(GOLD, PRED, mode="token")
    # gold non-O tokens: 3; predicted non-O: 3; agreeing non-O: 2
    assert report.mode == "token"
    assert report.correct == 2
    assert report.gold_total == 3
    assert report.predicted_total == 3
    assert report.precision == pytest.approx(2 / 3 * 100)
    assert report.recall == pytest.approx(2 / 3 * 100)


def test_score_token_mode_requires_same_label():
    gold = [["B-MWE", "I-MWE"]]
    pred = [["I-MWE", "I-MWE"]]
    report = score(gold, pred, mode="token")
    assert report.correct == 1


def test_score_empty_totals_give_zero():
    report = score([["O"]], [["O"]], mode="span")
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f_measure == 0.0


def test_score_shape_mismatch():
    with pytest.raises(InputError, match="gold has 1 sentences, predicted has 2"):
        score([["O"]], [["O"], ["O"]])
    with pytest.raises(InputError, match="sentence 1: gold has 2 tokens, predicted has 1"):
        score([["O", "O"]], [["O"]])


def test_score_rejects_unknown_mode():
    with pytest.raises(InputError):
        score(GOLD, PRED, mode="char")


def test_report_percentages_are_consistent():
    report = score(GOLD, PRED, mode="span")
    assert report.precision * report.predicted_total == pytest.approx(
        report.correct * 100.0
    )
    assert report.recall * report.gold_total == pytest.approx(report.correct * 100.0)


def test_render_text_mentions_all_numbers():
    report = EvalReport(
        mode="span",
        correct=3,
        gold_total=4,
        predicted_total=6,
        precision=50.0,
        recall=75.0,
        f_measure=60.0,
    )
    text = render_text(report)
    for piece in ("span", "3", "4", "6", "50.00", "75.00", "60.00"):
        assert piece in text


def test_render_csv_shape():
    report = score(GOLD, PRED, mode="span")
    lines = render_csv(report).splitlines()
    assert lines[0] == "mode,correct,gold,predicted,P,R,F"
    fields = lines[1].split(",")
    assert fields[0] == "span"
    assert fields[1:4] == ["1", "2", "2"]
    assert fields[4:] == ["50.00", "50.00", "50.00"]
