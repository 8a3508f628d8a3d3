"""Span extraction and precision/recall/F scoring for BIO label sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .features import LABELS

MODES = ("span", "token")
DEFAULT_MODE = MODES[0]


@dataclass(frozen=True, order=True)
class Span:
    sentence_index: int
    start: int
    end: int  # inclusive


def extract_spans(labels: Sequence[str], sentence_index: int = 0) -> set[Span]:
    """Contiguous B/I runs as spans.  An I with no open span starts one, so
    slightly ill-formed predictions still score token-for-token fairly.
    Errors count the sentence and token from 1."""
    spans: set[Span] = set()
    start: int | None = None
    for t, label in enumerate(labels):
        if label not in LABELS:
            raise InputError(
                f"sentence {sentence_index + 1}, token {t + 1}: unknown label {label!r}"
            )
        if label == "B-MWE":
            if start is not None:
                spans.add(Span(sentence_index, start, t - 1))
            start = t
        elif label == "I-MWE":
            if start is None:
                start = t
        else:
            if start is not None:
                spans.add(Span(sentence_index, start, t - 1))
                start = None
    if start is not None:
        spans.add(Span(sentence_index, start, len(labels) - 1))
    return spans


def f_measure(precision: float, recall: float, beta: float = 1.0) -> float:
    """(beta^2 + 1) * P * R / (beta^2 * P + R); zero when both P and R are zero."""
    if beta <= 0:
        raise InputError(f"beta must be positive, got {beta}")
    denominator = beta * beta * precision + recall
    if denominator == 0:
        return 0.0
    return (beta * beta + 1.0) * precision * recall / denominator


@dataclass(frozen=True)
class EvalReport:
    mode: str
    correct: int
    gold_total: int
    predicted_total: int
    precision: float
    recall: float
    f_measure: float


def score(
    gold: Sequence[Sequence[str]],
    predicted: Sequence[Sequence[str]],
    mode: str = DEFAULT_MODE,
) -> EvalReport:
    """Compare label sequences sentence by sentence.

    Both modes count the items the two sides share: span mode exactly
    matching (sentence, start, end) spans, token mode (sentence, token,
    label) for each non-O token.
    Percentages are full precision; rounding happens only in rendering.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    if len(gold) != len(predicted):
        raise InputError(
            f"gold has {len(gold)} sentences, predicted has {len(predicted)}"
        )
    for i, (g, p) in enumerate(zip(gold, predicted), start=1):
        if len(g) != len(p):
            raise InputError(
                f"sentence {i}: gold has {len(g)} tokens, predicted has {len(p)}"
            )

    def items(labels: Sequence[str], i: int) -> set:
        spans = extract_spans(labels, i)  # also refuses an unknown label
        if mode == "span":
            return spans
        return {(i, t, label) for t, label in enumerate(labels) if label != "O"}

    gold_items: set = set()
    pred_items: set = set()
    for i, (g, p) in enumerate(zip(gold, predicted)):
        gold_items |= items(g, i)
        pred_items |= items(p, i)
    correct = len(gold_items & pred_items)
    gold_total, predicted_total = len(gold_items), len(pred_items)

    precision = 100.0 * correct / predicted_total if predicted_total else 0.0
    recall = 100.0 * correct / gold_total if gold_total else 0.0
    return EvalReport(
        mode=mode,
        correct=correct,
        gold_total=gold_total,
        predicted_total=predicted_total,
        precision=precision,
        recall=recall,
        f_measure=f_measure(precision, recall),
    )


def render_text(report: EvalReport) -> str:
    return "\n".join(
        [
            f"mode:       {report.mode}",
            f"correct:    {report.correct}",
            f"gold:       {report.gold_total}",
            f"predicted:  {report.predicted_total}",
            f"precision:  {report.precision:.2f}",
            f"recall:     {report.recall:.2f}",
            f"f-measure:  {report.f_measure:.2f}",
        ]
    )


def render_csv(report: EvalReport) -> str:
    return (
        "mode,correct,gold,predicted,P,R,F\n"
        f"{report.mode},{report.correct},{report.gold_total},{report.predicted_total},"
        f"{report.precision:.2f},{report.recall:.2f},{report.f_measure:.2f}\n"
    )
