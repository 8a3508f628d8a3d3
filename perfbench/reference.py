"""Reference implementations the output checks compare the program against.

They are written independently of ``mwetag``'s own code paths and favour
plainness over speed: they run once per benchmark run, outside the timed
region.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

Rows = list[list[str]]  # one token per entry: 22 feature columns, then the label


def read_columns(path: Path) -> list[Rows]:
    """Whitespace-separated token rows, sentences split by blank lines."""
    sentences: list[Rows] = []
    current: Rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            current.append(line.split())
        elif current:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


def spans(labels: list[str]) -> set[tuple[int, int]]:
    """BIO spans as (start, end); a stray I-MWE opens a span."""
    out = set()
    start = None
    for t, label in enumerate(labels + ["O"]):
        if label == "B-MWE" or label == "O":
            if start is not None:
                out.add((start, t - 1))
            start = t if label == "B-MWE" else None
        elif start is None:
            start = t
    return out


def span_f(gold: list[list[str]], predicted: list[list[str]]) -> float:
    """Exact-span F-measure in percent."""
    correct = n_gold = n_pred = 0
    for g, p in zip(gold, predicted, strict=True):
        gs, ps = spans(g), spans(p)
        correct += len(gs & ps)
        n_gold += len(gs)
        n_pred += len(ps)
    precision = 100.0 * correct / n_pred if n_pred else 0.0
    recall = 100.0 * correct / n_gold if n_gold else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _feature(macro_id: str, refs, rows: Rows, t: int) -> str:
    cells = []
    for offset, col in refs:
        pos = t + offset
        if pos < 0:
            cells.append(f"_B{pos}")
        elif pos >= len(rows):
            cells.append(f"_B+{pos - len(rows) + 1}")
        else:
            cells.append(rows[pos][col])
    return macro_id + ":" + "/".join(cells)


def lattice(model, rows: Rows) -> tuple[np.ndarray, np.ndarray]:
    """Unary (T, L) and transition (L, L) scores under ``model`` (a loaded
    ``CrfModel``), one dict lookup per (feature, label) weight."""
    labels = model.label_set.labels
    weights = model.weights
    unary = np.zeros((len(rows), len(labels)))
    for t in range(len(rows)):
        active = [_feature(m.id, m.refs, rows, t) for m in model.template.macros]
        for j, label in enumerate(labels):
            unary[t, j] = math.fsum(weights.get((s, label), 0.0) for s in active)
    trans = np.zeros((len(labels), len(labels)))
    if model.template.include_label_bigram:
        for a, first in enumerate(labels):
            for b, second in enumerate(labels):
                trans[a, b] = weights.get((first, second), 0.0)
    return unary, trans


def best_path(unary: np.ndarray, trans: np.ndarray) -> tuple[float, list[int]]:
    """Score and label indices of the best sequence (max-product recursion);
    ties go to the lowest label index."""
    score = unary[0]
    back = []
    for t in range(1, unary.shape[0]):
        candidates = score[:, None] + trans
        back.append(candidates.argmax(axis=0))
        score = candidates.max(axis=0) + unary[t]
    path = [int(score.argmax())]
    for step in reversed(back):
        path.append(int(step[path[-1]]))
    return float(score.max()), path[::-1]


def path_score(unary: np.ndarray, trans: np.ndarray, path: list[int]) -> float:
    total = math.fsum(unary[t, j] for t, j in enumerate(path))
    return total + math.fsum(trans[a, b] for a, b in zip(path, path[1:]))


def is_best_path(model, rows: Rows, labels: list[str]) -> bool:
    """True when ``labels`` scores as high as the best sequence, up to
    rounding: summation order may differ from the program's, so exact
    ties are not required to break the same way."""
    unary, trans = lattice(model, rows)
    path = [model.label_set.labels.index(label) for label in labels]
    best, _ = best_path(unary, trans)
    return path_score(unary, trans, path) >= best - 1e-9 * (1.0 + abs(best))
