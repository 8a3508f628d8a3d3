"""Shared corpus builders and small helpers for the test suite."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mwetag import ga
from mwetag.features import NUM_COLUMNS, TokenRecord
from mwetag.stemmer import AffixLexicon


# str.splitlines() also breaks lines at these; a file line ends only at \n, \r\n or \r
NOT_LINE_ENDS = {"VT": "\x0b", "FF": "\x0c", "NEL": "\x85", "LS": "\u2028"}


def make_record(
    word: str = "token",
    pos: str = "XX",
    label: str = "O",
    stem: str | None = None,
    suffixes: tuple[str, ...] = (),
    prefix: str = "0",
    digit: int = 0,
    salutation: int = 0,
    followup: int = 0,
    freq: int = 0,
    length: int | None = None,
) -> TokenRecord:
    slots = list(suffixes[:10]) + ["0"] * (10 - len(suffixes[:10]))
    count = len(suffixes[:10])
    columns = (
        word,
        stem if stem is not None else word,
        *slots,
        str(int(count > 0)),
        str(count),
        prefix,
        str(int(prefix != "0")),
        str(digit),
        str(salutation),
        str(followup),
        str(freq),
        str(int(len(word) > 3) if length is None else length),
        pos,
    )
    assert len(columns) == NUM_COLUMNS
    return TokenRecord(columns=columns, label=label)


def make_sentence(*word_label_pairs: tuple[str, str]) -> tuple[TokenRecord, ...]:
    return tuple(make_record(word=w, label=lab) for w, lab in word_label_pairs)


@pytest.fixture
def fork_pool():
    """Forked worker processes, two or as many as this process may run on,
    shut down and joined after the test."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(2, ga._usable_cpus()), mp_context=context) as pool:
        yield pool


@pytest.fixture
def tiny_lexicon() -> AffixLexicon:
    return AffixLexicon(prefixes=("ab", "a"), suffixes=("xyz", "yz", "z"))


def random_span_labels(length: int, rng: np.random.Generator) -> list[str]:
    """Random BIO pattern: spans of length 1 or 2, never overlapping."""
    labels = ["O"] * length
    t = 0
    while t < length:
        if rng.random() < 0.25:
            labels[t] = "B-MWE"
            if t + 1 < length and rng.random() < 0.5:
                labels[t + 1] = "I-MWE"
                t += 1
        t += 1
    return labels


_LETTERS = "abcdefghijklmnopqrstuvwxy"  # no 'z': z marks synthetic suffixes


def _word_pool(rng: np.random.Generator, size: int, length: int) -> list[str]:
    pool = set()
    while len(pool) < size:
        pool.add("".join(rng.choice(list(_LETTERS), size=length)))
    return sorted(pool)


RECOVERY_SUFFIXES = {"B-MWE": "zb", "I-MWE": "zi", "O": "zo"}
RECOVERY_POS = {"B-MWE": "PB", "I-MWE": "PI", "O": "PO"}


def recovery_lexicon() -> AffixLexicon:
    return AffixLexicon(prefixes=("qqq",), suffixes=("zb", "zi", "zo"))


def make_recovery_raw(
    n_sentences: int, seed: int
) -> list[list[tuple[str, str, str]]]:
    """Sentences whose labels are readable only through three feature
    channels: the first suffix slot, the token's own POS tag, and the digit
    flag.  Word identity is useless because surface pools are large."""
    rng = np.random.default_rng(seed)
    roots = _word_pool(rng, 400, 4)
    fillers = _word_pool(rng, 400, 5)
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(8, 14))
        labels = random_span_labels(length, rng)
        sentence = []
        for label in labels:
            channels = ("suffix", "pos") if label == "I-MWE" else ("suffix", "pos", "digit")
            channel = channels[int(rng.integers(0, len(channels)))]
            if channel == "suffix":
                word = roots[int(rng.integers(0, len(roots)))] + RECOVERY_SUFFIXES[label]
                pos = "XX"
            elif channel == "pos":
                word = fillers[int(rng.integers(0, len(fillers)))]
                pos = RECOVERY_POS[label]
            else:
                base = fillers[int(rng.integers(0, len(fillers)))]
                mark = str(int(rng.integers(0, 10))) if label == "B-MWE" else "q"
                word = base + mark
                pos = "XX"
            sentence.append((word, pos, label))
        sentences.append(sentence)
    return sentences


def make_separable_sentences(
    n_sentences: int, seed: int
) -> list[tuple[TokenRecord, ...]]:
    """POS column equals the label, so one POS gene separates perfectly."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(4, 9))
        labels = random_span_labels(length, rng)
        sentences.append(
            tuple(
                make_record(word=f"w{int(rng.integers(0, 30))}", pos=lab, label=lab)
                for lab in labels
            )
        )
    return sentences
