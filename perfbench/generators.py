"""Seeded input generators for the benchmark workloads.

Every generator takes its seed as an argument and returns plain raw triples
``(word, pos, label)``; the program under test only ever sees the files the
workloads write from them.  The same seed always gives the same corpus.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path

import numpy as np

Raw = list[list[tuple[str, str, str]]]

# --- recovery corpus ---------------------------------------------------------
# A copy of the acceptance suite's criterion-6 generator, kept here so the
# benchmark does not import from the test tree.  Labels are readable only
# through the first suffix slot, the token's own POS tag and the digit flag.

_LETTERS = "abcdefghijklmnopqrstuvwxy"  # no 'z': z marks synthetic suffixes
RECOVERY_SUFFIXES = {"B-MWE": "zb", "I-MWE": "zi", "O": "zo"}
RECOVERY_POS = {"B-MWE": "PB", "I-MWE": "PI", "O": "PO"}
RECOVERY_PREFIXES = ("qqq",)


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


def _word_pool(rng: np.random.Generator, size: int, length: int) -> list[str]:
    pool: set[str] = set()
    while len(pool) < size:
        pool.add("".join(rng.choice(list(_LETTERS), size=length)))
    return sorted(pool)


def recovery_raw(n_sentences: int, seed: int) -> Raw:
    rng = np.random.default_rng(seed)
    roots = _word_pool(rng, 400, 4)
    fillers = _word_pool(rng, 400, 5)
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(8, 14))
        sentence = []
        for label in random_span_labels(length, rng):
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


# --- Bengali-script stacked-suffix corpus -------------------------------------
# Words are random Bengali-script roots with 0-3 suffixes from the packaged
# suffix list stacked on the right (1-3 inside a span), and sometimes a
# packaged prefix.  A span token's outermost suffix usually comes from a small
# label-specific subset and its POS tag leans towards the label; salutations
# precede and follow-up words follow some spans, so the gazetteer flags fire.
# The signals are noisy on purpose, so the tagger scores well but not
# perfectly.

_CONSONANTS = "কখগঘচছজঝটঠডঢণতথদধনপফবভমরলশষসহ"
_VOWEL_SIGNS = ("", "া", "ি", "ী", "ু", "ূ", "ে", "ো")
_POS_BY_LABEL = {
    "B-MWE": ("NNP", "NNP", "NNP", "NN"),
    "I-MWE": ("NNP", "NNP", "NN", "VM"),
    "O": ("NN", "VM", "JJ", "RB", "PSP", "NNP"),
}
N_LABEL_SUFFIXES = 5  # suffixes reserved for B-MWE, then for I-MWE


def read_affix_list(path: Path) -> list[str]:
    """Entries of a packaged affix or gazetteer list, NFC, comments dropped."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(unicodedata.normalize("NFC", line))
    return entries


class BengaliWords:
    """Word factory over the packaged lists; holds no random state itself."""

    def __init__(self, data_dir: Path) -> None:
        self.prefixes = read_affix_list(data_dir / "prefixes_list.txt")
        suffixes = read_affix_list(data_dir / "suffixes_list.txt")
        self.salutations = read_affix_list(data_dir / "salutations.txt")
        self.followups = read_affix_list(data_dir / "followups.txt")
        k = N_LABEL_SUFFIXES
        self.suffixes_by_label = {
            "B-MWE": suffixes[:k],
            "I-MWE": suffixes[k : 2 * k],
            "O": suffixes[2 * k :],
        }

    def root(self, rng: np.random.Generator) -> str:
        syllables = int(rng.integers(2, 4))
        return "".join(
            _CONSONANTS[int(rng.integers(0, len(_CONSONANTS)))]
            + _VOWEL_SIGNS[int(rng.integers(0, len(_VOWEL_SIGNS)))]
            for _ in range(syllables)
        )

    def word(self, label: str, roots: list[str], rng: np.random.Generator) -> str:
        word = roots[int(rng.integers(0, len(roots)))]
        if rng.random() < 0.1:
            word = self.prefixes[int(rng.integers(0, len(self.prefixes)))] + word
        # span tokens always carry a suffix; the outermost one names the
        # label most of the time
        n_suffixes = int(rng.integers(0 if label == "O" else 1, 4))
        other = self.suffixes_by_label["O"]
        for i in range(n_suffixes):
            pool = other
            if i == n_suffixes - 1 and label != "O" and rng.random() < 0.9:
                pool = self.suffixes_by_label[label]
            word += pool[int(rng.integers(0, len(pool)))]
        return unicodedata.normalize("NFC", word)

    def sentence(
        self, length: int, roots: list[str], rng: np.random.Generator
    ) -> list[tuple[str, str, str]]:
        labels = random_span_labels(length, rng)
        words = [self.word(label, roots, rng) for label in labels]
        for t, label in enumerate(labels):
            if label == "O" and t + 1 < length and labels[t + 1] == "B-MWE":
                if rng.random() < 0.3:
                    words[t] = self.salutations[int(rng.integers(0, len(self.salutations)))]
            if label == "O" and t > 0 and labels[t - 1] != "O" and rng.random() < 0.3:
                words[t] = self.followups[int(rng.integers(0, len(self.followups)))]
        out = []
        for word, label in zip(words, labels):
            tags = _POS_BY_LABEL[label]
            out.append((word, tags[int(rng.integers(0, len(tags)))], label))
        return out


def bengali_raw(words: BengaliWords, lengths: list[int], seed: int, n_roots: int = 1500) -> Raw:
    """One sentence per entry of ``lengths``, drawn from a seeded root pool."""
    rng = np.random.default_rng(seed)
    roots = sorted({words.root(rng) for _ in range(n_roots)})
    return [words.sentence(length, roots, rng) for length in lengths]


def short_lengths(n: int, seed: int) -> list[int]:
    """Uniform 8-13-token sentence lengths."""
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(8, 14, size=n)]


def write_raw(sentences: Raw, path: Path) -> None:
    blocks = ["\n".join("\t".join(token) for token in sentence) for sentence in sentences]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def write_lines(entries: list[str] | tuple[str, ...], path: Path) -> None:
    path.write_text("".join(f"{e}\n" for e in entries), encoding="utf-8")
