"""Token feature columns.

Every token is expanded into 22 fixed feature columns plus a BIO label.  The
column layout is shared by the file reader/writer, the template engine, and
the gene catalogue, so the indices below are the single source of truth.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .errors import InputError
from .stemmer import MIN_STEM, AffixLexicon, check_entry, read_entries, stem

LABELS = ("O", "B-MWE", "I-MWE")

NUM_COLUMNS = 22
SUFFIX_SLOTS = 10
ABSENT = "0"

COL_WORD = 0
COL_STEM = 1
COL_SUFFIX_FIRST = 2  # ten slots: columns 2..11, rightmost-stripped suffix first
COL_SUFFIX_PRESENT = 12
COL_SUFFIX_COUNT = 13
COL_PREFIX = 14
COL_PREFIX_PRESENT = 15
COL_DIGIT = 16
COL_SALUTATION = 17
COL_FOLLOWUP = 18
COL_FREQUENCY = 19
COL_LENGTH = 20
COL_POS = 21


@dataclass(frozen=True)
class TokenRecord:
    """One token row: 22 feature columns (as written to file) plus its label,
    one of LABELS.  Every column is non-empty and holds no whitespace, so the
    row can be written to a whitespace-separated file and read back."""

    columns: tuple[str, ...]
    label: str = "O"

    def __post_init__(self) -> None:
        _check_shape(self.columns, self.label)
        if " ".join(self.columns).split() != list(self.columns):
            for col in range(NUM_COLUMNS):
                _check_column(self.columns, col)

    @classmethod
    def _of_clean(cls, columns: tuple[str, ...], label: str = "O") -> TokenRecord:
        """A row whose caller has already proven every column non-empty and
        free of whitespace: only the column count and the label are checked.
        The row equals, hashes and pickles like ``TokenRecord(columns, label)``."""
        _check_shape(columns, label)
        record = object.__new__(cls)
        # as the frozen __init__ sets them; touching __dict__ instead would
        # give each row its own dict, 64 bytes more than the shared layout
        object.__setattr__(record, "columns", columns)
        object.__setattr__(record, "label", label)
        return record


def _check_shape(columns: tuple[str, ...], label: str) -> None:
    if len(columns) != NUM_COLUMNS:
        raise InputError(f"token row needs {NUM_COLUMNS} feature columns, got {len(columns)}")
    if label not in LABELS:
        raise InputError(f"label {label!r} not in {LABELS}")


def _check_column(columns: tuple[str, ...], col: int) -> None:
    value = columns[col]
    if value.split() != [value]:
        raise InputError(f"column {col + 1} {value!r} is empty or holds whitespace")


Sentence = tuple[TokenRecord, ...]


@dataclass(frozen=True)
class Gazetteer:
    """Salutation words (looked up one token back) and follow-up words
    (looked up one token ahead)."""

    salutations: frozenset[str]
    followups: frozenset[str]

    def __post_init__(self) -> None:
        for name in ("salutations", "followups"):
            entries = frozenset(check_entry(e, name) for e in getattr(self, name))
            object.__setattr__(self, name, entries)


def load_gazetteer(
    salutation_source: str | Path | IO[str], followup_source: str | Path | IO[str]
) -> Gazetteer:
    """Read both word lists with read_entries, as affix lists are read,
    except that either list may be empty."""
    return Gazetteer(
        salutations=frozenset(read_entries(salutation_source, "salutations")),
        followups=frozenset(read_entries(followup_source, "followups")),
    )


def build_frequency_table(words: Iterable[str]) -> dict[str, int]:
    """Count raw surface occurrences. Build this from training data only."""
    return dict(Counter(words))


def length_flag(word: str) -> int:
    """1 when the word is longer than 3 codepoints."""
    return int(len(word) > 3)


def frequency_bin(count: int) -> int:
    """0 below 100 occurrences, 1 at or above (saturating)."""
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    return int(count >= 100)


# For str patterns \d is Unicode category Nd, the set str.isdecimal accepts.
_DIGIT = re.compile(r"\d")


def digit_flag(word: str) -> int:
    """1 when any codepoint is a decimal digit, in any script."""
    return int(_DIGIT.search(word) is not None)


_FLAG = ("0", "1")  # a 0/1 flag or bool as its column string
# The ABSENT padding after n filled suffix slots, for n = 0 .. SUFFIX_SLOTS.
_PADDING = tuple((ABSENT,) * (SUFFIX_SLOTS - n) for n in range(SUFFIX_SLOTS + 1))


def build_token_record(
    word: str,
    pos: str,
    label: str,
    prev_word: str | None,
    next_word: str | None,
    lexicon: AffixLexicon,
    gazetteer: Gazetteer,
    frequencies: Mapping[str, int],
    min_stem: int = MIN_STEM,
) -> TokenRecord:
    """Expand one token into its 22 feature columns.

    The word is NFC-normalized; prev_word/next_word are looked up in the
    gazetteer as given, and are None at sentence boundaries, which zeroes
    the gazetteer flags.  Suffix slots hold at most the first SUFFIX_SLOTS
    stripped suffixes, rightmost-stripped first, padded with "0".
    """
    result = stem(word, lexicon, min_stem)
    word = result.original

    suffixes = result.stripped_suffixes[:SUFFIX_SLOTS]
    prefix = result.stripped_prefixes[0] if result.stripped_prefixes else ABSENT

    columns = (
        word,
        result.stem,
        *suffixes,
        *_PADDING[len(suffixes)],
        _FLAG[len(suffixes) > 0],
        str(len(suffixes)),
        prefix,
        _FLAG[prefix != ABSENT],
        _FLAG[digit_flag(word)],
        _FLAG[prev_word is not None and prev_word in gazetteer.salutations],
        _FLAG[next_word is not None and next_word in gazetteer.followups],
        _FLAG[frequency_bin(frequencies.get(word, 0))],
        _FLAG[length_flag(word)],
        pos,
    )
    record = TokenRecord._of_clean(columns, label)
    # Only the word and pos come from outside: every other column is a
    # substring of the word, a checked affix entry, or a digit string.
    # They are checked after the label, in the order TokenRecord(...) checks.
    _check_column(columns, COL_WORD)
    _check_column(columns, COL_POS)
    return record


def encode_corpus(
    raw_sentences: Sequence[Sequence[tuple[str, str, str]]],
    lexicon: AffixLexicon,
    gazetteer: Gazetteer,
    frequencies: Mapping[str, int] | None = None,
    min_stem: int = MIN_STEM,
) -> list[Sentence]:
    """Expand (word, pos, label) sentences into token rows.

    Words are NFC-normalized before they are counted or looked up.  When no
    frequency table is given, one is built from these sentences; pass a
    prebuilt table to encode held-out data against training counts.
    """
    words = [[unicodedata.normalize("NFC", w) for w, _, _ in s] for s in raw_sentences]
    if frequencies is None:
        frequencies = build_frequency_table(w for sentence in words for w in sentence)
    encoded: list[Sentence] = []
    for s_idx, (sentence, ws) in enumerate(zip(raw_sentences, words)):
        rows = []
        for t, (_, pos, label) in enumerate(sentence):
            try:
                rows.append(
                    build_token_record(
                        ws[t],
                        pos,
                        label,
                        ws[t - 1] if t > 0 else None,
                        ws[t + 1] if t + 1 < len(ws) else None,
                        lexicon,
                        gazetteer,
                        frequencies,
                        min_stem,
                    )
                )
            except InputError as exc:
                raise InputError(f"sentence {s_idx + 1}, token {t + 1}: {exc}") from None
        encoded.append(tuple(rows))
    return encoded
