"""Affix inventories and the iterative affix-stripping stemmer.

A word is stemmed by one prefix pass followed by one suffix pass.  Each pass
walks the affix list top to bottom, removes the first affix that matches the
current stem's edge, and restarts the scan from the top of the list; the pass
ends when a full scan removes nothing.  Suffixes are cut by length from the
right edge, never by searching for the first occurrence inside the word.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .errors import ConfigError, InputError

MIN_STEM = 1  # default shortest stem an affix may leave behind


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class AffixLexicon:
    """Ordered prefix and suffix inventories. List order is scan order."""

    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]

    def __post_init__(self) -> None:
        for name, entries in (("prefix", self.prefixes), ("suffix", self.suffixes)):
            normalized = tuple(_nfc(e) for e in entries)
            if any(not e for e in normalized):
                raise ConfigError(f"empty {name} entry")
            if len(set(normalized)) != len(normalized):
                dupes = sorted({e for e in normalized if normalized.count(e) > 1})
                raise ConfigError(f"duplicate {name} entries: {', '.join(dupes)}")
            object.__setattr__(self, name + "es", normalized)


@dataclass(frozen=True)
class StemResult:
    original: str
    stem: str
    stripped_prefixes: tuple[str, ...]  # outermost first
    stripped_suffixes: tuple[str, ...]  # rightmost-stripped first

    @property
    def prefix_count(self) -> int:
        return len(self.stripped_prefixes)

    @property
    def suffix_count(self) -> int:
        return len(self.stripped_suffixes)


def read_text(source: str | Path | IO[str]) -> str:
    """The whole text of a UTF-8 file path or of an open text stream, less a
    leading byte-order mark."""
    text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    return text.removeprefix("\ufeff")


def _read_affix_lines(source: str | Path | IO[str], kind: str) -> tuple[str, ...]:
    entries: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(source).splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        entry = _nfc(raw.strip())
        if entry in seen:
            raise ConfigError(
                f"{kind} line {lineno}: duplicate entry {entry!r}"
                f" (first seen on line {seen[entry]})"
            )
        seen[entry] = lineno
        entries.append(entry)
    if not entries:
        raise ConfigError(f"{kind} list is empty")
    return tuple(entries)


def load_affix_lexicon(
    prefix_source: str | Path | IO[str], suffix_source: str | Path | IO[str]
) -> AffixLexicon:
    """Read prefix and suffix lists: one affix per line, ``#`` comments and
    blank lines ignored, surrounding whitespace trimmed, NFC-normalized.
    Duplicates and empty lists raise ConfigError."""
    return AffixLexicon(
        prefixes=_read_affix_lines(prefix_source, "prefixes"),
        suffixes=_read_affix_lines(suffix_source, "suffixes"),
    )


def _check_word(word: str) -> str:
    if not word:
        raise InputError("word must be non-empty")
    return _nfc(word)


def check_min_stem(min_stem: int) -> None:
    if min_stem < 1:
        raise InputError(f"min_stem must be >= 1, got {min_stem}")


def _strip(
    stem: str, affixes: tuple[str, ...], min_stem: int, leading: bool
) -> tuple[str, tuple[str, ...]]:
    """One pass over one edge of a normalized word; returns (stem, removed
    in removal order)."""
    at_edge = str.startswith if leading else str.endswith
    removed: list[str] = []
    i = 0
    while i < len(affixes):
        a = affixes[i]
        if at_edge(stem, a) and len(stem) - len(a) >= min_stem:
            removed.append(a)
            stem = stem[len(a):] if leading else stem[: len(stem) - len(a)]
            i = 0  # restart the scan after every removal
        else:
            i += 1
    return stem, tuple(removed)


def strip_prefixes(
    word: str, lexicon: AffixLexicon, min_stem: int = MIN_STEM
) -> tuple[str, tuple[str, ...]]:
    """Iteratively remove leading affixes; returns (stem, removed outermost first)."""
    check_min_stem(min_stem)
    return _strip(_check_word(word), lexicon.prefixes, min_stem, leading=True)


def strip_suffixes(
    word: str, lexicon: AffixLexicon, min_stem: int = MIN_STEM
) -> tuple[str, tuple[str, ...]]:
    """Iteratively remove trailing affixes; returns (stem, removed rightmost first)."""
    check_min_stem(min_stem)
    return _strip(_check_word(word), lexicon.suffixes, min_stem, leading=False)


def stem(word: str, lexicon: AffixLexicon, min_stem: int = MIN_STEM) -> StemResult:
    """Prefix pass, then suffix pass on the remainder."""
    normalized = _check_word(word)
    check_min_stem(min_stem)
    after_prefixes, prefixes = _strip(normalized, lexicon.prefixes, min_stem, leading=True)
    final, suffixes = _strip(after_prefixes, lexicon.suffixes, min_stem, leading=False)
    return StemResult(
        original=normalized,
        stem=final,
        stripped_prefixes=prefixes,
        stripped_suffixes=suffixes,
    )
