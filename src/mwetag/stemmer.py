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

from .errors import ConfigError, InputError, ParseError

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
    """The whole text of a UTF-8 file path or open text stream, less a leading
    byte-order mark; bytes that are not UTF-8 raise ParseError."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:  # universal newlines, as in text mode
            data = Path(source).read_bytes()
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line = None if hasattr(source, "read") else data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason}", line=line) from None
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


def check_min_stem(min_stem: int) -> None:
    if min_stem < 1:
        raise InputError(f"min_stem must be >= 1, got {min_stem}")


def _strip(
    stem: str, affixes: tuple[str, ...], min_stem: int, leading: bool
) -> tuple[str, tuple[str, ...]]:
    """One pass over one edge of a normalized word: (stem, removed in removal order)."""
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


def stem(word: str, lexicon: AffixLexicon, min_stem: int = MIN_STEM) -> StemResult:
    """Prefix pass, then suffix pass on the remainder of the NFC-normalized word."""
    if not word:
        raise InputError("word must be non-empty")
    check_min_stem(min_stem)
    normalized = _nfc(word)
    after_prefixes, prefixes = _strip(normalized, lexicon.prefixes, min_stem, leading=True)
    final, suffixes = _strip(after_prefixes, lexicon.suffixes, min_stem, leading=False)
    return StemResult(
        original=normalized,
        stem=final,
        stripped_prefixes=prefixes,
        stripped_suffixes=suffixes,
    )
