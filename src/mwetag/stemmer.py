"""Affix inventories and the iterative affix-stripping stemmer.

A word is stemmed by one prefix pass followed by one suffix pass.  Each pass
removes the affix that a top-to-bottom walk of the affix list would find
first at the current stem's edge, then rescans from the top of the list; the
pass ends when a full scan removes nothing.  A scan looks up the edge once
at each length of the affixes that share its outermost character, instead of
walking the list.  Suffixes are cut by length
from the right edge, never by searching for the first occurrence inside the
word.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, NamedTuple

from .errors import ConfigError, InputError, ParseError, check_int

MIN_STEM = 1  # default shortest stem an affix may leave behind


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class AffixLexicon:
    """Ordered prefix and suffix inventories. List order is scan order."""

    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]
    # Each list's _Edges, (prefixes, suffixes), built once with the lexicon.
    _edges: tuple[_Edges, _Edges] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges = []
        for name, entries in (("prefix", self.prefixes), ("suffix", self.suffixes)):
            normalized = tuple(check_entry(e, name) for e in entries)
            if len(set(normalized)) != len(normalized):
                dupes = sorted({e for e in normalized if normalized.count(e) > 1})
                raise ConfigError(f"duplicate {name} entries: {', '.join(dupes)}")
            object.__setattr__(self, name + "es", normalized)
            outer = 0 if name == "prefix" else -1
            lengths: dict[str, set[int]] = {}
            for a in normalized:
                lengths.setdefault(a[outer], set()).add(len(a))
            edges.append(_Edges(
                {a: i for i, a in enumerate(normalized)},
                {ch: sorted(ks) for ch, ks in lengths.items()},
            ))
        object.__setattr__(self, "_edges", tuple(edges))


class _Edges(NamedTuple):
    """An affix list as _strip reads it: each affix's list index, and for
    each outermost character (first for prefixes, last for suffixes) the
    distinct lengths of the affixes that have it, shortest first."""

    rank: dict[str, int]
    lengths: dict[str, list[int]]


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
        text = source.read() if hasattr(source, "read") else Path(source).read_bytes().decode()
    except UnicodeDecodeError as exc:
        line = None  # a stream is decoded in chunks, so it has no line to name
        if not hasattr(source, "read"):  # "?" stands in for the bad byte
            line = len(split_lines(exc.object[: exc.start].decode() + "?"))
        raise ParseError(f"not UTF-8: {exc.reason}", line=line) from None
    return text.removeprefix("\ufeff")


def split_lines(text: str) -> list[str]:
    """The lines of text, broken only at "\\n", "\\r\\n" or "\\r" as in text mode
    (str.splitlines also breaks at VT, FF, NEL, U+2028 and more)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a ``#`` comment."""
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def check_entry(entry: str, kind: str, line: int | None = None) -> str:
    """The NFC form of a list entry.  An entry that is empty or holds
    whitespace could never match a token, so it raises ConfigError."""
    entry = _nfc(entry)
    if entry.split() != [entry]:
        raise ConfigError(f"{kind} entry {entry!r} is empty or holds whitespace", line=line)
    return entry


def read_entries(source: str | Path | IO[str], kind: str) -> tuple[str, ...]:
    """A list file's entries in order, one per content line, each through
    check_entry; a repeated entry raises ConfigError naming both lines."""
    first_line: dict[str, int] = {}
    for lineno, line in content_lines(read_text(source)):
        entry = check_entry(line, kind, lineno)
        if entry in first_line:
            raise ConfigError(
                f"duplicate {kind} entry {entry!r} (first seen on line {first_line[entry]})",
                line=lineno,
            )
        first_line[entry] = lineno
    return tuple(first_line)


def load_affix_lexicon(
    prefix_source: str | Path | IO[str], suffix_source: str | Path | IO[str]
) -> AffixLexicon:
    """The prefix and suffix lists read by read_entries; an empty one raises ConfigError."""
    lists = []
    for kind, source in (("prefix", prefix_source), ("suffix", suffix_source)):
        lists.append(read_entries(source, kind))
        if not lists[-1]:
            raise ConfigError(f"{kind} list is empty")
    return AffixLexicon(*lists)


def check_min_stem(min_stem: int) -> None:
    check_int(min_stem, "min_stem")
    if min_stem < 1:
        raise InputError(f"min_stem must be >= 1, got {min_stem}")


def _strip(
    stem: str, edges: _Edges, min_stem: int, leading: bool
) -> tuple[str, tuple[str, ...]]:
    """One pass over one edge of a normalized word: (stem, removed in removal order).
    Each scan looks up the stem's edge at every length of the affixes that
    share its outermost character and leave min_stem characters, and
    removes the match with the lowest list index: the affix a walk down the
    list would find first.  No other affix can match that edge."""
    removed: list[str] = []
    while True:
        found = None  # (list index, affix) of the best match so far
        for k in edges.lengths.get(stem[0] if leading else stem[-1], ()):
            if len(stem) - k < min_stem:
                break
            edge = stem[:k] if leading else stem[len(stem) - k :]
            i = edges.rank.get(edge)
            if i is not None and (found is None or i < found[0]):
                found = i, edge
        if found is None:
            return stem, tuple(removed)
        a = found[1]
        removed.append(a)
        stem = stem[len(a) :] if leading else stem[: len(stem) - len(a)]


def stem(word: str, lexicon: AffixLexicon, min_stem: int = MIN_STEM) -> StemResult:
    """Prefix pass, then suffix pass on the remainder of the NFC-normalized word."""
    if not word:
        raise InputError("word must be non-empty")
    check_min_stem(min_stem)
    normalized = _nfc(word)
    prefix_edges, suffix_edges = lexicon._edges
    after_prefixes, prefixes = _strip(normalized, prefix_edges, min_stem, leading=True)
    final, suffixes = _strip(after_prefixes, suffix_edges, min_stem, leading=False)
    return StemResult(
        original=normalized,
        stem=final,
        stripped_prefixes=prefixes,
        stripped_suffixes=suffixes,
    )
