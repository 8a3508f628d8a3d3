"""Feature templates: parsing, expansion, and the gene catalogue.

Template files use the CRF++ 0.53 unigram subset: ``U<id>:%x[row,col]`` lines
(conjunctions joined with ``/``), a bare ``B`` line enabling label-bigram
transition features, ``#`` comments, and blank lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, ParseError
from .features import (
    COL_DIGIT,
    COL_FOLLOWUP,
    COL_FREQUENCY,
    COL_LENGTH,
    COL_POS,
    COL_PREFIX,
    COL_PREFIX_PRESENT,
    COL_SALUTATION,
    COL_STEM,
    COL_SUFFIX_COUNT,
    COL_SUFFIX_FIRST,
    COL_SUFFIX_PRESENT,
    COL_WORD,
    NUM_COLUMNS,
    SUFFIX_SLOTS,
    TokenRecord,
)
from .stemmer import content_lines

_MACRO_ID = r"U[A-Za-z0-9_]*"
_MACRO_LINE = re.compile(rf"^({_MACRO_ID}):(.*)$")
_REF = re.compile(r"^%x\[(-?\d+),(\d+)\]$")


@dataclass(frozen=True)
class FeatureMacro:
    """One template macro: an id plus (row offset, column) references.  The
    id is what a template line can spell, U then letters, digits or _, so it
    never holds the ':' that ends it in a feature string."""

    id: str
    refs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not re.fullmatch(_MACRO_ID, self.id):
            raise InputError(f"macro id {self.id!r} is not U followed by letters, digits or _")
        if not self.refs:
            raise InputError(f"macro {self.id}: needs at least one %x reference")
        for offset, col in self.refs:
            if not 0 <= col < NUM_COLUMNS:
                raise InputError(
                    f"macro {self.id}: column {col} outside 0..{NUM_COLUMNS - 1}"
                )


@dataclass(frozen=True)
class Template:
    macros: tuple[FeatureMacro, ...]
    include_label_bigram: bool = False

    def __post_init__(self) -> None:
        ids = [m.id for m in self.macros]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InputError(f"duplicate macro ids: {', '.join(dupes)}")


def parse_template(text: str) -> Template:
    """Parse template source text; raises ParseError with the offending line."""
    macros: list[FeatureMacro] = []
    seen: dict[str, int] = {}
    bigram = False
    for lineno, line in content_lines(text):
        if line == "B":
            bigram = True
            continue
        m = _MACRO_LINE.match(line)
        if m is None:
            raise ParseError(f"unrecognized template line {line!r}", line=lineno)
        macro_id, body = m.group(1), m.group(2)
        if macro_id in seen:
            raise ParseError(
                f"duplicate macro id {macro_id!r} (first on line {seen[macro_id]})",
                line=lineno,
            )
        refs = []
        for part in body.split("/"):
            ref = _REF.match(part)
            if ref is None:
                raise ParseError(
                    f"macro {macro_id}: bad reference {part!r}", line=lineno
                )
            refs.append((int(ref.group(1)), int(ref.group(2))))
        try:
            macros.append(FeatureMacro(id=macro_id, refs=tuple(refs)))
        except InputError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        seen[macro_id] = lineno
    return Template(macros=tuple(macros), include_label_bigram=bigram)


def serialize_template(template: Template) -> str:
    lines = [
        f"{m.id}:" + "/".join(f"%x[{off},{col}]" for off, col in m.refs)
        for m in template.macros
    ]
    if template.include_label_bigram:
        lines.append("B")
    return "\n".join(lines) + "\n"


def _cell(rows: Sequence[TokenRecord], pos: int, col: int) -> str:
    # CRF++-style boundary literals outside the sentence
    if pos < 0:
        return f"_B{pos}"
    if pos >= len(rows):
        return f"_B+{pos - len(rows) + 1}"
    return rows[pos].columns[col]


def expand_macros(template: Template, rows: Sequence[TokenRecord], t: int) -> list[str]:
    """Feature strings active at position t, one per unigram macro, in order."""
    if not 0 <= t < len(rows):
        raise InputError(f"position {t} outside sentence of length {len(rows)}")
    out = []
    for macro in template.macros:
        values = "/".join(_cell(rows, t + off, col) for off, col in macro.refs)
        out.append(f"{macro.id}:{values}")
    return out


@dataclass(frozen=True)
class Gene:
    name: str
    macro: FeatureMacro


@dataclass(frozen=True)
class GeneCatalogue:
    """Fixed, ordered list of candidate feature macros a chromosome selects
    from; a gene's bit is its position in the list."""

    genes: tuple[Gene, ...]

    def __post_init__(self) -> None:
        ids = [g.macro.id for g in self.genes]
        if len(set(ids)) != len(ids):
            raise InputError("gene macro ids must be unique")

    def __len__(self) -> int:
        return len(self.genes)


def _window_genes(name: str, col: int) -> list[tuple[str, tuple[int, int]]]:
    return [(f"{name}[{off:+d}]" if off else f"{name}[0]", (off, col)) for off in range(-2, 3)]


def default_catalogue() -> GeneCatalogue:
    """The 38-gene candidate pool.

    Word and stem identity over a +/-2 window, the ten suffix slots, the
    derived flag/count columns, frequency over a +/-2 window, and POS over a
    +/-2 window.  Label-bigram transitions are not a gene: they are always on.
    """
    entries: list[tuple[str, tuple[int, int]]] = []
    entries += _window_genes("word", COL_WORD)
    entries += _window_genes("stem", COL_STEM)
    entries += [
        (f"suffix_slot_{i + 1}", (0, COL_SUFFIX_FIRST + i)) for i in range(SUFFIX_SLOTS)
    ]
    entries += [
        ("suffix_present", (0, COL_SUFFIX_PRESENT)),
        ("suffix_count", (0, COL_SUFFIX_COUNT)),
        ("prefix", (0, COL_PREFIX)),
        ("prefix_present", (0, COL_PREFIX_PRESENT)),
        ("digit", (0, COL_DIGIT)),
        ("salutation", (0, COL_SALUTATION)),
        ("followup", (0, COL_FOLLOWUP)),
        ("length", (0, COL_LENGTH)),
    ]
    entries += _window_genes("freq", COL_FREQUENCY)
    entries += _window_genes("pos", COL_POS)

    genes = tuple(
        Gene(name=name, macro=FeatureMacro(id=f"U{i:02d}", refs=(ref,)))
        for i, (name, ref) in enumerate(entries)
    )
    return GeneCatalogue(genes=genes)


def chromosome_to_template(bits: Sequence[int], catalogue: GeneCatalogue) -> Template:
    """Selected genes become unigram macros in catalogue order; transitions
    are always enabled regardless of the chromosome."""
    if len(bits) != len(catalogue):
        raise InputError(
            f"chromosome length {len(bits)} != catalogue size {len(catalogue)}"
        )
    macros = tuple(g.macro for g, bit in zip(catalogue.genes, bits) if bit)
    return Template(macros=macros, include_label_bigram=True)
