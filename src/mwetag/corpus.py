"""File formats: column corpora, raw token triples, and model persistence.

Column files are whitespace-separated token rows, one sentence per blank-line
block, 22 feature columns plus a trailing label.  Raw files carry one
``word<TAB>pos[<TAB>label]`` token per line.  Writes to paths are atomic:
content lands in a temp file that is renamed over the target.
"""

from __future__ import annotations

import math
import os
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

from .crf import CrfModel, LabelSet
from .errors import InputError, ParseError
from .features import LABELS, NUM_COLUMNS, Sentence, TokenRecord
from .stemmer import read_text, split_lines
from .templates import parse_template, serialize_template

MODEL_MAGIC = "mwetag-crf-model"
MODEL_VERSION = "1"


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...] = ()

    def __post_init__(self) -> None:
        if any(not s for s in self.sentences):
            raise InputError("corpus sentences must be non-empty")

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __getitem__(self, index):
        return self.sentences[index]

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never observe a
    partially written file.  The file gets mode 0o666 less the umask, as
    open() would give it."""
    path = Path(path)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _write_text(target: str | Path | IO[str], text: str) -> None:
    """Write text to a stream or, atomically, to a path.  Every reader drops
    a leading byte-order mark, so text that starts with one (a first cell
    spelled with U+FEFF) gets a second, and reads back as written."""
    if text.startswith("\ufeff"):
        text = "\ufeff" + text
    if hasattr(target, "write"):
        target.write(text)
    else:
        atomic_write_text(target, text)


def _blocks(source: str | Path | IO[str]) -> Iterator[list[tuple[int, str]]]:
    """The numbered lines of each blank-line-separated block of a file."""
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(split_lines(read_text(source)), start=1):
        if raw.strip():
            block.append((lineno, raw))
        elif block:
            yield block
            block = []
    if block:
        yield block


def read_column_file(source: str | Path | IO[str], expect_labels: bool = True) -> Corpus:
    """Parse a column file.  With expect_labels, every row needs exactly
    NUM_COLUMNS + 1 fields; otherwise a trailing 23rd field is ignored."""
    counts = (NUM_COLUMNS + 1,) if expect_labels else (NUM_COLUMNS, NUM_COLUMNS + 1)
    sentences: list[Sentence] = []
    for block in _blocks(source):
        rows = []
        for lineno, raw in block:
            fields = raw.split()
            if len(fields) not in counts:
                raise ParseError(
                    f"expected {' or '.join(map(str, counts))} fields, got {len(fields)}",
                    line=lineno,
                )
            label = fields[NUM_COLUMNS] if expect_labels else "O"
            try:  # split fields are non-empty and free of whitespace
                rows.append(TokenRecord._of_clean(tuple(fields[:NUM_COLUMNS]), label))
            except InputError as exc:
                raise ParseError(str(exc), line=lineno) from None
        sentences.append(tuple(rows))
    return Corpus(sentences=tuple(sentences))


def write_column_file(
    corpus: Corpus | Sequence[Sentence],
    target: str | Path | IO[str],
) -> None:
    """One row per line, fields joined by spaces; TokenRecord already keeps
    every field non-empty and free of whitespace."""
    blocks = []
    for s_idx, sentence in enumerate(corpus, start=1):
        if not len(sentence):  # an empty block would read back as no sentence
            raise InputError(f"sentence {s_idx} is empty")
        blocks.append("\n".join(" ".join(r.columns + (r.label,)) for r in sentence))
    _write_text(target, "\n\n".join(blocks) + "\n" if blocks else "")


def read_raw(source: str | Path | IO[str]) -> list[list[tuple[str, str, str]]]:
    """Raw triples, NFC-normalized; the label defaults to "O" when absent."""
    sentences: list[list[tuple[str, str, str]]] = []
    for block in _blocks(source):
        sentence = []
        for lineno, raw in block:
            fields = raw.split("\t")
            if len(fields) not in (2, 3):
                raise ParseError(
                    f"expected word<TAB>pos[<TAB>label], got {len(fields)} fields",
                    line=lineno,
                )
            word = unicodedata.normalize("NFC", fields[0].strip())
            pos = fields[1].strip()
            label = fields[2].strip() if len(fields) == 3 else "O"
            if not word or not pos:
                raise ParseError("word and pos must be non-empty", line=lineno)
            if word.split() != [word] or pos.split() != [pos]:
                raise ParseError("word and pos cannot contain whitespace", line=lineno)
            if label not in LABELS:
                raise ParseError(f"label {label!r} not in {LABELS}", line=lineno)
            sentence.append((word, pos, label))
        sentences.append(sentence)
    return sentences


_ESCAPES = (("%", "%25"), ("\t", "%09"), ("\n", "%0A"), ("\r", "%0D"), (" ", "%20"))
_TO_ESCAPE = re.compile("[" + "".join(plain for plain, _ in _ESCAPES) + "]")


def _escape(text: str) -> str:
    if not _TO_ESCAPE.search(text):  # most feature strings hold nothing to escape
        return text
    for plain, escaped in _ESCAPES:
        text = text.replace(plain, escaped)
    return text


def _unescape(text: str) -> str:
    if "%" not in text:  # every escape starts with %
        return text
    for plain, escaped in reversed(_ESCAPES[1:]):
        text = text.replace(escaped, plain)
    return text.replace("%25", "%")


def save_model(model: CrfModel, target: str | Path | IO[str]) -> None:
    """Versioned UTF-8 text.  Weight values use repr(), which round-trips
    doubles exactly."""
    template_lines = split_lines(serialize_template(model.template))
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION}",
        f"rho {model.rho!r}",
        "labels " + " ".join(LABELS),
        f"template {len(template_lines)}",
        *template_lines,
        f"weights {len(model.weights)}",
    ]
    for (first, second), weight in model.weights.items():
        # parts escaped separately: a literal tab inside a key must not
        # collide with the field separator
        lines.append(
            _escape(first) + "\t" + _escape(second) + "\t" + repr(float(weight))
        )
    _write_text(target, "\n".join(lines) + "\n")


def _finite(text: str, what: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} {text!r} is not finite", line=line)
    return value


def _count(text: str, what: str, line: int) -> int:
    """A count in ASCII digits: int() alone would also take "²"-like digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"bad {what} count {text!r}", line=line)


def load_model(source: str | Path | IO[str]) -> CrfModel:
    lines = split_lines(read_text(source))

    def need(index: int, what: str) -> str:
        if index >= len(lines):
            raise ParseError(f"file ends before {what}", line=index + 1)
        return lines[index]

    def header(index: int, key: str) -> str:
        """The value of the header line ``key value`` at index."""
        found, _, value = need(index, key).partition(" ")
        if found != key:
            raise ParseError(f"expected '{key} <value>'", line=index + 1)
        return value

    version = header(0, MODEL_MAGIC)
    if version != MODEL_VERSION:
        raise ParseError(f"unsupported model version {version!r}", line=1)
    rho = _finite(header(1, "rho"), "rho", line=2)
    if rho <= 0:
        raise ParseError(f"rho must be positive, got {rho!r}", line=2)
    if header(2, "labels") != " ".join(LABELS):
        raise ParseError(f"expected 'labels {' '.join(LABELS)}'", line=3)

    n_template = _count(header(3, "template"), "template", line=4)
    body = [need(4 + i, "template body") for i in range(n_template)]
    # blank lines in front keep parse_template's line numbers the file's
    template = parse_template("\n" * 4 + "\n".join(body))

    at = 4 + n_template
    n_weights = _count(header(at, "weights"), "weights", line=at + 1)
    weights: dict[tuple[str, str], float] = {}
    prefixes = tuple(f"{macro.id}:" for macro in template.macros)
    for lineno in range(at + 2, at + 2 + n_weights):
        row = need(lineno - 1, "weight row").split("\t")
        if len(row) != 3:
            raise ParseError("expected 'first<TAB>second<TAB>value'", line=lineno)
        key = (_unescape(row[0]), _unescape(row[1]))
        if key[1] not in LABELS:
            raise ParseError(f"weight label {key[1]!r} not in {LABELS}", line=lineno)
        if key[0] in LABELS and not template.include_label_bigram:
            raise ParseError(f"label pair {key!r} but the template has no B line", line=lineno)
        if key[0] not in LABELS and not key[0].startswith(prefixes):
            raise ParseError(f"feature {key[0]!r} has no macro id of the template", line=lineno)
        if key in weights:
            raise ParseError(f"duplicate weight key {key!r}", line=lineno)
        weights[key] = _finite(row[2], "weight", line=lineno)
    tail = at + 1 + n_weights
    for extra, raw in enumerate(lines[tail:], start=tail + 1):
        if raw.strip():
            raise ParseError(f"unexpected trailing content {raw!r}", line=extra)
    return CrfModel(label_set=LabelSet(), template=template, weights=weights, rho=rho)
