"""Every loader turns malformed input into a MweTagError, never a traceback.

Each format starts from a small valid file.  Hypothesis then edits up to three
of its lines: it swaps the value after a line's last separator for one of the
format's values, or replaces, inserts or deletes whole lines built from the
format's tokens, among them characters that str.splitlines() takes for line
ends.  Whatever the result, only MweTagError may escape, a ParseError names its
line, and any error whose message names a line keeps it as ``line``.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.cli import load_run_config
from mwetag.corpus import load_model, read_column_file, read_raw
from mwetag.errors import MweTagError, ParseError
from mwetag.features import load_gazetteer
from mwetag.ga import history_from_csv
from mwetag.stemmer import load_affix_lexicon
from mwetag.templates import parse_template
from tests.conftest import NOT_LINE_ENDS

_ROW = " ".join(["w"] + ["0"] * 20 + ["NN", "B-MWE"])
_ENTRIES = ["# list", "Shri", "", "  Mr. ", "é"]
_ENTRY_VALUES = ["Shri", "e\u0301", "a b", "#", " ", ""]
_ENTRY_TOKENS = ["Shri", "Mr.", "é", "e", "\u0301", "#", " ", "\t", ""]

# loader, valid lines, value separator, values, line tokens
FORMATS = {
    "load_model": (
        lambda text: load_model(io.StringIO(text)),
        [
            "mwetag-crf-model 1",
            "rho 10.0",
            "labels O B-MWE I-MWE",
            "template 2",
            "U00:%x[0,0]",
            "B",
            "weights 2",
            "U00:w\tO\t1.5",
            "O\tB-MWE\t-0.25",
        ],
        " ",
        ["0", "3", "²", "³", "-2.5", "nan", "1e999", "O B-MWE", ""],
        ["mwetag-crf-model", "rho", "labels", "template", "weights", "U00:%x[0,0]",
         "U00:%x[0,99]", "B", "O", "Q", "%09", "1", "²", "inf", " ", "\t", ""],
    ),
    "read_column_file": (
        lambda text: read_column_file(io.StringIO(text)),
        [_ROW, _ROW, "", _ROW],
        " ",
        ["O", "I-MWE", "Q", "0 O", ""],
        ["w", "0", "NN", "O", "B-MWE", "Q", _ROW, " ", "\t", ""],
    ),
    "read_raw": (
        lambda text: read_raw(io.StringIO(text)),
        ["w\tNN\tB-MWE", "café\tVB\tI-MWE", "", "x\tNN"],
        "\t",
        ["O", "Q", "a b", " ", ""],
        ["w", "NN", "O", "B-MWE", "Q", "\t", " ", " ", ""],
    ),
    "history_from_csv": (
        history_from_csv,
        ["generation,best_fitness,mean_fitness,best_bits", "1,50.0,40.0,0101",
         "2,55.5,41.0,0111"],
        ",",
        ["0101", "01x", "", "1,0"],
        ["0", "1", "2", "-1", "²", "x", "50.0", "nan", "inf", "0101", ",", " ", ""],
    ),
    "parse_template": (
        parse_template,
        ["# features", "U00:%x[0,0]", "U01:%x[-1,21]/%x[0,21]", "", "B"],
        ":",
        ["%x[0,22]", "%x[0,²]", "%x[-99999999999,1]", "%x[0,0]/", ""],
        ["U00", "U02", "%x[0,0]", "%x[0,1]", "/", ":", "B", "#", " ", ""],
    ),
    "load_run_config": (
        lambda text: load_run_config(io.StringIO(text)),
        ["# run", "rho = 5.0", "mode = token", "folds = 3", "prefixes = p.txt"],
        "=",
        [" nan", " -1", " ²", " x", " span", ""],
        ["rho", "mode", "folds", "seed", "bogus", "=", " ", "1", "#", ""],
    ),
    "load_affix_lexicon": (
        lambda text: load_affix_lexicon(io.StringIO(text), io.StringIO(text)),
        _ENTRIES, " ", _ENTRY_VALUES, _ENTRY_TOKENS,
    ),
    "load_gazetteer": (
        lambda text: load_gazetteer(io.StringIO(text), io.StringIO(text)),
        _ENTRIES, " ", _ENTRY_VALUES, _ENTRY_TOKENS,
    ),
}


@st.composite
def edited(draw, lines: list[str], sep: str, values: list[str], tokens: list[str]) -> str:
    lines = list(lines)
    tokens = tokens + list(NOT_LINE_ENDS.values())
    new_line = st.lists(st.sampled_from(tokens), max_size=5).map("".join)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "value", "replace", "insert", "delete"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "insert" or not lines:
            lines.insert(i, draw(new_line))
        elif kind == "delete":
            del lines[i]
        elif kind == "replace":
            lines[i] = draw(new_line)
        else:
            head, found, _ = lines[i].rpartition(sep)
            lines[i] = head + found + draw(st.sampled_from(values))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_loaders_raise_only_their_own_errors(name, data):
    load, *shape = FORMATS[name]
    text = data.draw(edited(*shape), label="text")
    try:
        load(text)
    except ParseError as exc:
        assert exc.line is not None, str(exc)
    except MweTagError as exc:
        assert exc.line is not None or not str(exc).startswith("line "), str(exc)
