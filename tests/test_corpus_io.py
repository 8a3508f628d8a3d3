"""Column files, raw input, and model persistence round trips."""

from __future__ import annotations

import io
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.corpus import (
    Corpus,
    atomic_write_text,
    load_model,
    read_column_file,
    read_raw,
    save_model,
    write_column_file,
)
from mwetag.crf import CrfModel, LabelSet
from mwetag.errors import InputError, ParseError
from mwetag.features import LABELS, NUM_COLUMNS
from mwetag.templates import parse_template
from tests.conftest import NOT_LINE_ENDS, make_record

field_text = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters=" \t\n\r\x0b\x0c    "
    ),
    min_size=1,
    max_size=8,
).filter(lambda s: not s.isspace() and s.split() == [s])

records = st.builds(
    lambda cols, label: make_record(word=cols[0], pos=cols[1], label=label),
    st.tuples(field_text, field_text),
    st.sampled_from(LABELS),
)
sentences = st.lists(records, min_size=1, max_size=5).map(tuple)
corpora = st.lists(sentences, min_size=0, max_size=4).map(
    lambda s: Corpus(sentences=tuple(s))
)


@given(corpora)
@settings(max_examples=60)
def test_column_file_round_trip(corpus):
    buffer = io.StringIO()
    write_column_file(corpus, buffer)
    back = read_column_file(io.StringIO(buffer.getvalue()))
    assert back == corpus


@pytest.mark.parametrize("word", ["\ufeff", "\ufeffab"])
def test_a_first_cell_that_starts_with_a_byte_order_mark_round_trips(word, tmp_path):
    """Readers drop a leading byte-order mark, so the writer doubles it."""
    corpus = Corpus(sentences=((make_record(word=word, label="B-MWE"),),))
    buffer = io.StringIO()
    write_column_file(corpus, buffer)
    assert read_column_file(io.StringIO(buffer.getvalue())) == corpus
    write_column_file(corpus, tmp_path / "c.col")
    assert read_column_file(tmp_path / "c.col") == corpus


def test_column_write_is_canonical_for_messy_spacing():
    messy = "a b " + " ".join(["0"] * 19) + " NN  O\n"
    corpus = read_column_file(io.StringIO(messy))
    out = io.StringIO()
    write_column_file(corpus, out)
    fields = out.getvalue().splitlines()[0].split(" ")
    assert len(fields) == NUM_COLUMNS + 1
    assert "  " not in out.getvalue()


def test_column_file_blank_line_separates_sentences():
    row = " ".join(["w"] + ["0"] * 20 + ["NN", "O"])
    text = f"{row}\n\n{row}\n"
    corpus = read_column_file(io.StringIO(text))
    assert len(corpus) == 2
    assert all(len(s) == 1 for s in corpus)


def test_column_file_tolerates_extra_blank_lines():
    row = " ".join(["w"] + ["0"] * 20 + ["NN", "O"])
    text = f"\n\n{row}\n\n\n\n{row}\n\n"
    corpus = read_column_file(io.StringIO(text))
    assert len(corpus) == 2


def test_column_file_empty_input():
    assert len(read_column_file(io.StringIO(""))) == 0
    out = io.StringIO()
    write_column_file(Corpus(sentences=()), out)
    assert out.getvalue() == ""


def test_column_file_wrong_field_count():
    with pytest.raises(ParseError) as exc:
        read_column_file(io.StringIO("only three fields\n"))
    assert "line 1" in str(exc.value)
    row22 = " ".join(["w"] + ["0"] * 20 + ["NN"])
    with pytest.raises(ParseError):
        read_column_file(io.StringIO(row22 + "\n"), expect_labels=True)


def test_column_file_unlabeled_mode():
    row22 = " ".join(["w"] + ["0"] * 20 + ["NN"])
    corpus = read_column_file(io.StringIO(row22 + "\n"), expect_labels=False)
    assert corpus[0][0].label == "O"
    row23 = row22 + " B-MWE"
    corpus = read_column_file(io.StringIO(row23 + "\n"), expect_labels=False)
    assert corpus[0][0].label == "O"  # 23rd column ignored without labels


def test_column_file_bad_label():
    row = " ".join(["w"] + ["0"] * 20 + ["NN", "BAD"])
    with pytest.raises(ParseError) as exc:
        read_column_file(io.StringIO(row + "\n"))
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("end", NOT_LINE_ENDS.values(), ids=list(NOT_LINE_ENDS))
def test_raw_and_column_files_break_lines_only_at_newlines(end):
    raw = f"w\tNN{end}\nx\tNN\n"
    assert read_raw(io.StringIO(raw)) == [[("w", "NN", "O"), ("x", "NN", "O")]]
    with pytest.raises(ParseError, match="^line 2: label 'Q'"):
        read_raw(io.StringIO(raw.replace("x\tNN", "x\tNN\tQ")))
    row = " ".join(["w"] + ["0"] * 20 + ["NN", "O"])
    corpus = read_column_file(io.StringIO(f"{row}{end}\n{row}\n"))
    assert [len(s) for s in corpus] == [2]
    with pytest.raises(ParseError, match="^line 2: expected 23 fields"):
        read_column_file(io.StringIO(f"{row}{end}\n{row} extra\n"))


def test_line_ends_are_those_of_text_mode(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_bytes(b"a\tNN\rb\tNN\r\n\r\nc\tNN\nd\tNN\n")
    assert [[w for w, _, _ in s] for s in read_raw(path)] == [["a", "b"], ["c", "d"]]
    path.write_bytes(b"a\tNN\rb\tNN\r\nc\tNN\nd\xe9\tNN\n")
    with pytest.raises(ParseError, match="^line 4: not UTF-8"):
        read_raw(path)


def test_write_rejects_fields_with_whitespace():
    # the row refuses the value where it enters, so no writer ever sees it
    with pytest.raises(InputError, match="column 1 'two words'"):  # counted from 1
        make_record(word="two words")
    with pytest.raises(InputError, match="column 2 "):
        make_record(word="one", stem="a\u2028b")


def test_write_rejects_empty_fields():
    with pytest.raises(InputError, match=f"column {NUM_COLUMNS} ''"):
        make_record(word="x", pos="")


def test_write_rejects_empty_sentence():
    # a plain sequence bypasses Corpus; its empty block would read back as nothing
    record = make_record(word="one")
    with pytest.raises(InputError, match="sentence 2 is empty"):
        write_column_file([(record,), (), (record,)], io.StringIO())


def test_corpus_rejects_empty_sentence():
    with pytest.raises(InputError):
        Corpus(sentences=((),))


def test_corpus_container_protocol():
    record = make_record(word="x")
    corpus = Corpus(sentences=((record,), (record, record)))
    assert len(corpus) == 2
    assert corpus.token_count == 3
    assert list(iter(corpus))[1] == (record, record)


def test_read_raw_two_and_three_fields():
    text = "word\tNN\nother\tVB\tB-MWE\n"
    raw = read_raw(io.StringIO(text))
    assert raw == [[("word", "NN", "O"), ("other", "VB", "B-MWE")]]


def test_read_raw_sentence_breaks():
    text = "a\tNN\n\nb\tVB\tI-MWE\n"
    raw = read_raw(io.StringIO(text))
    assert len(raw) == 2


def test_read_raw_rejects_bad_rows():
    for bad in ("word\n", "a\tb\tc\td\n", "a\tNN\tQ\n", " \tNN\n"):
        with pytest.raises(ParseError):
            read_raw(io.StringIO(bad))


def test_read_raw_normalizes_to_nfc():
    raw = read_raw(io.StringIO("café\tNN\n"))
    assert raw[0][0][0] == "café"


def test_read_raw_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("abc\tNN\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_raw(path) == [[("abc", "NN", "O")]]
    assert read_raw(io.StringIO("\ufeffabc\tNN\n")) == [[("abc", "NN", "O")]]


def model_for_test(weights):
    return CrfModel(
        label_set=LabelSet(),
        template=parse_template("U00:%x[0,0]\nU07:%x[-1,21]/%x[0,21]\nB\n"),
        weights=weights,
        rho=7.25,
    )


def test_model_round_trip_basic(tmp_path):
    weights = {("U00:word", "O"): 1.5, ("O", "B-MWE"): -0.25}
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    back = load_model(path)
    assert back.weights == weights
    assert back.rho == 7.25
    assert back.label_set.labels == LABELS
    assert back.template == model_for_test(weights).template
    crlf = tmp_path / "crlf.txt"  # paths are read with text mode's newline translation
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_model(crlf) == back


def test_model_round_trip_awkward_strings(tmp_path):
    weights = {
        ("U00:with space", "O"): 0.1,
        ("U00:with\ttab", "B-MWE"): -2.0,
        ("U00:percent%25", "I-MWE"): 3.5,
        ("U00:new\nline", "O"): 4.0,
        ("U00:carriage\rreturn", "O"): -4.0,
        ("U00:%09literal", "O"): 0.5,
        ("U00:পু", "O"): 1.0,
    }
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    assert load_model(path).weights == weights


def test_model_round_trip_extreme_floats(tmp_path):
    rng = np.random.default_rng(0)
    weights = {}
    for i in range(2000):
        value = float(rng.uniform(-30, 30)) * 10.0 ** int(rng.integers(-300, 300))
        weights[(f"U00:f{i}", "O")] = value
    weights[("U00:tiny", "O")] = 5e-324
    weights[("U00:negzero", "O")] = -0.0
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    back = load_model(path)
    assert len(back.weights) == len(weights)
    for key, value in weights.items():
        got = back.weights[key]
        assert got == value and repr(got) == repr(value)


def test_model_file_shape(tmp_path):
    weights = {("U00:w", "O"): 1.0}
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mwetag-crf-model 1"
    assert lines[1] == "rho 7.25"
    assert lines[2] == "labels O B-MWE I-MWE"
    assert lines[3] == "template 3"
    assert lines[7].startswith("weights ")


def test_load_model_rejects_unknown_version(tmp_path):
    weights = {("U00:w", "O"): 1.0}
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    text = path.read_text(encoding="utf-8").replace(
        "mwetag-crf-model 1", "mwetag-crf-model 2", 1
    )
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(path)


def test_load_model_rejects_truncation(tmp_path):
    weights = {(f"U00:w{i}", "O"): float(i) for i in range(20)}
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(path)


def test_load_model_rejects_trailing_garbage(tmp_path):
    weights = {("U00:w", "O"): 1.0}
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("extra line\n")
    with pytest.raises(ParseError):
        load_model(path)


def test_load_model_rejects_garbage_header(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(path)


@pytest.mark.parametrize(
    "line_index, replacement",
    [
        (1, "rho nan"),
        (1, "rho inf"),
        (1, "rho 0.0"),
        (1, "rho -2.5"),
        (8, "U00:w\tO\tnan"),
        (9, "U00:v\tO\t-inf"),
        (9, "U00:w\tO\t2.0"),  # same key as the line before
        (2, "labels O B-MWE"),
        (8, "U00:w\tQ\t1.0"),  # label outside O/B-MWE/I-MWE
        (3, "template ²"),  # a digit, but not an ASCII one
        (7, "weights ³"),
        (5, "U07:%x[-1,99]"),  # the template's line 2 is the file's line 6
        (4, "U00:%x[0,0]\x0bx"),  # a vertical tab ends no line: a bad reference
    ],
)
def test_load_model_rejects_bad_values(tmp_path, line_index, replacement):
    weights = {("U00:w", "O"): 1.0, ("U00:v", "O"): 2.0}
    path = tmp_path / "model.txt"
    save_model(model_for_test(weights), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line_index] = replacement
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_model(path)
    assert f"line {line_index + 1}:" in str(exc.value)


def test_load_model_rejects_label_pairs_without_b_line(tmp_path):
    """Scoring ignores label pairs when the template has no B line, so a
    file holding one is refused rather than counted in the penalty."""
    path = tmp_path / "model.txt"
    save_model(CrfModel(LabelSet(), parse_template("U00:%x[0,0]\n"), {("U00:w", "O"): 1.0}), path)
    text = path.read_text(encoding="utf-8").replace("weights 1\n", "weights 2\n")
    path.write_text(text + "O\tB-MWE\t7.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_model(path)
    assert "line 8:" in str(exc.value)


weight_strings = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=6,
)


@given(
    st.dictionaries(
        st.tuples(weight_strings, st.sampled_from(LABELS)),
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=20,
    )
)
@settings(max_examples=60)
def test_model_weights_survive_any_printable_keys(tmp_path_factory, weights):
    path = tmp_path_factory.mktemp("models") / "m.txt"
    save_model(model_for_test(weights), path)
    assert load_model(path).weights == weights


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text(encoding="utf-8") == "second\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_atomic_write_gives_open_permissions(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.txt", "x\n")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as handle:
            handle.write("x\n")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {0o666 & ~umask}
