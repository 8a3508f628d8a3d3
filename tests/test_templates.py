"""Template parsing, macro expansion, and the gene catalogue."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwetag.errors import InputError, ParseError
from mwetag.features import COL_DIGIT, COL_POS, COL_STEM, COL_WORD
from mwetag.templates import (
    FeatureMacro,
    Template,
    chromosome_to_template,
    default_catalogue,
    expand_macros,
    parse_template,
    serialize_template,
)
from tests.conftest import NOT_LINE_ENDS, make_record


def test_parse_single_macro():
    template = parse_template("U02:%x[0,1]\n")
    assert len(template.macros) == 1
    macro = template.macros[0]
    assert macro.id == "U02"
    assert macro.refs == ((0, 1),)
    assert template.include_label_bigram is False


def test_parse_conjunction():
    template = parse_template("U99:%x[-1,0]/%x[0,0]/%x[1,21]\n")
    assert template.macros[0].refs == ((-1, 0), (0, 0), (1, 21))


def test_parse_bigram_line_and_comments():
    text = "# window features\nU00:%x[0,0]\n\nB\n"
    template = parse_template(text)
    assert template.include_label_bigram is True
    assert len(template.macros) == 1


def test_parse_empty_template_is_valid():
    template = parse_template("# nothing selected\n")
    assert template.macros == ()
    assert template.include_label_bigram is False


def test_parse_duplicate_macro_id_rejected():
    with pytest.raises(ParseError) as exc:
        parse_template("U01:%x[0,0]\nU01:%x[1,0]\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("end", NOT_LINE_ENDS.values(), ids=list(NOT_LINE_ENDS))
def test_parse_breaks_lines_only_at_newlines(end):
    assert len(parse_template(f"U00:%x[0,0]{end}\nU01:%x[0,1]\n").macros) == 2
    with pytest.raises(ParseError, match="^line 2: duplicate macro id 'U00'"):
        parse_template(f"U00:%x[0,0]{end}\nU00:%x[0,1]\n")
    with pytest.raises(ParseError, match="^line 1: macro U00: bad reference"):
        parse_template(f"U00:%x[0,0]{end}U01:%x[0,1]\n")


def test_parse_duplicate_refs_under_distinct_ids_allowed():
    template = parse_template("U01:%x[0,0]\nU02:%x[0,0]\n")
    assert len(template.macros) == 2


def test_parse_column_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_template("U01:%x[0,22]\n")
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize(
    "line",
    [
        "U01:%x[0]",
        "U01:%x[a,0]",
        "U01:",
        "U01 %x[0,0]",
        "T01:%x[0,0]",
        "U01:%x[0,0]/",
        "B extra",
    ],
)
def test_parse_malformed_lines(line):
    with pytest.raises(ParseError):
        parse_template(line + "\n")


def test_serialize_then_parse_round_trip():
    text = "U00:%x[-2,0]\nU01:%x[0,0]/%x[0,21]\nB\n"
    template = parse_template(text)
    assert serialize_template(template) == text
    assert parse_template(serialize_template(template)) == template


macro_ids = st.lists(
    st.integers(min_value=0, max_value=99), min_size=1, max_size=8, unique=True
)
refs = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=21)
    ),
    min_size=1,
    max_size=3,
)


@given(macro_ids, st.data(), st.booleans())
def test_round_trip_random_templates(ids, data, bigram):
    macros = tuple(
        FeatureMacro(id=f"U{i:02d}", refs=tuple(data.draw(refs))) for i in ids
    )
    template = Template(macros=macros, include_label_bigram=bigram)
    assert parse_template(serialize_template(template)) == template


SENTENCE = tuple(
    make_record(word=f"w{i}", pos=f"P{i}") for i in range(3)
)


def test_expand_basic_and_conjunction():
    template = parse_template("U00:%x[0,0]\nU01:%x[-1,0]/%x[0,21]\n")
    values = expand_macros(template, SENTENCE, 1)
    assert values == ["U00:w1", "U01:w0/P1"]


def test_expand_boundary_literals():
    template = parse_template("U00:%x[-2,0]\nU01:%x[-1,0]\nU02:%x[1,0]\nU03:%x[2,0]\n")
    assert expand_macros(template, SENTENCE, 0) == [
        "U00:_B-2",
        "U01:_B-1",
        "U02:w1",
        "U03:w2",
    ]
    assert expand_macros(template, SENTENCE, 2) == [
        "U00:w0",
        "U01:w1",
        "U02:_B+1",
        "U03:_B+2",
    ]


def test_expand_preserves_macro_order():
    template = parse_template("U05:%x[0,21]\nU01:%x[0,0]\n")
    assert expand_macros(template, SENTENCE, 0) == ["U05:P0", "U01:w0"]


def test_catalogue_layout():
    catalogue = default_catalogue()
    assert len(catalogue) == 38
    names = [gene.name for gene in catalogue.genes]
    assert names[0:5] == ["word[-2]", "word[-1]", "word[0]", "word[+1]", "word[+2]"]
    assert names[10] == "suffix_slot_1"
    assert names[19] == "suffix_slot_10"
    assert names[24] == "digit"
    assert names[33:38] == ["pos[-2]", "pos[-1]", "pos[0]", "pos[+1]", "pos[+2]"]
    ids = [gene.macro.id for gene in catalogue.genes]
    assert ids == [f"U{i:02d}" for i in range(38)]
    assert catalogue.genes[2].macro.refs == ((0, COL_WORD),)
    assert catalogue.genes[6].macro.refs == ((-1, COL_STEM),)
    assert catalogue.genes[24].macro.refs == ((0, COL_DIGIT),)
    assert catalogue.genes[35].macro.refs == ((0, COL_POS),)


def test_chromosome_all_zeros_and_all_ones():
    catalogue = default_catalogue()
    empty = chromosome_to_template((0,) * 38, catalogue)
    assert empty.macros == ()
    assert empty.include_label_bigram is True
    full = chromosome_to_template((1,) * 38, catalogue)
    assert len(full.macros) == 38


def test_chromosome_length_must_match():
    with pytest.raises(InputError):
        chromosome_to_template((1, 0), default_catalogue())


def test_chromosome_known_selection():
    selected = {0, 1, 2, 6, 7, 10, 11, 12, 13, 14, 20, 21,
                23, 24, 25, 26, 27, 28, 29, 35, 36, 37}
    bits = tuple(int(i in selected) for i in range(38))
    template = chromosome_to_template(bits, default_catalogue())
    assert len(template.macros) == 22
    catalogue = default_catalogue()
    expected = [catalogue.genes[i].macro for i in sorted(selected)]
    assert list(template.macros) == expected
    assert template.include_label_bigram is True


def test_macro_rejects_bad_column():
    with pytest.raises(InputError):
        FeatureMacro(id="U00", refs=((0, 22),))
    with pytest.raises(InputError):
        FeatureMacro(id="U00", refs=())


@pytest.mark.parametrize("bad", ["U1:a", "", "u00", "X00", "U-1", "U 1", "U1/2", "Ué", "U1\n"])
def test_macro_rejects_an_id_parse_template_cannot_read(bad):
    """A macro id is U then ASCII letters, digits or _: anything else would
    serialize to a line parse_template refuses, and an id holding ':' could
    spell another macro's feature strings."""
    with pytest.raises(InputError, match="macro id"):
        FeatureMacro(id=bad, refs=((0, 0),))


accepted_ids = st.from_regex(r"U[A-Za-z0-9_]{0,6}", fullmatch=True)


@given(st.lists(accepted_ids, min_size=1, max_size=6, unique=True))
def test_every_accepted_macro_id_round_trips(ids):
    template = Template(macros=tuple(FeatureMacro(id=i, refs=((0, 0), (-1, 21))) for i in ids))
    assert parse_template(serialize_template(template)) == template
