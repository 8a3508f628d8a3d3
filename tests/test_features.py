"""Token encoding: flags, suffix slots, and context-driven columns."""

from __future__ import annotations

import dataclasses
import io
import pickle
import sys
import tracemalloc
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwetag.errors import ConfigError, InputError
from mwetag.features import (
    ABSENT,
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
    COL_SUFFIX_PRESENT,
    COL_WORD,
    LABELS,
    NUM_COLUMNS,
    SUFFIX_SLOTS,
    Gazetteer,
    TokenRecord,
    build_frequency_table,
    build_token_record,
    digit_flag,
    encode_corpus,
    frequency_bin,
    length_flag,
    load_gazetteer,
)
from mwetag.stemmer import AffixLexicon


def test_length_flag_threshold():
    assert length_flag("abc") == 0
    assert length_flag("abcd") == 1
    assert length_flag("পুশি") == 1  # four codepoints


def test_frequency_bin_threshold():
    assert frequency_bin(0) == 0
    assert frequency_bin(50) == 0
    assert frequency_bin(99) == 0
    assert frequency_bin(100) == 1
    assert frequency_bin(250) == 1
    assert frequency_bin(400) == 1


def test_frequency_bin_rejects_negative():
    with pytest.raises(InputError):
        frequency_bin(-1)


def test_digit_flag_cases():
    assert digit_flag("123") == 1
    assert digit_flag("abc") == 0
    assert digit_flag("ab3c") == 1
    assert digit_flag("৭৫") == 1  # Bengali digits
    assert digit_flag("²") == 0  # superscript two is not decimal
    assert digit_flag("IV") == 0


def test_frequency_table_counts():
    assert build_frequency_table(["a", "b", "a", "a"]) == {"a": 3, "b": 1}


LEXICON = AffixLexicon(prefixes=("un",), suffixes=("ed", "ing", "s"))
GAZETTEER = Gazetteer(salutations=frozenset({"Mr."}), followups=frozenset({"City"}))
EMPTY_TABLE: dict[str, int] = {}


def build(word, **kwargs):
    defaults = dict(
        pos="NN",
        label="O",
        prev_word=None,
        next_word=None,
        lexicon=LEXICON,
        gazetteer=GAZETTEER,
        frequencies=EMPTY_TABLE,
    )
    defaults.update(kwargs)
    return build_token_record(word, **defaults)


def test_record_has_22_columns_plus_label():
    record = build("unwalked")
    assert len(record.columns) == NUM_COLUMNS
    assert record.label == "O"


def test_suffix_slots_filled_rightmost_first():
    record = build("walkeds")
    assert record.columns[COL_STEM] == "walk"
    assert record.columns[2] == "s"
    assert record.columns[3] == "ed"
    assert all(record.columns[2 + i] == ABSENT for i in range(2, SUFFIX_SLOTS))
    assert record.columns[COL_SUFFIX_PRESENT] == "1"
    assert record.columns[COL_SUFFIX_COUNT] == "2"


def test_no_affixes_yields_absent_markers():
    record = build("tree")
    assert record.columns[COL_STEM] == "tree"
    assert record.columns[2] == ABSENT
    assert record.columns[COL_SUFFIX_PRESENT] == "0"
    assert record.columns[COL_SUFFIX_COUNT] == "0"
    assert record.columns[COL_PREFIX] == ABSENT
    assert record.columns[COL_PREFIX_PRESENT] == "0"


def test_prefix_column_records_first_stripped_prefix():
    record = build("unwalked")
    assert record.columns[COL_PREFIX] == "un"
    assert record.columns[COL_PREFIX_PRESENT] == "1"
    assert record.columns[COL_STEM] == "walk"


def test_more_than_ten_suffixes_truncates_count():
    lexicon = AffixLexicon(prefixes=("q",), suffixes=("a",))
    record = build("r" + "a" * 12, lexicon=lexicon)
    assert record.columns[COL_SUFFIX_COUNT] == "10"
    assert all(record.columns[2 + i] == "a" for i in range(SUFFIX_SLOTS))
    assert record.columns[COL_STEM] == "r"


def test_gazetteer_flags_use_neighbours():
    assert build("Sharma", prev_word="Mr.").columns[COL_SALUTATION] == "1"
    assert build("Sharma", prev_word="Dr.").columns[COL_SALUTATION] == "0"
    assert build("Sharma").columns[COL_SALUTATION] == "0"
    assert build("Imphal", next_word="City").columns[COL_FOLLOWUP] == "1"
    assert build("Imphal", next_word="Town").columns[COL_FOLLOWUP] == "0"
    assert build("Imphal").columns[COL_FOLLOWUP] == "0"


def test_frequency_column_uses_table():
    table = {"walked": 250}
    assert build("walked", frequencies=table).columns[COL_FREQUENCY] == "1"
    assert build("walked").columns[COL_FREQUENCY] == "0"


def test_pos_and_word_columns():
    record = build("unwalked", pos="VB")
    assert record.columns[COL_WORD] == "unwalked"
    assert record.columns[COL_POS] == "VB"
    assert record.columns[COL_LENGTH] == "1"
    assert build("ab").columns[COL_LENGTH] == "0"


def test_unknown_label_rejected():
    with pytest.raises(InputError):
        build("word", label="B-XYZ")


def test_record_rejects_wrong_width():
    with pytest.raises(InputError):
        TokenRecord(columns=("a",) * 5)


def test_record_rejects_unknown_label():
    with pytest.raises(InputError):
        TokenRecord(columns=("a",) * NUM_COLUMNS, label="Q")


words = st.text(alphabet="abdeginrsuw", min_size=1, max_size=12)


@given(words)
def test_slot_columns_agree_with_count(word):
    record = build(word)
    count = int(record.columns[COL_SUFFIX_COUNT])
    assert record.columns[COL_SUFFIX_PRESENT] == str(int(count > 0))
    filled = [record.columns[2 + i] for i in range(SUFFIX_SLOTS)]
    assert all(v != ABSENT for v in filled[:count])
    assert all(v == ABSENT for v in filled[count:])
    assert record.columns[COL_DIGIT] == "0"


def test_encode_corpus_wires_neighbours_and_frequencies():
    raw = [
        [("Mr.", "NN", "O"), ("Sharma", "NN", "B-MWE"), ("City", "NN", "I-MWE")],
        [("Sharma", "NN", "O")],
    ]
    corpus = encode_corpus(raw, LEXICON, GAZETTEER)
    first, second = corpus
    assert first[1].columns[COL_SALUTATION] == "1"
    assert first[0].columns[COL_FOLLOWUP] == "0"  # "Sharma" not in followups
    assert first[1].columns[COL_FOLLOWUP] == "1"  # next word is "City"
    assert first[1].label == "B-MWE"
    # sentence boundaries leave context flags at zero
    assert first[0].columns[COL_SALUTATION] == "0"
    assert second[0].columns[COL_SALUTATION] == "0"


def test_encode_corpus_counts_frequencies_over_input():
    raw = [[("walked", "NN", "O")] * 60, [("walked", "NN", "O")] * 60]
    corpus = encode_corpus(raw, LEXICON, GAZETTEER)
    assert corpus[0][0].columns[COL_FREQUENCY] == "1"  # 120 occurrences


def test_encode_corpus_external_table_overrides_counting():
    raw = [[("walked", "NN", "O")] * 60, [("walked", "NN", "O")] * 60]
    corpus = encode_corpus(raw, LEXICON, GAZETTEER, frequencies=EMPTY_TABLE)
    assert corpus[0][0].columns[COL_FREQUENCY] == "0"


def test_encode_corpus_reports_bad_label_position():
    raw = [[("fine", "NN", "O")], [("fine", "NN", "O"), ("bad", "NN", "Q")]]
    with pytest.raises(InputError) as exc:
        encode_corpus(raw, LEXICON, GAZETTEER)
    message = str(exc.value)
    assert "2" in message and "Q" in message


def test_encode_corpus_reports_empty_word_position():
    with pytest.raises(InputError) as exc:
        encode_corpus([[("", "NN", "O")]], LEXICON, GAZETTEER)
    assert "sentence 1, token 1" in str(exc.value)
    # read_raw refuses such a word at its line; a library caller gets the row's refusal
    raw = [[("fine", "NN", "O")], [("fine", "NN", "O"), ("two words", "NN", "O")]]
    with pytest.raises(InputError, match="sentence 2, token 2: column 1 'two words'"):
        encode_corpus(raw, LEXICON, GAZETTEER)


# Whitespace by str.split that is not an ASCII space: tab, no-break space,
# line separator, ideographic space and the file separator \x1c.
INNER_SPACES = {"tab": "\t", "nbsp": "\u00a0", "ls": "\u2028", "ideo": "\u3000", "fs": "\x1c"}


@pytest.mark.parametrize("space", INNER_SPACES.values(), ids=list(INNER_SPACES))
def test_encode_corpus_refuses_whitespace_in_word_or_pos_at_its_column(space):
    """encode_corpus checks the word and the pos itself, since the row it
    builds skips the full column check; the message is the row's own."""
    word, pos = f"wal{space}ked", f"N{space}N"
    for triple, col, value in (((word, "NN", "O"), 1, word), (("walked", pos, "O"), 22, pos)):
        with pytest.raises(InputError) as exc:
            encode_corpus([[triple]], LEXICON, GAZETTEER)
        assert str(exc.value) == (
            f"sentence 1, token 1: column {col} {value!r} is empty or holds whitespace"
        )
        columns = list(build("walked").columns)
        columns[col - 1] = value
        with pytest.raises(InputError) as public:
            TokenRecord(tuple(columns))
        assert str(exc.value) == f"sentence 1, token 1: {public.value}"
    with pytest.raises(InputError, match="^sentence 1, token 1: column 1 "):  # word first
        encode_corpus([[(word, pos, "O")]], LEXICON, GAZETTEER)
    with pytest.raises(InputError, match="^sentence 1, token 1: label 'Q' "):  # label before
        encode_corpus([[(word, pos, "Q")]], LEXICON, GAZETTEER)


def test_digit_flag_is_isdecimal_on_every_code_point():
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    assert [digit_flag(ch) for ch in chars] == [int(ch.isdecimal()) for ch in chars]
    for word in ("ab৭", "x²y", "IV", "a١b", "Ⅻ", "½", "w0rd", "৭৫"):
        assert digit_flag(word) == int(any(ch.isdecimal() for ch in word)), word


def test_row_built_from_clean_columns_is_a_token_record():
    checked = TokenRecord(build("unwalked").columns, "B-MWE")
    clean = TokenRecord._of_clean(checked.columns, "B-MWE")
    assert type(clean) is TokenRecord and vars(clean) == vars(checked)
    assert clean == checked and hash(clean) == hash(checked) and repr(clean) == repr(checked)
    assert pickle.dumps(clean) == pickle.dumps(checked)
    assert pickle.loads(pickle.dumps(clean)) == checked
    assert clean != TokenRecord._of_clean(checked.columns)  # label "O"
    with pytest.raises(dataclasses.FrozenInstanceError):
        clean.label = "O"
    # and takes no more memory: a row whose __dict__ was touched holds a dict of its own
    sizes = []
    for build_row in (TokenRecord, TokenRecord._of_clean):
        tracemalloc.start()
        rows = [build_row(checked.columns, "O") for _ in range(1000)]
        sizes.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        del rows
    assert sizes[1] <= sizes[0]
    # the count and the label are still checked, with the row's messages
    with pytest.raises(InputError, match="needs 22 feature columns, got 5"):
        TokenRecord._of_clean(("a",) * 5)
    with pytest.raises(InputError, match="label 'Q' not in"):
        TokenRecord._of_clean(checked.columns, "Q")


def test_encode_corpus_nfd_and_nfc_input_encode_alike():
    gazetteer = Gazetteer(salutations=frozenset({"Señor"}), followups=frozenset({"Café"}))
    nfc = [[("Señor", "NN", "O"), ("Café", "NN", "B-MWE"), ("Café", "NN", "I-MWE")]] * 50
    nfd = [[(unicodedata.normalize("NFD", w), p, lab) for w, p, lab in s] for s in nfc]
    assert nfd != nfc
    encoded = encode_corpus(nfc, LEXICON, gazetteer)
    assert encoded == encode_corpus(nfd, LEXICON, gazetteer)
    first = encoded[0]
    assert first[1].columns[COL_SALUTATION] == "1" and first[0].columns[COL_FOLLOWUP] == "1"
    assert first[1].columns[COL_FREQUENCY] == "1"  # 100 occurrences


def test_load_gazetteer_reads_both_lists():
    gaz = load_gazetteer(io.StringIO("Mr.\nShri\n"), io.StringIO("City\n"))
    assert "Mr." in gaz.salutations
    assert "Shri" in gaz.salutations
    assert "City" in gaz.followups


def test_load_gazetteer_follows_the_affix_list_rules():
    text = "# salutations\n  Shri  \nMr.\n\nSeñor\n"
    gaz = load_gazetteer(io.StringIO(text), io.StringIO(""))  # a list may be empty
    assert gaz == Gazetteer(frozenset({"Shri", "Mr.", "Señor"}), frozenset())
    with pytest.raises(ConfigError, match="^line 1: salutations entry 'Shri Ram'") as exc:
        load_gazetteer(io.StringIO("Shri Ram\nShri Ram\nMr.\n"), io.StringIO(""))
    assert exc.value.line == 1
    with pytest.raises(ConfigError, match="^line 3: .*'City' .*line 1") as exc:
        load_gazetteer(io.StringIO(""), io.StringIO("City\nTown\nCity\n"))
    assert exc.value.line == 3


@pytest.mark.parametrize("entry", ["Shri Ram", "a\u2028b", ""])
def test_gazetteer_rejects_entries_that_are_empty_or_hold_whitespace(entry):
    with pytest.raises(ConfigError, match="is empty or holds whitespace"):
        Gazetteer(salutations=frozenset({entry}), followups=frozenset())
    with pytest.raises(ConfigError, match="is empty or holds whitespace"):
        Gazetteer(salutations=frozenset(), followups=frozenset({entry}))


def test_labels_constant():
    assert LABELS == ("O", "B-MWE", "I-MWE")
    assert LABELS[0] == "O"
