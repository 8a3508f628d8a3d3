"""Affix stripping against an independently written reference scanner."""

from __future__ import annotations

import io
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwetag.errors import ConfigError, InputError
from mwetag.stemmer import (
    AffixLexicon,
    load_affix_lexicon,
    stem,
)


def reference_strip(word, affixes, min_stem, side):
    """Same contract, different shape: for-else scan that restarts on hit."""
    out = word
    removed = []
    while True:
        for affix in affixes:
            if len(out) - len(affix) < min_stem:
                continue
            if side == "prefix" and out.startswith(affix):
                removed.append(affix)
                out = out[len(affix):]
                break
            if side == "suffix" and out.endswith(affix):
                removed.append(affix)
                out = out[: len(out) - len(affix)]
                break
        else:
            return out, removed


affix_lists = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=3),
    min_size=1,
    max_size=6,
    unique=True,
)
words = st.text(alphabet="abcxy", min_size=1, max_size=12)
min_stems = st.integers(min_value=1, max_value=3)


@given(words, affix_lists, min_stems)
def test_prefix_pass_matches_reference(word, affixes, min_stem):
    result = stem(word, AffixLexicon(prefixes=tuple(affixes), suffixes=()), min_stem=min_stem)
    want_stem, want_removed = reference_strip(word, affixes, min_stem, "prefix")
    assert result.stem == want_stem
    assert list(result.stripped_prefixes) == want_removed


@given(words, affix_lists, min_stems)
def test_suffix_pass_matches_reference(word, affixes, min_stem):
    result = stem(word, AffixLexicon(prefixes=(), suffixes=tuple(affixes)), min_stem=min_stem)
    want_stem, want_removed = reference_strip(word, affixes, min_stem, "suffix")
    assert result.stem == want_stem
    assert list(result.stripped_suffixes) == want_removed


@given(words, affix_lists, affix_lists, min_stems)
@settings(max_examples=200)
def test_reconstruction_and_fixpoint(word, prefixes, suffixes, min_stem):
    lexicon = AffixLexicon(prefixes=tuple(prefixes), suffixes=tuple(suffixes))
    result = stem(word, lexicon, min_stem=min_stem)
    rebuilt = (
        "".join(result.stripped_prefixes)
        + result.stem
        + "".join(reversed(result.stripped_suffixes))
    )
    assert rebuilt == unicodedata.normalize("NFC", word)
    assert len(result.stem) >= min(min_stem, len(result.original))
    again = stem(result.stem, lexicon, min_stem=min_stem)
    assert again.stem == result.stem
    assert again.prefix_count == 0 and again.suffix_count == 0


def test_repeated_calls_agree(tiny_lexicon):
    first = stem("abaxyzz", tiny_lexicon)
    second = stem("abaxyzz", tiny_lexicon)
    assert first == second


def test_prefixes_removed_outermost_first():
    lexicon = AffixLexicon(prefixes=("ab", "cd"), suffixes=("q",))
    result = stem("abcdrest", lexicon)
    assert result.stem == "rest"
    assert result.stripped_prefixes == ("ab", "cd")


def test_suffixes_removed_rightmost_first():
    lexicon = AffixLexicon(prefixes=("q",), suffixes=("en", "de"))
    result = stem("walkdeen", lexicon)
    assert result.stem == "walk"
    assert result.stripped_suffixes == ("en", "de")


def test_suffix_cut_by_length_not_by_first_occurrence():
    # "ab" also occurs mid-word; only the tail copy may be removed.
    lexicon = AffixLexicon(prefixes=("q",), suffixes=("ab",))
    result = stem("xabyab", lexicon)
    assert result.stem == "xaby"


def test_list_order_wins_over_length():
    # Shorter affix listed first is taken, then scanning restarts.
    lexicon = AffixLexicon(prefixes=("q",), suffixes=("z", "yz"))
    result = stem("wyzz", lexicon)
    assert result.stripped_suffixes == ("z", "z")
    assert result.stem == "wy"


def test_restart_after_removal_prefers_earlier_entries():
    # After "c" is stripped the scan restarts, so "a" outranks "b".
    lexicon = AffixLexicon(prefixes=("q",), suffixes=("a", "b", "c"))
    result = stem("xbac", lexicon)
    assert result.stripped_suffixes == ("c", "a", "b")
    assert result.stem == "x"


def test_min_stem_blocks_short_results():
    lexicon = AffixLexicon(prefixes=("q",), suffixes=("ing",))
    assert stem("sing", lexicon, min_stem=1).stem == "s"
    assert stem("sing", lexicon, min_stem=2).stem == "sing"


def test_prefix_pass_runs_before_suffix_pass():
    # "ab" could parse as prefix or suffix of "abab"; prefixes go first and
    # the guard then protects the remainder.
    lexicon = AffixLexicon(prefixes=("ab",), suffixes=("ab",))
    result = stem("abab", lexicon, min_stem=2)
    assert result.stripped_prefixes == ("ab",)
    assert result.stripped_suffixes == ()
    assert result.stem == "ab"


def test_empty_word_rejected(tiny_lexicon):
    with pytest.raises(InputError):
        stem("", tiny_lexicon)


def test_bad_min_stem_rejected(tiny_lexicon):
    with pytest.raises(InputError):
        stem("word", tiny_lexicon, min_stem=0)


@pytest.mark.parametrize("min_stem", [1.5, float("nan"), True])
def test_min_stem_that_is_not_an_integer_is_rejected(tiny_lexicon, min_stem):
    """1.5 stripped as if it were 2, and nan stripped nothing."""
    with pytest.raises(InputError, match="^min_stem must be an integer"):
        stem("word", tiny_lexicon, min_stem=min_stem)


def test_decomposed_input_matches_precomposed():
    lexicon = AffixLexicon(prefixes=("q",), suffixes=("é",))
    composed = stem("café", lexicon)
    decomposed = stem("café", lexicon)
    assert composed.stem == decomposed.stem == "caf"
    assert composed.stripped_suffixes == decomposed.stripped_suffixes


def test_loader_preserves_order_and_skips_noise():
    text = "# comment\nabc\n\nde\n  # indented comment\nf\n  gh \n"
    lexicon = load_affix_lexicon(io.StringIO(text), io.StringIO("x\n"))
    assert lexicon.prefixes == ("abc", "de", "f", "gh")


def test_loader_counts():
    prefixes = "".join(f"p{i}\n" for i in range(11))
    suffixes = "".join(f"s{i}\n" for i in range(61))
    lexicon = load_affix_lexicon(io.StringIO(prefixes), io.StringIO(suffixes))
    assert len(lexicon.prefixes) == 11
    assert len(lexicon.suffixes) == 61


def test_loader_rejects_duplicates_with_line_numbers():
    with pytest.raises(ConfigError) as exc:
        load_affix_lexicon(io.StringIO("aa\nbb\naa\n"), io.StringIO("x\n"))
    assert "line 1" in str(exc.value) and "line 3" in str(exc.value)


def test_loader_rejects_nfc_equivalent_duplicates():
    with pytest.raises(ConfigError):
        load_affix_lexicon(io.StringIO("x\n"), io.StringIO("é\né\n"))


def test_loader_rejects_empty_list():
    with pytest.raises(ConfigError):
        load_affix_lexicon(io.StringIO("# nothing\n"), io.StringIO("x\n"))


def test_lexicon_rejects_duplicate_entries():
    with pytest.raises(ConfigError):
        AffixLexicon(prefixes=("a", "a"), suffixes=("x",))


def test_loader_rejects_entries_that_hold_whitespace():
    with pytest.raises(ConfigError, match="^line 2: prefix entry 'a b'") as exc:
        load_affix_lexicon(io.StringIO("x\n  a b \n"), io.StringIO("y\n"))
    assert exc.value.line == 2


@pytest.mark.parametrize("entry", ["a b", "a\u2028b", ""])
def test_lexicon_rejects_entries_that_are_empty_or_hold_whitespace(entry):
    with pytest.raises(ConfigError, match="is empty or holds whitespace"):
        AffixLexicon(prefixes=(entry,), suffixes=("x",))
    with pytest.raises(ConfigError, match="is empty or holds whitespace"):
        AffixLexicon(prefixes=("x",), suffixes=(entry,))


def test_ten_suffix_decomposition_with_packaged_lists():
    from importlib import resources

    base = resources.files("mwetag") / "data"
    with (base / "prefixes_list.txt").open(encoding="utf-8") as pf:
        with (base / "suffixes_list.txt").open(encoding="utf-8") as sf:
            lexicon = load_affix_lexicon(pf, sf)
    word = "পুশিনহনজারমগাদাবানিদাকো"
    result = stem(word, lexicon)
    assert result.stem == "পু"
    assert result.suffix_count == 10
    assert result.stripped_suffixes == (
        "কো",
        "দা",
        "নি",
        "বা",
        "দা",
        "গা",
        "রম",
        "জা",
        "হন",
        "শিন",
    )
