"""Continued-fraction evaluation, symmetries, and the even expansion."""

import json
import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgekit import cli, contfrac
from bridgekit.cli import WordParseError, _bounded_word, format_json
from bridgekit.contfrac import (
    NotAKnotFraction,
    check_even_word,
    check_word,
    eval_word,
    format_word,
    negate,
    rev_neg,
    reverse,
    sign_changes,
    to_reduced_even,
)
from bridgekit.census import enumerate_words
from bridgekit.epim import OrsParams
from bridgekit.knot import knot_from_word


def continuant_eval(word):
    """Independent evaluation: left-to-right convergent recurrence.

    The package folds reciprocals right to left; this builds the
    numerator/denominator pair in the opposite association order.
    """
    p_prev, p = 1, word[0]
    q_prev, q = 0, 1
    for entry in word[1:]:
        p_prev, p = p, entry * p + p_prev
        q_prev, q = q, entry * q + q_prev
    if p == 0:
        raise ZeroDivisionError("value is infinite")
    return Fraction(q, p)


halves = st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0)
even_words = st.lists(halves, min_size=2, max_size=12).map(
    lambda hs: tuple(2 * h for h in hs[: len(hs) // 2 * 2])
)


class TestEval:
    def test_single_entry(self):
        assert eval_word((2,)) == Fraction(1, 2)

    def test_hand_computed(self):
        assert eval_word((2, -2)) == Fraction(2, 3)
        assert eval_word((2, 2)) == Fraction(2, 5)
        assert eval_word((2, -4, 4, -2)) == Fraction(26, 45)

    def test_zero_tail_rejected(self):
        with pytest.raises(ZeroDivisionError):
            eval_word((1, -1))
        with pytest.raises(ZeroDivisionError):
            eval_word((3, 1, -1, 1))

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            eval_word((2, 0, 2))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            eval_word(())

    @given(even_words)
    def test_matches_continuant_fold(self, word):
        assert eval_word(word) == continuant_eval(word)

    def test_matches_continuant_fold_bulk(self):
        rng = random.Random(20240901)
        for _ in range(1000):
            length = rng.randint(1, 10)
            word = tuple(rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(length))
            try:
                tower = eval_word(word)
            except ZeroDivisionError:
                continue
            assert tower == continuant_eval(word)


class TestSignChanges:
    @pytest.mark.parametrize(
        "word, expected",
        [
            ((2, -2, 2, -2), 3),
            ((2, 2), 0),
            ((2, -4, 4, -2), 3),
        ],
    )
    def test_examples(self, word, expected):
        assert sign_changes(word) == expected

    def test_pairwise_products_on_large_entries_and_long_runs(self):
        # the sign of each entry, however large, and runs of one sign
        rng = random.Random(3802)
        words = [(256, -256), (-255, -257, 1), (2**70, 3, -(2**64)), (5,) * 300, (-2,) * 301]
        words.append(tuple([7] * 100 + [-9] * 100 + [11] * 50))
        words += [
            tuple(rng.choice((1, -1)) * rng.randint(1, 2**40) for _ in range(rng.randint(1, 60)))
            for _ in range(300)
        ]
        for word in words:
            products = sum(a * b < 0 for a, b in zip(word, word[1:]))
            assert sign_changes(word) == sign_changes(list(word)) == products, word

    @given(even_words)
    def test_invariant_under_negate_and_reverse(self, word):
        assert sign_changes(negate(word)) == sign_changes(word)
        assert sign_changes(reverse(word)) == sign_changes(word)

    @given(even_words)
    def test_range(self, word):
        assert 0 <= sign_changes(word) <= len(word) - 1


class TestSymmetries:
    def test_examples(self):
        assert rev_neg((2, -2, 4, -2, 2, -2, 2, -2)) == (2, -2, 2, -2, 2, -4, 2, -2)
        assert negate((2, 2)) == (-2, -2)
        assert reverse((2, -4, 4, -2)) == (-2, 4, -4, 2)

    @given(even_words)
    def test_involutions(self, word):
        assert rev_neg(rev_neg(word)) == word
        assert negate(negate(word)) == word
        assert reverse(reverse(word)) == word

    @given(even_words)
    def test_preserve_shape(self, word):
        for image in (rev_neg(word), negate(word), reverse(word)):
            assert len(image) == len(word)
            assert sorted(abs(e) for e in image) == sorted(abs(e) for e in word)
            check_even_word(image)


class TestToReducedEven:
    def test_examples(self):
        assert to_reduced_even(Fraction(2, 3)) == (2, -2)
        assert to_reduced_even(Fraction(2, 5)) == (2, 2)

    def test_negative(self):
        assert to_reduced_even(Fraction(-2, 3)) == (-2, 2)

    def test_even_denominator_rejected(self):
        with pytest.raises(NotAKnotFraction):
            to_reduced_even(Fraction(1, 2))

    def test_out_of_range_rejected(self):
        for bad in (Fraction(3, 2), Fraction(0), Fraction(1), Fraction(-5, 3)):
            with pytest.raises(NotAKnotFraction):
                to_reduced_even(bad)

    def test_odd_over_odd_rejected(self):
        # not the value of any even-entry expansion
        with pytest.raises(NotAKnotFraction):
            to_reduced_even(Fraction(1, 3))

    def test_slow_boundary_fractions(self):
        # 2k/(2k+1) expands entry by entry into the alternating word
        assert to_reduced_even(Fraction(8, 9)) == (2, -2, 2, -2, 2, -2, 2, -2)

    @given(even_words)
    def test_round_trip(self, word):
        value = eval_word(word)
        again = to_reduced_even(value)
        check_even_word(again)
        assert eval_word(again) == value

    def test_round_trip_census(self):
        for c in range(3, 13):
            for word in enumerate_words(c):
                value = eval_word(word)
                assert eval_word(to_reduced_even(value)) == value

    def test_bad_expansion_raises(self, monkeypatch):
        # an explicit raise, not an assert, so python -O keeps the check
        monkeypatch.setattr(contfrac, "_continuant", lambda word: (0, 1))
        with pytest.raises(ArithmeticError):
            to_reduced_even(Fraction(2, 3))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Fraction(0), "0 is out of range: need 0 < |r| < 1"),
            (Fraction(1), "1 is out of range: need 0 < |r| < 1"),
            (Fraction(-1), "-1 is out of range: need 0 < |r| < 1"),
            (Fraction(3, 2), "3/2 is out of range: need 0 < |r| < 1"),
            (
                Fraction(1, 2),
                "1/2 has an even denominator: it describes a two-bridge link, not a knot",
            ),
            (
                Fraction(1, 3),
                "1/3 has odd numerator and odd denominator: no even-entry expansion exists",
            ),
        ],
    )
    def test_refusal_messages(self, bad, message):
        with pytest.raises(NotAKnotFraction) as refused:
            to_reduced_even(bad)
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "bad, kind",
        [(2 / 3, "float"), (0.5, "float"), (True, "bool"), ("2/3", "str"), (1, "int")],
    )
    def test_refuses_all_but_a_fraction(self, bad, kind):
        # Fraction(2 / 3) would be 6004799503160661/9007199254740992, not 2/3
        with pytest.raises(ValueError) as refused:
            to_reduced_even(bad)
        assert type(refused.value) is ValueError
        assert str(refused.value) == f"to_reduced_even takes a Fraction, got {kind} {bad!r}"


class _Two(IntEnum):
    TWO = 2


# every entry is checked by the set of entry types, so none is converted
CHECKS = {
    "check_word": check_word,
    "check_even_word": check_even_word,
    "eval_word": eval_word,
    "knot_from_word": knot_from_word,
    "OrsParams": lambda word: OrsParams(word, 1, (1, 1, 1), (1, -1)),
}


class TestEntryRule:
    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS)
    @pytest.mark.parametrize(
        "word",
        [(2.7, -2.2), ("2", "-2"), (True, 2), (Fraction(2), -2), (_Two.TWO, -2)],
        ids=["float", "str", "bool", "Fraction", "IntEnum"],
    )
    def test_entries_that_are_not_ints_are_refused(self, check, word):
        with pytest.raises(ValueError, match="word entries must be ints"):
            check(word)

    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS)
    def test_any_iterable_of_ints_gives_the_tuple_word(self, check):
        word = (2, 4, 6, 8)
        expected = check(word)
        assert check(list(word)) == check(e for e in word) == check(range(2, 10, 2)) == expected

    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS)
    def test_an_entry_type_is_reported_before_a_zero(self, check):
        with pytest.raises(ValueError, match="word entries must be ints"):
            check((0, 2.0))

    @pytest.mark.parametrize("check", [check_word, check_even_word, eval_word])
    def test_empty_word(self, check):
        with pytest.raises(ValueError, match="^empty word$"):
            check(iter(()))

    @pytest.mark.parametrize(
        "word",
        [(-3, 2), (2, -(2**70) - 1), (2**70, -2), (-(2**70), 2**71), (2**64 + 1, 2), (-1, -1)],
    )
    def test_parity_by_the_low_bit_is_parity_by_remainder(self, word):
        odd = [e for e in word if e % 2]
        if odd:
            with pytest.raises(ValueError) as refused:
                check_even_word(word)
            assert str(refused.value) == f"even word has odd entries {odd}: {word}"
        else:
            assert check_even_word(word) == word


def parse_word(text):
    return _bounded_word(text, "invariants")


class TestTextFormats:
    """Words and fractions as the CLI reads and writes them."""

    def test_parse_word(self):
        assert parse_word("2,-4, 4 , -2") == (2, -4, 4, -2)

    def test_parse_word_errors(self):
        zero = r"^zero entry not allowed: token '0' at position 2$"
        with pytest.raises(WordParseError, match=zero):
            parse_word("2,0,2")
        with pytest.raises(WordParseError, match=r"^empty entry: token '' at position 2$"):
            parse_word("2,,2")
        with pytest.raises(WordParseError, match=r"^not an integer: token 'x' at position 2$"):
            parse_word("2, x")

    def test_word_round_trip(self):
        for word in ((2, -2), (2, -4, 4, -2)):
            assert parse_word(format_word(word)) == word

    def test_fractions(self, capsys):
        # a Fraction prints as str() writes it: p/q, or p for an integer
        assert cli.main(["invariants", "2,-4,4,-2"]) == 0
        assert "\nvalue: 26/45\n" in capsys.readouterr().out
        assert cli.main(["census", "3"]) == 0
        assert capsys.readouterr().out.endswith("\n| 3 | 2 | 2 | 2 | 1 | 1 | 2 |\n")


# Text with what JSON escapes: quotes, backslashes, control characters,
# non-ASCII and astral characters (escaped as surrogate pairs), lone surrogates.
json_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001d11e'),
        st.characters(exclude_categories=()),
    ),
    max_size=12,
)
json_values = st.recursive(
    st.none() | st.integers() | st.integers(-(2**200), 2**200) | json_text,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(json_text, children, max_size=5),
    max_leaves=30,
)


class TestFormatJson:
    """The CLI's json writer."""

    @given(json_values)
    def test_is_json_dumps(self, value):
        text = json.dumps(value, indent=2)
        assert format_json(value) == text
        assert format_json(value, "    ") == text.replace("\n", "\n    ")

    @pytest.mark.parametrize(
        "value", [True, False, 0.0, Fraction(1, 2), (1,), {1: 2}, [False], {"a": [True]}]
    )
    def test_refuses_what_the_cli_never_prints(self, value):
        # json.dumps writes each of these; a fall-through must not write False as []
        with pytest.raises(TypeError):
            format_json(value)
