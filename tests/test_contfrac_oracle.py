"""Differential oracle for the integer continuant fold.

Words are folded with the integer recurrence (p, q) <- (q, e*q + p),
and fractions are expanded on integer numerator and denominator.  The
``Fraction`` fold and the greedy ``Fraction`` expansion they replaced
are kept below as they were, and so is the ``knot_from_word`` built on
them.  Values, expansions, error types and knot classes must agree.
"""

import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from bridgekit import contfrac, knot
from bridgekit.census import enumerate_words
from bridgekit.contfrac import NotAKnotFraction, check_even_word, check_word
from bridgekit.knot import (
    KnotClass,
    braid_index,
    canonical_word,
    crossing_number,
    sign_changes,
)

from _oracles import genus, raw_words


def eval_word(word):
    word = check_word(word)
    value = Fraction(0)
    for entry in reversed(word):
        denom = entry + value
        if denom == 0:
            raise ZeroDivisionError(
                f"tail of {list(word)} evaluates to {-entry}, cannot take reciprocal"
            )
        value = 1 / denom
    return value


def _nearest_even(z):
    # z is never an integer for admissible inputs (odd/even in lowest
    # terms), so the nearest even integer is unique and ties cannot arise.
    return 2 * round(z / 2)


def to_reduced_even(r):
    r = Fraction(r)
    if not 0 < abs(r) < 1:
        raise NotAKnotFraction(f"{r} is out of range: need 0 < |r| < 1")
    if r.denominator % 2 == 0:
        raise NotAKnotFraction(
            f"{r} has an even denominator: it describes a two-bridge link, not a knot"
        )
    if r.numerator % 2:
        raise NotAKnotFraction(
            f"{r} has odd numerator and odd denominator: no even-entry expansion exists"
        )
    entries = []
    rest = r
    while rest:
        z = 1 / rest
        a = _nearest_even(z)
        entries.append(a)
        rest = z - a
    word = tuple(entries)
    if len(word) % 2 or eval_word(word) != r:
        raise ArithmeticError(f"expansion {word} of {r} is not a reduced even word for it")
    return word


class NotAKnot(ValueError):
    """The word's fraction has an even denominator; never for a reduced even word."""


def knot_from_word(word):
    word = check_even_word(word)
    if eval_word(word).denominator % 2 == 0:
        raise NotAKnot(f"{word} evaluates to an even-denominator fraction")
    canon = canonical_word(word)
    return KnotClass(
        canon=canon,
        crossing=crossing_number(canon),
        braid=braid_index(canon),
        genus=genus(canon),
        signchg=sign_changes(canon),
    )


def _outcome(fn, arg):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return fn(arg)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _general_words(count, seed):
    """Seeded words of length 1..60 with entries +-1..50.

    About one entry in eight has magnitude 3..50 and the rest 1 or 2,
    so that zero partial denominators are common and the Fraction
    expansion of the values stays affordable.
    """
    rng = random.Random(seed)
    weights = [175, 175] + [1] * 48
    for _ in range(count):
        length = rng.randint(1, 60)
        magnitudes = rng.choices(range(1, 51), weights, k=length)
        yield tuple(map(mul, rng.choices((-1, 1), k=length), magnitudes))


@pytest.mark.parametrize("c", range(3, 17))
def test_canonical_words_agree(c):
    for word in enumerate_words(c):
        value = contfrac.eval_word(word)
        assert type(value) is Fraction
        assert value == eval_word(word), word
        assert contfrac.to_reduced_even(value) == to_reduced_even(value) == word


def test_general_words_agree():
    outcomes = Counter()
    # the named words have a zero partial denominator
    for word in [(1, 1, -1), (3, 2, -1, 2), *_general_words(20_000, seed=6)]:
        new, old = _outcome(contfrac.eval_word, word), _outcome(eval_word, word)
        assert type(new) is type(old), word
        assert new == old, word
        if isinstance(old, Fraction):
            expansion = _outcome(contfrac.to_reduced_even, old)
            assert expansion == _outcome(to_reduced_even, old), word
            outcomes[expansion if isinstance(expansion, type) else "word"] += 1
        else:
            outcomes[old] += 1
    # every path is exercised: invalid folds, refused fractions, expansions
    assert min(outcomes[ZeroDivisionError], outcomes[NotAKnotFraction], outcomes["word"]) > 100


def test_knot_classes_agree_on_every_word_to_14_crossings():
    checked = 0
    for c in range(3, 15):
        for word in raw_words(c):
            checked += 1
            assert knot.knot_from_word(word) == knot_from_word(word), word
    assert checked > 5000
