"""Exact continued-fraction calculus for two-bridge knot words.

A two-bridge knot is carried combinatorially by a *reduced even word*:
a sequence of nonzero even integers of even length, read as the
continued fraction

    value([x1, x2, ..., xn]) = 1 / (x1 + 1 / (x2 + ... + 1 / xn))

with the reciprocal outermost.  That convention is fixed here, once:
every word is folded by :func:`_continuant`.

Words are plain tuples of ints, immutable and freely shareable.  Words
fold through integer continuants; `fractions.Fraction` is only the type
of the values returned.  No floating point appears anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import lt, mul, neg, or_
from typing import Iterable, Sequence

Word = tuple[int, ...]


class NotAKnotFraction(ValueError):
    """The fraction is not the value of any reduced even word.

    Raised for |r| >= 1, for even denominators (those describe
    two-component links), and for odd/odd fractions, which have no
    even-entry expansion at all.
    """


def check_word(entries: Iterable[int]) -> Word:
    """Validate a word: length >= 1, no zero entry, and no entry type but int (no conversion)."""
    word = tuple(entries)
    if {*map(type, word)} - {int}:
        raise ValueError(f"word entries must be ints, got {word}")
    if not word:
        raise ValueError("empty word")
    if 0 in word:
        raise ValueError(f"word {word} contains a zero entry")
    return word


def check_even_word(entries: Iterable[int]) -> Word:
    """Validate a reduced even word: nonzero even ints, even length >= 2."""
    word = check_word(entries)
    if len(word) % 2:
        raise ValueError(f"even word must have even length, got {word}")
    if reduce(or_, word) & 1:  # the low bit of any odd entry, of either sign
        raise ValueError(f"even word has odd entries {[e for e in word if e % 2]}: {word}")
    return word


def _continuant(word: Sequence[int]) -> tuple[int, int]:
    """Coprime (p, q) with value(word) = p/q for a validated word; q may be negative.

    Folds from the innermost entry outward: the tail p/q becomes
    1/(e + p/q) = q/(e*q + p), a step of determinant -1, so no gcd is
    needed.  Raises ZeroDivisionError when e*q + p is 0, which marks the
    expansion as invalid; reduced even words never do (their tails stay
    strictly inside (-1, 1)).
    """
    p, q = 0, 1
    for entry in reversed(word):
        p, q = q, entry * q + p
        if not q:
            raise ZeroDivisionError(
                f"tail of {list(word)} evaluates to {-entry}, cannot take reciprocal"
            )
    return p, q


def eval_word(word: Sequence[int]) -> Fraction:
    """Exact value of the continued fraction carried by ``word``, in lowest terms."""
    p, q = _continuant(check_word(word))
    return Fraction(p, q)


def sign_changes(word: Sequence[int]) -> int:
    """Number of adjacent sign changes: #{i : word[i] * word[i+1] < 0}."""
    return sum(map(lt, map(mul, word, word[1:]), repeat(0)))


def reverse(word: Sequence[int]) -> Word:
    return tuple(reversed(word))


def negate(word: Sequence[int]) -> Word:
    return tuple(map(neg, word))


def rev_neg(word: Sequence[int]) -> Word:
    """Reverse and negate.  Words relate to the same knot iff equal up to this map."""
    return tuple(map(neg, reversed(word)))


def to_reduced_even(r: Fraction) -> Word:
    """Expand an admissible fraction into a reduced even word, exactly.

    ``r`` is a Fraction, of that type exactly: a float, bool, int or str is
    refused with ValueError, not converted, as Fraction(2/3) is not 2/3.
    Admissible values are exactly the values of reduced even words:
    0 < |r| < 1 in lowest terms with even numerator and odd denominator.
    Greedy nearest-even expansion: with z = 1/rest, take the even integer
    a closest to z and recurse on z - a.  rest = n/d stays in lowest terms,
    so z = d/n needs no gcd and is never an integer (odd over even), and
    floor division gives a = 2*floor((z + 1)/2) for either sign of n.  The
    denominator strictly decreases, and the loop stops after an even number
    of steps.  The checks run on r = num/den, den > 0, in integers: the range
    as 0 < |num| < den, and the word by its fold, coprime with a free sign,
    so (num, den) or (-num, -den).  They raise, so python -O keeps them.
    """
    if type(r) is not Fraction:
        raise ValueError(f"to_reduced_even takes a Fraction, got {type(r).__name__} {r!r}")
    num, den = r.numerator, r.denominator
    if not 0 < abs(num) < den:
        raise NotAKnotFraction(f"{r} is out of range: need 0 < |r| < 1")
    if den % 2 == 0:
        raise NotAKnotFraction(
            f"{r} has an even denominator: it describes a two-bridge link, not a knot"
        )
    if num % 2:
        raise NotAKnotFraction(
            f"{r} has odd numerator and odd denominator: no even-entry expansion exists"
        )
    entries: list[int] = []
    n, d = num, den
    while n:
        a = 2 * ((d + n) // (2 * n))
        entries.append(a)
        n, d = d - a * n, n
    word = tuple(entries)
    if len(word) % 2 or 0 in word or _continuant(word) not in ((num, den), (-num, -den)):
        raise ArithmeticError(f"expansion {word} of {r} is not a reduced even word for it")
    return word


def format_word(word: Sequence[int]) -> str:
    return ",".join(map(str, word))

