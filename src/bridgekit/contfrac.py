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
from operator import neg
from typing import Iterable, Sequence

Word = tuple[int, ...]


class WordParseError(ValueError):
    """A word string contains a malformed or forbidden token."""

    def __init__(self, message: str, token: str, position: int):
        super().__init__(f"{message}: token {token!r} at position {position}")
        self.token = token
        self.position = position


class NotAKnotFraction(ValueError):
    """The fraction is not the value of any reduced even word.

    Raised for |r| >= 1, for even denominators (those describe
    two-component links), and for odd/odd fractions, which have no
    even-entry expansion at all.
    """


def check_word(entries: Iterable[int]) -> Word:
    """Validate a general continued-fraction word: nonzero ints, length >= 1."""
    word = tuple(int(e) for e in entries)
    if not word:
        raise ValueError("empty word")
    if any(e == 0 for e in word):
        raise ValueError(f"word {word} contains a zero entry")
    return word


def check_even_word(entries: Iterable[int]) -> Word:
    """Validate a reduced even word: nonzero even ints, even length >= 2."""
    word = check_word(entries)
    if len(word) % 2:
        raise ValueError(f"even word must have even length, got {word}")
    odd = [e for e in word if e % 2]
    if odd:
        raise ValueError(f"even word has odd entries {odd}: {word}")
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
    return sum(1 for a, b in zip(word, word[1:]) if a * b < 0)


def reverse(word: Sequence[int]) -> Word:
    return tuple(reversed(word))


def negate(word: Sequence[int]) -> Word:
    return tuple(map(neg, word))


def rev_neg(word: Sequence[int]) -> Word:
    """Reverse and negate.  Words relate to the same knot iff equal up to this map."""
    return tuple(map(neg, reversed(word)))


def to_reduced_even(r: Fraction | int | str) -> Word:
    """Expand an admissible fraction into a reduced even word, exactly.

    Admissible values are exactly the values of reduced even words:
    0 < |r| < 1 in lowest terms with even numerator and odd denominator.
    Greedy nearest-even expansion: with z = 1/rest, take the even
    integer closest to z and recurse on the remainder z - 2a.  The
    remainder's denominator strictly decreases, so the loop terminates,
    and it always stops after an even number of steps.  rest = n/d stays
    in lowest terms, so z = d/n needs no gcd; z is never an integer (odd
    over even), and floor division gives its nearest even integer
    2*floor((z + 1)/2) for either sign of n.
    """
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
    entries: list[int] = []
    n, d = r.numerator, r.denominator
    while n:
        a = 2 * ((d + n) // (2 * n))
        entries.append(a)
        n, d = d - a * n, n
    word = tuple(entries)
    if len(word) % 2 or eval_word(word) != r:
        raise ArithmeticError(f"expansion {word} of {r} is not a reduced even word for it")
    return word


def parse_word(text: str) -> Word:
    """Parse ``n1,n2,...`` (whitespace around commas ignored) into a word."""
    tokens = text.split(",")
    entries = []
    for position, raw in enumerate(tokens, start=1):
        token = raw.strip()
        if not token:
            raise WordParseError("empty entry", raw, position)
        try:
            value = int(token)
        except ValueError:
            raise WordParseError("not an integer", token, position) from None
        if value == 0:
            raise WordParseError("zero entry not allowed", token, position)
        entries.append(value)
    return tuple(entries)


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(e) for e in word)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise WordParseError("not a fraction", text, 1) from exc


def format_fraction(value: Fraction) -> str:
    """Render in lowest terms as ``p/q``, or plain ``p`` for integers."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
