"""Two-bridge knots as equivalence classes of reduced even words.

Two reduced even words describe the same (oriented, chiral) knot iff
they agree up to reverse-and-negate; the class is represented by the
lexicographically smaller of the two.  Mirror images additionally
identify a word with its plain negation, giving a four-word orbit.

Invariants of a word w = (e1, ..., e_{2m}) with t sign changes:

    crossing(w) = sum |e_i|      - t
    braid(w)    = sum |e_i| / 2  - t + 1
    genus(w)    = m

so 2 * braid = crossing + 2 - t, and braid = 2 exactly on the strictly
alternating words (+-2, -+2, ...), the closed 2-strand torus knots.
"""

from __future__ import annotations

from typing import NamedTuple

from .contfrac import Word, check_even_word, format_word, negate, rev_neg, sign_changes


def crossing_number(word: Word) -> int:
    return sum(map(abs, word)) - sign_changes(word)


def braid_index(word: Word) -> int:
    return sum(map(abs, word)) // 2 - sign_changes(word) + 1


def canonical_word(word: Word) -> Word:
    """Lexicographic minimum of {w, rev_neg(w)}: the class representative."""
    word = tuple(word)
    return min(word, rev_neg(word))


def mirror_orbit(word: Word) -> tuple[Word, ...]:
    """The up-to-mirror orbit {w, rev_neg(w), negate(w), reverse(w)}, deduplicated."""
    word = tuple(word)
    negated = negate(word)
    return tuple(sorted({word, negated[::-1], negated, word[::-1]}))


def mirror_canonical_word(word: Word) -> Word:
    return mirror_orbit(word)[0]


class KnotClass(NamedTuple):
    """Canonical representative of a two-bridge knot, invariants attached.

    Knots order by their fields, canonical word first.
    """

    canon: Word
    crossing: int
    braid: int
    genus: int
    signchg: int


def knot_from_word(word: Word) -> KnotClass:
    """The knot of a reduced even word, in O(length).

    Every such word is a knot, so its fraction is not evaluated: the
    continuant fold (p, q) <- (q, e q + p) is a swap mod 2 for even e,
    and from (0, 1) an even number of swaps ends at an odd denominator q.
    """
    word = check_even_word(word)
    canon = min(word, rev_neg(word))
    total = sum(map(abs, canon))
    signchg = sign_changes(canon)
    # tuple.__new__ skips the NamedTuple's Python-level __new__, as OrsParams does
    fields = (canon, total - signchg, total // 2 - signchg + 1, len(canon) // 2, signchg)
    return tuple.__new__(KnotClass, fields)


def is_torus_two_strand(knot: KnotClass) -> int | None:
    """Odd parameter p of the 2-strand torus knot T(p, 2), or None.

    Braid index 2 forces the word to be strictly alternating with all
    entries of magnitude 2, in which case p = length + 1.
    """
    if knot.braid != 2:
        return None
    if any(abs(e) != 2 for e in knot.canon) or knot.signchg != len(knot.canon) - 1:
        raise ValueError(f"braid index 2 but {knot.canon} is not a strictly alternating +-2 word")
    return len(knot.canon) + 1


# Rolfsen-style labels for the knots that show up by name in reports, keyed
# by canonical word, so each chirality of 3_1 and 5_1 has its own entry;
# everything else is shown as its word.
KNOT_NAMES = {
    (-2, 2): "3_1",
    (2, -2): "3_1",
    (-2, -2): "4_1",
    (-2, 2, -2, 2): "5_1",
    (2, -2, 2, -2): "5_1",
}


def display_name(knot: KnotClass) -> str:
    return KNOT_NAMES.get(knot.canon) or format_word(knot.canon)
