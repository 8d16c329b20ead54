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

from dataclasses import dataclass

from .contfrac import (
    Word,
    _continuant,
    check_even_word,
    format_word,
    negate,
    rev_neg,
    reverse,
    sign_changes,
)


class NotAKnot(ValueError):
    """Defensive: the word's fraction has an even denominator.

    Cannot happen for a valid reduced even word; raising instead of
    silently continuing keeps the representation assumption honest.
    """


def crossing_number(word: Word) -> int:
    return sum(abs(e) for e in word) - sign_changes(word)


def braid_index(word: Word) -> int:
    return sum(abs(e) for e in word) // 2 - sign_changes(word) + 1


def genus(word: Word) -> int:
    return len(word) // 2


def canonical_word(word: Word) -> Word:
    """Lexicographic minimum of {w, rev_neg(w)}: the class representative."""
    word = tuple(word)
    return min(word, rev_neg(word))


def mirror_orbit(word: Word) -> tuple[Word, ...]:
    """The up-to-mirror orbit {w, rev_neg(w), negate(w), reverse(w)}, deduplicated."""
    word = tuple(word)
    return tuple(sorted({word, rev_neg(word), negate(word), reverse(word)}))


def mirror_canonical_word(word: Word) -> Word:
    return mirror_orbit(word)[0]


@dataclass(frozen=True, order=True)
class KnotClass:
    """Canonical representative of a two-bridge knot, invariants attached."""

    canon: Word
    crossing: int
    braid: int
    genus: int
    signchg: int

    def to_json(self) -> dict:
        return {
            "word": format_word(self.canon),
            "crossing": self.crossing,
            "braid": self.braid,
            "genus": self.genus,
        }


def knot_from_word(word: Word) -> KnotClass:
    word = check_even_word(word)
    if _continuant(word)[1] % 2 == 0:
        raise NotAKnot(f"{word} evaluates to an even-denominator fraction")
    canon = min(word, rev_neg(word))
    total = sum(map(abs, canon))
    signchg = sign_changes(canon)
    return KnotClass(
        canon=canon,
        crossing=total - signchg,
        braid=total // 2 - signchg + 1,
        genus=len(canon) // 2,
        signchg=signchg,
    )


def mirror_class(knot: KnotClass) -> KnotClass:
    """The knot's class up to mirror image, as the class of its mirror-canonical word."""
    return knot_from_word(mirror_canonical_word(knot.canon))


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


# Rolfsen-style labels for the knots that show up by name in reports.
# Keys are mirror-canonical words; everything else is shown as its word.
KNOT_NAMES = {
    (-2, 2): "3_1",
    (-2, -2): "4_1",
    (-2, 2, -2, 2): "5_1",
}


def display_name(knot: KnotClass) -> str:
    return KNOT_NAMES.get(mirror_canonical_word(knot.canon), format_word(knot.canon))
