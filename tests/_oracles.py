"""Census helpers that only the test suite needs.

``raw_words`` lists every reduced even word of a crossing number, not
only the canonical ones, through the census's own slices; tests use it
to audit that ``enumerate_words`` emits each class exactly once.
``is_mirror_representative`` picks one canonical word per mirror pair.
``tests/test_census_oracle.py`` checks both against independent copies.
"""

from bridgekit.census import _slices, _words


def raw_words(c: int, *, ell: int | None = None):
    """Every reduced even word with crossing number c, each exactly once."""
    for parts, _, sign_vectors in _slices(c, ell):
        for signs in sign_vectors:
            yield from _words(signs, parts)


def is_mirror_representative(word) -> bool:
    """True iff this class-canonical word also represents its mirror pair.

    The mirror knot's class is canonicalized by min(negate, reverse);
    keeping only words at most that quotients the census by mirror
    image, with equality covering the amphichiral case.  A word is at
    most its negation exactly when its lead entry is negative.
    """
    return word[0] < 0 and word <= word[::-1]
