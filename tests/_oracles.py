"""Helpers that only the test suite needs.

``raw_words`` lists every reduced even word of a crossing number, not
only the canonical ones, through the census's own slices; tests use it
to audit that ``enumerate_words`` emits each class exactly once.
``is_mirror_representative`` picks one canonical word per mirror pair.
``tests/test_census_oracle.py`` checks both against independent copies.
``closed_n`` is the census's N(c, ell) as it was before its binomial
partial sums were collapsed to powers of two; tests compare the closed
form against it.  ``witness_json`` and the functions it calls give each
record as the dict that ``json.dumps`` writes; ``cli.witness_writer``
must write the same bytes.  ``genus`` is a word's genus, its number of
entry pairs.
"""

from math import comb

from bridgekit.census import _sign_vectors, _slices, _words
from bridgekit.contfrac import format_word


def raw_words(c: int, *, ell: int | None = None):
    """Every reduced even word with crossing number c, each exactly once."""
    for m, ell_value, parts in _slices(c, ell):
        for signs in _sign_vectors(2 * m, ell_value):
            yield from _words(signs, parts)


def is_mirror_representative(word) -> bool:
    """True iff this class-canonical word also represents its mirror pair.

    The mirror knot's class is canonicalized by min(negate, reverse);
    keeping only words at most that quotients the census by mirror
    image, with equality covering the amphichiral case.  A word is at
    most its negation exactly when its lead entry is negative.
    """
    return word[0] < 0 and word <= word[::-1]


def closed_n(c: int, ell: int) -> int:
    """Number of c-crossing knots whose word has exactly ell sign changes.

    Zero whenever the parity or range constraints fail (ell must match
    c mod 2; ell <= c - 4 for even c, ell <= c - 2 for odd c).
    """
    if c < 3 or ell < 0 or (c - ell) % 2:
        return 0
    if c % 2 == 0:
        k, l = c // 2, ell // 2
        if l > k - 2:
            return 0
        return comb(k + l - 1, 2 * l) * sum(
            comb(k - l - 1, 2 * m - 2 * l - 1) for m in range(l + 1, (k + l) // 2 + 1)
        )
    k, l = (c - 1) // 2, (ell - 1) // 2
    if l > k - 1:
        return 0
    value = comb(k + l, 2 * l + 1) * sum(
        comb(k - l - 1, 2 * m - 2 * l - 2) for m in range(l + 1, (k + l + 1) // 2 + 1)
    )
    if (k + l + 1) % 2 == 0:
        value += comb((k + l - 1) // 2, l) * sum(
            comb((k - l - 1) // 2, m - l - 1) for m in range(l + 1, (k + l + 1) // 2 + 1)
        )
    return value


def genus(word) -> int:
    return len(word) // 2


def knot_json(knot) -> dict:
    return {
        "word": format_word(knot.canon),
        "crossing": knot.crossing,
        "braid": knot.braid,
        "genus": knot.genus,
    }


def params_json(params) -> dict:
    return {
        "target": format_word(params.target),
        "r": params.r,
        "eps": list(params.eps),
        "cvec": list(params.cvec),
    }


def witness_json(witness) -> dict:
    return {
        "big": knot_json(witness.big),
        "small": knot_json(witness.small),
        "params": params_json(witness.params),
        "audit": witness.audit._asdict(),
    }
