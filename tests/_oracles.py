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
entry pairs.  ``matches_per_candidate`` is the clause matcher written from
the ``classify`` docstring alone: it shares only the clause table
``CLAUSES`` with it, and tries every slot tuple against the position rule.
"""

from itertools import combinations, product
from math import comb

from bridgekit.census import _sign_vectors, _slices, _words
from bridgekit.classify import CLAUSES
from bridgekit.contfrac import check_even_word, format_word


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


# The spot each mark leaves: D and Z an entry 4, T an entry 6, F a repeated sign
MARK_SPOT = {"D": 4, "Z": 4, "T": 6, "F": "repeat"}
# How many places before its connector each mark's spot sits
MARK_BEFORE = {"D": (0,), "T": (0,), "Z": (1,), "F": (0, 1)}


def matches_per_candidate(word) -> tuple:
    """The clauses ``word`` satisfies, as plain tuples in NonminimalType's field order.

    Written from the ``classify`` docstring, sharing only ``CLAUSES``.  Each
    word of the mirror orbit that leads positive reads its own spots: the
    positions of its 4s and 6s, and the first position of each pair of
    entries of one sign.  A clause matches at (r, m) when its marks take
    every spot, one each, marks of one letter left to right, and
    (2r+1)(2m+1) = length + 1 + 2 #Z.  Every slot tuple in 1..2r is then
    tried against the position rule: connector j sits at j(2m+1), two places
    further left per zeroed connector before it; D and T sit at their
    connector, a zero's 4 one place before it, a repeat at it or one place
    before; a zeroed slot takes no other mark.  The matches are sorted by
    kind in ``CLAUSES`` order, r, m, slots, spots and word.
    """
    word = check_even_word(word)
    changes = sum(1 for a, b in zip(word, word[1:]) if a * b < 0)
    braid = sum(abs(e) for e in word) // 2 - changes + 1
    if braid not in (2, 3, 4):
        raise ValueError(f"classification covers braid index 2..4 only: {word}")
    negated = tuple(-e for e in word)
    orbit = {word, negated, word[::-1], negated[::-1]}
    found = set()
    for candidate in (w for w in orbit if w[0] > 0):
        length = len(candidate)
        spots = {
            4: [i for i, e in enumerate(candidate, 1) if abs(e) == 4],
            6: [i for i, e in enumerate(candidate, 1) if abs(e) == 6],
            "repeat": [i for i in range(1, length) if candidate[i - 1] * candidate[i] > 0],
        }
        for kind, marks in CLAUSES.items():
            wanted = [MARK_SPOT[x] for x in marks]
            if any(wanted.count(spot) != len(at) for spot, at in spots.items()):
                continue
            tiles = length + 1 + 2 * marks.count("Z")
            factors = [
                (r, (tiles // (2 * r + 1) - 1) // 2)
                for r in range(1, tiles)
                if tiles % (2 * r + 1) == 0 and tiles // (2 * r + 1) >= 3
            ]
            for at in product(*(spots[spot] for spot in wanted)):
                pairs = combinations(zip(marks, at), 2)
                if any(
                    MARK_SPOT[x] == MARK_SPOT[y] and (i == k or (x == y and i > k))
                    for (x, i), (y, k) in pairs
                ):
                    continue  # a spot taken twice, or marks of one letter out of order
                i0, i1 = (*at, None, None)[:2]
                for r, m in factors:
                    for slots in _rule_slots(marks, at, r, 2 * m + 1):
                        j0, j1 = (*slots, None, None)[:2]
                        found.add((kind, candidate, r, m, i0, i1, j0, j1))
    rank = {kind: n for n, kind in enumerate(CLAUSES)}

    def order(match):
        kind, candidate, r, m, i0, i1, j0, j1 = match
        return rank[kind], r, m, j0 or 0, j1 or 0, i0 or 0, i1 or 0, candidate

    return tuple(sorted(found, key=order))


def _rule_slots(marks, at, r, period):
    """Every slot tuple in 1..2r that puts each mark on its spot by the position rule.

    A mark's spot sits at most one place before its connector, which sits at
    most two places left of j(2m+1) per zero: so a slot j with j(2m+1) - i
    outside 0..1 + 2 #Z is passed over before the rule is tried.
    """
    reach = range(2 + 2 * marks.count("Z"))
    options = [[j for j in range(1, 2 * r + 1) if j * period - i in reach] for i in at]
    found = []
    for slots in product(*options):
        zeroed = [j for x, j in zip(marks, slots) if x == "Z"]
        if any(slots.count(z) > 1 for z in zeroed):
            continue
        connectors = [j * period - 2 * sum(z < j for z in zeroed) for j in slots]
        if all(c - i in MARK_BEFORE[x] for x, i, c in zip(marks, at, connectors)):
            found.append(slots)
    return found
