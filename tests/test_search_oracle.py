"""Differential test: the ORS parser against generate-and-match.

The oracle is the search the parser replaced: it enumerates every
candidate target from the census, and for every target pattern and r
it enumerates every connector vector within the crossing overshoot and
every admissible sign vector, composes each tuple and keeps those whose
canonical form is the big knot's.  It shares neither candidate
generation nor matching with the search it checks.  It is exponential
in the overshoot, so it is run only where it is cheap.
"""

import random
from itertools import product

import pytest

from bridgekit.census import enumerate_words
from bridgekit.contfrac import rev_neg
from bridgekit.epim import (
    EpiWitness,
    OrsParams,
    admits_epi,
    audit_params,
    epi_targets,
    is_minimal,
    ors_compose,
)
from bridgekit.knot import canonical_word, crossing_number, knot_from_word


def _target_candidates(big):
    """Every target knot with 3 <= c <= c(big)/3, in both orientations."""
    for c_small in range(3, big.crossing // 3 + 1):
        for word in enumerate_words(c_small):
            small = knot_from_word(word)
            other = rev_neg(small.canon)
            for pattern in (small.canon,) if other == small.canon else (small.canon, other):
                yield small, pattern


def _connector_vectors(slots, budget):
    """All connector tuples whose nonzero entries overshoot by at most ``budget``."""
    if slots == 0:
        yield ()
        return
    for value in range(-(budget + 1), budget + 2):
        cost = 0 if value == 0 else abs(value) - 1
        if cost <= budget:
            for rest in _connector_vectors(slots - 1, budget - cost):
                yield (value,) + rest


def _sign_assignments(cvec):
    """All sign vectors consistent with the zero-connector constraint."""
    free = [j for j, cj in enumerate(cvec) if cj != 0]
    for bits in product((1, -1), repeat=len(free)):
        eps = [1]
        chosen = iter(bits)
        for j, cj in enumerate(cvec):
            eps.append(eps[j] if cj == 0 else next(chosen))
        yield tuple(eps)


def oracle_targets(big):
    found = []
    for small, pattern in _target_candidates(big):
        r = 1
        while (2 * r + 1) * small.crossing <= big.crossing:
            overshoot = (big.crossing - (2 * r + 1) * small.crossing) // 2
            for cvec in _connector_vectors(2 * r, overshoot):
                for eps in _sign_assignments(cvec):
                    params = OrsParams(pattern, r, eps, cvec)
                    composed = ors_compose(params)
                    if crossing_number(composed) != big.crossing:
                        continue
                    if canonical_word(composed) != big.canon:
                        continue
                    found.append(
                        EpiWitness(
                            big=big,
                            small=small,
                            params=params,
                            audit=audit_params(params, composed),
                        )
                    )
            r += 1
    return sorted(found, key=EpiWitness.sort_key)


def assert_agrees(big):
    expected = oracle_targets(big)
    assert epi_targets(big) == expected, big.canon
    assert is_minimal(big) == (not expected), big.canon
    for small in {w.small for w in expected}:
        first = next(w for w in expected if w.small == small)
        assert admits_epi(big, small) == first, big.canon


def test_every_knot_up_to_12_crossings():
    witnessed = 0
    for c in range(3, 13):
        for word in enumerate_words(c):
            big = knot_from_word(word)
            assert_agrees(big)
            witnessed += bool(epi_targets(big))
    # the sweep must exercise matches, not only agree on empty lists
    assert witnessed > 20


def random_composition(rng, c):
    """A word of crossing number c that maps onto a small knot by construction."""
    pool = [word for small_c in range(3, 6) for word in enumerate_words(small_c)]
    while True:
        target = rng.choice(pool)
        r = rng.randint(1, 2)
        cvec = tuple(rng.randint(-2, 2) for _ in range(2 * r))
        eps = [1]
        for j, cj in enumerate(cvec):
            eps.append(eps[j] if cj == 0 else rng.choice((1, -1)))
        word = ors_compose(OrsParams(target, r, eps, cvec))
        if crossing_number(word) == c:
            # the mirror image maps onto the target's mirror image
            return word if rng.random() < 0.5 else tuple(-e for e in word)


@pytest.mark.parametrize("c", [13, 14, 15, 16])
def test_seeded_random_knots(c):
    rng = random.Random(1000 + c)
    sample = rng.sample(list(enumerate_words(c)), 10)
    sample += [random_composition(rng, c) for _ in range(10)]
    if c % 2:
        sample.append((2, -2) * ((c - 1) // 2))
    for word in sample:
        assert_agrees(knot_from_word(word))
