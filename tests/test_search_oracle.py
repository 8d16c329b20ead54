"""Differential test: the ORS parser against generate-and-match.

The oracle is the search the parser replaced: it enumerates every
candidate target from the census, and for every target pattern and r
it enumerates every connector vector within the crossing overshoot and
every admissible sign vector, composes each tuple and keeps those whose
canonical form is the big knot's.  It shares neither candidate
generation nor matching with the search it checks.  It is exponential
in the overshoot, so it is run only where it is cheap.

The second oracle is the parser as it was before it read each pattern
once: ``_parse`` and ``_search`` below are kept as they were, and they
loop over r, reading the word from its first entry for each r.  They
are run on every knot with c <= 16, on T(p,2) for p <= 401 and on
seeded compositions with r <= 4.
"""

import random
from itertools import accumulate, product

import pytest

from bridgekit.census import enumerate_words
from bridgekit.contfrac import Word, format_word, rev_neg, reverse
from bridgekit.epim import (
    AuditFailure,
    EpiWitness,
    OrsParams,
    _orientations,
    admits_epi,
    audit_params,
    epi_targets,
    is_minimal,
    ors_compose,
)
from bridgekit.knot import KnotClass, canonical_word, crossing_number, knot_from_word


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


def random_composition(rng, c, r_max=2):
    """A word of crossing number c that maps onto a small knot by construction."""
    pool = [word for small_c in range(3, 6) for word in enumerate_words(small_c)]
    while True:
        target = rng.choice(pool)
        r = rng.randint(1, r_max)
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


# ---------------------------------------------------------------------------
# The r-loop parser, one read of the word per r
# ---------------------------------------------------------------------------


def _pattern(word: Word, n: int, last: int) -> Word:
    """The length-n target read off ``word``: its first n-1 entries, then ``last``."""
    return word[: n - 1] + (last,)


def _parse(
    word: Word, n: int, last: int, r: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Signs and connectors of an interleaving of ``_pattern(word, n, last)`` spelling ``word``.

    One state per block; None as soon as no (eps, cvec) can fit.  The
    pattern was read off the word, so the first block's first entry
    matches (eps_1 = +1); every later block's first entry is read
    before the block.  A block's last entry e = eps_j * block_j[-1]
    decides the boundary: 2e is a zero connector whose merge kept the
    sign, while e is followed by a connector 2c_j and then by +-e, the
    next block's first entry, which gives its sign.
    """
    # the last entry of each block equals the first entry of the next
    pattern = _pattern(word, n, last)
    shapes = (pattern, reverse(pattern))
    end = len(word) - 1
    eps, cvec = [1], []
    start = 1
    for j in range(2 * r + 1):
        sign, block = eps[j], shapes[j % 2]
        stop = start + n - 2
        if stop > end or word[start:stop] != tuple(sign * e for e in block[1:-1]):
            return None
        edge = sign * block[-1]
        if j == 2 * r:
            return (tuple(eps), tuple(cvec)) if stop == end and word[stop] == edge else None
        if word[stop] == 2 * edge:
            eps.append(sign)
            cvec.append(0)
            start = stop + 1
        elif word[stop] == edge and stop + 2 <= end and word[stop + 2] in (edge, -edge):
            eps.append(sign if word[stop + 2] == edge else -sign)
            cvec.append(word[stop + 1] // 2)
            start = stop + 3
        else:
            return None


def _search(
    big: KnotClass,
    small: KnotClass | None = None,
    *,
    stop_at_first: bool = False,
) -> list[EpiWitness]:
    """Witnesses onto every proper target, or onto ``small`` only if given."""
    found: list[EpiWitness] = []
    length = len(big.canon)
    wanted = None if small is None else _orientations(small.canon)
    # 2r+1 blocks of length n take at least (2r+1)(n-1)+1 entries, r >= 1
    top = (length - 1) // 3 + 1
    for word in _orientations(big.canon):
        # crossing number of word[:k] for every k <= top, in one pass
        prefix = list(
            accumulate((abs(b) - (a * b < 0) for a, b in zip((0,) + word, word[:top])), initial=0)
        )
        for n in range(2, top + 1, 2):
            # The first block is the target (eps_1 = +1); a zero first
            # connector merges the block's last entry into twice itself,
            # which keeps its sign and halves its crossings.  A target
            # is spelled out only where it is parsed or compared.
            edge = word[n - 1]
            lasts = [(edge, prefix[n])]
            if edge % 4 == 0:
                lasts.append((edge // 2, prefix[n] - abs(edge) // 2))
            for last, crossing in lasts:
                # Proper targets only: an image has at most a third of
                # the big knot's crossings, which also rules out itself.
                if 3 * crossing > big.crossing or (
                    wanted is not None
                    and (n != len(small.canon) or _pattern(word, n, last) not in wanted)
                ):
                    continue
                r = 1
                while (2 * r + 1) * crossing <= big.crossing and (2 * r + 1) * (n - 1) < length:
                    # Each zero connector shortens the composition by two
                    # entries; both lengths are even, so the count is an
                    # integer, and the length test above is zeros <= 2r.
                    zeros = ((2 * r + 1) * n + 2 * r - length) // 2
                    parsed = _parse(word, n, last, r) if zeros >= 0 else None
                    if parsed is not None:
                        pattern = _pattern(word, n, last)
                        params = OrsParams(pattern, r, *parsed)
                        composed = ors_compose(params)
                        if canonical_word(composed) != big.canon:
                            raise AuditFailure(
                                f"parsed parameters do not recompose to"
                                f" {format_word(big.canon)}: {params}"
                            )
                        target = knot_from_word(pattern) if small is None else small
                        audit = audit_params(params, composed)
                        found.append(EpiWitness(big, target, params, audit))
                        if stop_at_first:
                            return found
                    r += 1
    return sorted(found, key=EpiWitness.sort_key)



FIGURE_EIGHT = knot_from_word((2, 2))
TREFOIL = knot_from_word((2, -2))


def assert_same_as_rloop(big):
    expected = _search(big)
    assert epi_targets(big) == expected, big.canon
    assert is_minimal(big) == (not _search(big, stop_at_first=True)), big.canon
    for small in {w.small for w in expected} | {FIGURE_EIGHT, TREFOIL}:
        first = _search(big, small)
        assert admits_epi(big, small) == (first[0] if first else None), big.canon


def test_rloop_agrees_on_every_knot_up_to_16_crossings():
    witnessed = 0
    for c in range(3, 17):
        for word in enumerate_words(c):
            big = knot_from_word(word)
            assert_same_as_rloop(big)
            witnessed += not is_minimal(big)
    assert witnessed == 330  # the non-minimal knots with c <= 16


def test_rloop_agrees_on_torus_knots_up_to_401():
    for p in range(3, 402, 2):
        assert_same_as_rloop(knot_from_word((2, -2) * ((p - 1) // 2)))


def test_rloop_agrees_on_seeded_compositions():
    rng = random.Random(2024)
    top_r = 0
    for c in range(13, 41):
        for _ in range(20):
            big = knot_from_word(random_composition(rng, c, r_max=4))
            assert_same_as_rloop(big)
            top_r = max([top_r] + [w.params.r for w in epi_targets(big)])
    assert top_r == 4
