"""Differential oracle for the census enumerator.

The census builds each slice's compositions once and lets the sign
vector decide which words are canonical.  The generate-then-filter
enumerator it replaced is kept below as it was, with its own copies of
the symmetries: compositions rebuilt for every sign vector, every word
compared with its reverse-negation, and the mirror test against
min(negate, reverse).  The two must emit the same words in the same
order and agree on every mirror verdict.

``brute_counts`` counts each slice's knots and mirror classes as
Burnside orbits of the symmetry group, without comparing any words.  The
word-by-word tally it replaced is kept below as it was, run over the
oracle enumerator, and must give equal rows, per-ell counts, mirror
counts and genus total included; ``census.enumerate_words`` emits the
same words, so this also checks its canonicity test against a count
that does not use it.

``brute_counts`` steps each slice's binomial counts of sign vectors,
compositions and their palindromes along m by exact ratios.  Burnside
over a tally of the listed sign vectors and compositions, slice by slice,
must give the same rows through c = 26, past the reach of the word tally.
"""

import hashlib
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from bridgekit import census
from bridgekit.census import CensusRow, ResourceBound, SignClassCount
from bridgekit.epim import EPI_GRAPH_C_MAX

import _oracles


def reverse(word):
    return tuple(reversed(word))


def negate(word):
    return tuple(-e for e in word)


def rev_neg(word):
    return tuple(-e for e in reversed(word))


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations(range(1, total), parts - 1):
        previous = 0
        out = []
        for cut in cuts:
            out.append(cut - previous)
            previous = cut
        out.append(total - previous)
        yield tuple(out)


def _sign_vectors(length, changes):
    for lead in (1, -1):
        for gaps in combinations(range(length - 1), changes):
            gapset = frozenset(gaps)
            out = [lead]
            current = lead
            for i in range(length - 1):
                if i in gapset:
                    current = -current
                out.append(current)
            yield tuple(out)


def _ell_values(c, m):
    low = 0 if c % 2 == 0 else 1
    low = max(low, 4 * m - c)
    if low % 2 != c % 2:
        low += 1
    return range(low, 2 * m, 2)


def _partitions(c, ell=None):
    for m in range(1, (c - 1) // 2 + 1):
        for ell_value in _ell_values(c, m):
            if ell is None or ell_value == ell:
                yield m, ell_value


def _raw_words(c, *, ell=None):
    for m, ell_value in _partitions(c, ell):
        total = (c + ell_value) // 2
        for signs in _sign_vectors(2 * m, ell_value):
            steps = tuple(2 * s for s in signs)
            for parts in _compositions(total, 2 * m):
                yield tuple(map(mul, steps, parts))


def enumerate_words(c, *, ell=None):
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    for word in _raw_words(c, ell=ell):
        if word <= rev_neg(word):
            yield word


def is_mirror_representative(word):
    return word <= min(negate(word), reverse(word))


@pytest.mark.parametrize("c", range(3, 20))
def test_same_words_in_same_order(c):
    assert list(census.enumerate_words(c)) == list(enumerate_words(c))
    assert list(_oracles.raw_words(c)) == list(_raw_words(c))


@pytest.mark.parametrize("c", [17, 18, 19])
def test_every_ell_slice_matches(c):
    ells = sorted({ell for _, ell in _partitions(c)})
    assert len(ells) > 4
    for ell in ells:
        assert list(census.enumerate_words(c, ell=ell)) == list(enumerate_words(c, ell=ell)), ell


def test_words_at_21_match_recorded_digest():
    # recorded while canonicity was decided from the end entries and a full compare
    words = repr(list(census.enumerate_words(21)))
    digest = "930edc7dac0d8e6482c308482f516c6e318a30b7a74eb43a7f02d302ac519e30"
    assert hashlib.sha256(words.encode()).hexdigest() == digest


def test_mirror_representative_matches_on_every_word():
    checked = 0
    for c in range(3, 19):
        for word in _raw_words(c):
            checked += 1
            assert _oracles.is_mirror_representative(word) == is_mirror_representative(word), word
    assert checked == 87380


def assemble_row(c, by_ell, by_ell_star, genus_total):
    tk = sum(by_ell.values())
    ts = sum(ell * n for ell, n in by_ell.items())
    tk_star = sum(by_ell_star.values())
    ts_star = sum(ell * n for ell, n in by_ell_star.items())
    return CensusRow(
        c=c,
        tk=tk,
        ts=ts,
        tk_star=tk_star,
        ts_star=ts_star,
        avg_braid=Fraction((c + 2) * tk - ts, 2 * tk),
        avg_braid_star=Fraction((c + 2) * tk_star - ts_star, 2 * tk_star),
        avg_genus=Fraction(genus_total, tk),
        by_ell=tuple(SignClassCount(c, ell, by_ell[ell]) for ell in sorted(by_ell)),
    )


def brute_counts(c, *, ceiling=EPI_GRAPH_C_MAX):
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    if c > ceiling:
        raise ResourceBound(f"c={c} exceeds the enumeration ceiling {ceiling}")
    by_ell = {}
    by_ell_star = {}
    genus_total = 0
    for ell in sorted({ell for _, ell in _partitions(c)}):
        count = star = 0
        for word in enumerate_words(c, ell=ell):
            count += 1
            genus_total += len(word) // 2
            if is_mirror_representative(word):
                star += 1
        by_ell[ell] = count
        by_ell_star[ell] = star
    return assemble_row(c, by_ell, by_ell_star, genus_total)


@pytest.mark.parametrize("c", range(3, 21))
def test_counts_match_word_by_word_tally(c):
    assert census.brute_counts(c) == brute_counts(c)


def slice_tally(c):
    """Burnside over each slice's listed sign vectors and compositions.

    A word 2 s_i p_i is fixed by rev_neg or reverse iff p is a palindrome
    and s reversed is -s or s; negate fixes none.
    """
    by_ell, by_ell_star, genus_total = {}, {}, 0
    for m, ell in _partitions(c):
        signs = list(_sign_vectors(2 * m, ell))
        parts = census._compositions((c + ell) // 2, 2 * m)
        words = len(signs) * len(parts)
        fixed = sum(s[::-1] in (s, negate(s)) for s in signs) * sum(p == p[::-1] for p in parts)
        knots, rest = divmod(words + fixed * (ell % 2), 2)
        star, rest_star = divmod(words + fixed, 4)
        assert rest == rest_star == 0, (m, ell)
        by_ell[ell] = by_ell.get(ell, 0) + knots
        by_ell_star[ell] = by_ell_star.get(ell, 0) + star
        genus_total += m * knots
    return assemble_row(c, by_ell, by_ell_star, genus_total)


@pytest.mark.parametrize("c", range(3, 27))
def test_binomial_below_matches_composition_tally(c):
    assert census.brute_counts(c) == slice_tally(c)
