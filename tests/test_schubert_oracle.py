"""Schubert's classification as a word-free oracle for the census.

Two-bridge knots are K(p/q) with p odd and 0 < q < p coprime, and
K(p/q) = K(p/q') exactly when q' = q^(+-1) (mod p); the mirror image of
K(p/q) is K(p/-q) (Schubert, Math. Z. 65, 1956).  The crossing number of
K(p/q) is the sum of the partial quotients of p/q's regular continued
fraction, whose alternating diagram is reduced (Kauffman; Murasugi;
Thistlethwaite, 1987).

So every census word names a key (p, min(q, q^-1 mod p)) that no other
census word of any crossing number names, and the words of crossing
number c name exactly the keys whose partial quotients sum to c.  The
checks below reason about fractions, not about words and their
reverse-negation: a canonicity rule that keeps two words of one knot
shows as a repeated key, one that drops a knot as a missing one.  The
word w = (x1, ..., xn) has p/q = x1 + 1/(x2 + ... + 1/xn), folded here
by its own continuant, so the oracle shares no code with ``contfrac``.
"""

from collections import defaultdict

import pytest

from bridgekit.census import closed_tk, closed_tk_star, enumerate_words

import _oracles


def schubert_pair(word):
    """(p, q) with 0 < q < p and K(p/q) the knot of the word."""
    num, den = 1, 0  # x_n + 1/(...) as num/den, folded from the innermost entry
    for entry in reversed(word):
        num, den = entry * num + den, num
    p = abs(num)
    return p, den * (1 if num > 0 else -1) % p


def quotient_sum(p, q):
    """(sum of the partial quotients of p/q, gcd(p, q)) by Euclid's algorithm."""
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total, p


def key(p, q):
    """The knot K(p/q): the least of q and its inverse mod p."""
    return p, min(q, pow(q, -1, p))


def mirror_key(p, q):
    """K(p/q) up to mirror image: the least key over +q and -q."""
    return min(key(p, q), key(p, p - q))


def pair_listing(c_max):
    """The keys of every p/q, p odd and 0 < q < p coprime, whose partial
    quotients sum to c <= c_max, by c; p is at most the Fibonacci number
    F(c_max + 1), the largest p whose quotients sum to c_max."""
    fib = [0, 1]
    while len(fib) < c_max + 2:
        fib.append(fib[-1] + fib[-2])
    keys = defaultdict(set)
    for p in range(3, fib[c_max + 1] + 1, 2):
        for q in range(1, p):
            total, gcd = quotient_sum(p, q)
            if gcd == 1 and total <= c_max:
                keys[total].add(key(p, q))
    return keys


@pytest.mark.parametrize("c", range(3, 21))
def test_census_words_are_the_knots_of_their_crossing_number(c):
    pairs = [schubert_pair(word) for word in enumerate_words(c)]
    for p, q in pairs:
        assert p % 2 == 1 and 0 < q < p
        assert quotient_sum(p, q) == (c, 1), (p, q)
    keys = [key(p, q) for p, q in pairs]
    assert len(set(keys)) == len(keys) == closed_tk(c)
    mirror_keys = {mirror_key(p, q) for p, q in pairs}
    assert len(mirror_keys) == closed_tk_star(c)


@pytest.mark.parametrize("c", range(3, 16))
def test_mirror_representatives_name_each_mirror_class_once(c):
    words = [word for word in enumerate_words(c) if _oracles.is_mirror_representative(word)]
    mirror_keys = {mirror_key(*schubert_pair(word)) for word in words}
    assert len(mirror_keys) == len(words) == closed_tk_star(c)


def test_census_keys_are_the_pair_listing_through_15():
    listing = pair_listing(15)
    for c in range(3, 16):
        census_keys = {key(*schubert_pair(word)) for word in enumerate_words(c)}
        assert census_keys == listing[c], c
